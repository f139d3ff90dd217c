/**
 * @file
 * perfbench: the end-to-end benchmark of heat.
 *
 *   perfbench --workload mult4|pir8|ops_mix --seed N
 *             --seconds S --trace 0|1 [--trace-dir DIR]
 *
 * Runs one workload for S seconds and prints, as the last line of
 * standard output, one JSON object: {"correct", "attempted", "failed",
 * "metrics": {name: {"value", "unit"}}}. With --trace 0 the metrics are
 * the end-to-end ones; with --trace 1 they are the per-layer ones, and
 * the run's spans are written as a Chrome trace into DIR. Exits 1 when
 * any result differs from its reference or a self-check fails.
 */

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>

#include "perfbench.h"

namespace {

/** Shortest round-trip text of @p v (all its digits, no more). */
std::string
number(double v)
{
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, res.ptr);
}

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--trace-dir DIR]\n",
                 why);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    perfbench::RunOptions opt;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + key).c_str());
        const std::string val = argv[++i];
        try {
            if (key == "--workload") {
                opt.workload = val;
                have_workload = true;
            } else if (key == "--seed") {
                opt.seed = std::stoull(val);
            } else if (key == "--seconds") {
                opt.seconds = std::stod(val);
            } else if (key == "--trace") {
                opt.trace = std::stoi(val) != 0;
            } else if (key == "--trace-dir") {
                opt.trace_dir = val;
            } else {
                return usage(("unknown option " + key).c_str());
            }
        } catch (const std::exception &) {
            return usage(("bad value for " + key).c_str());
        }
    }
    if (!have_workload)
        return usage("--workload is required");
    if (!(opt.seconds > 0.0))
        return usage("--seconds must be positive");

    perfbench::SpanLog spans(opt.trace);
    perfbench::RunResult r;
    try {
        r = perfbench::runWorkload(opt, spans);
        if (opt.trace && !opt.trace_dir.empty())
            spans.write(opt.trace_dir + "/" + opt.workload + "-seed" +
                        std::to_string(opt.seed) + ".json");
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }

    std::string json = "{\"correct\": ";
    json += r.correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(r.attempted);
    json += ", \"failed\": " + std::to_string(r.failed);
    json += ", \"metrics\": {";
    bool first = true;
    for (const perfbench::Metric &m : r.metrics.items()) {
        if (!std::isfinite(m.value)) {
            std::fprintf(stderr, "perfbench: metric %s is not finite\n",
                         m.name.c_str());
            return 1;
        }
        json += first ? "" : ", ";
        first = false;
        json += "\"" + m.name + "\": {\"value\": " + number(m.value) +
                ", \"unit\": \"" + m.unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return r.correct ? 0 : 1;
}
