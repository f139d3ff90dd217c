/**
 * @file
 * Shared helpers for the reproduction benchmarks: paper-vs-measured
 * table printing, the `--json <path>` structured reporter that feeds
 * the repo's performance trajectory (BENCH_*.json), the prices of the
 * compiled FV.Mult and of single instructions the table benches
 * report, and the interleaved timer behind the wall-time ratios CI
 * gates on.
 */

#ifndef HEAT_BENCH_BENCH_UTIL_H
#define HEAT_BENCH_BENCH_UTIL_H

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "compiler/compiler.h"
#include "hw/cost.h"
#include "obs/metrics.h"

namespace heat::bench {

/**
 * The FV.Mult (tensor + relinearization) the serving layer runs for a
 * single Mult — the compiled one-node Mult circuit, which fits the
 * memory file and so compiles to one segment — priced per instruction:
 * every instruction pays its Arm dispatch, the paper's Table I
 * accounting. Its totalUs() is the modeled Mult latency,
 * relinearization-key DMA included.
 */
inline hw::ExecStats
compiledMultCost(const std::shared_ptr<const fv::FvParams> &params,
                 const hw::HwConfig &config)
{
    compiler::CompilerOptions options;
    options.hw = config;
    const compiler::CompiledCircuit mult = compiler::compileCircuit(
        params, compiler::singleOpCircuit(compiler::NodeKind::kMult),
        options);
    return hw::priceProgram(mult.segments.at(0).program,
                            hw::DispatchMode::kPerInstruction, params,
                            config);
}

/** Modeled microseconds of one @p op instruction dispatched on its own
 *  (a Table II row). */
inline double
instructionUs(const std::shared_ptr<const fv::FvParams> &params,
              const hw::HwConfig &config, hw::Opcode op)
{
    hw::Program program;
    program.instrs.resize(1);
    program.instrs[0].op = op;
    return hw::priceProgram(program, hw::DispatchMode::kPerInstruction,
                            params, config)
        .totalUs(config);
}

/** Print a table header. */
inline void
printHeader(const std::string &title)
{
    std::printf("\n=== %s ===\n", title.c_str());
    std::printf("%-42s %14s %14s %9s\n", "metric", "paper", "this repo",
                "ratio");
    std::printf("%.*s\n", 82,
                "-----------------------------------------------------------"
                "-----------------------");
}

/** Print one paper-vs-measured row. */
inline void
printRow(const std::string &metric, double paper, double ours,
         const char *unit)
{
    std::printf("%-42s %11.3f %s %11.3f %s %8.2fx\n", metric.c_str(), paper,
                unit, ours, unit, ours / paper);
}

/** Print a row without a paper reference. */
inline void
printInfo(const std::string &metric, double value, const char *unit)
{
    std::printf("%-42s %14s %11.3f %s\n", metric.c_str(), "-", value, unit);
}

/** Per-round wall times of bodies timed by timeInterleaved(). */
struct InterleavedTimes
{
    /** secs[k][r]: seconds per call of body k in round r. */
    std::vector<std::vector<double>> secs;

    /** @return body @p k's fastest round, in seconds per call. */
    double
    best(size_t k) const
    {
        return *std::min_element(secs[k].begin(), secs[k].end());
    }

    /** @return body @p k's median round, in seconds per call. */
    double
    median(size_t k) const
    {
        std::vector<double> rounds = secs[k];
        const auto mid = rounds.begin() + rounds.size() / 2;
        std::nth_element(rounds.begin(), mid, rounds.end());
        return *mid;
    }

    /**
     * @return the median over rounds of body @p num's time over body
     * @p den's in the same round. Drift slower than a round cancels
     * within each pair, and the median drops the rounds a preemption
     * hit on one side only; a ratio of per-side minima does neither.
     */
    double
    medianRatio(size_t num, size_t den) const
    {
        std::vector<double> ratios(secs[num].size());
        for (size_t r = 0; r < ratios.size(); ++r)
            ratios[r] = secs[num][r] / secs[den][r];
        const auto mid = ratios.begin() + ratios.size() / 2;
        std::nth_element(ratios.begin(), mid, ratios.end());
        return *mid;
    }
};

/**
 * Time @p bodies in @p rounds interleaved rounds of @p iters calls
 * each, after @p iters warm-up calls of every body. Each round times
 * every body back to back, in reverse order on odd rounds so neither
 * side always runs first.
 */
inline InterleavedTimes
timeInterleaved(const std::vector<std::function<void()>> &bodies,
                int rounds, int iters)
{
    for (const auto &body : bodies)
        for (int i = 0; i < iters; ++i)
            body();
    const size_t count = bodies.size();
    InterleavedTimes times{std::vector<std::vector<double>>(
        count, std::vector<double>(static_cast<size_t>(rounds)))};
    for (int r = 0; r < rounds; ++r) {
        for (size_t i = 0; i < count; ++i) {
            const size_t k = r % 2 == 0 ? i : count - 1 - i;
            const auto start = std::chrono::steady_clock::now();
            for (int j = 0; j < iters; ++j)
                bodies[k]();
            const auto stop = std::chrono::steady_clock::now();
            times.secs[k][static_cast<size_t>(r)] =
                std::chrono::duration<double>(stop - start).count() /
                iters;
        }
    }
    return times;
}

/** One structured measurement for the JSON-lines trajectory. */
struct JsonRecord
{
    std::string kernel; ///< measurement name
    double value = 0.0; ///< measured value in @ref unit
    std::string unit = "ns";
    size_t n = 0;      ///< polynomial degree (0 when not applicable)
    size_t moduli = 0; ///< RNS moduli count (0 when not applicable)
};

/**
 * Appends one JSON object per record to the file named by the
 * `--json <path>` command-line option (JSON-lines format). Without the
 * option every record() is a no-op, so benchmarks stay pure console
 * tools by default. The thread count is sampled at record() time via
 * heat::threadCount() so multi-threaded measurements tag themselves.
 */
class JsonReporter
{
  public:
    JsonReporter(std::string suite, int argc, char **argv)
        : suite_(std::move(suite))
    {
        for (int i = 1; i < argc; ++i) {
            if (std::string_view(argv[i]) != "--json")
                continue;
            // A following flag is not a path; don't swallow it.
            if (i + 1 < argc &&
                !std::string_view(argv[i + 1]).starts_with("--")) {
                path_ = argv[i + 1];
            } else {
                std::fprintf(stderr, "bench: --json needs a path; no "
                                     "records will be written\n");
            }
        }
    }

    /** @return true iff `--json <path>` was passed. */
    bool enabled() const { return !path_.empty(); }

    /** Append one record; no-op when not enabled(). */
    void
    record(const JsonRecord &r) const
    {
        if (!enabled())
            return;
        // Duplicate guard: two records with the same (kernel, unit, n,
        // moduli) key silently shadow each other in the trajectory
        // consumers (last-write-wins joins). Warn loudly but still
        // write — the duplicate is a bench bug to fix, not data to
        // drop.
        const std::string key = r.kernel + "|" + r.unit + "|" +
                                std::to_string(r.n) + "|" +
                                std::to_string(r.moduli);
        if (!seen_.insert(key).second)
            std::fprintf(stderr,
                         "bench: warning: duplicate record key "
                         "kernel=%s unit=%s n=%zu moduli=%zu\n",
                         r.kernel.c_str(), r.unit.c_str(), r.n,
                         r.moduli);
        std::FILE *f = std::fopen(path_.c_str(), "a");
        if (f == nullptr) {
            std::fprintf(stderr, "bench: cannot open %s for append\n",
                         path_.c_str());
            return;
        }
        // %.9g would print non-finite doubles as bare `inf`/`nan`
        // tokens, which are not JSON — emit null so the JSON-lines
        // consumers keep parsing (and gates on the record fail loudly
        // on the null instead of crashing on a syntax error).
        char value[40];
        if (std::isfinite(r.value))
            std::snprintf(value, sizeof value, "%.9g", r.value);
        else
            std::snprintf(value, sizeof value, "null");
        std::fprintf(f,
                     "{\"suite\":\"%s\",\"kernel\":\"%s\",\"value\":%s,"
                     "\"unit\":\"%s\",\"n\":%zu,\"moduli\":%zu,"
                     "\"threads\":%u}\n",
                     escape(suite_).c_str(), escape(r.kernel).c_str(),
                     value, escape(r.unit).c_str(), r.n, r.moduli,
                     threadCount());
        std::fclose(f);
    }

    /** Convenience overload mirroring printRow-style call sites. */
    void
    record(const std::string &kernel, double value, const char *unit,
           size_t n = 0, size_t moduli = 0) const
    {
        record(JsonRecord{kernel, value, unit, n, moduli});
    }

    /**
     * Append every sample of @p registry as one record: kernel is the
     * metric id (histograms expand to _count/_sum/_mean/_p50/_p99/_max
     * per obs::Registry::samples()), unit is the metric kind. Lets a
     * bench dump a service's whole metrics registry into the same
     * JSON-lines trajectory its latency numbers go to.
     */
    void
    recordMetrics(const obs::Registry &registry, size_t n = 0,
                  size_t moduli = 0) const
    {
        if (!enabled())
            return;
        for (const obs::MetricSample &s : registry.samples())
            record(JsonRecord{s.name, s.value, s.kind, n, moduli});
    }

  private:
    static std::string
    escape(const std::string &s)
    {
        std::string out;
        out.reserve(s.size());
        for (char c : s) {
            if (c == '"' || c == '\\')
                out.push_back('\\');
            out.push_back(c);
        }
        return out;
    }

    std::string suite_;
    std::string path_;
    /** Duplicate-record keys seen so far (record() is const on the
     *  reporting path; the guard is bookkeeping, not state). */
    mutable std::set<std::string> seen_;
};

} // namespace heat::bench

#endif // HEAT_BENCH_BENCH_UTIL_H
