/**
 * @file
 * Shared pieces of the end-to-end benchmark: the metric sink, the span
 * log, small statistics helpers, and the entry points of the workload
 * runner (workloads.cc) and the per-layer probes (layers.cc).
 *
 * The benchmark drives heat from outside, through its public API only:
 * it never reaches into the service, compiler or simulator internals.
 * Spans are recorded around the calls it makes into each layer.
 */

#ifndef PERFBENCH_PERFBENCH_H
#define PERFBENCH_PERFBENCH_H

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "compiler/compiler.h"
#include "fv/keys.h"
#include "fv/params.h"
#include "obs/trace.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Wall milliseconds between two clock readings. */
inline double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/** One reported figure. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Ordered metric sink; names are checked against BENCHMARK.json by
 *  run.py. */
class Metrics
{
  public:
    void
    set(std::string name, double value, std::string unit)
    {
        items_.push_back({std::move(name), value, std::move(unit)});
    }

    const std::vector<Metric> &items() const { return items_; }

  private:
    std::vector<Metric> items_;
};

/**
 * In-memory span log (trace mode only). Every span carries its own id,
 * its parent's id, the request it belongs to (0 = none) and the layer
 * as its category. Spans are written as a Chrome trace at exit; a
 * disabled log records nothing.
 */
class SpanLog
{
  public:
    explicit SpanLog(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** @return a fresh span id (0 when disabled), for a parent span
     *  that is recorded after its children. */
    uint64_t reserve() { return enabled_ ? next_id_++ : 0; }

    /** Record a finished span under id @p id (from reserve()). */
    void addReserved(uint64_t id, const char *name, const char *layer,
                     uint64_t parent, uint64_t request, uint32_t track,
                     double start_us, double end_us);

    /** Record a finished span; @return its id (0 when disabled). */
    uint64_t
    add(const char *name, const char *layer, uint64_t parent,
        uint64_t request, uint32_t track, double start_us, double end_us)
    {
        const uint64_t id = reserve();
        addReserved(id, name, layer, parent, request, track, start_us,
                    end_us);
        return id;
    }

    /** Write the Chrome trace to @p path (no-op when disabled). */
    void write(const std::string &path) const;

  private:
    bool enabled_;
    uint64_t next_id_ = 1;
    heat::obs::Tracer tracer_;
};

/** Span tracks: the load generator's in-flight slots use 0, 1, ... */
inline constexpr uint32_t kSetupTrack = 1000;
inline constexpr uint32_t kReplayTrack = 1001;
inline constexpr uint32_t kProbeTrack = 1002;

/** Median of @p v (0 for an empty vector). */
double median(std::vector<double> v);

/** Linear-interpolated quantile q in [0, 1] of @p v. */
double quantile(std::vector<double> v, double q);

/** Options of one benchmark run. */
struct RunOptions
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Directory for the Chrome trace of a traced run. */
    std::string trace_dir;
};

/** What one run found: its metrics and its correctness verdict. */
struct RunResult
{
    Metrics metrics;
    bool correct = true;
    uint64_t attempted = 0;
    uint64_t failed = 0;
};

/** Run one workload (workloads.cc). */
RunResult runWorkload(const RunOptions &options, SpanLog &spans);

// --- per-layer probes (layers.cc) --------------------------------------

/** Host-wall breakdown of one request replayed on a private
 *  coprocessor (see replayRequests). All fields are ms per request. */
struct ReplayBreakdown
{
    /** Indexed by hw::Unit. */
    std::vector<double> unit_ms;
    double slots_ms = 0.0;
    double upload_ms = 0.0;
    double download_ms = 0.0;
    /** Whole-request runCompiledCircuit wall minus every row above. */
    double unattributed_ms = 0.0;
    /** Whole-request runCompiledCircuit wall. */
    double whole_ms = 0.0;
    /** Modeled time of the same request (us). */
    double modeled_us = 0.0;
    /** Every replayed output matched runCompiledCircuit bit for bit. */
    bool bit_equal = true;
};

/** One request to replay: a compiled circuit and all its inputs (the
 *  resident ones included, in position order). */
struct ReplayCase
{
    std::shared_ptr<const heat::compiler::CompiledCircuit> compiled;
    std::vector<heat::fv::Ciphertext> inputs;
};

/**
 * Replay @p cases instruction by instruction on a private coprocessor
 * holding @p rlk, bucketing host wall by functional unit, slot replay,
 * upload and download, and time the same cases as whole-request
 * runCompiledCircuit calls. Rounds repeat for about @p budget_s
 * seconds (at least three); the breakdown is the mean per case.
 */
ReplayBreakdown replayRequests(const std::vector<ReplayCase> &cases,
                               const heat::fv::RelinKeys &rlk,
                               double budget_s, SpanLog &spans);

/** Kernel, evaluator and thread-pool probes at the paper ring. */
void probeKernels(uint64_t seed, Metrics &out, SpanLog &spans);

/**
 * Modeled fpga + DMA time of one single-op Mult served alone, as a
 * signed percentage off the paper's Table I "Mult in HW" (4.458 ms).
 */
double multModelErrorPct(uint64_t seed);

// --- helpers ------------------------------------------------------------

/** A random plaintext polynomial of the ring's degree, mod t. */
heat::fv::Plaintext randomPlain(const heat::fv::FvParams &params,
                                heat::Xoshiro256 &rng);

} // namespace perfbench

#endif // PERFBENCH_PERFBENCH_H
