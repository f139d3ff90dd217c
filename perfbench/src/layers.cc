/**
 * @file
 * Per-layer probes of the traced run: the instruction-by-instruction
 * replay of one request on a private coprocessor (host wall by
 * functional unit), the software-path kernel probes, and the model
 * accuracy check against the paper's Table I. Also the small helpers
 * shared with the workload runner.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "common/parallel.h"
#include "fv/encryptor.h"
#include "fv/evaluator.h"
#include "fv/keygen.h"
#include "hw/coprocessor.h"
#include "ntt/ntt.h"
#include "perfbench.h"
#include "rns/base_convert.h"
#include "rns/scale_round.h"
#include "service/service.h"
#include "simd/simd.h"

namespace perfbench {

using namespace heat;

// --- helpers ----------------------------------------------------------------

void
SpanLog::addReserved(uint64_t id, const char *name, const char *layer,
                     uint64_t parent, uint64_t request, uint32_t track,
                     double start_us, double end_us)
{
    if (!enabled_)
        return;
    obs::SpanRecord span;
    span.name = name;
    span.category = layer;
    span.pid = obs::kWallPid;
    span.track = track;
    span.start_us = start_us;
    span.dur_us = end_us - start_us;
    span.args = {{"id", std::to_string(id)},
                 {"parent", std::to_string(parent)},
                 {"request", std::to_string(request)}};
    tracer_.addSpan(std::move(span));
}

void
SpanLog::write(const std::string &path) const
{
    if (!enabled_)
        return;
    std::ofstream out(path);
    if (!out)
        throw std::runtime_error("cannot write trace " + path);
    tracer_.writeChromeTrace(
        out, {{"dropped_spans", std::to_string(tracer_.droppedSpans())}});
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<size_t>(std::floor(pos));
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

fv::Plaintext
randomPlain(const fv::FvParams &params, Xoshiro256 &rng)
{
    fv::Plaintext p;
    p.coeffs.resize(params.degree());
    for (uint64_t &c : p.coeffs)
        c = rng.uniformBelow(params.plainModulus());
    return p;
}

// --- traced replay ------------------------------------------------------------

namespace {

/** One case prepared for replay: single-instruction programs built
 *  ahead, so building them is not timed. */
struct Prepared
{
    const ReplayCase *rc;
    /** Per segment, one program per instruction. */
    std::vector<std::vector<hw::Program>> programs;
};

/** Wall buckets of one replay, ms. */
struct Buckets
{
    std::vector<double> unit_ms = std::vector<double>(hw::kUnitCount, 0.0);
    double slots_ms = 0.0;
    double upload_ms = 0.0;
    double download_ms = 0.0;
};

/**
 * Replay @p p through public calls only, in the order
 * compiler::runCompiledCircuit executes it: slot replay, resident and
 * segment uploads, one instruction per execute(), downloads.
 */
std::vector<fv::Ciphertext>
replayOnce(hw::Coprocessor &cp, const Prepared &p, Buckets &b,
           SpanLog &spans, uint64_t parent)
{
    const compiler::CompiledCircuit &cc = *p.rc->compiled;
    const std::vector<fv::Ciphertext> &inputs = p.rc->inputs;
    const auto lap = [&](Clock::time_point &t, double &bucket,
                         const char *name, const char *layer) {
        const double ms = msBetween(t, Clock::now());
        bucket += ms;
        if (spans.enabled()) {
            const double end_us = obs::wallNowUs();
            spans.add(name, layer, parent, 0, kReplayTrack,
                      end_us - ms * 1e3, end_us);
        }
        // Restart after the span is recorded: its cost is in no row.
        t = Clock::now();
    };

    Clock::time_point t = Clock::now();
    cp.reset();
    hw::replaySlotActions(cp.memory(), cc.slot_actions);
    lap(t, b.slots_ms, "slots", "hw");
    for (size_t k = 0; k < cc.resident_inputs.size(); ++k)
        for (int poly = 0; poly < 2; ++poly)
            cp.uploadInto(cc.resident_slots[k][poly],
                          inputs[cc.resident_inputs[k]][poly]);
    if (!cc.resident_inputs.empty()) {
        cp.memory().setPinnedRecords(2 * cc.resident_inputs.size());
        lap(t, b.upload_ms, "upload:resident", "hw");
    }

    std::vector<std::vector<ntt::RnsPoly>> values(cc.value_sizes.size());
    for (size_t k = 0; k < cc.inputs.size(); ++k)
        values[cc.inputs[k]] = {inputs[k][0], inputs[k][1]};
    t = Clock::now();
    for (size_t s = 0; s < cc.segments.size(); ++s) {
        const compiler::Segment &seg = cc.segments[s];
        for (const compiler::Transfer &up : seg.uploads)
            cp.uploadInto(up.slot,
                          up.source == compiler::Transfer::Source::kConstant
                              ? cc.constants[up.index]
                              : values[up.index][up.poly]);
        lap(t, b.upload_ms, "upload", "hw");
        for (const hw::Program &one : p.programs[s]) {
            cp.execute(one, hw::DispatchMode::kFusedProgram);
            const hw::Unit unit = hw::unitOf(one.instrs[0].op);
            lap(t, b.unit_ms[static_cast<size_t>(unit)],
                hw::unitName(unit), "hw");
        }
        for (const compiler::Transfer &down : seg.downloads) {
            std::vector<ntt::RnsPoly> &store = values[down.index];
            store.resize(cc.value_sizes[down.index]);
            store[down.poly] = cp.memory().exportQBase(down.slot);
        }
        lap(t, b.download_ms, "download", "hw");
    }

    std::vector<fv::Ciphertext> outs;
    for (compiler::ValueId v : cc.outputs) {
        fv::Ciphertext ct;
        ct.level = cc.value_levels[v];
        ct.polys = values[v];
        outs.push_back(std::move(ct));
    }
    return outs;
}

} // namespace

ReplayBreakdown
replayRequests(const std::vector<ReplayCase> &cases,
               const fv::RelinKeys &rlk, double budget_s, SpanLog &traced)
{
    std::vector<Prepared> prepared;
    for (const ReplayCase &rc : cases) {
        Prepared p{&rc, {}};
        for (const compiler::Segment &seg : rc.compiled->segments) {
            std::vector<hw::Program> progs;
            for (const hw::Instruction &instr : seg.program.instrs)
                progs.push_back(hw::Program{{instr}, {}});
            p.programs.push_back(std::move(progs));
        }
        prepared.push_back(std::move(p));
    }
    const compiler::CompiledCircuit &first = *cases.at(0).compiled;
    hw::Coprocessor cp(first.params, first.hw, &rlk);

    ReplayBreakdown r;
    Buckets b;
    double whole_ms = 0.0, modeled_us = 0.0;
    size_t runs = 0;
    SpanLog untraced(false);
    const Clock::time_point t_start = Clock::now();
    for (size_t round = 0;
         round < 3 || msBetween(t_start, Clock::now()) < budget_s * 1e3;
         ++round) {
        // Spans of the first rounds only (keeps traces small).
        SpanLog &spans = round < 3 ? traced : untraced;
        for (const Prepared &p : prepared) {
            std::vector<fv::Ciphertext> replayed, whole;
            const auto replay = [&] {
                const double t0_us = obs::wallNowUs();
                const uint64_t parent = spans.reserve();
                replayed = replayOnce(cp, p, b, spans, parent);
                spans.addReserved(parent, "replay", "bench", 0, 0,
                                  kReplayTrack, t0_us, obs::wallNowUs());
            };
            const auto run_whole = [&] {
                const double t0_us = obs::wallNowUs();
                const Clock::time_point t0 = Clock::now();
                compiler::CircuitRunStats stats;
                whole = compiler::runCompiledCircuit(cp, *p.rc->compiled,
                                                     p.rc->inputs, &stats);
                whole_ms += msBetween(t0, Clock::now());
                spans.add("runCompiledCircuit", "compiler", 0, 0,
                          kReplayTrack, t0_us, obs::wallNowUs());
                modeled_us += stats.modeledUs(cp.config());
            };
            // Alternate the order so neither side always runs warm.
            if (round % 2 == 0) {
                replay();
                run_whole();
            } else {
                run_whole();
                replay();
            }
            r.bit_equal = r.bit_equal && replayed == whole;
            ++runs;
        }
    }

    // Means per case; the rows sum to the whole-request wall exactly
    // (up to rounding) because unattributed is the residual.
    const double per = static_cast<double>(runs);
    double attributed = b.slots_ms + b.upload_ms + b.download_ms;
    r.unit_ms.resize(hw::kUnitCount);
    for (size_t u = 0; u < hw::kUnitCount; ++u) {
        r.unit_ms[u] = b.unit_ms[u] / per;
        attributed += b.unit_ms[u];
    }
    r.slots_ms = b.slots_ms / per;
    r.upload_ms = b.upload_ms / per;
    r.download_ms = b.download_ms / per;
    r.whole_ms = whole_ms / per;
    r.unattributed_ms = (whole_ms - attributed) / per;
    r.modeled_us = modeled_us / per;
    return r;
}

// --- kernel probes ------------------------------------------------------------

namespace {

/** Median per-call µs of @p fn over @p samples samples of @p reps
 *  calls each. */
template <typename F>
double
probeUs(const char *name, const char *layer, int samples, int reps,
        SpanLog &spans, F &&fn)
{
    std::vector<double> per_call;
    const double t0_us = obs::wallNowUs();
    for (int s = 0; s < samples; ++s) {
        const Clock::time_point t0 = Clock::now();
        for (int r = 0; r < reps; ++r)
            fn();
        per_call.push_back(msBetween(t0, Clock::now()) * 1e3 / reps);
    }
    spans.add(name, layer, 0, 0, kProbeTrack, t0_us, obs::wallNowUs());
    return median(per_call);
}

/** Residue rows of @p base over @p n coefficients, each reduced into
 *  its modulus. */
std::vector<std::vector<uint64_t>>
randomRows(const rns::RnsBase &base, size_t n, Xoshiro256 &rng)
{
    std::vector<std::vector<uint64_t>> rows(base.size(),
                                            std::vector<uint64_t>(n));
    for (size_t i = 0; i < base.size(); ++i)
        for (uint64_t &v : rows[i])
            v = rng.uniformBelow(base.modulus(i).value());
    return rows;
}

} // namespace

void
probeKernels(uint64_t seed, Metrics &out, SpanLog &spans)
{
    const auto params = fv::FvParams::paper(2);
    const size_t n = params->degree();
    Xoshiro256 rng(seed * 7 + 3);
    const unsigned prev_threads = threadCount();
    setThreadCount(4);

    {
        fv::KeyGenerator keygen(params, seed + 99);
        const fv::SecretKey sk = keygen.generateSecretKey();
        const fv::RelinKeys rlk = keygen.generateRelinKeys(sk);
        fv::Encryptor enc(params, keygen.generatePublicKey(sk), seed + 98);
        const fv::Ciphertext a = enc.encrypt(randomPlain(*params, rng));
        const fv::Ciphertext b = enc.encrypt(randomPlain(*params, rng));
        const fv::Evaluator ev(params);
        out.set("fv.multiply_ms",
                probeUs("fv.multiply", "fv", 9, 1, spans,
                        [&] { (void)ev.multiply(a, b, rlk); }) /
                    1e3,
                "ms");
    }

    const ntt::NttTables &tables = params->qContext().tables(0);
    const rns::Modulus &q0 = params->qBase()->modulus(0);
    std::vector<uint64_t> poly(n), other(n);
    for (size_t i = 0; i < n; ++i) {
        poly[i] = rng.uniformBelow(q0.value());
        other[i] = rng.uniformBelow(q0.value());
    }
    // Forward and inverse alternate so the data stays a valid residue.
    std::vector<double> fwd, inv;
    const double ntt_t0_us = obs::wallNowUs();
    for (int s = 0; s < 200; ++s) {
        const Clock::time_point t0 = Clock::now();
        ntt::forwardNtt(poly, tables);
        const Clock::time_point t1 = Clock::now();
        ntt::inverseNtt(poly, tables);
        fwd.push_back(msBetween(t0, t1) * 1e3);
        inv.push_back(msBetween(t1, Clock::now()) * 1e3);
    }
    spans.add("ntt.forward+inverse", "ntt", 0, 0, kProbeTrack, ntt_t0_us,
              obs::wallNowUs());
    out.set("ntt.forward_us", median(fwd), "us");
    out.set("ntt.inverse_us", median(inv), "us");

    {
        const rns::FastBaseConverter &conv = params->liftConverter();
        auto in = randomRows(conv.fromBase(), n, rng);
        std::vector<std::vector<uint64_t>> res(conv.toBase().size(),
                                               std::vector<uint64_t>(n));
        std::vector<const uint64_t *> in_rows;
        std::vector<uint64_t *> out_rows;
        for (auto &r : in)
            in_rows.push_back(r.data());
        for (auto &r : res)
            out_rows.push_back(r.data());
        out.set("rns.convert_batch_us",
                probeUs("rns.convertBatch", "rns", 15, 5, spans,
                        [&] {
                            conv.convertBatch(in_rows.data(),
                                              out_rows.data(), n);
                        }),
                "us");
    }
    {
        const rns::ScaleRounder &scaler = params->scaler();
        const rns::RnsBase &full = *params->fullBase();
        if (full.size() != scaler.qBase().size() + scaler.pBase().size())
            throw std::logic_error("scaler input is not the full base");
        auto in = randomRows(full, n, rng);
        std::vector<std::vector<uint64_t>> res(scaler.pBase().size(),
                                               std::vector<uint64_t>(n));
        std::vector<const uint64_t *> in_rows;
        std::vector<uint64_t *> out_rows;
        for (auto &r : in)
            in_rows.push_back(r.data());
        for (auto &r : res)
            out_rows.push_back(r.data());
        out.set("rns.scale_batch_us",
                probeUs("rns.scaleBatch", "rns", 15, 5, spans,
                        [&] {
                            scaler.scaleBatch(in_rows.data(),
                                              out_rows.data(), n);
                        }),
                "us");
    }
    // Dyadic product at n = 4096; multiplying by a fixed residue keeps
    // the data in range from one call to the next.
    out.set("simd.dyadic_mul_us",
            probeUs("simd.mul_mod", "simd", 15, 50, spans,
                    [&] {
                        simd::active().mul_mod(poly.data(), other.data(), n,
                                               q0);
                    }),
            "us");
    out.set("simd.level", static_cast<double>(simd::activeLevel()), "level");
    std::fprintf(stderr, "perfbench: simd dispatch level %s\n",
                 simd::levelName(simd::activeLevel()));
    out.set("parallel.for_overhead_us",
            probeUs("parallelFor(empty)", "parallel", 15, 20, spans,
                    [] { parallelFor(4, [](size_t) {}); }),
            "us");
    setThreadCount(prev_threads);
}

double
multModelErrorPct(uint64_t seed)
{
    constexpr double kPaperMultMs = 4.458; // Table I, "Mult in HW"
    const auto params = fv::FvParams::paper(2);
    fv::KeyGenerator keygen(params, seed + 77);
    const fv::SecretKey sk = keygen.generateSecretKey();
    fv::RelinKeys rlk = keygen.generateRelinKeys(sk);
    fv::Encryptor enc(params, keygen.generatePublicKey(sk), seed + 76);
    Xoshiro256 rng(seed + 75);
    fv::Ciphertext a = enc.encrypt(randomPlain(*params, rng));
    fv::Ciphertext b = enc.encrypt(randomPlain(*params, rng));

    service::ServiceConfig cfg;
    cfg.workers = 1;
    service::ExecutionService svc(params, std::move(rlk), cfg);
    (void)svc.submit(service::Op::kMult, std::move(a), std::move(b)).get();
    svc.drain();
    const service::ServiceStats st = svc.stats();
    const double ms = (cfg.hw.cyclesToUs(st.fpga_cycles) + st.dma_us) / 1e3;
    return 100.0 * (ms - kPaperMultMs) / kPaperMultMs;
}

} // namespace perfbench
