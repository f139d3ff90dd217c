/**
 * @file
 * google-benchmark micro suite for the software kernels underpinning
 * both the evaluator and the hardware model: modular reduction variants
 * (Barrett vs Shoup vs the paper's sliding window), NTT transforms
 * across degrees, HPS Lift/Scale per-coefficient kernels and row
 * drivers, and the high-level evaluator operations on the paper's
 * parameter set.
 */

#include <benchmark/benchmark.h>

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "bench_util.h"
#include "common/parallel.h"
#include "common/random.h"
#include "fv/arith.h"
#include "fv/encryptor.h"
#include "fv/evaluator.h"
#include "fv/keygen.h"
#include "fv/params.h"
#include "ntt/ntt.h"
#include "ntt/rns_poly.h"
#include "rns/base_convert.h"
#include "rns/prime_gen.h"
#include "rns/scale_round.h"
#include "simd/simd.h"

using namespace heat;

namespace {

rns::Modulus
prime30()
{
    static const uint64_t p = rns::generateNttPrimes(30, 4096, 1)[0];
    return rns::Modulus(p);
}

void
BM_ReduceBarrett(benchmark::State &state)
{
    rns::Modulus q = prime30();
    Xoshiro256 rng(1);
    uint64_t x = rng.next() >> 4;
    for (auto _ : state) {
        x = q.reduce128(mulWide64(x | 1, x | 3));
        benchmark::DoNotOptimize(x);
    }
}
BENCHMARK(BM_ReduceBarrett);

void
BM_ReduceSlidingWindow(benchmark::State &state)
{
    rns::Modulus q = prime30();
    Xoshiro256 rng(2);
    uint64_t a = rng.uniformBelow(q.value());
    for (auto _ : state) {
        a = q.slidingWindowReduce(a * (a | 1));
        benchmark::DoNotOptimize(a);
    }
}
BENCHMARK(BM_ReduceSlidingWindow);

void
BM_MulShoup(benchmark::State &state)
{
    rns::Modulus q = prime30();
    Xoshiro256 rng(3);
    const uint64_t w = rng.uniformBelow(q.value());
    const uint64_t w_shoup = q.shoupPrecompute(w);
    uint64_t a = rng.uniformBelow(q.value());
    for (auto _ : state) {
        a = q.mulShoup(a | 1, w, w_shoup);
        benchmark::DoNotOptimize(a);
    }
}
BENCHMARK(BM_MulShoup);

void
BM_ForwardNtt(benchmark::State &state)
{
    const size_t n = static_cast<size_t>(state.range(0));
    rns::Modulus q(rns::generateNttPrimes(30, n, 1)[0]);
    ntt::NttTables tables(q, n);
    Xoshiro256 rng(4);
    std::vector<uint64_t> a(n);
    for (auto &x : a)
        x = rng.uniformBelow(q.value());
    for (auto _ : state) {
        ntt::forwardNtt(a, tables);
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_ForwardNtt)->Arg(1024)->Arg(4096)->Arg(16384);

void
BM_InverseNtt(benchmark::State &state)
{
    const size_t n = static_cast<size_t>(state.range(0));
    rns::Modulus q(rns::generateNttPrimes(30, n, 1)[0]);
    ntt::NttTables tables(q, n);
    Xoshiro256 rng(5);
    std::vector<uint64_t> a(n);
    for (auto &x : a)
        x = rng.uniformBelow(q.value());
    for (auto _ : state) {
        ntt::inverseNtt(a, tables);
        benchmark::ClobberMemory();
    }
}
BENCHMARK(BM_InverseNtt)->Arg(4096);

/**
 * Forward NTT pinned to one kernel table (registered per supported
 * level from main, so `BM_ForwardNttLevel/avx2/4096` only exists on
 * hosts that can run it). The unpinned BM_ForwardNtt above measures
 * whatever the dispatcher picked.
 */
void
BM_ForwardNttLevel(benchmark::State &state, simd::Level level)
{
    const size_t n = static_cast<size_t>(state.range(0));
    rns::Modulus q(rns::generateNttPrimes(30, n, 1)[0]);
    ntt::NttTables tables(q, n);
    const simd::Kernels &kernels = simd::kernelsFor(level);
    Xoshiro256 rng(14);
    std::vector<uint64_t> a(n);
    for (auto &x : a)
        x = rng.uniformBelow(q.value());
    for (auto _ : state) {
        kernels.ntt_forward(a.data(), tables);
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}

/** RnsPoly fixture shared by the dyadic and transform benchmarks. */
struct DyadicFixture
{
    DyadicFixture(size_t n, size_t moduli, bool ntt_form)
        : base(std::make_shared<const rns::RnsBase>(
              rns::generateNttPrimes(30, n, moduli))),
          context(*base, n),
          a(base, n),
          b(base, n)
    {
        Xoshiro256 rng(15);
        for (size_t i = 0; i < a.residueCount(); ++i) {
            const uint64_t q_i = base->modulus(i).value();
            for (size_t j = 0; j < n; ++j) {
                a.residue(i)[j] = rng.uniformBelow(q_i);
                b.residue(i)[j] = rng.uniformBelow(q_i);
            }
        }
        if (ntt_form) {
            a.toNtt(context);
            b.toNtt(context);
        }
    }

    std::shared_ptr<const rns::RnsBase> base;
    ntt::NttContext context;
    ntt::RnsPoly a, b;
};

/** Restores the process-wide thread count on scope exit. */
struct ThreadGuard
{
    unsigned saved = threadCount();
    ~ThreadGuard() { setThreadCount(saved); }
};

constexpr size_t kDyadicModuli = 3;

/** Full RnsPoly forward+inverse transform pair across residues. */
void
BM_PolyNttRoundTrip(benchmark::State &state)
{
    const size_t n = static_cast<size_t>(state.range(0));
    ThreadGuard guard;
    setThreadCount(static_cast<unsigned>(state.range(1)));
    DyadicFixture f(n, kDyadicModuli, /*ntt_form=*/false);
    for (auto _ : state) {
        f.a.toNtt(f.context);
        f.a.toCoeff(f.context);
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(2 * kDyadicModuli * n));
}
BENCHMARK(BM_PolyNttRoundTrip)
    ->ArgNames({"n", "threads"})
    ->Args({4096, 1})
    ->Args({4096, 4})
    ->Args({8192, 1})
    ->Args({8192, 4});

/** Dyadic ciphertext kernel: residue-wise pointwise multiply. */
void
BM_DyadicMulPointwise(benchmark::State &state)
{
    const size_t n = static_cast<size_t>(state.range(0));
    ThreadGuard guard;
    setThreadCount(static_cast<unsigned>(state.range(1)));
    DyadicFixture f(n, kDyadicModuli, /*ntt_form=*/true);
    for (auto _ : state) {
        f.a.mulPointwiseInPlace(f.b);
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(kDyadicModuli * n));
}
BENCHMARK(BM_DyadicMulPointwise)
    ->ArgNames({"n", "threads"})
    ->Args({4096, 1})
    ->Args({4096, 4})
    ->Args({8192, 1})
    ->Args({8192, 4});

/** Dyadic ciphertext kernel: residue-wise addition. */
void
BM_DyadicAdd(benchmark::State &state)
{
    const size_t n = static_cast<size_t>(state.range(0));
    ThreadGuard guard;
    setThreadCount(static_cast<unsigned>(state.range(1)));
    DyadicFixture f(n, kDyadicModuli, /*ntt_form=*/true);
    for (auto _ : state) {
        f.a.addInPlace(f.b);
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(kDyadicModuli * n));
}
BENCHMARK(BM_DyadicAdd)
    ->ArgNames({"n", "threads"})
    ->Args({4096, 1})
    ->Args({4096, 4})
    ->Args({8192, 1})
    ->Args({8192, 4});

void
BM_LiftCoefficient(benchmark::State &state)
{
    auto params = fv::FvParams::paper();
    const auto &conv = params->liftConverter();
    Xoshiro256 rng(6);
    std::vector<uint64_t> in(params->qBase()->size());
    for (size_t i = 0; i < in.size(); ++i)
        in[i] = rng.uniformBelow(params->qBase()->modulus(i).value());
    std::vector<uint64_t> out(params->pBase()->size());
    for (auto _ : state) {
        conv.convert(in, out);
        benchmark::DoNotOptimize(out.data());
    }
}
BENCHMARK(BM_LiftCoefficient);

void
BM_ScaleCoefficient(benchmark::State &state)
{
    auto params = fv::FvParams::paper();
    const auto &scaler = params->scaler();
    Xoshiro256 rng(7);
    std::vector<uint64_t> in(params->fullBase()->size());
    for (size_t i = 0; i < in.size(); ++i)
        in[i] = rng.uniformBelow(params->fullBase()->modulus(i).value());
    std::vector<uint64_t> out(params->pBase()->size());
    for (auto _ : state) {
        scaler.scale(in, out);
        benchmark::DoNotOptimize(out.data());
    }
}
BENCHMARK(BM_ScaleCoefficient);

/** Shared fixture for the paper-parameter evaluator benchmarks. */
struct EvalFixture
{
    EvalFixture()
        : params(fv::FvParams::paper()),
          keygen(params, 8),
          sk(keygen.generateSecretKey()),
          pk(keygen.generatePublicKey(sk)),
          rlk(keygen.generateRelinKeys(sk)),
          encryptor(params, pk, 9),
          evaluator(params, fv::ArithPath::kHps),
          exact_evaluator(params, fv::ArithPath::kExactCrt)
    {
        fv::Plaintext m;
        m.coeffs.assign(params->degree(), 1);
        a = encryptor.encrypt(m);
        b = encryptor.encrypt(m);
    }

    static EvalFixture &
    instance()
    {
        static EvalFixture fixture;
        return fixture;
    }

    std::shared_ptr<const fv::FvParams> params;
    fv::KeyGenerator keygen;
    fv::SecretKey sk;
    fv::PublicKey pk;
    fv::RelinKeys rlk;
    fv::Encryptor encryptor;
    fv::Evaluator evaluator;
    fv::Evaluator exact_evaluator;
    fv::Ciphertext a, b;
};

void
BM_EvaluatorAdd(benchmark::State &state)
{
    auto &f = EvalFixture::instance();
    for (auto _ : state) {
        fv::Ciphertext c = f.evaluator.add(f.a, f.b);
        benchmark::DoNotOptimize(c.polys.data());
    }
}
BENCHMARK(BM_EvaluatorAdd)->Unit(benchmark::kMillisecond);

void
BM_EvaluatorMultHps(benchmark::State &state)
{
    auto &f = EvalFixture::instance();
    for (auto _ : state) {
        fv::Ciphertext c = f.evaluator.multiply(f.a, f.b, f.rlk);
        benchmark::DoNotOptimize(c.polys.data());
    }
}
BENCHMARK(BM_EvaluatorMultHps)->Unit(benchmark::kMillisecond);

void
BM_EvaluatorMultExactCrt(benchmark::State &state)
{
    auto &f = EvalFixture::instance();
    for (auto _ : state) {
        fv::Ciphertext c = f.exact_evaluator.multiply(f.a, f.b, f.rlk);
        benchmark::DoNotOptimize(c.polys.data());
    }
}
BENCHMARK(BM_EvaluatorMultExactCrt)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(3);

/**
 * Console output as usual, plus one JSON-lines record per benchmark
 * (ns per iteration) through the shared reporter when --json is given.
 */
class JsonLinesReporter : public benchmark::ConsoleReporter
{
  public:
    explicit JsonLinesReporter(const heat::bench::JsonReporter &json)
        : json_(json)
    {
    }

    void
    ReportRuns(const std::vector<Run> &runs) override
    {
        ConsoleReporter::ReportRuns(runs);
        for (const auto &run : runs) {
            if (run.run_type != Run::RT_Iteration || run.iterations == 0)
                continue;
            const double ns = run.real_accumulated_time /
                              static_cast<double>(run.iterations) * 1e9;
            json_.record(run.benchmark_name(), ns, "ns");
        }
    }

  private:
    const heat::bench::JsonReporter &json_;
};

/** A random canonical operand and the twiddle tables at degree n. */
struct NttOperand
{
    explicit NttOperand(size_t n)
        : tables(rns::Modulus(rns::generateNttPrimes(30, n, 1)[0]), n),
          a(n)
    {
        Xoshiro256 rng(16);
        for (auto &x : a)
            x = rng.uniformBelow(tables.modulus().value());
    }

    ntt::NttTables tables;
    std::vector<uint64_t> a;
};

} // namespace

int
main(int argc, char **argv)
{
    heat::bench::JsonReporter json("sw_kernels", argc, argv);

    // Level-pinned NTT benches for every table this host can run.
    for (simd::Level level : {simd::Level::kScalar, simd::Level::kAvx2,
                              simd::Level::kAvx512}) {
        if (level > simd::detectedLevel())
            break;
        const std::string name =
            std::string("BM_ForwardNttLevel/") + simd::levelName(level);
        benchmark::RegisterBenchmark(
            name.c_str(),
            [level](benchmark::State &state) {
                BM_ForwardNttLevel(state, level);
            })
            ->Arg(4096)
            ->Arg(8192);
    }

    // Strip --json <path> before google-benchmark sees the arguments;
    // it rejects flags it does not know.
    std::vector<char *> args;
    for (int i = 0; i < argc; ++i) {
        if (std::string_view(argv[i]) == "--json") {
            if (i + 1 < argc &&
                !std::string_view(argv[i + 1]).starts_with("--"))
                ++i;
            continue;
        }
        args.push_back(argv[i]);
    }
    int bench_argc = static_cast<int>(args.size());
    benchmark::Initialize(&bench_argc, args.data());
    if (benchmark::ReportUnrecognizedArguments(bench_argc, args.data()))
        return 1;

    JsonLinesReporter reporter(json);
    benchmark::RunSpecifiedBenchmarks(&reporter);

    // Wall-time ratios for the CI gates, each the median of per-round
    // ratios over kRounds interleaved rounds of kIters transforms.
    constexpr int kRounds = 200;
    constexpr int kIters = 10;

    // Dispatched-vs-scalar forward- and inverse-NTT ratios for the CI
    // gates. The dispatched table is whatever CPUID + HEAT_SIMD
    // selected, so on a forced-scalar run (or a host without AVX2) the
    // ratios are ~1. Transforms run in place: each output is canonical,
    // so it is a valid input for the next call in either direction.
    {
        constexpr size_t kSpeedupDegree = 8192;
        NttOperand op(kSpeedupDegree);
        const simd::Kernels &scalar = simd::kernelsFor(simd::Level::kScalar);
        const simd::Kernels &active = simd::active();
        const heat::bench::InterleavedTimes times =
            heat::bench::timeInterleaved(
                {
                    [&] { scalar.ntt_forward(op.a.data(), op.tables); },
                    [&] { active.ntt_forward(op.a.data(), op.tables); },
                    [&] { scalar.ntt_inverse(op.a.data(), op.tables); },
                    [&] { active.ntt_inverse(op.a.data(), op.tables); },
                },
                kRounds, kIters);
        benchmark::DoNotOptimize(op.a.data());
        const double ntt_speedup = times.medianRatio(0, 1);
        const double intt_speedup = times.medianRatio(2, 3);
        heat::bench::printHeader("SIMD dispatch");
        heat::bench::printInfo(
            std::string("active level: ") +
                simd::levelName(simd::activeLevel()),
            static_cast<double>(simd::activeLevel()), "");
        heat::bench::printInfo("forward NTT scalar (n=8192)",
                               times.best(0) * 1e6, "us");
        heat::bench::printInfo("forward NTT dispatched (n=8192)",
                               times.best(1) * 1e6, "us");
        heat::bench::printInfo("inverse NTT scalar (n=8192)",
                               times.best(2) * 1e6, "us");
        heat::bench::printInfo("inverse NTT dispatched (n=8192)",
                               times.best(3) * 1e6, "us");
        heat::bench::printInfo("ntt_simd_vs_scalar_speedup", ntt_speedup,
                               "x");
        heat::bench::printInfo("intt_simd_vs_scalar_speedup",
                               intt_speedup, "x");
        json.record("cpu_simd_level",
                    static_cast<double>(simd::detectedLevel()), "level");
        json.record("active_simd_level",
                    static_cast<double>(simd::activeLevel()), "level");
        json.record("ntt_simd_vs_scalar_speedup", ntt_speedup, "x",
                    kSpeedupDegree, 1);
        json.record("intt_simd_vs_scalar_speedup", intt_speedup, "x",
                    kSpeedupDegree, 1);
    }

    // The Lift and Scale row drivers at level 0, pinned to each kernel
    // table: on the paper ring (n = 4096, 6 q / 7 p primes), and on a
    // 16-q-prime ring of the same degree, whose Block-2 sums take two
    // 64-bit runs (simd::kHpsRunTerms). Plus the paper ring's two run
    // back to back on the forced-scalar and the dispatched table for
    // the CI gate. Each body pins its table, so the interleaved rounds
    // compare tables under the same host load.
    {
        constexpr int kHpsRounds = 51;
        constexpr int kHpsIters = 3;
        fv::FvConfig wide_cfg;
        wide_cfg.degree = 4096;
        wide_cfg.plain_modulus = 65537;
        wide_cfg.sigma = 3.2;
        wide_cfg.q_prime_count = 16;
        struct Ring
        {
            std::string tag;
            std::shared_ptr<const fv::FvParams> params;
            std::vector<uint64_t> rows, lifted, scaled;
        };
        std::vector<Ring> rings = {{"", fv::FvParams::paper(), {}, {}, {}},
                                   {"q16/", fv::FvParams::create(wide_cfg),
                                    {}, {}, {}}};
        Xoshiro256 rng(17);
        for (Ring &ring : rings) {
            const rns::RnsBase &full = *ring.params->fullBase();
            const size_t n = ring.params->degree();
            ring.rows.resize(full.size() * n);
            for (size_t i = 0; i < full.size(); ++i)
                for (size_t c = 0; c < n; ++c)
                    ring.rows[i * n + c] =
                        rng.uniformBelow(full.modulus(i).value());
            ring.lifted.resize(full.size() * n);
            ring.scaled.resize(ring.params->qPrimeCount() * n);
        }
        const auto lift = [](Ring &ring) {
            const size_t kq = ring.params->qPrimeCount();
            fv::liftRows(*ring.params, 0, fv::ArithPath::kHps,
                         ring.rows.data(),
                         ring.lifted.data() + kq * ring.params->degree());
        };
        const auto scale = [](Ring &ring) {
            fv::scaleRows(*ring.params, 0, fv::ArithPath::kHps,
                          ring.rows.data(), ring.scaled.data());
        };
        const simd::Level active = simd::activeLevel();
        std::vector<simd::Level> levels;
        std::vector<std::function<void()>> bodies;
        for (simd::Level level : {simd::Level::kScalar, simd::Level::kAvx2,
                                  simd::Level::kAvx512}) {
            if (level > simd::detectedLevel())
                break;
            levels.push_back(level);
            for (Ring &ring : rings) {
                bodies.push_back([&, level] {
                    simd::setLevel(level);
                    lift(ring);
                });
                bodies.push_back([&, level] {
                    simd::setLevel(level);
                    scale(ring);
                });
            }
        }
        const size_t gate = bodies.size();
        for (simd::Level level : {simd::Level::kScalar, active}) {
            bodies.push_back([&, level] {
                simd::setLevel(level);
                lift(rings[0]);
                scale(rings[0]);
            });
        }
        const heat::bench::InterleavedTimes times =
            heat::bench::timeInterleaved(bodies, kHpsRounds, kHpsIters);
        simd::setLevel(active);
        for (Ring &ring : rings) {
            benchmark::DoNotOptimize(ring.lifted.data());
            benchmark::DoNotOptimize(ring.scaled.data());
        }

        heat::bench::printHeader(
            "HPS Lift/Scale rows (n=4096: paper ring, q16 ring)");
        size_t body = 0;
        for (simd::Level level : levels) {
            for (const Ring &ring : rings) {
                const std::string name = ring.tag + simd::levelName(level);
                const size_t n = ring.params->degree();
                const size_t k = ring.params->fullBase()->size();
                const double lift_us = times.best(body++) * 1e6;
                const double scale_us = times.best(body++) * 1e6;
                heat::bench::printInfo("lift_rows_us " + name, lift_us,
                                       "us");
                heat::bench::printInfo("scale_rows_us " + name, scale_us,
                                       "us");
                json.record("lift_rows_us/" + name, lift_us, "us", n, k);
                json.record("scale_rows_us/" + name, scale_us, "us", n, k);
            }
        }
        const double hps_speedup = times.medianRatio(gate, gate + 1);
        heat::bench::printInfo("hps_simd_vs_scalar_speedup", hps_speedup,
                               "x");
        json.record("hps_simd_vs_scalar_speedup", hps_speedup, "x",
                    rings[0].params->degree(),
                    rings[0].params->fullBase()->size());
    }

    // Disabled-instrumentation overhead of the OBS_SPAN macro on the
    // forward-NTT dispatcher, for the CI < 2% gate: the raw kernel
    // table against ntt::forwardNtt, whose span with no tracer
    // installed must be one relaxed atomic load + branch. The result
    // can go slightly negative on a quiet machine.
    {
        constexpr size_t kOverheadDegree = 8192;
        NttOperand op(kOverheadDegree);
        const simd::Kernels &active = simd::active();
        const heat::bench::InterleavedTimes times =
            heat::bench::timeInterleaved(
                {
                    [&] { active.ntt_forward(op.a.data(), op.tables); },
                    [&] { ntt::forwardNtt(op.a, op.tables); },
                },
                kRounds, kIters);
        benchmark::DoNotOptimize(op.a.data());
        const double overhead_pct = (times.medianRatio(1, 0) - 1.0) * 100.0;
        heat::bench::printHeader("observability overhead");
        heat::bench::printInfo("forward NTT raw table (n=8192)",
                               times.best(0) * 1e6, "us");
        heat::bench::printInfo("forward NTT instrumented (n=8192)",
                               times.best(1) * 1e6, "us");
        heat::bench::printInfo("obs_span_disabled_overhead_pct",
                               overhead_pct, "%");
        json.record("obs_span_disabled_overhead_pct", overhead_pct, "%",
                    kOverheadDegree, 1);
    }

    benchmark::Shutdown();
    return 0;
}
