/**
 * @file
 * Differential tests for the SIMD kernel layer: every vector kernel
 * must be bit-identical to the scalar table on random inputs, on
 * lazy-range edge values, and on moduli too wide for the 32-bit lane
 * paths (where the kernels must fall back to scalar internally). The
 * suite enumerates every level the host and build support, so on an
 * AVX-512 machine it exercises scalar vs AVX2 vs AVX-512.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/random.h"
#include "fv/arith.h"
#include "fv/params.h"
#include "ntt/ntt.h"
#include "ntt/ntt_tables.h"
#include "rns/base_convert.h"
#include "rns/modulus.h"
#include "rns/prime_gen.h"
#include "rns/rns_base.h"
#include "rns/scale_round.h"
#include "simd/simd.h"

namespace heat {
namespace {

using rns::Modulus;
using simd::Kernels;
using simd::Level;

std::vector<Level>
availableLevels()
{
    std::vector<Level> levels{Level::kScalar};
    if (simd::detectedLevel() >= Level::kAvx2)
        levels.push_back(Level::kAvx2);
    if (simd::detectedLevel() >= Level::kAvx512)
        levels.push_back(Level::kAvx512);
    return levels;
}

/** Restores the process-wide dispatch level on scope exit. */
struct LevelGuard
{
    Level saved = simd::activeLevel();
    ~LevelGuard() { simd::setLevel(saved); }
};

/** Fixed odd moduli per required width; primality is irrelevant for
 * the elementwise kernels (Barrett handles any modulus). */
const uint64_t kWidthModuli[] = {
    (uint64_t(1) << 20) - 3,  // 20-bit — vector path
    (uint64_t(1) << 30) - 35, // 30-bit boundary — scalar fallback
    (uint64_t(1) << 50) - 27, // 50-bit — scalar fallback
    (uint64_t(1) << 60) - 93, // 60-bit — scalar fallback
    (uint64_t(1) << 62) - 57, // 62-bit, Modulus's ceiling
};

const size_t kVectorLengths[] = {0,  1,  3,   7,    8,    9,   15,
                                 16, 31, 100, 1000, 4099, 8192};

TEST(SimdDispatch, LevelsRoundTripAndClamp)
{
    LevelGuard guard;
    for (Level level : availableLevels()) {
        simd::setLevel(level);
        EXPECT_EQ(simd::activeLevel(), level) << simd::levelName(level);
        EXPECT_EQ(simd::active().level, level);
        EXPECT_EQ(simd::kernelsFor(level).level, level);
    }
    // Requests above the detected level clamp down instead of failing.
    simd::setLevel(Level::kAvx512);
    EXPECT_LE(simd::activeLevel(), simd::detectedLevel());
}

TEST(SimdDispatch, EligibilityBound)
{
    EXPECT_TRUE(simd::eligibleModulus(simd::kLaneModulusBound - 1));
    EXPECT_FALSE(simd::eligibleModulus(simd::kLaneModulusBound));
}

TEST(SimdKernels, ElementwiseMatchScalarEverywhere)
{
    Xoshiro256 rng(7);
    const Kernels &scalar = simd::kernelsFor(Level::kScalar);
    for (Level level : availableLevels()) {
        const Kernels &vec = simd::kernelsFor(level);
        for (uint64_t qv : kWidthModuli) {
            const Modulus q(qv);
            const uint64_t w = rng.uniformBelow(qv);
            const uint64_t w_shoup = q.shoupPrecompute(w);
            for (size_t n : kVectorLengths) {
                std::vector<uint64_t> a(n), b(n), src32(n);
                for (size_t i = 0; i < n; ++i) {
                    a[i] = rng.uniformBelow(qv);
                    b[i] = rng.uniformBelow(qv);
                    src32[i] = rng.uniformBelow(uint64_t(1) << 32);
                }
                // Edge values: both operands at q-1 in the first lanes.
                if (n >= 2) {
                    a[0] = qv - 1;
                    b[0] = qv - 1;
                    a[1] = 0;
                    b[1] = 0;
                }

                auto diff = [&](auto &&run) {
                    auto x = a;
                    auto y = a;
                    run(scalar, x.data());
                    run(vec, y.data());
                    EXPECT_EQ(x, y) << simd::levelName(level)
                                    << " q=" << qv << " n=" << n;
                };
                diff([&](const Kernels &k, uint64_t *p) {
                    k.add_mod(p, b.data(), n, qv);
                });
                diff([&](const Kernels &k, uint64_t *p) {
                    k.sub_mod(p, b.data(), n, qv);
                });
                diff([&](const Kernels &k, uint64_t *p) {
                    k.negate_mod(p, n, qv);
                });
                diff([&](const Kernels &k, uint64_t *p) {
                    k.mul_shoup(p, n, q, w, w_shoup);
                });
                diff([&](const Kernels &k, uint64_t *p) {
                    k.mul_mod(p, b.data(), n, q);
                });
                diff([&](const Kernels &k, uint64_t *p) {
                    k.mac_mod(p, b.data(), b.data(), n, q);
                });
                diff([&](const Kernels &k, uint64_t *p) {
                    k.reduce_u32(p, src32.data(), n, q);
                });
            }
        }
    }
}

/** NTT degrees under test: n = 8 runs AVX2 on permuted stages only,
 * n = 16 and 32 are mostly AVX-512 sub-lane stages. */
const size_t kNttDegrees[] = {8, 16, 32, 64, 256, 1024, 4096, 8192};

TEST(SimdKernels, ForwardNttMatchesScalarOracle)
{
    Xoshiro256 rng(23);
    for (size_t degree : kNttDegrees) {
        for (int bits : {20, 30, 50, 60}) {
            const uint64_t qv =
                rns::generateNttPrimes(bits, degree, 1)[0];
            const Modulus q(qv);
            const ntt::NttTables tables(q, degree);
            // Forward accepts Harvey-lazy inputs: exercise the full
            // [0, 4q) range plus the exact boundary values.
            std::vector<uint64_t> input(degree);
            for (auto &x : input)
                x = rng.uniformBelow(4 * qv);
            input[0] = 4 * qv - 1;
            input[1] = 2 * qv;
            input[2] = 2 * qv - 1;
            input[3] = qv;
            input[4] = qv - 1;
            input[5] = 0;

            auto expect = input;
            ntt::forwardNttScalar(expect, tables);
            for (Level level : availableLevels()) {
                auto got = input;
                simd::kernelsFor(level).ntt_forward(got.data(), tables);
                EXPECT_EQ(expect, got)
                    << simd::levelName(level) << " n=" << degree
                    << " q=" << qv;
            }
        }
    }
}

TEST(SimdKernels, InverseNttMatchesScalarOracle)
{
    Xoshiro256 rng(29);
    for (size_t degree : kNttDegrees) {
        for (int bits : {20, 30, 50, 60}) {
            const uint64_t qv =
                rns::generateNttPrimes(bits, degree, 1)[0];
            const Modulus q(qv);
            const ntt::NttTables tables(q, degree);
            // Inverse contract: inputs in [0, 2q).
            std::vector<uint64_t> input(degree);
            for (auto &x : input)
                x = rng.uniformBelow(2 * qv);
            input[0] = 2 * qv - 1;
            input[1] = qv;
            input[2] = qv - 1;
            input[3] = 0;

            auto expect = input;
            ntt::inverseNttScalar(expect, tables);
            for (Level level : availableLevels()) {
                auto got = input;
                simd::kernelsFor(level).ntt_inverse(got.data(), tables);
                EXPECT_EQ(expect, got)
                    << simd::levelName(level) << " n=" << degree
                    << " q=" << qv;
            }
        }
    }
}

/**
 * Every coefficient at the top of its lazy range (4q - 1 into the
 * forward transform, 2q - 1 into the inverse), at the largest NTT
 * prime below kLaneModulusBound: 4q - 1 then exceeds 2^31, the least
 * 32-bit headroom any vector butterfly sees, in every stage and lane
 * regrouping.
 */
TEST(SimdKernels, NttWorstCaseLazyInputsAtWidestLanePrime)
{
    for (size_t degree : kNttDegrees) {
        const uint64_t qv = rns::generateNttPrimes(30, degree, 1)[0];
        ASSERT_TRUE(simd::eligibleModulus(qv));
        ASSERT_GT(4 * qv - 1, uint64_t(1) << 31);
        const ntt::NttTables tables(Modulus(qv), degree);

        const std::vector<uint64_t> fwd_input(degree, 4 * qv - 1);
        auto fwd_expect = fwd_input;
        ntt::forwardNttScalar(fwd_expect, tables);
        const std::vector<uint64_t> inv_input(degree, 2 * qv - 1);
        auto inv_expect = inv_input;
        ntt::inverseNttScalar(inv_expect, tables);

        for (Level level : availableLevels()) {
            auto got = fwd_input;
            simd::kernelsFor(level).ntt_forward(got.data(), tables);
            EXPECT_EQ(fwd_expect, got)
                << "forward " << simd::levelName(level) << " n=" << degree;
            got = inv_input;
            simd::kernelsFor(level).ntt_inverse(got.data(), tables);
            EXPECT_EQ(inv_expect, got)
                << "inverse " << simd::levelName(level) << " n=" << degree;
        }
    }
}

/** NTT, pointwise mul_mod, inverse NTT on each table equals the
 * schoolbook negacyclic product, on the n = 256 ring of the PIR
 * workloads. */
TEST(SimdKernels, NttPointwiseProductMatchesNegacyclicReference)
{
    Xoshiro256 rng(37);
    const size_t degree = 256;
    for (int bits : {20, 30}) {
        const uint64_t qv = rns::generateNttPrimes(bits, degree, 1)[0];
        const Modulus q(qv);
        const ntt::NttTables tables(q, degree);
        std::vector<uint64_t> a(degree), b(degree), expect(degree);
        for (size_t i = 0; i < degree; ++i) {
            a[i] = rng.uniformBelow(qv);
            b[i] = rng.uniformBelow(qv);
        }
        ntt::negacyclicMulReference(a, b, expect, q);
        for (Level level : availableLevels()) {
            const Kernels &k = simd::kernelsFor(level);
            auto fa = a;
            auto fb = b;
            k.ntt_forward(fa.data(), tables);
            k.ntt_forward(fb.data(), tables);
            k.mul_mod(fa.data(), fb.data(), degree, q);
            k.ntt_inverse(fa.data(), tables);
            EXPECT_EQ(expect, fa)
                << simd::levelName(level) << " q=" << qv;
        }
    }
}

TEST(SimdKernels, NttRoundTripThroughDispatch)
{
    LevelGuard guard;
    Xoshiro256 rng(31);
    const size_t degree = 1024;
    const uint64_t qv = rns::generateNttPrimes(30, degree, 1)[0];
    const ntt::NttTables tables(Modulus(qv), degree);
    std::vector<uint64_t> input(degree);
    for (auto &x : input)
        x = rng.uniformBelow(qv);
    for (Level level : availableLevels()) {
        simd::setLevel(level);
        auto a = input;
        ntt::forwardNtt(a, tables);
        ntt::inverseNtt(a, tables);
        EXPECT_EQ(a, input) << simd::levelName(level);
    }
}

/** HPS lane counts: below, at and past one vector, odd tails, the
 * paper ring. */
const size_t kHpsLengths[] = {1, 7, 8, 9, 15, 17, 513, 4096};

using Rows = std::vector<std::vector<uint64_t>>;

template <typename T>
std::vector<T *>
pointers(std::vector<std::vector<uint64_t>> &rows)
{
    std::vector<T *> out;
    for (auto &row : rows)
        out.push_back(row.data());
    return out;
}

/**
 * @p count lanes of residues of @p base: random, except that both ends
 * carry the worst-case lanes: every residue q_i - 1, all zero, and the
 * centered-lift boundary floor(q/2), floor(q/2) + 1. Boundary lanes
 * are marked in @p boundary.
 */
Rows
hpsInput(const rns::RnsBase &base, size_t count, Xoshiro256 &rng,
         std::vector<bool> &boundary)
{
    Rows rows(base.size(), std::vector<uint64_t>(count));
    for (size_t i = 0; i < base.size(); ++i)
        for (auto &x : rows[i])
            x = rng.uniformBelow(base.modulus(i).value());
    const mp::BigInt half = base.product() / mp::BigInt(2);
    std::vector<uint64_t> top(base.size());
    for (size_t i = 0; i < base.size(); ++i)
        top[i] = base.modulus(i).value() - 1;
    const std::vector<std::vector<uint64_t>> special = {
        top, std::vector<uint64_t>(base.size(), 0), base.decompose(half),
        base.decompose(half + mp::BigInt(1))};
    boundary.assign(count, false);
    for (size_t k = 0; k < special.size(); ++k) {
        for (size_t c : {k, count - 1 - k}) {
            if (c >= count)
                continue;
            for (size_t i = 0; i < base.size(); ++i)
                rows[i][c] = special[k][i];
            boundary[c] = k >= 2;
        }
    }
    return rows;
}

/** checkHps's view of a base conversion (Lift, Scale's back-switch)... */
struct ConvertEngine
{
    const rns::FastBaseConverter &e;
    rns::RnsBase in() const { return e.fromBase(); }
    const rns::RnsBase &out() const { return e.toBase(); }
    void fast(std::span<const uint64_t> x, std::span<uint64_t> y) const
    {
        e.convert(x, y);
    }
    void exact(std::span<const uint64_t> x, std::span<uint64_t> y) const
    {
        e.convertExact(x, y);
    }
    void batch(const uint64_t *const *x, uint64_t *const *y,
               size_t count) const
    {
        e.convertBatch(x, y, count);
    }
    void kernel(const Kernels &k, const uint64_t *const *x,
                uint64_t *const *y, size_t count) const
    {
        k.hps_convert(*e.hpsTable(), x, y, count);
    }
    /** Near q/2 the fast lift may pick x - q (or x + q) instead. */
    std::vector<mp::BigInt> boundaryOffsets() const
    {
        const mp::BigInt &q = e.fromBase().product();
        return {mp::BigInt(0), q, mp::BigInt(0) - q};
    }
    const simd::HpsTable *table() const { return e.hpsTable(); }
};

/** ... or a scale-round (Scale 13->7, a mod-switch rounder). */
struct ScaleEngine
{
    const rns::ScaleRounder &e;
    rns::RnsBase
    in() const
    {
        return rns::RnsBase::concat(e.qBase(), e.pBase());
    }
    const rns::RnsBase &out() const { return e.pBase(); }
    void fast(std::span<const uint64_t> x, std::span<uint64_t> y) const
    {
        e.scale(x, y);
    }
    void exact(std::span<const uint64_t> x, std::span<uint64_t> y) const
    {
        e.scaleExact(x, y);
    }
    void batch(const uint64_t *const *x, uint64_t *const *y,
               size_t count) const
    {
        e.scaleBatch(x, y, count);
    }
    void kernel(const Kernels &k, const uint64_t *const *x,
                uint64_t *const *y, size_t count) const
    {
        k.hps_scale(*e.hpsTable(), x, y, count);
    }
    /** For odd t * p, t x / q sits just below a rounding tie there. */
    std::vector<mp::BigInt> boundaryOffsets() const
    {
        return {mp::BigInt(0), mp::BigInt(1), mp::BigInt(-1)};
    }
    const simd::HpsTable *table() const { return e.hpsTable(); }
};

/** @return true iff got_j = want_j + d (mod out_j) for every j. */
bool
offsetBy(const std::vector<uint64_t> &got, const std::vector<uint64_t> &want,
         const mp::BigInt &d, const rns::RnsBase &out)
{
    for (size_t j = 0; j < out.size(); ++j) {
        const uint64_t m = out.modulus(j).value();
        const uint64_t dm = d.mod(mp::BigInt::fromUint64(m)).toUint64();
        if (got[j] != (want[j] + dm) % m)
            return false;
    }
    return true;
}

/**
 * One HPS engine against both oracles: the per-coefficient fast path
 * (bit-identical on every lane) and the exact BigInt path (identical
 * off the centered-lift boundary, within boundaryOffsets() on it).
 * Then the engine's kernel at every SIMD level, and its dispatched
 * batch entry, must reproduce the fast path bit for bit. The batch
 * entry runs whether or not the base takes the vector path.
 */
template <typename Engine>
void
checkHps(const Engine &engine, bool expect_vector, const std::string &what)
{
    ASSERT_EQ(engine.table() != nullptr, expect_vector) << what;
    const rns::RnsBase in_base = engine.in();
    const rns::RnsBase &out_base = engine.out();
    for (size_t count : kHpsLengths) {
        SCOPED_TRACE(what + " count=" + std::to_string(count));
        Xoshiro256 rng(count * 131 + in_base.size());
        std::vector<bool> boundary;
        Rows in = hpsInput(in_base, count, rng, boundary);
        const auto in_rows = pointers<const uint64_t>(in);

        Rows expect(out_base.size(), std::vector<uint64_t>(count));
        std::vector<uint64_t> x(in_base.size());
        std::vector<uint64_t> fast(out_base.size()), exact(out_base.size());
        for (size_t c = 0; c < count; ++c) {
            for (size_t i = 0; i < in_base.size(); ++i)
                x[i] = in[i][c];
            engine.fast(x, fast);
            engine.exact(x, exact);
            for (size_t j = 0; j < out_base.size(); ++j)
                expect[j][c] = fast[j];
            if (!boundary[c]) {
                EXPECT_EQ(fast, exact) << "lane " << c;
                continue;
            }
            bool near = false;
            for (const mp::BigInt &d : engine.boundaryOffsets())
                near = near || offsetBy(fast, exact, d, out_base);
            EXPECT_TRUE(near) << "boundary lane " << c;
        }

        LevelGuard guard;
        for (Level level : availableLevels()) {
            if (expect_vector) {
                Rows got(out_base.size(), std::vector<uint64_t>(count));
                engine.kernel(simd::kernelsFor(level), in_rows.data(),
                              pointers<uint64_t>(got).data(), count);
                EXPECT_EQ(expect, got) << "kernel " << simd::levelName(level);
            }
            simd::setLevel(level);
            Rows got(out_base.size(), std::vector<uint64_t>(count));
            engine.batch(in_rows.data(), pointers<uint64_t>(got).data(),
                         count);
            EXPECT_EQ(expect, got) << "batch " << simd::levelName(level);
        }
    }
}

/** Every Lift, Scale, back-conversion and mod-switch engine of @p params. */
void
checkParamsHps(const fv::FvParams &params, const std::string &name)
{
    for (size_t level = 0; level <= params.maxLevel(); ++level) {
        const std::string at = name + " level " + std::to_string(level);
        checkHps(ConvertEngine{params.liftConverter(level)}, true,
                 at + " lift");
        checkHps(ScaleEngine{params.scaler(level)}, true, at + " scale");
        checkHps(ConvertEngine{params.scaleBackConverter(level)}, true,
                 at + " back");
        if (level < params.maxLevel())
            checkHps(ScaleEngine{params.modSwitchRounder(level)}, true,
                     at + " mod-switch");
    }
}

TEST(SimdHps, PaperBasesMatchOraclesAtEveryLevel)
{
    // Lift 6->7, Scale 13->7 and back 7->6 at level 0, their narrower
    // siblings at levels 1-5, and each level's 1 + k term rounder.
    checkParamsHps(*fv::FvParams::paper(), "paper");
}

TEST(SimdHps, PirRingMatchesOracles)
{
    fv::FvConfig cfg; // perfbench pir8's ring: n = 256, three q primes
    cfg.degree = 256;
    cfg.plain_modulus = 257;
    cfg.sigma = 3.2;
    cfg.q_prime_count = 3;
    checkParamsHps(*fv::FvParams::create(cfg), "pir");
}

/**
 * The term bounds: kHpsMaxTerms source primes (the widest 30-bit NTT
 * primes, so every Block-2 product is near 2^60) stay on the vector
 * path, one more takes the per-coefficient fallback, and so does a
 * base with a prime past the lane bound. Bases of kHpsRunTerms,
 * kHpsRunTerms + 1 and 2 * kHpsRunTerms + 1 terms fill one run, spill
 * one product into a second run and start a third.
 */
TEST(SimdHps, HeadroomLimitSelectsThePath)
{
    const size_t max = simd::kHpsMaxTerms;
    const size_t run = simd::kHpsRunTerms;
    const auto primes = rns::generateNttPrimes(30, 4096, max + 4);
    const auto base = [&](size_t first, size_t count) {
        return rns::RnsBase(std::vector<uint64_t>(
            primes.begin() + first, primes.begin() + first + count));
    };
    const rns::RnsBase out = base(max + 1, 3);

    for (size_t terms : {run, run + 1, 2 * run + 1, max}) {
        const std::string at = std::to_string(terms) + " terms";
        checkHps(ConvertEngine{rns::FastBaseConverter(base(0, terms), out)},
                 true, "convert " + at);
        checkHps(ScaleEngine{rns::ScaleRounder(base(0, terms), out, 65537)},
                 true, "scale " + at);
    }
    const rns::FastBaseConverter past_limit(base(0, max + 1), out);
    const rns::ScaleRounder scale_past(base(0, max + 1), out, 65537);
    checkHps(ConvertEngine{past_limit}, false, "convert past the limit");
    checkHps(ScaleEngine{scale_past}, false, "scale past the limit");

    // A 31-bit prime in either base leaves the lanes.
    const rns::RnsBase wide(rns::generateNttPrimes(31, 4096, 2));
    const rns::FastBaseConverter to_wide(base(0, 3), wide);
    const rns::ScaleRounder from_wide(wide, base(0, 3), 2);
    checkHps(ConvertEngine{to_wide}, false, "convert to 31-bit primes");
    checkHps(ScaleEngine{from_wide}, false, "scale from 31-bit primes");
}

/**
 * scaleRows documents that q_rows may alias full_rows. Every SIMD
 * level and thread split must give the out-of-place result in place,
 * and that result must be the exact CRT path's on random inputs.
 */
void
checkInPlaceScale(const fv::FvParams &params, const std::string &name)
{
    const size_t n = params.degree();
    Xoshiro256 rng(53);
    LevelGuard guard;
    const unsigned saved_threads = threadCount();
    for (size_t level = 0; level <= params.maxLevel(); ++level) {
        SCOPED_TRACE(name + " level " + std::to_string(level));
        const rns::RnsBase &full = *params.fullBase(level);
        const size_t kq = params.qPrimeCount(level);
        std::vector<uint64_t> rows(full.size() * n);
        for (size_t i = 0; i < full.size(); ++i)
            for (size_t c = 0; c < n; ++c)
                rows[i * n + c] = rng.uniformBelow(full.modulus(i).value());
        std::vector<uint64_t> expect(kq * n);
        fv::scaleRows(params, level, fv::ArithPath::kExactCrt, rows.data(),
                      expect.data());
        for (Level simd_level : availableLevels()) {
            simd::setLevel(simd_level);
            for (unsigned threads : {1u, 3u}) {
                setThreadCount(threads);
                std::vector<uint64_t> out(kq * n);
                fv::scaleRows(params, level, fv::ArithPath::kHps,
                              rows.data(), out.data());
                EXPECT_EQ(expect, out);
                auto in_place = rows;
                fv::scaleRows(params, level, fv::ArithPath::kHps,
                              in_place.data(), in_place.data());
                in_place.resize(kq * n);
                EXPECT_EQ(expect, in_place)
                    << simd::levelName(simd_level) << " threads "
                    << threads;
            }
        }
    }
    setThreadCount(saved_threads);
}

TEST(SimdHps, InPlaceScaleRowsMatchesOutOfPlace)
{
    checkInPlaceScale(*fv::FvParams::paper(), "paper");
    // Past the term bound: level 0's Scale and every back-conversion
    // take the per-coefficient fallback, and a p base of more than 16
    // primes shortens scaleRows' stages.
    fv::FvConfig cfg;
    cfg.degree = 256;
    cfg.plain_modulus = 65537;
    cfg.sigma = 3.2;
    cfg.q_prime_count = simd::kHpsMaxTerms + 1;
    const auto wide = fv::FvParams::create(cfg);
    ASSERT_GT(wide->pBase()->size(), simd::kHpsMaxTerms);
    checkInPlaceScale(*wide, "wide");
}

} // namespace
} // namespace heat
