/**
 * @file
 * AVX-512F kernel table (8 lanes of 64-bit). Compiled with a per-file
 * `-mavx512f`; only reached through the runtime dispatcher.
 *
 * Same 32-bit Shoup/Harvey reduction chains as the AVX2 table (see
 * simd_avx2.cc for the range arguments) — the wins here are twice the
 * lane count and native unsigned 64-bit compares into mask registers
 * (no sign-bias tricks for carries or conditional subtracts). The NTTs
 * run every stage in vectors; the t = 4, 2, 1 stages regroup
 * 16-coefficient chunks with two-source lane permutes (n >= 16).
 */

#include <immintrin.h>

#include "ntt/ntt.h"
#include "ntt/ntt_tables.h"
#include "rns/modulus.h"
#include "simd/simd_internal.h"

namespace heat::simd::detail {

namespace {

inline __m512i
load(const uint64_t *p)
{
    return _mm512_loadu_si512(p);
}

inline void
store(uint64_t *p, __m512i x)
{
    _mm512_storeu_si512(p, x);
}

inline __m512i
set1(uint64_t x)
{
    return _mm512_set1_epi64(static_cast<long long>(x));
}

/** x >= k ? x - k : x via an unsigned mask compare. */
inline __m512i
csub(__m512i x, __m512i k)
{
    const __mmask8 ge = _mm512_cmpge_epu64_mask(x, k);
    return _mm512_mask_sub_epi64(x, ge, x, k);
}

/** See simd_avx2.cc: lazy Shoup product in [0, 2q), a < 2^32. */
inline __m512i
mulShoupLazy32(__m512i a, __m512i w, __m512i phi, __m512i q)
{
    const __m512i quot = _mm512_srli_epi64(_mm512_mul_epu32(a, phi), 32);
    return _mm512_sub_epi64(_mm512_mul_epu32(a, w),
                            _mm512_mul_epu32(quot, q));
}

/** s mod q into [0, 2q) for s < 2^32 (Shoup with w = 1). */
inline __m512i
reduceLazyBy1(__m512i s, __m512i phi1, __m512i q)
{
    const __m512i quot = _mm512_srli_epi64(_mm512_mul_epu32(s, phi1), 32);
    return _mm512_sub_epi64(s, _mm512_mul_epu32(quot, q));
}

/** CT butterfly on Harvey-lazy values: u, v in [0, 4q) stay in [0, 4q). */
inline void
ctButterfly(__m512i &u, __m512i &v, __m512i w, __m512i phi, __m512i q,
            __m512i two_q)
{
    const __m512i x = csub(u, two_q);
    const __m512i y = mulShoupLazy32(v, w, phi, q);
    u = _mm512_add_epi64(x, y);
    v = _mm512_add_epi64(_mm512_sub_epi64(x, y), two_q);
}

/** GS butterfly on lazy values: u, v in [0, 2q) stay in [0, 2q). */
inline void
gsButterfly(__m512i &u, __m512i &v, __m512i w, __m512i phi, __m512i q,
            __m512i two_q)
{
    const __m512i x = _mm512_add_epi64(_mm512_sub_epi64(u, v), two_q);
    u = csub(_mm512_add_epi64(u, v), two_q);
    v = mulShoupLazy32(x, w, phi, q);
}

/**
 * A lane regrouping of a 16-coefficient chunk held in two registers:
 * (x, y) <- (x:y[lo], x:y[hi]), where x:y is the 16-lane concatenation.
 *
 * The last four stages (t = 8, 4, 2, 1) run per chunk with x holding
 * the eight butterfly tops and y the eight matching bottoms, in block
 * order, so lane l belongs to block l / t of the chunk. For t = 8 that
 * is the chunk as loaded. The sub-lane stages butterfly coefficients
 * closer than a vector width, so each regroups the chunk first: stage
 * t's layout puts coefficients {0,1,2,3,8,9,10,11}, {0,1,4,5,8,9,12,13}
 * or {0,2,...,14} in x for t = 4, 2, 1, and their partners (+t) in y.
 */
struct Regroup
{
    __m512i lo, hi;
};

inline void
regroup(__m512i &x, __m512i &y, const Regroup &r)
{
    const __m512i nx = _mm512_permutex2var_epi64(x, r.lo, y);
    y = _mm512_permutex2var_epi64(x, r.hi, y);
    x = nx;
}

/** The maps between the natural order and the t = 4, 2, 1 layouts. The
 * first three are their own inverses. Built per call: a namespace-scope
 * __m512i would run AVX-512 code at static-init time on any host. */
struct SubLaneMaps
{
    Regroup t4{_mm512_setr_epi64(0, 1, 2, 3, 8, 9, 10, 11),
               _mm512_setr_epi64(4, 5, 6, 7, 12, 13, 14, 15)};
    Regroup t4_t2{_mm512_setr_epi64(0, 1, 8, 9, 4, 5, 12, 13),
                  _mm512_setr_epi64(2, 3, 10, 11, 6, 7, 14, 15)};
    Regroup t2_t1{_mm512_setr_epi64(0, 8, 2, 10, 4, 12, 6, 14),
                  _mm512_setr_epi64(1, 9, 3, 11, 5, 13, 7, 15)};
    Regroup to_t1{_mm512_setr_epi64(0, 2, 4, 6, 8, 10, 12, 14),
                  _mm512_setr_epi64(1, 3, 5, 7, 9, 11, 13, 15)};
    Regroup from_t1{_mm512_setr_epi64(0, 8, 1, 9, 2, 10, 3, 11),
                    _mm512_setr_epi64(4, 12, 5, 13, 6, 14, 7, 15)};
};

/**
 * Lane l of the result is p[l / T]: stage T's twiddle-table entries
 * for one chunk (8 / T of them), each repeated across its block.
 */
template <size_t T>
inline __m512i
spread(const uint64_t *p)
{
    if constexpr (T == 8) {
        return set1(*p);
    } else if constexpr (T == 1) {
        return load(p);
    } else {
        const __m512i idx = T == 4
                                ? _mm512_setr_epi64(0, 0, 0, 0, 1, 1, 1, 1)
                                : _mm512_setr_epi64(0, 0, 1, 1, 2, 2, 3, 3);
        const __mmask8 live = (1u << (8 / T)) - 1;
        return _mm512_permutexvar_epi64(idx,
                                        _mm512_maskz_loadu_epi64(live, p));
    }
}

/** Twiddle index of chunk @p c's first block in stage T. */
template <size_t T>
inline size_t
chunkTwiddle(size_t n, size_t c)
{
    return n / (2 * T) + c * (8 / T);
}

template <size_t T>
inline void
ctInChunk(__m512i &x, __m512i &y, const ntt::NttTables &tables, size_t c,
          __m512i q, __m512i two_q)
{
    const size_t k = chunkTwiddle<T>(tables.degree(), c);
    const __m512i phi =
        _mm512_srli_epi64(spread<T>(tables.rootPowersShoup() + k), 32);
    ctButterfly(x, y, spread<T>(tables.rootPowers() + k), phi, q, two_q);
}

template <size_t T>
inline void
gsInChunk(__m512i &x, __m512i &y, const ntt::NttTables &tables, size_t c,
          __m512i q, __m512i two_q)
{
    const size_t k = chunkTwiddle<T>(tables.degree(), c);
    const __m512i phi =
        _mm512_srli_epi64(spread<T>(tables.invRootPowersShoup() + k), 32);
    gsButterfly(x, y, spread<T>(tables.invRootPowers() + k), phi, q,
                two_q);
}

void
nttForwardAvx512(uint64_t *a, const ntt::NttTables &tables)
{
    const uint64_t qv = tables.modulus().value();
    const size_t n = tables.degree();
    if (!eligibleModulus(qv) || n < 16) {
        ntt::forwardNttScalar({a, n}, tables);
        return;
    }
    const __m512i vq = set1(qv);
    const __m512i v2q = set1(2 * qv);

    size_t m = 1;
    for (size_t t = n >> 1; t >= 16; t >>= 1, m <<= 1) {
        for (size_t i = 0; i < m; ++i) {
            const size_t j1 = 2 * i * t;
            const __m512i vw = set1(tables.rootPower(m + i));
            const __m512i vphi =
                set1(tables.rootPowerShoup(m + i) >> 32);
            for (size_t j = j1; j < j1 + t; j += 8) {
                __m512i u = load(a + j);
                __m512i v = load(a + j + t);
                ctButterfly(u, v, vw, vphi, vq, v2q);
                store(a + j, u);
                store(a + j + t, v);
            }
        }
    }

    // The last four stages (t = 8, 4, 2, 1) and the final
    // normalization, fused: each chunk stays in registers from load to
    // store. Stage t = 8 pairs the chunk's two halves as loaded.
    const SubLaneMaps maps;
    for (size_t c = 0; c < n / 16; ++c) {
        __m512i x = load(a + 16 * c);
        __m512i y = load(a + 16 * c + 8);
        ctInChunk<8>(x, y, tables, c, vq, v2q);
        regroup(x, y, maps.t4);
        ctInChunk<4>(x, y, tables, c, vq, v2q);
        regroup(x, y, maps.t4_t2);
        ctInChunk<2>(x, y, tables, c, vq, v2q);
        regroup(x, y, maps.t2_t1);
        ctInChunk<1>(x, y, tables, c, vq, v2q);
        x = csub(csub(x, v2q), vq);
        y = csub(csub(y, v2q), vq);
        regroup(x, y, maps.from_t1);
        store(a + 16 * c, x);
        store(a + 16 * c + 8, y);
    }
}

void
nttInverseAvx512(uint64_t *a, const ntt::NttTables &tables)
{
    const uint64_t qv = tables.modulus().value();
    const size_t n = tables.degree();
    if (!eligibleModulus(qv) || n < 16) {
        ntt::inverseNttScalar({a, n}, tables);
        return;
    }
    const __m512i vq = set1(qv);
    const __m512i v2q = set1(2 * qv);

    // Stages t = 1, 2, 4, fused per chunk as in the forward transform.
    const SubLaneMaps maps;
    for (size_t c = 0; c < n / 16; ++c) {
        __m512i x = load(a + 16 * c);
        __m512i y = load(a + 16 * c + 8);
        regroup(x, y, maps.to_t1);
        gsInChunk<1>(x, y, tables, c, vq, v2q);
        regroup(x, y, maps.t2_t1);
        gsInChunk<2>(x, y, tables, c, vq, v2q);
        regroup(x, y, maps.t4_t2);
        gsInChunk<4>(x, y, tables, c, vq, v2q);
        regroup(x, y, maps.t4);
        store(a + 16 * c, x);
        store(a + 16 * c + 8, y);
    }

    for (size_t t = 8; t < n / 2; t <<= 1) {
        const size_t h = n / (2 * t);
        for (size_t i = 0; i < h; ++i) {
            const size_t j1 = 2 * i * t;
            const __m512i vw = set1(tables.invRootPower(h + i));
            const __m512i vphi =
                set1(tables.invRootPowerShoup(h + i) >> 32);
            for (size_t j = j1; j < j1 + t; j += 8) {
                __m512i u = load(a + j);
                __m512i v = load(a + j + t);
                gsButterfly(u, v, vw, vphi, vq, v2q);
                store(a + j, u);
                store(a + j + t, v);
            }
        }
    }

    // Last stage (t = n/2) with the n^{-1} scaling folded in: sums
    // are scaled by n^{-1}, differences by w * n^{-1}, and both leave
    // normalized. A sum is below 4q < 2^32, inside the lazy Shoup
    // product's input range, so it needs no conditional subtract.
    const size_t t = n / 2;
    const rns::Modulus &mod = tables.modulus();
    const uint64_t w_n = mod.mul(tables.invRootPower(1), tables.invDegree());
    const __m512i vn_inv = set1(tables.invDegree());
    const __m512i vphi_n = set1(tables.invDegreeShoup() >> 32);
    const __m512i vw_n = set1(w_n);
    const __m512i vphi_wn = set1(mod.shoupPrecompute(w_n) >> 32);
    for (size_t j = 0; j < t; j += 8) {
        const __m512i u = load(a + j);
        const __m512i v = load(a + j + t);
        const __m512i sum = _mm512_add_epi64(u, v);
        const __m512i diff = _mm512_add_epi64(_mm512_sub_epi64(u, v), v2q);
        store(a + j, csub(mulShoupLazy32(sum, vn_inv, vphi_n, vq), vq));
        store(a + j + t,
              csub(mulShoupLazy32(diff, vw_n, vphi_wn, vq), vq));
    }
}

void
addModAvx512(uint64_t *a, const uint64_t *b, size_t n, uint64_t q)
{
    const __m512i vq = set1(q);
    size_t j = 0;
    for (; j + 8 <= n; j += 8) {
        const __m512i s = _mm512_add_epi64(load(a + j), load(b + j));
        store(a + j, csub(s, vq));
    }
    addModScalar(a + j, b + j, n - j, q);
}

void
subModAvx512(uint64_t *a, const uint64_t *b, size_t n, uint64_t q)
{
    const __m512i vq = set1(q);
    size_t j = 0;
    for (; j + 8 <= n; j += 8) {
        const __m512i va = load(a + j);
        const __m512i vb = load(b + j);
        const __mmask8 lt = _mm512_cmplt_epu64_mask(va, vb);
        const __m512i d = _mm512_sub_epi64(va, vb);
        store(a + j, _mm512_mask_add_epi64(d, lt, d, vq));
    }
    subModScalar(a + j, b + j, n - j, q);
}

void
negateModAvx512(uint64_t *a, size_t n, uint64_t q)
{
    const __m512i vq = set1(q);
    size_t j = 0;
    for (; j + 8 <= n; j += 8) {
        const __m512i va = load(a + j);
        const __mmask8 nz = _mm512_test_epi64_mask(va, va);
        store(a + j, _mm512_maskz_sub_epi64(nz, vq, va));
    }
    negateModScalar(a + j, n - j, q);
}

void
mulShoupAvx512(uint64_t *a, size_t n, const rns::Modulus &q, uint64_t w,
               uint64_t w_shoup)
{
    if (!eligibleModulus(q.value())) {
        mulShoupScalar(a, n, q, w, w_shoup);
        return;
    }
    const __m512i vq = set1(q.value());
    const __m512i vw = set1(w);
    const __m512i vphi = set1(w_shoup >> 32);
    size_t j = 0;
    for (; j + 8 <= n; j += 8) {
        const __m512i r = mulShoupLazy32(load(a + j), vw, vphi, vq);
        store(a + j, csub(r, vq));
    }
    mulShoupScalar(a + j, n - j, q, w, w_shoup);
}

/** x mod q into [0, 2q) for any 64-bit x, q < 2^30. */
inline __m512i
reduce64Lazy(__m512i x, __m512i vq, __m512i vphi1, __m512i vc32,
             __m512i vphi_c32, __m512i mask32)
{
    const __m512i d = _mm512_srli_epi64(x, 32);
    const __m512i l = _mm512_and_epi64(x, mask32);
    const __m512i t1 = mulShoupLazy32(d, vc32, vphi_c32, vq);
    const __m512i t3 = reduceLazyBy1(l, vphi1, vq);
    const __m512i s = _mm512_add_epi64(t1, t3); // < 4q < 2^32
    return reduceLazyBy1(s, vphi1, vq);
}

/** a[i]*b[i] mod q into [0, 2q); a, b < q < 2^30. */
inline __m512i
mulModLazy(__m512i va, __m512i vb, __m512i vq, __m512i vphi1,
           __m512i vc32, __m512i vphi_c32, __m512i mask32)
{
    return reduce64Lazy(_mm512_mul_epu32(va, vb), vq, vphi1, vc32,
                        vphi_c32, mask32);
}

void
mulModAvx512(uint64_t *a, const uint64_t *b, size_t n,
             const rns::Modulus &q)
{
    if (!eligibleModulus(q.value())) {
        mulModScalar(a, b, n, q);
        return;
    }
    const Mod32Constants mc = mod32Constants(q);
    const __m512i vq = set1(mc.q);
    const __m512i vphi1 = set1(mc.phi1);
    const __m512i vc32 = set1(mc.c32);
    const __m512i vphi_c32 = set1(mc.phi_c32);
    const __m512i mask32 = set1(0xffffffffu);
    size_t j = 0;
    for (; j + 8 <= n; j += 8) {
        const __m512i r = mulModLazy(load(a + j), load(b + j), vq,
                                     vphi1, vc32, vphi_c32, mask32);
        store(a + j, csub(r, vq));
    }
    mulModScalar(a + j, b + j, n - j, q);
}

void
macModAvx512(uint64_t *acc, const uint64_t *a, const uint64_t *b,
             size_t n, const rns::Modulus &q)
{
    if (!eligibleModulus(q.value())) {
        macModScalar(acc, a, b, n, q);
        return;
    }
    const Mod32Constants mc = mod32Constants(q);
    const __m512i vq = set1(mc.q);
    const __m512i vphi1 = set1(mc.phi1);
    const __m512i vc32 = set1(mc.c32);
    const __m512i vphi_c32 = set1(mc.phi_c32);
    const __m512i mask32 = set1(0xffffffffu);
    size_t j = 0;
    for (; j + 8 <= n; j += 8) {
        const __m512i p =
            csub(mulModLazy(load(a + j), load(b + j), vq, vphi1, vc32,
                            vphi_c32, mask32),
                 vq);
        const __m512i s = _mm512_add_epi64(load(acc + j), p);
        store(acc + j, csub(s, vq));
    }
    macModScalar(acc + j, a + j, b + j, n - j, q);
}

void
reduceU32Avx512(uint64_t *dst, const uint64_t *src, size_t n,
                const rns::Modulus &q)
{
    if (!eligibleModulus(q.value())) {
        reduceU32Scalar(dst, src, n, q);
        return;
    }
    const Mod32Constants mc = mod32Constants(q);
    const __m512i vq = set1(mc.q);
    const __m512i vphi1 = set1(mc.phi1);
    size_t j = 0;
    for (; j + 8 <= n; j += 8) {
        const __m512i r = reduceLazyBy1(load(src + j), vphi1, vq);
        store(dst + j, csub(r, vq));
    }
    reduceU32Scalar(dst + j, src + j, n - j, q);
}

/** (hi, lo) += x, as 128-bit lanes. */
inline void
add128(__m512i &lo, __m512i &hi, __m512i x)
{
    lo = _mm512_add_epi64(lo, x);
    const __mmask8 carry = _mm512_cmplt_epu64_mask(lo, x);
    hi = _mm512_mask_add_epi64(hi, carry, hi, set1(1));
}

/**
 * The fused HPS kernels (see simd.h). Per 8 coefficients: load the
 * source residues once (kConvert: into lambdas), run Block 1 as a
 * 128-bit sum of 30x32-bit partial products (mid collects the products
 * with the weights' high halves, below 2^58 each), round it, then write
 * every destination prime from its Block-2 sum, reduced after every
 * 64-bit run of kHpsRunTerms products. This loop runs U such vector
 * groups per iteration, from coefficient @p c while a whole iteration
 * fits, and returns where it stopped: the groups are independent, so
 * each hides the others' multiply latency.
 */
template <bool kConvert, int U>
size_t
hpsAvx512Loop(const HpsTable &t, const uint64_t *const *in_rows,
              uint64_t *const *out_rows, size_t c, size_t count)
{
    const size_t kq = t.terms;
    const int s = t.frac_bits;
    const __m512i mask32 = set1(0xffffffffu);
    // Rounding: add 2^(s-1), then (hi:lo) >> s. A shift count outside
    // [0, 63] clears the lane, so one expression covers every s.
    const __m512i half_lo = set1(s <= 64 ? uint64_t(1) << (s - 1) : 0);
    const __m512i half_hi = set1(s > 64 ? uint64_t(1) << (s - 65) : 0);
    const __m128i sh_lo = _mm_cvtsi64_si128(s);
    const __m128i sh_hi_up = _mm_cvtsi64_si128(64 - s);
    const __m128i sh_hi_down = _mm_cvtsi64_si128(s - 64);
    for (; c + 8 * U <= count; c += 8 * U) {
        __m512i y[U][kHpsMaxTerms];
        __m512i lo[U], hi[U], mid[U], r[U];
        for (int u = 0; u < U; ++u) {
            lo[u] = half_lo;
            hi[u] = half_hi;
            mid[u] = _mm512_setzero_si512();
        }
        for (size_t i = 0; i < kq; ++i) {
            const __m512i f = set1(t.frac[i]);
            const __m512i f_hi = _mm512_srli_epi64(f, 32);
            for (int u = 0; u < U; ++u) {
                __m512i x = load(in_rows[i] + c + 8 * u);
                if constexpr (kConvert) {
                    const __m512i q = set1(t.src_q[i]);
                    x = csub(mulShoupLazy32(x, set1(t.qtilde[i]),
                                            set1(t.qtilde_phi[i]), q),
                             q);
                }
                y[u][i] = x;
                add128(lo[u], hi[u], _mm512_mul_epu32(x, f));
                mid[u] =
                    _mm512_add_epi64(mid[u], _mm512_mul_epu32(x, f_hi));
            }
        }
        for (int u = 0; u < U; ++u) {
            add128(lo[u], hi[u], _mm512_slli_epi64(mid[u], 32));
            hi[u] = _mm512_add_epi64(hi[u], _mm512_srli_epi64(mid[u], 32));
            const __m512i from_lo = _mm512_srl_epi64(lo[u], sh_lo);
            const __m512i from_hi =
                _mm512_or_si512(_mm512_sll_epi64(hi[u], sh_hi_up),
                                _mm512_srl_epi64(hi[u], sh_hi_down));
            r[u] = _mm512_or_si512(from_lo, from_hi);
        }

        for (size_t j = 0; j < t.dst.size(); ++j) {
            const HpsPrime &p = t.dst[j];
            __m512i acc[U];
            for (int u = 0; u < U; ++u) {
                if constexpr (kConvert) // r <= kq
                    acc[u] = _mm512_mul_epu32(r[u], set1(p.round_w));
                else
                    acc[u] = _mm512_add_epi64(
                        r[u],
                        _mm512_mul_epu32(load(in_rows[kq + j] + c + 8 * u),
                                         set1(p.own_w)));
            }
            const __m512i q = set1(p.q);
            for (size_t i0 = 0; i0 < kq; i0 += kHpsRunTerms) {
                for (size_t i = i0; i < kq && i < i0 + kHpsRunTerms; ++i) {
                    const __m512i w = set1(p.w[i]);
                    for (int u = 0; u < U; ++u)
                        acc[u] = _mm512_add_epi64(
                            acc[u], _mm512_mul_epu32(y[u][i], w));
                }
                for (int u = 0; u < U; ++u)
                    acc[u] = reduce64Lazy(acc[u], q, set1(p.phi1),
                                          set1(p.c32), set1(p.phi_c32),
                                          mask32);
            }
            for (int u = 0; u < U; ++u)
                store(out_rows[j] + c + 8 * u, csub(acc[u], q));
        }
    }
    return c;
}

template <bool kConvert>
void
hpsAvx512(const HpsTable &t, const uint64_t *const *in_rows,
          uint64_t *const *out_rows, size_t count)
{
    size_t c = hpsAvx512Loop<kConvert, 4>(t, in_rows, out_rows, 0, count);
    c = hpsAvx512Loop<kConvert, 1>(t, in_rows, out_rows, c, count);
    hpsScalar<kConvert>(t, in_rows, out_rows, c, count);
}

} // namespace

const Kernels &
avx512Kernels()
{
    static const Kernels table = {
        Level::kAvx512,  nttForwardAvx512,  nttInverseAvx512,
        addModAvx512,    subModAvx512,      negateModAvx512,
        mulShoupAvx512,  mulModAvx512,      macModAvx512,
        reduceU32Avx512, hpsAvx512<true>,   hpsAvx512<false>,
    };
    return table;
}

} // namespace heat::simd::detail
