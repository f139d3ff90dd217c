/**
 * @file
 * AVX2 kernel table (4 lanes of 64-bit). Compiled with a per-file
 * `-mavx2`; only reached through the runtime dispatcher.
 *
 * All multiply-based kernels use 32-bit Shoup/Harvey lazy reduction:
 * with q < 2^30 every live value fits 32 bits, so one vpmuludq gives a
 * full product and quot = floor(a * floor(w*2^32/q) / 2^32) leaves
 * r = a*w - quot*q in [0, 2q) (Harvey's bound holds for any a < 2^32,
 * w < q). The 32-bit Shoup constant is the top half of the stored
 * 64-bit one: floor(w*2^64/q) >> 32 == floor(w*2^32/q). Lazy values
 * differ from the scalar oracle's by multiples of q, but every kernel
 * normalizes its outputs, so results are bit-identical. Wider moduli
 * and the element-wise kernels' sub-vector loop remainders run the
 * scalar bodies. The NTTs vectorize every stage: the t = 2, 1 stages,
 * whose butterflies are closer than a vector width, regroup lanes with
 * in-register shuffles (n >= 8).
 */

#include <immintrin.h>

#include "ntt/ntt.h"
#include "ntt/ntt_tables.h"
#include "rns/modulus.h"
#include "simd/simd_internal.h"

namespace heat::simd::detail {

namespace {

inline __m256i
load(const uint64_t *p)
{
    return _mm256_loadu_si256(reinterpret_cast<const __m256i *>(p));
}

inline void
store(uint64_t *p, __m256i x)
{
    _mm256_storeu_si256(reinterpret_cast<__m256i *>(p), x);
}

inline __m256i
set1(uint64_t x)
{
    return _mm256_set1_epi64x(static_cast<long long>(x));
}

/** x >= k ? x - k : x; valid for x, k < 2^63 (signed compare). */
inline __m256i
csub(__m256i x, __m256i k)
{
    const __m256i lt = _mm256_cmpgt_epi64(k, x);
    return _mm256_sub_epi64(x, _mm256_andnot_si256(lt, k));
}

/** Unsigned 64-bit a < b lane mask (sign-bias trick). */
inline __m256i
ltu64(__m256i a, __m256i b, __m256i bias)
{
    return _mm256_cmpgt_epi64(_mm256_xor_si256(b, bias),
                              _mm256_xor_si256(a, bias));
}

/**
 * Harvey lazy Shoup: a*w - floor(a*phi/2^32)*q in [0, 2q) for
 * a < 2^32, w < q < 2^30, phi = floor(w*2^32/q).
 */
inline __m256i
mulShoupLazy32(__m256i a, __m256i w, __m256i phi, __m256i q)
{
    const __m256i quot = _mm256_srli_epi64(_mm256_mul_epu32(a, phi), 32);
    return _mm256_sub_epi64(_mm256_mul_epu32(a, w),
                            _mm256_mul_epu32(quot, q));
}

/** s mod q into [0, 2q) for s < 2^32 (Shoup with w = 1). */
inline __m256i
reduceLazyBy1(__m256i s, __m256i phi1, __m256i q)
{
    const __m256i quot = _mm256_srli_epi64(_mm256_mul_epu32(s, phi1), 32);
    return _mm256_sub_epi64(s, _mm256_mul_epu32(quot, q));
}

/** CT butterfly on Harvey-lazy values: u, v in [0, 4q) stay in [0, 4q). */
inline void
ctButterfly(__m256i &u, __m256i &v, __m256i w, __m256i phi, __m256i q,
            __m256i two_q)
{
    const __m256i x = csub(u, two_q);
    const __m256i y = mulShoupLazy32(v, w, phi, q);
    u = _mm256_add_epi64(x, y);
    v = _mm256_add_epi64(_mm256_sub_epi64(x, y), two_q);
}

/** GS butterfly on lazy values: u, v in [0, 2q) stay in [0, 2q). */
inline void
gsButterfly(__m256i &u, __m256i &v, __m256i w, __m256i phi, __m256i q,
            __m256i two_q)
{
    const __m256i x = _mm256_add_epi64(_mm256_sub_epi64(u, v), two_q);
    u = csub(_mm256_add_epi64(u, v), two_q);
    v = mulShoupLazy32(x, w, phi, q);
}

/*
 * The last stages (t = 4, 2, 1) work on 8-coefficient chunks held in
 * two registers x, y, with x holding the four butterfly tops and y the
 * matching bottoms in block order (lane l is in block l / t). For
 * t = 4 that is the chunk as loaded; the sub-lane stages regroup it
 * first: coefficients {0,1,4,5} / {2,3,6,7} for t = 2, {0,2,4,6} /
 * {1,3,5,7} for t = 1. Both regroupings below are their own inverses.
 */

/** Natural order <-> t = 2 layout: swap the inner 128-bit halves. */
inline void
swapHalves(__m256i &x, __m256i &y)
{
    const __m256i nx = _mm256_permute2x128_si256(x, y, 0x20);
    y = _mm256_permute2x128_si256(x, y, 0x31);
    x = nx;
}

/** t = 2 layout <-> t = 1 layout: interleave within 128-bit halves. */
inline void
interleave(__m256i &x, __m256i &y)
{
    const __m256i nx = _mm256_unpacklo_epi64(x, y);
    y = _mm256_unpackhi_epi64(x, y);
    x = nx;
}

/**
 * Lane l of the result is p[l / T]: stage T's twiddle-table entries
 * for one chunk (4 / T of them), each repeated across its block.
 */
template <size_t T>
inline __m256i
spread(const uint64_t *p)
{
    if constexpr (T == 4) {
        return set1(*p);
    } else if constexpr (T == 1) {
        return load(p);
    } else {
        static_assert(T == 2);
        const __m128i pair =
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(p));
        return _mm256_permute4x64_epi64(_mm256_castsi128_si256(pair),
                                        0x50);
    }
}

/** Twiddle index of chunk @p c's first block in stage T. */
template <size_t T>
inline size_t
chunkTwiddle(size_t n, size_t c)
{
    return n / (2 * T) + c * (4 / T);
}

template <size_t T>
inline void
ctInChunk(__m256i &x, __m256i &y, const ntt::NttTables &tables, size_t c,
          __m256i q, __m256i two_q)
{
    const size_t k = chunkTwiddle<T>(tables.degree(), c);
    const __m256i phi =
        _mm256_srli_epi64(spread<T>(tables.rootPowersShoup() + k), 32);
    ctButterfly(x, y, spread<T>(tables.rootPowers() + k), phi, q, two_q);
}

template <size_t T>
inline void
gsInChunk(__m256i &x, __m256i &y, const ntt::NttTables &tables, size_t c,
          __m256i q, __m256i two_q)
{
    const size_t k = chunkTwiddle<T>(tables.degree(), c);
    const __m256i phi =
        _mm256_srli_epi64(spread<T>(tables.invRootPowersShoup() + k), 32);
    gsButterfly(x, y, spread<T>(tables.invRootPowers() + k), phi, q,
                two_q);
}

void
nttForwardAvx2(uint64_t *a, const ntt::NttTables &tables)
{
    const uint64_t qv = tables.modulus().value();
    const size_t n = tables.degree();
    if (!eligibleModulus(qv) || n < 8) {
        ntt::forwardNttScalar({a, n}, tables);
        return;
    }
    const __m256i vq = set1(qv);
    const __m256i v2q = set1(2 * qv);

    size_t m = 1;
    for (size_t t = n >> 1; t >= 8; t >>= 1, m <<= 1) {
        for (size_t i = 0; i < m; ++i) {
            const size_t j1 = 2 * i * t;
            const __m256i vw = set1(tables.rootPower(m + i));
            const __m256i vphi =
                set1(tables.rootPowerShoup(m + i) >> 32);
            for (size_t j = j1; j < j1 + t; j += 4) {
                __m256i u = load(a + j);
                __m256i v = load(a + j + t);
                ctButterfly(u, v, vw, vphi, vq, v2q);
                store(a + j, u);
                store(a + j + t, v);
            }
        }
    }

    // The last three stages (t = 4, 2, 1) and the final normalization,
    // fused: each chunk stays in registers from load to store. Stage
    // t = 4 pairs the chunk's two halves as loaded.
    for (size_t c = 0; c < n / 8; ++c) {
        __m256i x = load(a + 8 * c);
        __m256i y = load(a + 8 * c + 4);
        ctInChunk<4>(x, y, tables, c, vq, v2q);
        swapHalves(x, y);
        ctInChunk<2>(x, y, tables, c, vq, v2q);
        interleave(x, y);
        ctInChunk<1>(x, y, tables, c, vq, v2q);
        x = csub(csub(x, v2q), vq);
        y = csub(csub(y, v2q), vq);
        interleave(x, y);
        swapHalves(x, y);
        store(a + 8 * c, x);
        store(a + 8 * c + 4, y);
    }
}

void
nttInverseAvx2(uint64_t *a, const ntt::NttTables &tables)
{
    const uint64_t qv = tables.modulus().value();
    const size_t n = tables.degree();
    if (!eligibleModulus(qv) || n < 8) {
        ntt::inverseNttScalar({a, n}, tables);
        return;
    }
    const __m256i vq = set1(qv);
    const __m256i v2q = set1(2 * qv);

    // Stages t = 1, 2, fused per chunk as in the forward transform.
    for (size_t c = 0; c < n / 8; ++c) {
        __m256i x = load(a + 8 * c);
        __m256i y = load(a + 8 * c + 4);
        swapHalves(x, y);
        interleave(x, y);
        gsInChunk<1>(x, y, tables, c, vq, v2q);
        interleave(x, y);
        gsInChunk<2>(x, y, tables, c, vq, v2q);
        swapHalves(x, y);
        store(a + 8 * c, x);
        store(a + 8 * c + 4, y);
    }

    for (size_t t = 4; t < n / 2; t <<= 1) {
        const size_t h = n / (2 * t);
        for (size_t i = 0; i < h; ++i) {
            const size_t j1 = 2 * i * t;
            const __m256i vw = set1(tables.invRootPower(h + i));
            const __m256i vphi =
                set1(tables.invRootPowerShoup(h + i) >> 32);
            for (size_t j = j1; j < j1 + t; j += 4) {
                __m256i u = load(a + j);
                __m256i v = load(a + j + t);
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
    const __m256i vn_inv = set1(tables.invDegree());
    const __m256i vphi_n = set1(tables.invDegreeShoup() >> 32);
    const __m256i vw_n = set1(w_n);
    const __m256i vphi_wn = set1(mod.shoupPrecompute(w_n) >> 32);
    for (size_t j = 0; j < t; j += 4) {
        const __m256i u = load(a + j);
        const __m256i v = load(a + j + t);
        const __m256i sum = _mm256_add_epi64(u, v);
        const __m256i diff = _mm256_add_epi64(_mm256_sub_epi64(u, v), v2q);
        store(a + j, csub(mulShoupLazy32(sum, vn_inv, vphi_n, vq), vq));
        store(a + j + t,
              csub(mulShoupLazy32(diff, vw_n, vphi_wn, vq), vq));
    }
}

void
addModAvx2(uint64_t *a, const uint64_t *b, size_t n, uint64_t q)
{
    const __m256i vq = set1(q);
    size_t j = 0;
    for (; j + 4 <= n; j += 4) {
        const __m256i s = _mm256_add_epi64(load(a + j), load(b + j));
        store(a + j, csub(s, vq));
    }
    addModScalar(a + j, b + j, n - j, q);
}

void
subModAvx2(uint64_t *a, const uint64_t *b, size_t n, uint64_t q)
{
    const __m256i vq = set1(q);
    size_t j = 0;
    for (; j + 4 <= n; j += 4) {
        const __m256i va = load(a + j);
        const __m256i vb = load(b + j);
        const __m256i lt = _mm256_cmpgt_epi64(vb, va);
        const __m256i d = _mm256_sub_epi64(va, vb);
        store(a + j, _mm256_add_epi64(d, _mm256_and_si256(lt, vq)));
    }
    subModScalar(a + j, b + j, n - j, q);
}

void
negateModAvx2(uint64_t *a, size_t n, uint64_t q)
{
    const __m256i vq = set1(q);
    const __m256i zero = _mm256_setzero_si256();
    size_t j = 0;
    for (; j + 4 <= n; j += 4) {
        const __m256i va = load(a + j);
        const __m256i eq = _mm256_cmpeq_epi64(va, zero);
        store(a + j,
              _mm256_andnot_si256(eq, _mm256_sub_epi64(vq, va)));
    }
    negateModScalar(a + j, n - j, q);
}

void
mulShoupAvx2(uint64_t *a, size_t n, const rns::Modulus &q, uint64_t w,
             uint64_t w_shoup)
{
    if (!eligibleModulus(q.value())) {
        mulShoupScalar(a, n, q, w, w_shoup);
        return;
    }
    const __m256i vq = set1(q.value());
    const __m256i vw = set1(w);
    const __m256i vphi = set1(w_shoup >> 32);
    size_t j = 0;
    for (; j + 4 <= n; j += 4) {
        const __m256i r = mulShoupLazy32(load(a + j), vw, vphi, vq);
        store(a + j, csub(r, vq));
    }
    mulShoupScalar(a + j, n - j, q, w, w_shoup);
}

/** x mod q into [0, 2q) for any 64-bit x, q < 2^30. */
inline __m256i
reduce64Lazy(__m256i x, __m256i vq, __m256i vphi1, __m256i vc32,
             __m256i vphi_c32, __m256i mask32)
{
    const __m256i d = _mm256_srli_epi64(x, 32);
    const __m256i l = _mm256_and_si256(x, mask32);
    const __m256i t1 = mulShoupLazy32(d, vc32, vphi_c32, vq);
    const __m256i t3 = reduceLazyBy1(l, vphi1, vq);
    const __m256i s = _mm256_add_epi64(t1, t3); // < 4q < 2^32
    return reduceLazyBy1(s, vphi1, vq);
}

/** a[i]*b[i] mod q into [0, 2q); a, b < q < 2^30. */
inline __m256i
mulModLazy(__m256i va, __m256i vb, __m256i vq, __m256i vphi1,
           __m256i vc32, __m256i vphi_c32, __m256i mask32)
{
    return reduce64Lazy(_mm256_mul_epu32(va, vb), vq, vphi1, vc32,
                        vphi_c32, mask32);
}

void
mulModAvx2(uint64_t *a, const uint64_t *b, size_t n,
           const rns::Modulus &q)
{
    if (!eligibleModulus(q.value())) {
        mulModScalar(a, b, n, q);
        return;
    }
    const Mod32Constants mc = mod32Constants(q);
    const __m256i vq = set1(mc.q);
    const __m256i vphi1 = set1(mc.phi1);
    const __m256i vc32 = set1(mc.c32);
    const __m256i vphi_c32 = set1(mc.phi_c32);
    const __m256i mask32 = set1(0xffffffffu);
    size_t j = 0;
    for (; j + 4 <= n; j += 4) {
        const __m256i r = mulModLazy(load(a + j), load(b + j), vq,
                                     vphi1, vc32, vphi_c32, mask32);
        store(a + j, csub(r, vq));
    }
    mulModScalar(a + j, b + j, n - j, q);
}

void
macModAvx2(uint64_t *acc, const uint64_t *a, const uint64_t *b, size_t n,
           const rns::Modulus &q)
{
    if (!eligibleModulus(q.value())) {
        macModScalar(acc, a, b, n, q);
        return;
    }
    const Mod32Constants mc = mod32Constants(q);
    const __m256i vq = set1(mc.q);
    const __m256i vphi1 = set1(mc.phi1);
    const __m256i vc32 = set1(mc.c32);
    const __m256i vphi_c32 = set1(mc.phi_c32);
    const __m256i mask32 = set1(0xffffffffu);
    size_t j = 0;
    for (; j + 4 <= n; j += 4) {
        const __m256i p =
            csub(mulModLazy(load(a + j), load(b + j), vq, vphi1, vc32,
                            vphi_c32, mask32),
                 vq);
        const __m256i s = _mm256_add_epi64(load(acc + j), p);
        store(acc + j, csub(s, vq));
    }
    macModScalar(acc + j, a + j, b + j, n - j, q);
}

void
reduceU32Avx2(uint64_t *dst, const uint64_t *src, size_t n,
              const rns::Modulus &q)
{
    if (!eligibleModulus(q.value())) {
        reduceU32Scalar(dst, src, n, q);
        return;
    }
    const Mod32Constants mc = mod32Constants(q);
    const __m256i vq = set1(mc.q);
    const __m256i vphi1 = set1(mc.phi1);
    size_t j = 0;
    for (; j + 4 <= n; j += 4) {
        const __m256i r = reduceLazyBy1(load(src + j), vphi1, vq);
        store(dst + j, csub(r, vq));
    }
    reduceU32Scalar(dst + j, src + j, n - j, q);
}

/** (hi, lo) += x, as 128-bit lanes (an all-ones carry mask is -1). */
inline void
add128(__m256i &lo, __m256i &hi, __m256i x, __m256i bias)
{
    lo = _mm256_add_epi64(lo, x);
    hi = _mm256_sub_epi64(hi, ltu64(lo, x, bias));
}

/** The fused HPS kernels: simd_avx512.cc's hpsAvx512Loop on 4 lanes. */
template <bool kConvert, int U>
size_t
hpsAvx2Loop(const HpsTable &t, const uint64_t *const *in_rows,
            uint64_t *const *out_rows, size_t c, size_t count)
{
    const size_t kq = t.terms;
    const int s = t.frac_bits;
    const __m256i bias = set1(uint64_t(1) << 63);
    const __m256i mask32 = set1(0xffffffffu);
    // Rounding: add 2^(s-1), then (hi:lo) >> s. A shift count outside
    // [0, 63] clears the lane, so one expression covers every s.
    const __m256i half_lo = set1(s <= 64 ? uint64_t(1) << (s - 1) : 0);
    const __m256i half_hi = set1(s > 64 ? uint64_t(1) << (s - 65) : 0);
    const __m128i sh_lo = _mm_cvtsi64_si128(s);
    const __m128i sh_hi_up = _mm_cvtsi64_si128(64 - s);
    const __m128i sh_hi_down = _mm_cvtsi64_si128(s - 64);
    for (; c + 4 * U <= count; c += 4 * U) {
        __m256i y[U][kHpsMaxTerms];
        __m256i lo[U], hi[U], mid[U], r[U];
        for (int u = 0; u < U; ++u) {
            lo[u] = half_lo;
            hi[u] = half_hi;
            mid[u] = _mm256_setzero_si256();
        }
        for (size_t i = 0; i < kq; ++i) {
            const __m256i f = set1(t.frac[i]);
            const __m256i f_hi = _mm256_srli_epi64(f, 32);
            for (int u = 0; u < U; ++u) {
                __m256i x = load(in_rows[i] + c + 4 * u);
                if constexpr (kConvert) {
                    const __m256i q = set1(t.src_q[i]);
                    x = csub(mulShoupLazy32(x, set1(t.qtilde[i]),
                                            set1(t.qtilde_phi[i]), q),
                             q);
                }
                y[u][i] = x;
                add128(lo[u], hi[u], _mm256_mul_epu32(x, f), bias);
                mid[u] =
                    _mm256_add_epi64(mid[u], _mm256_mul_epu32(x, f_hi));
            }
        }
        for (int u = 0; u < U; ++u) {
            add128(lo[u], hi[u], _mm256_slli_epi64(mid[u], 32), bias);
            hi[u] = _mm256_add_epi64(hi[u], _mm256_srli_epi64(mid[u], 32));
            const __m256i from_lo = _mm256_srl_epi64(lo[u], sh_lo);
            const __m256i from_hi =
                _mm256_or_si256(_mm256_sll_epi64(hi[u], sh_hi_up),
                                _mm256_srl_epi64(hi[u], sh_hi_down));
            r[u] = _mm256_or_si256(from_lo, from_hi);
        }

        for (size_t j = 0; j < t.dst.size(); ++j) {
            const HpsPrime &p = t.dst[j];
            __m256i acc[U];
            for (int u = 0; u < U; ++u) {
                if constexpr (kConvert) // r <= kq
                    acc[u] = _mm256_mul_epu32(r[u], set1(p.round_w));
                else
                    acc[u] = _mm256_add_epi64(
                        r[u],
                        _mm256_mul_epu32(load(in_rows[kq + j] + c + 4 * u),
                                         set1(p.own_w)));
            }
            const __m256i q = set1(p.q);
            for (size_t i0 = 0; i0 < kq; i0 += kHpsRunTerms) {
                for (size_t i = i0; i < kq && i < i0 + kHpsRunTerms; ++i) {
                    const __m256i w = set1(p.w[i]);
                    for (int u = 0; u < U; ++u)
                        acc[u] = _mm256_add_epi64(
                            acc[u], _mm256_mul_epu32(y[u][i], w));
                }
                for (int u = 0; u < U; ++u)
                    acc[u] = reduce64Lazy(acc[u], q, set1(p.phi1),
                                          set1(p.c32), set1(p.phi_c32),
                                          mask32);
            }
            for (int u = 0; u < U; ++u)
                store(out_rows[j] + c + 4 * u, csub(acc[u], q));
        }
    }
    return c;
}

template <bool kConvert>
void
hpsAvx2(const HpsTable &t, const uint64_t *const *in_rows,
        uint64_t *const *out_rows, size_t count)
{
    size_t c = hpsAvx2Loop<kConvert, 2>(t, in_rows, out_rows, 0, count);
    c = hpsAvx2Loop<kConvert, 1>(t, in_rows, out_rows, c, count);
    hpsScalar<kConvert>(t, in_rows, out_rows, c, count);
}

} // namespace

const Kernels &
avx2Kernels()
{
    static const Kernels table = {
        Level::kAvx2,  nttForwardAvx2, nttInverseAvx2,
        addModAvx2,    subModAvx2,     negateModAvx2,
        mulShoupAvx2,  mulModAvx2,     macModAvx2,
        reduceU32Avx2, hpsAvx2<true>,  hpsAvx2<false>,
    };
    return table;
}

} // namespace heat::simd::detail
