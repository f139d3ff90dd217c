#include "simd/simd.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

#include "common/bit_util.h"
#include "common/panic.h"
#include "ntt/ntt.h"
#include "rns/modulus.h"
#include "simd/simd_internal.h"

namespace heat::simd {

namespace detail {

void
addModScalar(uint64_t *a, const uint64_t *b, size_t n, uint64_t q)
{
    for (size_t i = 0; i < n; ++i) {
        const uint64_t s = a[i] + b[i];
        a[i] = s >= q ? s - q : s;
    }
}

void
subModScalar(uint64_t *a, const uint64_t *b, size_t n, uint64_t q)
{
    for (size_t i = 0; i < n; ++i)
        a[i] = a[i] >= b[i] ? a[i] - b[i] : a[i] + q - b[i];
}

void
negateModScalar(uint64_t *a, size_t n, uint64_t q)
{
    for (size_t i = 0; i < n; ++i)
        a[i] = a[i] == 0 ? 0 : q - a[i];
}

void
mulShoupScalar(uint64_t *a, size_t n, const rns::Modulus &q, uint64_t w,
               uint64_t w_shoup)
{
    for (size_t i = 0; i < n; ++i)
        a[i] = q.mulShoup(a[i], w, w_shoup);
}

void
mulModScalar(uint64_t *a, const uint64_t *b, size_t n,
             const rns::Modulus &q)
{
    for (size_t i = 0; i < n; ++i)
        a[i] = q.mul(a[i], b[i]);
}

void
macModScalar(uint64_t *acc, const uint64_t *a, const uint64_t *b, size_t n,
             const rns::Modulus &q)
{
    for (size_t i = 0; i < n; ++i)
        acc[i] = q.add(acc[i], q.mul(a[i], b[i]));
}

void
reduceU32Scalar(uint64_t *dst, const uint64_t *src, size_t n,
                const rns::Modulus &q)
{
    for (size_t i = 0; i < n; ++i)
        dst[i] = q.reduce(src[i]);
}

/*
 * y_i is lambda_i (kConvert) or the input residue itself; the Block-2
 * addend is v' * round_w (kConvert) or r plus the own residue's term.
 */
template <bool kConvert>
void
hpsScalar(const HpsTable &t, const uint64_t *const *in_rows,
          uint64_t *const *out_rows, size_t begin, size_t end)
{
    const size_t kq = t.terms;
    const uint128_t half = uint128_t(1) << (t.frac_bits - 1);
    for (size_t c = begin; c < end; ++c) {
        uint64_t y[kHpsMaxTerms];
        uint128_t frac = half;
        for (size_t i = 0; i < kq; ++i) {
            y[i] = kConvert ? in_rows[i][c] * t.qtilde[i] % t.src_q[i]
                            : in_rows[i][c];
            frac += mulWide64(y[i], t.frac[i]);
        }
        const uint64_t r = static_cast<uint64_t>(frac >> t.frac_bits);
        for (size_t j = 0; j < t.dst.size(); ++j) {
            const HpsPrime &p = t.dst[j];
            uint64_t s = kConvert ? r * p.round_w
                                  : r + in_rows[kq + j][c] * p.own_w;
            for (size_t i0 = 0; i0 < kq; i0 += kHpsRunTerms) {
                for (size_t i = i0; i < kq && i < i0 + kHpsRunTerms; ++i)
                    s += y[i] * p.w[i];
                s %= p.q;
            }
            out_rows[j][c] = s;
        }
    }
}

template void hpsScalar<true>(const HpsTable &, const uint64_t *const *,
                              uint64_t *const *, size_t, size_t);
template void hpsScalar<false>(const HpsTable &, const uint64_t *const *,
                               uint64_t *const *, size_t, size_t);

Mod32Constants
mod32Constants(const rns::Modulus &q)
{
    const uint64_t qv = q.value();
    Mod32Constants c;
    c.q = qv;
    c.phi1 = static_cast<uint64_t>((uint128_t(1) << 32) / qv);
    c.c32 = static_cast<uint64_t>((uint128_t(1) << 32) % qv);
    c.phi_c32 = static_cast<uint64_t>((uint128_t(c.c32) << 32) / qv);
    return c;
}

namespace {

void
nttForwardScalarEntry(uint64_t *a, const ntt::NttTables &tables)
{
    ntt::forwardNttScalar({a, tables.degree()}, tables);
}

void
nttInverseScalarEntry(uint64_t *a, const ntt::NttTables &tables)
{
    ntt::inverseNttScalar({a, tables.degree()}, tables);
}

template <bool kConvert>
void
hpsScalarEntry(const HpsTable &t, const uint64_t *const *in_rows,
               uint64_t *const *out_rows, size_t count)
{
    hpsScalar<kConvert>(t, in_rows, out_rows, 0, count);
}

} // namespace

const Kernels &
scalarKernels()
{
    static const Kernels table = {
        Level::kScalar,        nttForwardScalarEntry, nttInverseScalarEntry,
        addModScalar,          subModScalar,          negateModScalar,
        mulShoupScalar,        mulModScalar,          macModScalar,
        reduceU32Scalar,       hpsScalarEntry<true>,  hpsScalarEntry<false>,
    };
    return table;
}

} // namespace detail

HpsPrime
hpsPrime(uint64_t q)
{
    const detail::Mod32Constants mc = detail::mod32Constants(rns::Modulus(q));
    HpsPrime p;
    p.q = q;
    p.phi1 = mc.phi1;
    p.c32 = mc.c32;
    p.phi_c32 = mc.phi_c32;
    return p;
}

const char *
levelName(Level level)
{
    switch (level) {
    case Level::kScalar:
        return "scalar";
    case Level::kAvx2:
        return "avx2";
    case Level::kAvx512:
        return "avx512";
    }
    return "unknown";
}

Level
detectedLevel()
{
    static const Level level = [] {
#if defined(HEAT_HAVE_AVX512)
        if (__builtin_cpu_supports("avx512f"))
            return Level::kAvx512;
#endif
#if defined(HEAT_HAVE_AVX2)
        if (__builtin_cpu_supports("avx2"))
            return Level::kAvx2;
#endif
        return Level::kScalar;
    }();
    return level;
}

const Kernels &
kernelsFor(Level level)
{
    panicIf(level > detectedLevel(),
            "requested SIMD level is not available on this host/build");
    switch (level) {
    case Level::kScalar:
        return detail::scalarKernels();
    case Level::kAvx2:
#if defined(HEAT_HAVE_AVX2)
        return detail::avx2Kernels();
#else
        break;
#endif
    case Level::kAvx512:
#if defined(HEAT_HAVE_AVX512)
        return detail::avx512Kernels();
#else
        break;
#endif
    }
    panic("SIMD level not compiled into this binary");
}

namespace {

/**
 * Initial level: the detected maximum, lowered by HEAT_SIMD. Requests
 * above the detected level clamp down (so HEAT_SIMD=avx512 is safe in
 * scripts that run on mixed fleets); unrecognized values are fatal.
 */
Level
initialLevel()
{
    Level level = detectedLevel();
    const char *env = std::getenv("HEAT_SIMD");
    if (env == nullptr || *env == '\0')
        return level;
    Level requested;
    if (std::strcmp(env, "scalar") == 0)
        requested = Level::kScalar;
    else if (std::strcmp(env, "avx2") == 0)
        requested = Level::kAvx2;
    else if (std::strcmp(env, "avx512") == 0)
        requested = Level::kAvx512;
    else
        fatal("HEAT_SIMD must be scalar, avx2 or avx512");
    return requested < level ? requested : level;
}

std::atomic<const Kernels *> g_active{nullptr};

} // namespace

const Kernels &
active()
{
    const Kernels *k = g_active.load(std::memory_order_acquire);
    if (k == nullptr) {
        // Benign race: concurrent first calls resolve the same table.
        k = &kernelsFor(initialLevel());
        g_active.store(k, std::memory_order_release);
    }
    return *k;
}

Level
activeLevel()
{
    return active().level;
}

void
setLevel(Level level)
{
    if (level > detectedLevel())
        level = detectedLevel();
    g_active.store(&kernelsFor(level), std::memory_order_release);
}

} // namespace heat::simd
