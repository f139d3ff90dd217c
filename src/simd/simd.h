/**
 * @file
 * Runtime-dispatched SIMD kernel layer for the software backbone.
 *
 * Every randomized differential test, per-worker simulator replay and
 * bench in this repo bottoms out in NTT butterflies and residue loops;
 * this module gives them vectorized bodies without giving up the
 * bit-exact scalar oracle. Three kernel tables — scalar, AVX2,
 * AVX-512 — implement the same contracts; the active table is chosen
 * once from CPUID (overridable with `HEAT_SIMD=scalar|avx2|avx512`,
 * clamped to what the CPU and build support) and every entry produces
 * canonical outputs bit-identical to the scalar implementation.
 *
 * Vector paths use 32-bit Shoup/Harvey lazy reduction (one vpmuludq
 * per 64-bit product half), which bounds lane values by 2^32: only
 * moduli below kLaneModulusBound (2^30, the paper's RNS prime width)
 * vectorize. Every element-wise and NTT kernel checks its modulus and
 * falls back to the scalar body for wider primes, so callers never
 * need to branch. The fused HPS kernels instead take an HpsTable,
 * whose builder checks the bounds once and keeps wider bases on its
 * own per-coefficient path.
 *
 * The AVX2/AVX-512 translation units are compiled with per-file
 * `-mavx2`/`-mavx512f`; nothing else in the library is built with
 * extended ISAs, so the dispatcher — not the compiler — decides what
 * runs on a given host.
 */

#ifndef HEAT_SIMD_SIMD_H
#define HEAT_SIMD_SIMD_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace heat::ntt {
class NttTables;
}
namespace heat::rns {
class Modulus;
}

namespace heat::simd {

/** Instruction-set tier of a kernel table. */
enum class Level
{
    kScalar = 0, ///< portable 64-bit code — the differential oracle
    kAvx2 = 1,   ///< 4 lanes of 64-bit per op
    kAvx512 = 2, ///< 8 lanes of 64-bit per op
};

/** @return "scalar", "avx2" or "avx512". */
const char *levelName(Level level);

/**
 * Largest level both compiled into this binary and supported by the
 * CPU (cached after the first call).
 */
Level detectedLevel();

/**
 * Level of the active kernel table. Starts at detectedLevel() lowered
 * by the HEAT_SIMD environment override, if any.
 */
Level activeLevel();

/**
 * Point the dispatcher at @p level's table (clamped to
 * detectedLevel()). Intended for tests and benchmarks; the process
 * default comes from CPUID + HEAT_SIMD.
 */
void setLevel(Level level);

/**
 * Moduli must be below this bound (2^30) for the vectorized paths:
 * Harvey lazy values live in [0, 4q) and must fit the 32-bit lane
 * arithmetic. Wider moduli run the scalar fallback inside each kernel.
 */
inline constexpr uint64_t kLaneModulusBound = uint64_t(1) << 30;

/** @return true iff @p q takes the vector path of the mul kernels. */
inline bool
eligibleModulus(uint64_t q)
{
    return q < kLaneModulusBound;
}

/**
 * Term bounds of the fused HPS kernels. Bases of up to kHpsMaxTerms
 * source residues take the vector path: Block 1 keeps 60-bit weights
 * in a 128-bit carry chain whose high-half partial products, below
 * 2^58 each, sum in one 64-bit lane. Wider bases run the
 * per-coefficient convert()/scale() loop. Block-2 residues and weights
 * are below kLaneModulusBound, so each product is below 2^60; a run
 * starts below 2^61 (the addend: v' <= terms times its weight, or the
 * rounded Block-1 sum plus the own residue's product; or the previous
 * run's lazy reduction), and kHpsRunTerms products keep it below
 * 2^61 + 14 * 2^60 = 2^64, exact in one lane.
 */
inline constexpr size_t kHpsMaxTerms = 32;
inline constexpr size_t kHpsRunTerms = 14;

/** One destination prime of an HPS kernel. */
struct HpsPrime
{
    uint64_t q = 0;       ///< the prime, < kLaneModulusBound
    uint64_t phi1 = 0;    ///< floor(2^32 / q)
    uint64_t c32 = 0;     ///< 2^32 mod q
    uint64_t phi_c32 = 0; ///< floor(c32 * 2^32 / q)
    uint64_t round_w = 0; ///< hps_convert: weight of v', < q
    uint64_t own_w = 0;   ///< hps_scale: weight of the own residue, < q
    uint64_t w[kHpsMaxTerms] = {}; ///< Block-2 weight of term i, < q
};

/**
 * Constant block of one HPS conversion or scale-round, built once by
 * rns::FastBaseConverter / rns::ScaleRounder. Contract: 1 <= terms <=
 * kHpsMaxTerms, 1 <= frac_bits <= 127, frac[i] <= 2^60, every modulus
 * below kLaneModulusBound and every weight below its modulus. Block-2
 * sums reduce after every kHpsRunTerms products.
 */
struct HpsTable
{
    size_t terms = 0;  ///< source residues (the divisor base)
    int frac_bits = 0; ///< Block-1 fixed-point fraction bits
    uint64_t frac[kHpsMaxTerms] = {};   ///< Block-1 weights
    uint64_t src_q[kHpsMaxTerms] = {};  ///< hps_convert: source moduli
    uint64_t qtilde[kHpsMaxTerms] = {}; ///< hps_convert: lambda weights
    /** hps_convert: floor(qtilde[i] * 2^32 / src_q[i]). */
    uint64_t qtilde_phi[kHpsMaxTerms] = {};
    std::vector<HpsPrime> dst; ///< one entry per output row
};

/** @return an HpsPrime for @p q with its reduction constants set. */
HpsPrime hpsPrime(uint64_t q);

/**
 * One dispatch table. The element-wise and NTT entries are total
 * functions: they accept any supported modulus and fall back to scalar
 * code when the vector preconditions fail. The HPS entries rely on
 * their table's contract instead. Every output is bit-identical to the
 * scalar table's on every input.
 */
struct Kernels
{
    Level level;

    /**
     * In-place forward negacyclic NTT of tables.degree() values.
     * Accepts Harvey lazy inputs in [0, 4q) (for q >= 2^30: [0, q));
     * outputs are canonical [0, q), identical to ntt::forwardNttScalar.
     */
    void (*ntt_forward)(uint64_t *a, const ntt::NttTables &tables);

    /**
     * In-place inverse negacyclic NTT, including the n^{-1} scaling.
     * Inputs in [0, 2q); canonical outputs.
     */
    void (*ntt_inverse)(uint64_t *a, const ntt::NttTables &tables);

    /** a[i] = (a[i] + b[i]) mod q; inputs in [0, q). Any modulus. */
    void (*add_mod)(uint64_t *a, const uint64_t *b, size_t n, uint64_t q);

    /** a[i] = (a[i] - b[i]) mod q; inputs in [0, q). Any modulus. */
    void (*sub_mod)(uint64_t *a, const uint64_t *b, size_t n, uint64_t q);

    /** a[i] = -a[i] mod q; inputs in [0, q). Any modulus. */
    void (*negate_mod)(uint64_t *a, size_t n, uint64_t q);

    /**
     * a[i] = a[i] * w mod q with w in [0, q) and w_shoup =
     * Modulus::shoupPrecompute(w). Inputs in [0, q).
     */
    void (*mul_shoup)(uint64_t *a, size_t n, const rns::Modulus &q,
                      uint64_t w, uint64_t w_shoup);

    /** a[i] = a[i] * b[i] mod q; inputs in [0, q). */
    void (*mul_mod)(uint64_t *a, const uint64_t *b, size_t n,
                    const rns::Modulus &q);

    /** acc[i] = (acc[i] + a[i] * b[i]) mod q; inputs in [0, q). */
    void (*mac_mod)(uint64_t *acc, const uint64_t *a, const uint64_t *b,
                    size_t n, const rns::Modulus &q);

    /**
     * dst[i] = src[i] mod q for src[i] < 2^32 (the digit-broadcast
     * reduction of rnsDigits). Caller guarantees the value bound.
     */
    void (*reduce_u32)(uint64_t *dst, const uint64_t *src, size_t n,
                       const rns::Modulus &q);

    /**
     * Fused HPS fast base conversion (the Lift unit, Fig. 6). Each
     * coefficient streams once through all its residues:
     *   lambda_i = x_i * qtilde_i mod src_q_i
     *   v'       = round(sum_i lambda_i * frac_i / 2^frac_bits)
     *   out_j    = (sum_i lambda_i * w_ij + v' * round_w_j) mod q_j
     * over the t.terms rows at @p in_rows, writing the t.dst.size()
     * rows at @p out_rows, @p count coefficients each. Preconditions:
     * the HpsTable contract holds, every input is canonical, and no
     * output row overlaps an input row (fv::scaleRows stages its
     * p-base intermediate in a stack block to run in place).
     */
    void (*hps_convert)(const HpsTable &t, const uint64_t *const *in_rows,
                        uint64_t *const *out_rows, size_t count);

    /**
     * Fused HPS scale-round (the Scale unit, Fig. 9 Blocks 1-4):
     *   r     = round(sum_i x_i * frac_i / 2^frac_bits)
     *   out_j = (sum_i x_i * w_ij + x_{terms+j} * own_w_j + r) mod q_j
     * @p in_rows holds t.terms + t.dst.size() rows: the divisor base,
     * then one row per output prime (the coefficient's own residue).
     * The own residue's product joins the Block-2 addend. Same input
     * and aliasing rules as hps_convert.
     */
    void (*hps_scale)(const HpsTable &t, const uint64_t *const *in_rows,
                      uint64_t *const *out_rows, size_t count);
};

/** @return the active kernel table (HEAT_SIMD-aware, CPU-detected). */
const Kernels &active();

/**
 * @return the table for a specific level; panics if @p level exceeds
 * detectedLevel(). Lets tests and benches pin a path explicitly.
 */
const Kernels &kernelsFor(Level level);

} // namespace heat::simd

#endif // HEAT_SIMD_SIMD_H
