/**
 * @file
 * Internal seams of the SIMD dispatch layer: the scalar kernel bodies
 * (shared by the scalar table and as in-kernel fallbacks / element-wise
 * loop remainders of the vector translation units) and the
 * constructors of the per-ISA tables. Not installed; include
 * simd/simd.h instead.
 */

#ifndef HEAT_SIMD_SIMD_INTERNAL_H
#define HEAT_SIMD_SIMD_INTERNAL_H

#include "simd/simd.h"

namespace heat::simd::detail {

// Scalar kernel bodies (the oracle semantics). The vector tables call
// these for ineligible moduli, for NTT degrees below two vectors, and
// for the element-wise kernels' sub-vector loop remainders, so a vector
// kernel's output is the scalar output by construction wherever it does
// not vectorize. Every NTT stage of an eligible transform is vector
// code.
void addModScalar(uint64_t *a, const uint64_t *b, size_t n, uint64_t q);
void subModScalar(uint64_t *a, const uint64_t *b, size_t n, uint64_t q);
void negateModScalar(uint64_t *a, size_t n, uint64_t q);
void mulShoupScalar(uint64_t *a, size_t n, const rns::Modulus &q,
                    uint64_t w, uint64_t w_shoup);
void mulModScalar(uint64_t *a, const uint64_t *b, size_t n,
                  const rns::Modulus &q);
void macModScalar(uint64_t *acc, const uint64_t *a, const uint64_t *b,
                  size_t n, const rns::Modulus &q);
void reduceU32Scalar(uint64_t *dst, const uint64_t *src, size_t n,
                     const rns::Modulus &q);
/**
 * The HPS datapath one coefficient at a time, over coefficients
 * [begin, end) of the rows: the scalar table's hps_convert (kConvert)
 * and hps_scale, and the vector kernels' tails. Defined and
 * instantiated in simd.cc only, so no copy is built with vector ISA
 * flags.
 */
template <bool kConvert>
void hpsScalar(const HpsTable &t, const uint64_t *const *in_rows,
               uint64_t *const *out_rows, size_t begin, size_t end);
extern template void hpsScalar<true>(const HpsTable &,
                                     const uint64_t *const *,
                                     uint64_t *const *, size_t, size_t);
extern template void hpsScalar<false>(const HpsTable &,
                                      const uint64_t *const *,
                                      uint64_t *const *, size_t, size_t);

/**
 * Per-modulus constants for the 32-bit Shoup reduction chains shared
 * by the vector mul_mod / mac_mod / reduce_u32 kernels. Cheap to
 * build (two divisions), computed once per kernel call and amortized
 * over the n-element loop. Only meaningful for q < kLaneModulusBound.
 */
struct Mod32Constants
{
    uint64_t q = 0;
    uint64_t phi1 = 0;      ///< floor(2^32 / q): Shoup constant for w = 1
    uint64_t c32 = 0;       ///< 2^32 mod q
    uint64_t phi_c32 = 0;   ///< floor(c32 * 2^32 / q)
};

Mod32Constants mod32Constants(const rns::Modulus &q);

// Table constructors, one per compiled-in ISA tier.
const Kernels &scalarKernels();
#if defined(HEAT_HAVE_AVX2)
const Kernels &avx2Kernels();
#endif
#if defined(HEAT_HAVE_AVX512)
const Kernels &avx512Kernels();
#endif

} // namespace heat::simd::detail

#endif // HEAT_SIMD_SIMD_INTERNAL_H
