/**
 * @file
 * Residue Polynomial Arithmetic Unit mapping (Sec. V-A).
 *
 * Each RPAU owns the BRAM slots, the dual-core NTT engine and the
 * coefficient-wise lanes for (up to) two RNS primes: RPAU r serves prime
 * r of the q base and prime r + 6 of the extension base (the paper's
 * resource sharing: ceil(13/2) = 7 RPAUs, the last one serving only
 * q12). A batch-0 instruction activates RPAUs 0..5, a batch-1
 * instruction RPAUs 0..6; all active RPAUs run in lock-step, so
 * instruction latency is independent of batch width and one NttEngine
 * prices every NTT, rearrange and coefficient-wise instruction.
 */

#ifndef HEAT_HW_RPAU_H
#define HEAT_HW_RPAU_H

#include <cstddef>
#include <vector>

namespace heat::hw {

/** Map a global residue index to its RPAU (paper Sec. V-A1). */
size_t rpauForResidue(size_t residue, size_t q_prime_count);

/** Batch of a residue: 0 for the q primes, 1 for the extension primes. */
int batchOfResidue(size_t residue, size_t q_prime_count);

/** Residue indices belonging to a batch for a base of @p total primes. */
std::vector<size_t> residuesOfBatch(int batch, size_t q_prime_count,
                                    size_t total);

} // namespace heat::hw

#endif // HEAT_HW_RPAU_H
