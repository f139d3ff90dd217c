/**
 * @file
 * Pipeline model of the sliding-window modular reduction circuit
 * (Sec. V-A4, Fig. 4).
 *
 * The circuit folds the top 6 bits of a 60-bit product step by step using
 * a 64-entry table of w * 2^30 mod q, fully unrolled into
 * kSlidingWindowStages stages with pipeline registers, then applies up to
 * two conditional subtractions. Functionally it is exactly
 * Modulus::slidingWindowReduce; this class adds the latency/occupancy
 * model the butterfly pipeline and the resource model consume.
 *
 * The simulator does not reduce through this circuit: coefficient-wise
 * multiplications run the heat::simd mul_mod kernels, which produce the
 * same canonical residues. The reducer stays as the modeled datapath
 * and as the test oracle those kernels are checked against.
 */

#ifndef HEAT_HW_MOD_REDUCE_UNIT_H
#define HEAT_HW_MOD_REDUCE_UNIT_H

#include <cstdint>

#include "rns/modulus.h"

namespace heat::hw {

/** Unrolled sliding-window reducer: functional + latency model. */
class ModReduceUnit
{
  public:
    explicit ModReduceUnit(const rns::Modulus &modulus);

    /** @return x mod q through the modeled datapath. */
    uint64_t reduce(uint64_t x) const;

    /** Pipeline latency in cycles: one per fold stage plus the two
     *  correction stages. Throughput is one reduction per cycle. */
    static constexpr int kLatency = rns::Modulus::kSlidingWindowStages + 2;

    /** The modulus served. */
    const rns::Modulus &modulus() const { return modulus_; }

  private:
    rns::Modulus modulus_;
};

/**
 * Latency of the full butterfly datapath: 30x30 DSP multiplier stages,
 * the reducer, and the modular add/sub stage. Used to sanity-check
 * HwConfig::butterfly_pipeline_depth.
 */
constexpr int kMultiplierLatency = 4;
constexpr int kAddSubLatency = 2;
constexpr int kButterflyLatency =
    kMultiplierLatency + ModReduceUnit::kLatency + kAddSubLatency;

} // namespace heat::hw

#endif // HEAT_HW_MOD_REDUCE_UNIT_H
