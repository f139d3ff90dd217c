/**
 * @file
 * Full-system model (Fig. 11): two coprocessor instances in the
 * programmable logic, one application Arm core per coprocessor, a
 * networking core distributing work, and a single DMA engine guarded by
 * the mutual-exclusion IP core.
 *
 * A small discrete-event simulation executes a batch of homomorphic
 * multiplications across the coprocessors: each job serializes
 * [acquire DMA -> send operands] -> [compute, acquiring the DMA again
 * for each relinearization-key segment] -> [acquire DMA -> receive].
 * The headline reproduction: ~400 Mult/s with two coprocessors at
 * 200 MHz (Sec. VI-A).
 */

#ifndef HEAT_HW_SYSTEM_H
#define HEAT_HW_SYSTEM_H

#include <memory>
#include <vector>

#include "fv/params.h"
#include "hw/arm_host.h"
#include "hw/config.h"
#include "hw/isa.h"

namespace heat::hw {

/** Result of a throughput simulation. */
struct ThroughputResult
{
    size_t mults = 0;
    double makespan_us = 0.0;
    double mults_per_second = 0.0;
    /** Fraction of the makespan the DMA engine was busy. */
    double dma_utilization = 0.0;
    /** Fraction of the makespan each coprocessor spent computing. */
    std::vector<double> coproc_utilization;
};

/** Timing profile of one Mult job on a coprocessor. */
struct MultJobProfile
{
    double send_us = 0.0;        ///< operand upload (DMA-held)
    double compute_us = 0.0;     ///< FPGA compute (no DMA)
    double key_dma_us = 0.0;     ///< per key segment (DMA-held)
    size_t key_segments = 0;     ///< number of key loads
    double receive_us = 0.0;     ///< result download (DMA-held)
};

/**
 * Price one FV.Mult job: emit (without executing) the Mult program,
 * price it with hw::priceProgram and add the host-side transfer times.
 * Pure function of its inputs;
 * callers that construct many systems or service workers can compute
 * the profile once and share it.
 *
 * @param dispatch kPerInstruction reproduces the paper's measured cost
 *        (every instruction pays the Arm dispatch overhead);
 *        kFusedProgram prices the Mult as a pre-queued fused program
 *        with a single dispatch (the circuit-compiler execution model).
 */
MultJobProfile profileMultJob(
    const std::shared_ptr<const fv::FvParams> &params,
    const HwConfig &config,
    DispatchMode dispatch = DispatchMode::kPerInstruction);

/** The Arm + two-coprocessor system. */
class HeatSystem
{
  public:
    /**
     * @param params FV parameter set.
     * @param config hardware configuration.
     * @param n_coprocessors parallel coprocessor instances (paper: 2).
     */
    HeatSystem(std::shared_ptr<const fv::FvParams> params,
               const HwConfig &config, size_t n_coprocessors = 2);

    /** Same, with a precomputed per-Mult profile (skips emitting and
     *  pricing the Mult — cheap construction for serving layers). */
    HeatSystem(std::shared_ptr<const fv::FvParams> params,
               const HwConfig &config, size_t n_coprocessors,
               const MultJobProfile &profile);

    /** @return the per-Mult timing profile used by the simulation. */
    const MultJobProfile &profile() const { return profile_; }

    /** Simulate @p mults homomorphic multiplications. */
    ThroughputResult simulate(size_t mults) const;

    /** @return number of coprocessors. */
    size_t coprocessorCount() const { return n_coproc_; }

  private:
    std::shared_ptr<const fv::FvParams> params_;
    HwConfig config_;
    size_t n_coproc_;
    MultJobProfile profile_;
};

} // namespace heat::hw

#endif // HEAT_HW_SYSTEM_H
