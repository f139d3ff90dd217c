/**
 * @file
 * Configuration of the simulated coprocessor (Sec. V of the paper).
 *
 * Clock domains match the implementation: 200 MHz FPGA fabric, 1.2 GHz
 * Arm cores, 250 MHz DMA. Microarchitectural constants (pipeline depths,
 * block-pipeline beats, dispatch overheads) are calibrated against the
 * paper's measured Tables I-III; EXPERIMENTS.md documents each fit.
 */

#ifndef HEAT_HW_CONFIG_H
#define HEAT_HW_CONFIG_H

#include <cstddef>
#include <cstdint>

#include "fv/arith.h"

namespace heat::hw {

/** Cycle count in the FPGA clock domain. */
using Cycle = uint64_t;

/** Tunable parameters of the coprocessor model. */
struct HwConfig
{
    // --- clocks -----------------------------------------------------------
    double fpga_clock_hz = 200e6;
    double arm_clock_hz = 1.2e9;
    double dma_clock_hz = 250e6;

    // --- structure --------------------------------------------------------
    /** Residue polynomial arithmetic units (ceil(13/2) = 7). */
    size_t n_rpaus = 7;
    /** Butterfly cores per RPAU (bounded by BRAM ports, Sec. V-A2). */
    size_t butterfly_cores = 2;
    /** Parallel Lift/Scale cores. */
    size_t lift_scale_cores = 2;
    /** Residue-polynomial slots per RPAU in the on-chip memory file. */
    size_t slots_per_rpau = 12;
    /** Lift/Scale architecture: the small-integer HPS datapath
     *  (Sec. V-B2/V-C, kHps) or the multi-precision CRT datapath
     *  (Sec. V-B1, kExactCrt). */
    fv::ArithPath lift_scale_arch = fv::ArithPath::kHps;

    // --- microarchitecture (calibrated) -----------------------------------
    /** Butterfly pipeline depth: multiplier + reducer + add/sub stages. */
    int butterfly_pipeline_depth = 16;
    /** Per-NTT-stage overhead: address-generator setup, twiddle bank
     *  switch, pipeline fill/drain. */
    int ntt_stage_overhead = 140;
    /** Coefficient-unit pipeline depth. */
    int coeff_pipeline_depth = 12;
    /** HPS Lift/Scale block-pipeline beat (cycles per coefficient per
     *  core; the slowest block takes 7 cycles plus one streaming
     *  handoff). */
    int lift_beat = 8;
    /** Pipeline fill of the five-block Lift chain. */
    int lift_fill = 60;
    /** Pipeline fill of the chained Scale+Lift datapath. */
    int scale_fill = 120;
    /** Traditional-CRT Lift beat (long-integer division bound). */
    int trad_lift_beat = 92;
    /** Traditional-CRT Scale beat (~4x wider division). */
    int trad_scale_beat = 236;
    /** ARM-side dispatch + completion overhead per instruction,
     *  expressed in FPGA cycles. */
    int dispatch_overhead = 500;

    // --- DMA (fitted to Table III; see DmaModel) ---------------------------
    double dma_setup_us = 20.2;
    double dma_desc_first_us = 6.6;
    double dma_desc_steady_us = 1.033;
    int dma_warm_descriptors = 6;
    double dma_bytes_per_cycle = 8.0;

    // --- host software ------------------------------------------------------
    /** ARM cycles per modular addition in baremetal software
     *  (cache-missing DDR loop; calibrated to Table I's Add in SW). */
    double arm_sw_modadd_cycles = 1112.0;
    /** Host staging overhead per polynomial transfer (us). */
    double host_transfer_setup_us = 14.0;

    bool operator==(const HwConfig &o) const = default;

    // --- factories ---------------------------------------------------------

    /** The faster coprocessor of the paper (HPS, 200 MHz). */
    static HwConfig
    paper()
    {
        return HwConfig{};
    }

    /** The slower coprocessor (traditional CRT, 225 MHz, 4 cores). */
    static HwConfig
    paperTraditional()
    {
        HwConfig config;
        config.fpga_clock_hz = 225e6;
        config.lift_scale_arch = fv::ArithPath::kExactCrt;
        config.lift_scale_cores = 4;
        return config;
    }

    /** Convert FPGA cycles to microseconds. */
    double
    cyclesToUs(Cycle cycles) const
    {
        return static_cast<double>(cycles) / fpga_clock_hz * 1e6;
    }

    /** Convert microseconds to ARM cycle counts (the paper's Tables I-II
     *  report timings measured in 1.2 GHz Arm cycles). */
    uint64_t
    usToArmCycles(double us) const
    {
        return static_cast<uint64_t>(us * arm_clock_hz / 1e6);
    }
};

} // namespace heat::hw

#endif // HEAT_HW_CONFIG_H
