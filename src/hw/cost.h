/**
 * @file
 * The coprocessor's cost model — the paper's Table II, written once.
 *
 * instructionCost() prices one instruction from the block models
 * (NttEngine, LiftUnit, ScaleUnit) and the DmaModel; priceProgram()
 * adds a program's costs up the way a run charges them. No price
 * depends on ciphertext values, only on the record levels an
 * instruction touches, so a program is priced without running it:
 * Coprocessor::execute reads the levels from its memory file,
 * compiler::attributeCompiledCircuit from the compiled slot log.
 */

#ifndef HEAT_HW_COST_H
#define HEAT_HW_COST_H

#include <functional>
#include <memory>

#include "fv/params.h"
#include "hw/isa.h"

namespace heat::hw {

/** Modeled cost of one instruction, without the Arm dispatch. */
struct InstrCost
{
    Cycle cycles = 0;    ///< block-model compute cycles
    double dma_us = 0.0; ///< key-switch key DMA (kKeyLoad only)
};

/** Modulus-switching level of the record behind an id; an empty
 *  function prices every record at level 0. */
using LevelOf = std::function<size_t(PolyId)>;

/** Price one instruction. Levels shorten the serial Lift/Scale/
 *  ModSwitch input chains and truncate a kKeyLoad burst to the live q
 *  residues; every other cost depends on params and config only. */
InstrCost instructionCost(const Instruction &instr,
                          const std::shared_ptr<const fv::FvParams> &params,
                          const HwConfig &config,
                          const LevelOf &levelOf = {});

/** The ExecStats a run of @p program in @p mode reports (traced_us
 *  stays 0), without running it: kPerInstruction charges one Arm
 *  dispatch per instruction, kFusedProgram one per non-empty program. */
ExecStats priceProgram(const Program &program, DispatchMode mode,
                       const std::shared_ptr<const fv::FvParams> &params,
                       const HwConfig &config,
                       const LevelOf &levelOf = {});

} // namespace heat::hw

#endif // HEAT_HW_COST_H
