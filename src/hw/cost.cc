#include "hw/cost.h"

#include "common/panic.h"
#include "hw/dma.h"
#include "hw/lift_unit.h"
#include "hw/ntt_engine.h"
#include "hw/scale_unit.h"

namespace heat::hw {

InstrCost
instructionCost(const Instruction &instr,
                const std::shared_ptr<const fv::FvParams> &params,
                const HwConfig &config, const LevelOf &levelOf)
{
    const auto level = [&](PolyId id) -> size_t {
        return levelOf ? levelOf(id) : 0;
    };
    // Per-instruction NTT/coefficient costs are batch-width-independent
    // (the residues run on parallel RPAUs), so levels only shrink the
    // serial Lift/Scale input chains — see the unit cycle models.
    const NttEngine engine(config, params->degree());
    switch (instr.op) {
      case Opcode::kNtt:
        return {engine.forwardCycles()};
      case Opcode::kIntt:
        return {engine.inverseCycles()};
      case Opcode::kCoeffMul:
      case Opcode::kCoeffAdd:
      case Opcode::kCoeffSub:
        return {engine.coeffOpCycles()};
      case Opcode::kRearrange:
        return {engine.rearrangeCycles()};
      case Opcode::kAutomorph:
        return {engine.automorphCycles()};
      case Opcode::kLift:
        return {LiftUnit(params, config).cycles(level(instr.dst))};
      case Opcode::kScale:
        return {ScaleUnit(params, config).cycles(level(instr.src0))};
      case Opcode::kModSwitch:
        return {ScaleUnit(params, config).modSwitchCycles(
            level(instr.src0))};
      case Opcode::kKeyLoad: {
        // DMA-bound: one key pair, two single-burst q polynomials of
        // 30-bit residues in 32-bit words over the live basis.
        const size_t live =
            params->qPrimeCount(instr.extra.empty() ? 0
                                                    : level(instr.extra[0]));
        const size_t bytes = live * params->degree() * sizeof(uint32_t);
        return {0, 2.0 * DmaModel(config).transferUs(bytes)};
      }
    }
    panic("unknown opcode");
}

ExecStats
priceProgram(const Program &program, DispatchMode mode,
             const std::shared_ptr<const fv::FvParams> &params,
             const HwConfig &config, const LevelOf &levelOf)
{
    const Cycle dispatch = static_cast<Cycle>(config.dispatch_overhead);
    const bool fused = mode == DispatchMode::kFusedProgram;
    const auto arm = static_cast<size_t>(Unit::kArmUnit);
    ExecStats stats;
    for (const Instruction &instr : program.instrs) {
        const InstrCost cost = instructionCost(instr, params, config,
                                               levelOf);
        const Cycle cycles = fused ? cost.cycles : cost.cycles + dispatch;
        OpStats &op = stats.per_op[instr.op];
        ++op.calls;
        op.fpga_cycles += cycles;
        op.dma_us += cost.dma_us;
        stats.fpga_cycles += cycles;
        stats.dma_us += cost.dma_us;
        stats.unit_cycles[static_cast<size_t>(unitOf(instr.op))] +=
            cost.cycles;
        ++stats.instructions;
        if (!fused) {
            stats.dispatch_cycles += dispatch;
            stats.unit_cycles[arm] += dispatch;
        }
    }
    if (fused && !program.instrs.empty()) {
        // The whole instruction stream is queued in one Arm dispatch.
        stats.fpga_cycles += dispatch;
        stats.dispatch_cycles += dispatch;
        stats.unit_cycles[arm] += dispatch;
    }
    return stats;
}

} // namespace heat::hw
