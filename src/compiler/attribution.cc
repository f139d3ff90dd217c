#include "compiler/attribution.h"

#include <unordered_map>

#include "common/panic.h"
#include "hw/dma.h"
#include "hw/lift_unit.h"
#include "hw/ntt_engine.h"
#include "hw/scale_unit.h"

namespace heat::compiler {
namespace {

/**
 * Record levels from the slot-action log. Ids are handed out
 * sequentially and never reused within one compiled circuit, so a
 * record's level is fixed by its kAllocate action — the same level
 * MemoryFile::recordLevel() reports after replaySlotActions().
 */
std::unordered_map<hw::PolyId, size_t>
recordLevels(const CompiledCircuit &compiled)
{
    std::unordered_map<hw::PolyId, size_t> levels;
    levels.reserve(compiled.slot_actions.size());
    for (const hw::SlotAction &action : compiled.slot_actions) {
        if (action.kind == hw::SlotAction::Kind::kAllocate)
            levels.emplace(action.id, action.level);
    }
    return levels;
}

} // namespace

CircuitAttribution
attributeCompiledCircuit(const CompiledCircuit &compiled)
{
    const fv::FvParams &params = *compiled.params;
    const hw::HwConfig &config = compiled.hw;

    // The same block models the coprocessor charges from; all cheap to
    // construct (they hold parameters, not state).
    const hw::NttEngine engine(config, params.degree());
    const hw::LiftUnit lift(compiled.params, config);
    const hw::ScaleUnit scale(compiled.params, config);
    const hw::DmaModel dma(config);
    const auto levels = recordLevels(compiled);
    const auto levelOf = [&](hw::PolyId id) -> size_t {
        const auto it = levels.find(id);
        return it == levels.end() ? 0 : it->second;
    };

    CircuitAttribution out;
    out.node_cycles.assign(compiled.value_sizes.size(), 0);

    const auto computeCycles = [&](const hw::Instruction &instr) {
        switch (instr.op) {
          case hw::Opcode::kNtt:
            return engine.forwardCycles();
          case hw::Opcode::kIntt:
            return engine.inverseCycles();
          case hw::Opcode::kCoeffMul:
          case hw::Opcode::kCoeffAdd:
          case hw::Opcode::kCoeffSub:
            return engine.coeffOpCycles();
          case hw::Opcode::kRearrange:
            return engine.rearrangeCycles();
          case hw::Opcode::kAutomorph:
            return engine.automorphCycles();
          case hw::Opcode::kLift:
            return lift.cycles(levelOf(instr.dst));
          case hw::Opcode::kScale:
            return scale.cycles(levelOf(instr.src0));
          case hw::Opcode::kModSwitch:
            return scale.modSwitchCycles(levelOf(instr.src0));
          case hw::Opcode::kKeyLoad:
            return hw::Cycle{0};
        }
        panic("unknown opcode");
    };

    for (size_t s = 0; s < compiled.segments.size(); ++s) {
        const hw::Program &program = compiled.segments[s].program;
        const std::vector<ValueId> *tags =
            s < compiled.instr_nodes.size() ? &compiled.instr_nodes[s]
                                            : nullptr;
        for (size_t k = 0; k < program.instrs.size(); ++k) {
            const hw::Instruction &instr = program.instrs[k];
            const hw::Cycle cycles = computeCycles(instr);
            out.compute_cycles += cycles;
            out.unit_cycles[static_cast<size_t>(hw::unitOf(instr.op))] +=
                cycles;
            out.op_cycles[instr.op] += cycles;
            if (tags != nullptr && k < tags->size() &&
                (*tags)[k] != kNoValue)
                out.node_cycles[(*tags)[k]] += cycles;
            if (instr.op == hw::Opcode::kKeyLoad) {
                // Mirror of Coprocessor::instructionDmaUs: one key pair,
                // two level-truncated q polynomials.
                size_t live = params.qBase()->size();
                if (!instr.extra.empty())
                    live = params.qPrimeCount(levelOf(instr.extra[0]));
                const size_t bytes =
                    live * params.degree() * sizeof(uint32_t);
                out.key_dma_us += 2.0 * dma.transferUs(bytes);
            }
        }
        if (!program.instrs.empty()) {
            const auto dispatch =
                static_cast<hw::Cycle>(config.dispatch_overhead);
            out.dispatch_cycles += dispatch;
            out.unit_cycles[static_cast<size_t>(hw::Unit::kArmUnit)] +=
                dispatch;
        }
    }
    out.total_cycles = out.compute_cycles + out.dispatch_cycles;
    return out;
}

} // namespace heat::compiler
