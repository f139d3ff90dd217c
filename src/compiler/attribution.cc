#include "compiler/attribution.h"

#include <unordered_map>

#include "hw/cost.h"

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
    const auto levels = recordLevels(compiled);
    const hw::LevelOf levelOf = [&levels](hw::PolyId id) -> size_t {
        const auto it = levels.find(id);
        return it == levels.end() ? 0 : it->second;
    };

    CircuitAttribution out;
    out.node_cycles.assign(compiled.value_sizes.size(), 0);
    for (size_t s = 0; s < compiled.segments.size(); ++s) {
        const hw::Program &program = compiled.segments[s].program;
        const hw::ExecStats stats =
            hw::priceProgram(program, hw::DispatchMode::kFusedProgram,
                             compiled.params, compiled.hw, levelOf);
        for (size_t u = 0; u < hw::kUnitCount; ++u)
            out.unit_cycles[u] += stats.unit_cycles[u];
        for (const auto &[op, op_stats] : stats.per_op)
            out.op_cycles[op] += op_stats.fpga_cycles;
        out.dispatch_cycles += stats.dispatch_cycles;
        out.total_cycles += stats.fpga_cycles;
        out.key_dma_us += stats.dma_us;

        if (s >= compiled.instr_nodes.size())
            continue;
        const std::vector<ValueId> &tags = compiled.instr_nodes[s];
        for (size_t k = 0; k < program.instrs.size() && k < tags.size();
             ++k) {
            if (tags[k] != kNoValue)
                out.node_cycles[tags[k]] +=
                    hw::instructionCost(program.instrs[k], compiled.params,
                                        compiled.hw, levelOf)
                        .cycles;
        }
    }
    out.compute_cycles = out.total_cycles - out.dispatch_cycles;
    return out;
}

} // namespace heat::compiler
