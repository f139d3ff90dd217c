/**
 * @file
 * Compile-time cycle attribution of a compiled circuit.
 *
 * attributeCompiledCircuit() prices every segment of a
 * CompiledCircuit with hw::priceProgram — the function
 * hw::Coprocessor::execute charges from — in the fused dispatch mode,
 * reading record levels from the slot-action log instead of a live
 * memory file. It buckets the cycles by functional unit (hw::unitOf)
 * and opcode, and adds one thing a run does not: via
 * CompiledCircuit::instr_nodes, each instruction's compute cycles are
 * also charged to the circuit node that emitted it. The totals are the
 * cycles and key DMA a fused execution of the circuit reports, without
 * running anything.
 *
 * This is what lets the compiler annotate nodes with attributed cost
 * at compile time. `heat_cli trace` and the tests check the buckets
 * against a run's unit_cycles (the 0-cycle-delta acceptance gate);
 * with one price, what that check guards is the level reconstruction
 * from the slot log.
 */

#ifndef HEAT_COMPILER_ATTRIBUTION_H
#define HEAT_COMPILER_ATTRIBUTION_H

#include <array>
#include <map>

#include "compiler/compiler.h"

namespace heat::compiler {

/** Cycle breakdown of one compiled circuit (fused execution model). */
struct CircuitAttribution
{
    /** Compute + dispatch cycles bucketed by functional unit; sums
     *  exactly to total_cycles. */
    std::array<hw::Cycle, hw::kUnitCount> unit_cycles{};
    /** Compute cycles per opcode. */
    std::map<hw::Opcode, hw::Cycle> op_cycles;
    /** Compute cycles attributed to each circuit value id (nodes that
     *  emitted no instructions — inputs, fused relins — stay 0; spill
     *  traffic charges the node whose emission forced it). */
    std::vector<hw::Cycle> node_cycles;
    /** Sum of per-instruction compute cycles. */
    hw::Cycle compute_cycles = 0;
    /** Arm dispatch overhead: one per non-empty segment (fused). */
    hw::Cycle dispatch_cycles = 0;
    /** compute_cycles + dispatch_cycles == a fused run's fpga_cycles. */
    hw::Cycle total_cycles = 0;
    /** Key-switch key DMA microseconds (kKeyLoad bursts). */
    double key_dma_us = 0.0;

    hw::Cycle
    unitCycles(hw::Unit unit) const
    {
        return unit_cycles[static_cast<size_t>(unit)];
    }
};

/** Attribute @p compiled's modeled cycles. Pure function of the
 *  compiled artifact — no coprocessor, no execution. */
CircuitAttribution
attributeCompiledCircuit(const CompiledCircuit &compiled);

} // namespace heat::compiler

#endif // HEAT_COMPILER_ATTRIBUTION_H
