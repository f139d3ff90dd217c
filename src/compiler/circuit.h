/**
 * @file
 * Ciphertext-level expression DAGs.
 *
 * A Circuit is a straight-line SSA program over encrypted values: node
 * i defines value i, inputs are explicit nodes, and plaintext operands
 * live in a constant pool. CircuitBuilder is the user-facing way to
 * grow one; fv::Evaluator provides the scalar reference semantics of
 * every node kind, and evaluateCircuit() runs a circuit op-by-op
 * through it — the golden model the hardware compiler (compiler.h) is
 * differentially tested against.
 *
 * Rotations (kRotate/kRotateColumns/kRotateSum) lower onto the
 * hardware automorphism datapath; several rotations of one value form
 * a hoist group sharing the key-switch decompose (see
 * rotationHoistGroupSizes and compiler.h's CompilerOptions).
 *
 * Multiplication is split FV-style: kMult/kSquare produce a 3-element
 * ciphertext (the scaled tensor), kRelin reduces it back to 2 elements.
 * The builder's mult()/square() conveniences chain both. A 3-element
 * value may feed exactly one kRelin node and/or be a circuit output;
 * every other use is rejected by validate() — which is what lets the
 * hardware compiler always fuse the relinearization tail into its
 * producer's schedule (the digit broadcast during Scale writeback is
 * free, materializing WordDecomp digits for a *detached* consumer is
 * not an ISA operation).
 */

#ifndef HEAT_COMPILER_CIRCUIT_H
#define HEAT_COMPILER_CIRCUIT_H

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "fv/evaluator.h"
#include "fv/keys.h"

namespace heat::compiler {

/** Identifier of a circuit value (the index of its defining node). */
using ValueId = uint32_t;

/** Sentinel for "no value". */
constexpr ValueId kNoValue = ~ValueId(0);

/** Circuit node kinds (each mirrors one fv::Evaluator operation). */
enum class NodeKind : uint8_t
{
    kInput,     ///< external ciphertext (size 2)
    kAdd,       ///< FV.Add
    kSub,       ///< FV.Sub
    kNegate,    ///< negation
    kAddPlain,  ///< ct + Delta * plain
    kMultPlain, ///< ct * plain (NTT pointwise, no relinearization)
    kMult,      ///< tensor + scale: 3-element result (no relin)
    kSquare,    ///< tensor of a value with itself: 3-element result
    kRelin,     ///< relinearize a 3-element value back to 2 elements
    kRotate,    ///< rotate batched slot rows by `steps` (Galois + switch)
    kRotateColumns, ///< swap the two slot columns (element 2n - 1)
    kRotateSum, ///< rotate-and-add total sum across all slots
    kModSwitch  ///< drop the last live q prime (level + 1)
};

/** @return a printable name. */
const char *nodeKindName(NodeKind kind);

/** @return ciphertext operand count of a node kind (0, 1 or 2). */
int nodeArgCount(NodeKind kind);

/** One node: the operation defining one value. */
struct CircuitNode
{
    NodeKind kind = NodeKind::kInput;
    /** Operand values (unused entries are kNoValue). */
    std::array<ValueId, 2> args{kNoValue, kNoValue};
    /** Index into Circuit::plains (kAddPlain/kMultPlain only). */
    int32_t plain = -1;
    /** Slot-rotation step count (kRotate only; nonzero). The Galois
     *  element is resolved against the parameter set's degree at
     *  compile/evaluation time — see rotationElement(). */
    int32_t steps = 0;

    bool operator==(const CircuitNode &o) const = default;
};

/** A whole expression DAG in topological (definition) order. */
struct Circuit
{
    /** Node i defines value i; arguments always precede their uses. */
    std::vector<CircuitNode> nodes;
    /** Plaintext constant pool. */
    std::vector<fv::Plaintext> plains;
    /** Input values in submission order. */
    std::vector<ValueId> inputs;
    /** Values the caller wants back (download set). */
    std::vector<ValueId> outputs;

    /** @return ciphertext element count of @p v (3 for kMult/kSquare). */
    size_t valueSize(ValueId v) const;

    /** @return number of non-input nodes. */
    size_t opCount() const { return nodes.size() - inputs.size(); }

    /**
     * Check structural well-formedness: topological argument order,
     * operand sizes (element-wise ops take 2-element values, kRelin a
     * 3-element one), at most one kRelin consumer per 3-element value
     * and no other consumers besides the output set, valid plain
     * indices, at least one output. Throws FatalError on violation.
     */
    void validate() const;
};

/** Incrementally grows a Circuit. */
class CircuitBuilder
{
  public:
    /** Declare the next external ciphertext input. */
    ValueId input();

    ValueId add(ValueId a, ValueId b);
    ValueId sub(ValueId a, ValueId b);
    ValueId negate(ValueId a);
    ValueId addPlain(ValueId a, fv::Plaintext plain);
    ValueId multPlain(ValueId a, fv::Plaintext plain);

    /** Rotate batched slot rows by @p steps (negative rotates the
     *  other way; step 0 folds to the identity and returns @p a
     *  itself). Lowers to the hardware automorphism datapath;
     *  multiple rotations of one value share the key-switch decompose
     *  (hoisting). Steps congruent modulo the slot-row length resolve
     *  to the same Galois element — and thus the same key — at
     *  compile/evaluation time. */
    ValueId rotate(ValueId a, int32_t steps);

    /** Swap the two batching slot columns (Galois element 2n - 1). */
    ValueId rotateColumns(ValueId a);

    /** Total sum across all slots: afterwards every slot holds the
     *  sum (rotate-and-add, matching fv::Evaluator::sumAllSlots). */
    ValueId rotateSum(ValueId a);

    /** Modulus switch @p a one level deeper (drop the last live q
     *  prime). Usually inserted by the compiler's level-assignment
     *  pass (insertModSwitches) rather than written by hand. */
    ValueId modSwitch(ValueId a);

    /** Tensor + scale without relinearization: a 3-element value. */
    ValueId multNoRelin(ValueId a, ValueId b);

    /** Square without relinearization: a 3-element value. */
    ValueId squareNoRelin(ValueId a);

    /** Relinearize a 3-element value back to 2 elements. */
    ValueId relinearize(ValueId a);

    /** multNoRelin + relinearize. */
    ValueId
    mult(ValueId a, ValueId b)
    {
        return relinearize(multNoRelin(a, b));
    }

    /** squareNoRelin + relinearize. */
    ValueId
    square(ValueId a)
    {
        return relinearize(squareNoRelin(a));
    }

    /** Mark @p v as a circuit output (download set; idempotent). */
    void output(ValueId v);

    /** Validate and return the finished circuit (builder is reset). */
    Circuit build();

    /** @return nodes added so far. */
    size_t size() const { return circuit_.nodes.size(); }

  private:
    ValueId addNode(NodeKind kind, ValueId a, ValueId b, int32_t plain);

    /** @return @p a after bounds-checking it against the nodes so far
     *  (used when an operation folds to the identity). */
    ValueId checkedValue(ValueId a) const;

    Circuit circuit_;
};

/**
 * The two-input circuit of one FV operation: @p kind kAdd, or kMult
 * for tensor + relinearization (the paper's Fig. 2 FV.Mult). Compiled,
 * its program is the operation's instruction schedule — what the
 * serving layer runs for a single-op submission.
 */
Circuit singleOpCircuit(NodeKind kind);

/** @return true for the single-automorphism node kinds (kRotate and
 *  kRotateColumns) that participate in hoist groups. */
bool isRotationNode(NodeKind kind);

/** @return the Galois element of a kRotate/kRotateColumns node for
 *  ring degree @p degree. */
uint32_t rotationElement(const CircuitNode &node, size_t degree);

/**
 * Per-node hoist-group size: for each kRotate/kRotateColumns node, how
 * many such nodes (including itself) rotate the same input value; 0
 * for every other node kind. Nodes in a group of >= 2 use hoisted
 * key-switch numerics (fv::Evaluator::applyGaloisHoisted) on every
 * execution path — compiled, op-by-op, and evaluateCircuit — so the
 * three stay bit-identical whether or not the compiler shares the
 * decompose.
 */
std::vector<uint32_t> rotationHoistGroupSizes(const Circuit &circuit);

/**
 * Multiplicative depth of the circuit: the longest chain of
 * ciphertext-ciphertext multiplications (kMult/kSquare) from any input
 * to any output. Plain-operand ops, additions, relinearizations and
 * rotations do not add depth. This is the depth the parameter set must
 * support (fv::NoiseModel::supportedDepth).
 */
int multiplicativeDepth(const Circuit &circuit);

/** Per-value multiplicative depth (the recurrence behind
 *  multiplicativeDepth; the noise pass's diagnostics name the depth
 *  of individual nodes from it). */
std::vector<int> multiplicativeDepths(const Circuit &circuit);

/**
 * Per-value ciphertext level, propagated structurally: inputs enter at
 * level 0, kModSwitch adds one, every other node preserves its
 * operands' level. Throws FatalError if a two-operand node joins
 * values at different levels (insertModSwitches aligns operands by
 * switching the shallower one down before the join).
 */
std::vector<size_t> valueLevels(const Circuit &circuit);

/**
 * Number of non-scalar (ciphertext x ciphertext) multiplications —
 * kMult plus kSquare nodes. The figure of merit polynomial-evaluation
 * plans minimize (Paterson-Stockmeyer reaches ~2 sqrt(d) where Horner
 * pays d - 1).
 */
size_t nonScalarMultCount(const Circuit &circuit);

/**
 * Every Galois element whose key-switching keys the circuit needs,
 * sorted ascending: one per kRotate/kRotateColumns node, plus the
 * power-of-two row elements and the column element for each
 * kRotateSum. Generate them with fv::KeyGenerator::generateGaloisKeys.
 */
std::vector<uint32_t> requiredGaloisElements(const Circuit &circuit,
                                             size_t degree);

/**
 * Scalar reference semantics: run @p circuit op-by-op through
 * @p evaluator, returning the output ciphertexts in output order.
 * @p rlk may be null only if the circuit contains no kRelin node;
 * @p gkeys only if it contains no rotation node.
 */
std::vector<fv::Ciphertext> evaluateCircuit(
    const fv::Evaluator &evaluator, const fv::RelinKeys *rlk,
    const Circuit &circuit, std::span<const fv::Ciphertext> inputs,
    const fv::GaloisKeys *gkeys = nullptr);

} // namespace heat::compiler

#endif // HEAT_COMPILER_CIRCUIT_H
