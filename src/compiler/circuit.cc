#include "compiler/circuit.h"

#include <algorithm>
#include <map>
#include <utility>

#include "common/panic.h"
#include "fv/galois.h"

namespace heat::compiler {

const char *
nodeKindName(NodeKind kind)
{
    switch (kind) {
      case NodeKind::kInput:
        return "Input";
      case NodeKind::kAdd:
        return "Add";
      case NodeKind::kSub:
        return "Sub";
      case NodeKind::kNegate:
        return "Negate";
      case NodeKind::kAddPlain:
        return "AddPlain";
      case NodeKind::kMultPlain:
        return "MultPlain";
      case NodeKind::kMult:
        return "Mult";
      case NodeKind::kSquare:
        return "Square";
      case NodeKind::kRelin:
        return "Relin";
      case NodeKind::kRotate:
        return "Rotate";
      case NodeKind::kRotateColumns:
        return "RotateColumns";
      case NodeKind::kRotateSum:
        return "RotateSum";
      case NodeKind::kModSwitch:
        return "ModSwitch";
    }
    panic("unknown node kind");
}

int
nodeArgCount(NodeKind kind)
{
    switch (kind) {
      case NodeKind::kInput:
        return 0;
      case NodeKind::kAdd:
      case NodeKind::kSub:
      case NodeKind::kMult:
        return 2;
      default:
        return 1;
    }
}

namespace {

bool
isThreeElement(NodeKind kind)
{
    return kind == NodeKind::kMult || kind == NodeKind::kSquare;
}

} // namespace

size_t
Circuit::valueSize(ValueId v) const
{
    panicIf(v >= nodes.size(), "value id out of range");
    return isThreeElement(nodes[v].kind) ? 3 : 2;
}

void
Circuit::validate() const
{
    fatalIf(outputs.empty(), "circuit has no outputs");
    fatalIf(nodes.empty(), "circuit has no nodes");

    size_t seen_inputs = 0;
    std::vector<int> relin_consumers(nodes.size(), 0);
    std::vector<int> other_consumers(nodes.size(), 0);
    for (size_t i = 0; i < nodes.size(); ++i) {
        const CircuitNode &node = nodes[i];
        if (node.kind == NodeKind::kInput) {
            fatalIf(seen_inputs >= inputs.size() ||
                        inputs[seen_inputs] != static_cast<ValueId>(i),
                    "circuit input list does not match the input nodes");
            ++seen_inputs;
        }
        for (int a = 0; a < nodeArgCount(node.kind); ++a) {
            const ValueId arg = node.args[a];
            fatalIf(arg >= i, "node ", i, " (", nodeKindName(node.kind),
                    ") uses value ", arg,
                    " that is not defined before it");
            if (node.kind == NodeKind::kRelin)
                ++relin_consumers[arg];
            else
                ++other_consumers[arg];
            const bool needs3 = node.kind == NodeKind::kRelin;
            fatalIf((valueSize(arg) == 3) != needs3, "node ", i, " (",
                    nodeKindName(node.kind), ") cannot consume the ",
                    valueSize(arg), "-element value ", arg,
                    needs3 ? " (relinearize expects a 3-element value)"
                           : " (relinearize it first)");
        }
        if (node.kind == NodeKind::kAddPlain ||
            node.kind == NodeKind::kMultPlain) {
            fatalIf(node.plain < 0 ||
                        static_cast<size_t>(node.plain) >= plains.size(),
                    "node ", i, " references plaintext ", node.plain,
                    " outside the constant pool");
        }
        if (node.kind == NodeKind::kRotate)
            fatalIf(node.steps == 0,
                    "node ", i, " rotates by zero steps");
    }
    fatalIf(seen_inputs != inputs.size(),
            "circuit input list does not match the input nodes");

    for (size_t i = 0; i < nodes.size(); ++i) {
        if (!isThreeElement(nodes[i].kind))
            continue;
        fatalIf(relin_consumers[i] > 1, "3-element value ", i,
                " feeds more than one relinearization");
        fatalIf(other_consumers[i] > 0, "3-element value ", i,
                " must be relinearized before other use");
    }

    for (ValueId out : outputs)
        fatalIf(out >= nodes.size(), "output value ", out,
                " is not defined");
}

ValueId
CircuitBuilder::checkedValue(ValueId a) const
{
    fatalIf(a >= circuit_.nodes.size(),
            "Rotate uses an undefined value");
    return a;
}

ValueId
CircuitBuilder::addNode(NodeKind kind, ValueId a, ValueId b, int32_t plain)
{
    CircuitNode node;
    node.kind = kind;
    node.args = {a, b};
    node.plain = plain;
    for (int i = 0; i < nodeArgCount(kind); ++i)
        fatalIf(node.args[i] >= circuit_.nodes.size(),
                nodeKindName(kind), " uses an undefined value");
    circuit_.nodes.push_back(node);
    return static_cast<ValueId>(circuit_.nodes.size() - 1);
}

ValueId
CircuitBuilder::input()
{
    const ValueId v = addNode(NodeKind::kInput, kNoValue, kNoValue, -1);
    circuit_.inputs.push_back(v);
    return v;
}

ValueId
CircuitBuilder::add(ValueId a, ValueId b)
{
    return addNode(NodeKind::kAdd, a, b, -1);
}

ValueId
CircuitBuilder::sub(ValueId a, ValueId b)
{
    return addNode(NodeKind::kSub, a, b, -1);
}

ValueId
CircuitBuilder::negate(ValueId a)
{
    return addNode(NodeKind::kNegate, a, kNoValue, -1);
}

ValueId
CircuitBuilder::addPlain(ValueId a, fv::Plaintext plain)
{
    circuit_.plains.push_back(std::move(plain));
    return addNode(NodeKind::kAddPlain, a, kNoValue,
                   static_cast<int32_t>(circuit_.plains.size() - 1));
}

ValueId
CircuitBuilder::multPlain(ValueId a, fv::Plaintext plain)
{
    circuit_.plains.push_back(std::move(plain));
    return addNode(NodeKind::kMultPlain, a, kNoValue,
                   static_cast<int32_t>(circuit_.plains.size() - 1));
}

ValueId
CircuitBuilder::rotate(ValueId a, int32_t steps)
{
    // Step 0 is the identity permutation: fold it away instead of
    // emitting a node that would lower to a pointless (or
    // missing-key-failing) key-switch. Steps that are a nonzero
    // multiple of the slot-row length also resolve to the identity,
    // but only at element-resolution time (the row length depends on
    // the ring degree, which the builder does not know) — those nodes
    // lower to plain copies; see rotationElement().
    if (steps == 0)
        return checkedValue(a);
    const ValueId v = addNode(NodeKind::kRotate, a, kNoValue, -1);
    circuit_.nodes.back().steps = steps;
    return v;
}

ValueId
CircuitBuilder::rotateColumns(ValueId a)
{
    return addNode(NodeKind::kRotateColumns, a, kNoValue, -1);
}

ValueId
CircuitBuilder::rotateSum(ValueId a)
{
    return addNode(NodeKind::kRotateSum, a, kNoValue, -1);
}

ValueId
CircuitBuilder::modSwitch(ValueId a)
{
    return addNode(NodeKind::kModSwitch, a, kNoValue, -1);
}

ValueId
CircuitBuilder::multNoRelin(ValueId a, ValueId b)
{
    // A value tensored with itself is a square; routing it here keeps
    // the hardware schedule (2 lifts, not 4) and the reference
    // semantics (multiply(x, x) == square(x)) aligned.
    if (a == b)
        return squareNoRelin(a);
    return addNode(NodeKind::kMult, a, b, -1);
}

ValueId
CircuitBuilder::squareNoRelin(ValueId a)
{
    return addNode(NodeKind::kSquare, a, kNoValue, -1);
}

ValueId
CircuitBuilder::relinearize(ValueId a)
{
    return addNode(NodeKind::kRelin, a, kNoValue, -1);
}

void
CircuitBuilder::output(ValueId v)
{
    fatalIf(v >= circuit_.nodes.size(), "output of an undefined value");
    for (ValueId existing : circuit_.outputs) {
        if (existing == v)
            return;
    }
    circuit_.outputs.push_back(v);
}

Circuit
CircuitBuilder::build()
{
    Circuit circuit = std::move(circuit_);
    circuit_ = Circuit{};
    circuit.validate();
    return circuit;
}

bool
isRotationNode(NodeKind kind)
{
    return kind == NodeKind::kRotate || kind == NodeKind::kRotateColumns;
}

uint32_t
rotationElement(const CircuitNode &node, size_t degree)
{
    switch (node.kind) {
      case NodeKind::kRotate:
        return fv::galoisElementForStep(node.steps, degree);
      case NodeKind::kRotateColumns:
        return static_cast<uint32_t>(2 * degree - 1);
      default:
        panic("node has no Galois element");
    }
}

std::vector<uint32_t>
rotationHoistGroupSizes(const Circuit &circuit)
{
    std::map<ValueId, uint32_t> per_input;
    for (const CircuitNode &node : circuit.nodes) {
        if (isRotationNode(node.kind))
            ++per_input[node.args[0]];
    }
    std::vector<uint32_t> sizes(circuit.nodes.size(), 0);
    for (size_t i = 0; i < circuit.nodes.size(); ++i) {
        if (isRotationNode(circuit.nodes[i].kind))
            sizes[i] = per_input[circuit.nodes[i].args[0]];
    }
    return sizes;
}

std::vector<int>
multiplicativeDepths(const Circuit &circuit)
{
    std::vector<int> depth(circuit.nodes.size(), 0);
    for (size_t i = 0; i < circuit.nodes.size(); ++i) {
        const CircuitNode &node = circuit.nodes[i];
        int d = 0;
        for (int a = 0; a < nodeArgCount(node.kind); ++a)
            d = std::max(d, depth[node.args[a]]);
        if (node.kind == NodeKind::kMult ||
            node.kind == NodeKind::kSquare)
            ++d;
        depth[i] = d;
    }
    return depth;
}

std::vector<size_t>
valueLevels(const Circuit &circuit)
{
    std::vector<size_t> levels(circuit.nodes.size(), 0);
    for (size_t i = 0; i < circuit.nodes.size(); ++i) {
        const CircuitNode &node = circuit.nodes[i];
        const int argc = nodeArgCount(node.kind);
        size_t level = 0;
        if (argc >= 1)
            level = levels[node.args[0]];
        if (argc == 2) {
            fatalIf(levels[node.args[1]] != level, "node ", i, " (",
                    nodeKindName(node.kind), ") joins value ",
                    node.args[0], " at level ", level, " with value ",
                    node.args[1], " at level ", levels[node.args[1]],
                    "; mod-switch the shallower operand first");
        }
        if (node.kind == NodeKind::kModSwitch)
            ++level;
        levels[i] = level;
    }
    return levels;
}

int
multiplicativeDepth(const Circuit &circuit)
{
    const std::vector<int> depths = multiplicativeDepths(circuit);
    return depths.empty()
               ? 0
               : *std::max_element(depths.begin(), depths.end());
}

Circuit
singleOpCircuit(NodeKind kind)
{
    fatalIf(kind != NodeKind::kAdd && kind != NodeKind::kMult,
            "singleOpCircuit takes kAdd or kMult, got ",
            nodeKindName(kind));
    CircuitBuilder b;
    const ValueId x = b.input();
    const ValueId y = b.input();
    b.output(kind == NodeKind::kAdd ? b.add(x, y) : b.mult(x, y));
    return b.build();
}

size_t
nonScalarMultCount(const Circuit &circuit)
{
    size_t count = 0;
    for (const CircuitNode &node : circuit.nodes) {
        if (node.kind == NodeKind::kMult ||
            node.kind == NodeKind::kSquare)
            ++count;
    }
    return count;
}

std::vector<uint32_t>
requiredGaloisElements(const Circuit &circuit, size_t degree)
{
    std::vector<uint32_t> elements;
    for (const CircuitNode &node : circuit.nodes) {
        if (isRotationNode(node.kind)) {
            // Element 1 rotations (steps that normalize to zero) are
            // identity copies and need no key.
            const uint32_t g = rotationElement(node, degree);
            if (g != 1)
                elements.push_back(g);
        } else if (node.kind == NodeKind::kRotateSum) {
            for (size_t step = 1; step <= degree / 4; step *= 2) {
                elements.push_back(fv::galoisElementForStep(
                    static_cast<int>(step), degree));
            }
            elements.push_back(static_cast<uint32_t>(2 * degree - 1));
        }
    }
    std::sort(elements.begin(), elements.end());
    elements.erase(std::unique(elements.begin(), elements.end()),
                   elements.end());
    return elements;
}

std::vector<fv::Ciphertext>
evaluateCircuit(const fv::Evaluator &evaluator, const fv::RelinKeys *rlk,
                const Circuit &circuit,
                std::span<const fv::Ciphertext> inputs,
                const fv::GaloisKeys *gkeys)
{
    circuit.validate();
    fatalIf(inputs.size() != circuit.inputs.size(),
            "circuit expects ", circuit.inputs.size(), " inputs, got ",
            inputs.size());

    const std::vector<uint32_t> hoist_sizes =
        rotationHoistGroupSizes(circuit);
    const auto needGalois = [&]() -> const fv::GaloisKeys & {
        fatalIf(gkeys == nullptr,
                "circuit rotates but no Galois keys were given");
        return *gkeys;
    };

    std::vector<fv::Ciphertext> values(circuit.nodes.size());
    size_t next_input = 0;
    for (size_t i = 0; i < circuit.nodes.size(); ++i) {
        const CircuitNode &node = circuit.nodes[i];
        const ValueId a = node.args[0];
        const ValueId b = node.args[1];
        switch (node.kind) {
          case NodeKind::kInput:
            values[i] = inputs[next_input++];
            break;
          case NodeKind::kAdd:
            values[i] = evaluator.add(values[a], values[b]);
            break;
          case NodeKind::kSub:
            values[i] = evaluator.sub(values[a], values[b]);
            break;
          case NodeKind::kNegate:
            values[i] = values[a];
            evaluator.negateInPlace(values[i]);
            break;
          case NodeKind::kAddPlain:
            values[i] = values[a];
            evaluator.addPlainInPlace(values[i],
                                      circuit.plains[node.plain]);
            break;
          case NodeKind::kMultPlain:
            values[i] = evaluator.multiplyPlain(
                values[a], circuit.plains[node.plain]);
            break;
          case NodeKind::kMult:
            values[i] =
                evaluator.multiplyNoRelin(values[a], values[b]);
            break;
          case NodeKind::kSquare:
            values[i] = evaluator.multiplyNoRelin(values[a], values[a]);
            break;
          case NodeKind::kRelin:
            fatalIf(rlk == nullptr,
                    "circuit relinearizes but no keys were given");
            values[i] = values[a];
            evaluator.relinearizeInPlace(values[i], *rlk);
            break;
          case NodeKind::kRotate:
          case NodeKind::kRotateColumns: {
            // Members of a hoist group (>= 2 rotations of one value)
            // use the hoisted key-switch numerics on every execution
            // path; lone rotations match plain applyGalois. Element 1
            // (steps congruent to zero) is an identity copy and must
            // not demand Galois keys.
            const uint32_t g =
                rotationElement(node, values[a][0].degree());
            if (g == 1) {
                values[i] = values[a];
                break;
            }
            values[i] = hoist_sizes[i] >= 2
                            ? evaluator.applyGaloisHoisted(values[a], g,
                                                           needGalois())
                            : evaluator.applyGalois(values[a], g,
                                                    needGalois());
            break;
          }
          case NodeKind::kRotateSum:
            values[i] = evaluator.sumAllSlots(values[a], needGalois());
            break;
          case NodeKind::kModSwitch:
            values[i] = evaluator.modSwitch(values[a]);
            break;
        }
    }

    std::vector<fv::Ciphertext> outputs;
    outputs.reserve(circuit.outputs.size());
    for (ValueId out : circuit.outputs)
        outputs.push_back(values[out]);
    return outputs;
}

} // namespace heat::compiler
