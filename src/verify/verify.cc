#include "verify/verify.h"

#include <algorithm>
#include <array>
#include <sstream>
#include <utility>

#include "compiler/circuit.h"

namespace heat::verify {

namespace {

using compiler::CompiledCircuit;
using compiler::Transfer;
using hw::BaseTag;
using hw::Instruction;
using hw::kNoPoly;
using hw::Layout;
using hw::Opcode;
using hw::PolyId;
using hw::SlotAction;

const char *
layoutName(Layout l)
{
    switch (l) {
      case Layout::kNatural:
        return "natural";
      case Layout::kPaired:
        return "paired";
      case Layout::kNttDomain:
        return "ntt-domain";
    }
    return "?";
}

/**
 * Abstract state of one memory-file record, materialized from the
 * slot-action log exactly the way replaySlotActions() does before a
 * run: records carry their final (extend-applied) shape, and the
 * interpreter tracks per-residue layout typestate plus definedness.
 * The memory file reuses its storage across programs, so a fresh
 * record holds an earlier program's words — except a record the log
 * allocates `zeroed` (the emitters' shared zero constant), whose
 * allocation residues read as zero until written. `written` marks
 * residues produced by an upload or instruction; `zero` marks the
 * unwritten residues that still read as zero.
 */
/** Residue capacity of a record's inline state. The paper's extended
 *  base spans 13 residues; structurallySound() rejects parameter sets
 *  beyond the cap before any record state is built. Inline arrays
 *  keep RecState allocation-free — the verifier runs on every compile
 *  and service admission, so its constant factor matters. */
constexpr size_t kMaxResidues = 64;

struct RecState
{
    bool exists = false;
    bool released = false;
    bool pinned = false;
    BaseTag base = BaseTag::kQ;
    size_t level = 0;
    /** Live q residues (qPrimeCount at the record's level). */
    size_t q_live = 0;
    /** Live residue count (layout/written entries 0..live-1). */
    size_t live = 0;
    std::array<Layout, kMaxResidues> layout{};
    std::array<bool, kMaxResidues> written{};
    /** Bit k: residue k reads as zero by a `zeroed` allocation. */
    uint64_t zero = 0;
    static_assert(kMaxResidues <= 64, "one zero bit per residue");

    size_t residues() const { return live; }

    /** @return whether unwritten residue @p k reads as zero. */
    bool readsZero(size_t k) const { return ((zero >> k) & 1) != 0; }
};

/** The verification pass: one instance per verifyCompiledCircuit. */
class Verifier
{
  public:
    explicit Verifier(const CompiledCircuit &compiled)
        : c_(compiled), params_(*compiled.params)
    {
    }

    VerifyResult
    run()
    {
        if (!structurallySound())
            return std::move(result_);
        // Pre-size the id-indexed tables: the log's allocation count
        // bounds every well-formed record id (touchSlot still grows
        // past it for out-of-range ids in broken programs).
        size_t allocs = 0;
        for (const hw::SlotAction &a : c_.slot_actions)
            if (a.kind == hw::SlotAction::Kind::kAllocate)
                ++allocs;
        recs_.reserve(allocs);
        first_touch_.resize(allocs, kNoIndex);
        last_touch_.resize(allocs, kNoIndex);
        first_ext_touch_.resize(allocs, kNoIndex);
        collectTouches();
        replayActions();
        checkResidentPrefix();
        checkConsumeHazards();
        interpretSegments();
        checkInputCoverage();
        checkOutputs();
        return std::move(result_);
    }

  private:
    // --- diagnostics -----------------------------------------------------

    Diagnostic &
    diag(Invariant inv, std::string message)
    {
        Diagnostic d;
        d.invariant = inv;
        d.message = std::move(message);
        result_.diagnostics.push_back(std::move(d));
        return result_.diagnostics.back();
    }

    Diagnostic &
    diagAt(Invariant inv, size_t segment, size_t instr, Opcode op,
           PolyId record, std::string message)
    {
        Diagnostic &d = diag(inv, std::move(message));
        d.segment = segment;
        d.instr = instr;
        d.has_op = true;
        d.op = op;
        d.record = record;
        return d;
    }

    // --- shared bookkeeping ----------------------------------------------

    RecState *
    state(PolyId id)
    {
        return id < recs_.size() && recs_[id].exists ? &recs_[id]
                                                     : nullptr;
    }

    /** Level-capped q-prime count (what qPrimeCount(level) returns). */
    size_t
    qPrimes(size_t level) const
    {
        return params_.qPrimeCount(level);
    }

    /**
     * Residues one instruction batch addresses on @p rec: batch 0 the
     * q primes, batch 1 the extension primes — mirroring
     * hw::residuesOfBatch over the record's live residue count.
     */
    static std::pair<size_t, size_t>
    batchRange(const RecState &rec, uint8_t batch)
    {
        if (batch == 0)
            return {0, std::min(rec.q_live, rec.residues())};
        return {std::min(rec.q_live, rec.residues()), rec.residues()};
    }

    bool
    galoisDeclared(uint32_t g) const
    {
        return std::binary_search(c_.galois_elements.begin(),
                                  c_.galois_elements.end(), g);
    }

    bool
    circuitRelinearizes() const
    {
        for (const compiler::CircuitNode &node : c_.circuit.nodes) {
            if (node.kind == compiler::NodeKind::kRelin)
                return true;
        }
        return false;
    }

    // --- phase 0: structural sanity --------------------------------------

    bool
    structurallySound()
    {
        if (c_.params == nullptr) {
            diag(Invariant::kShape, "compiled circuit has no parameter "
                                    "set");
            return false;
        }
        const size_t values = c_.circuit.nodes.size();
        if (c_.value_sizes.size() != values ||
            c_.value_levels.size() != values) {
            Diagnostic &d =
                diag(Invariant::kShape,
                     "value_sizes/value_levels do not cover the circuit");
            d.expected = std::to_string(values) + " entries";
            d.actual = std::to_string(c_.value_sizes.size()) + "/" +
                       std::to_string(c_.value_levels.size());
            return false;
        }
        if (c_.instr_nodes.size() > c_.segments.size()) {
            diag(Invariant::kShape,
                 "instr_nodes names more segments than exist");
            return false;
        }
        if (c_.params->fullBase()->size() > kMaxResidues) {
            Diagnostic &d =
                diag(Invariant::kShape,
                     "parameter set exceeds the verifier's inline "
                     "residue capacity");
            d.expected = "<= " + std::to_string(kMaxResidues) +
                         " residues";
            d.actual =
                std::to_string(c_.params->fullBase()->size()) +
                " residues";
            return false;
        }
        return true;
    }

    // --- phase 1: program positions --------------------------------------

    /**
     * Assign every upload and instruction a global program position
     * (downloads are excluded: the modeled DMA streams a record's data
     * as of its release point, so a spill download never conflicts
     * with later slot reuse). Records the first/last touch of every
     * record id plus the first touch of its lift-extension residues —
     * the anchors of the monotone consume-hazard check.
     */
    void
    collectTouches()
    {
        size_t pos = 0;
        for (size_t s = 0; s < c_.segments.size(); ++s) {
            const compiler::Segment &seg = c_.segments[s];
            for (const Transfer &t : seg.uploads) {
                // Uploads extend a record's lifetime but do not anchor
                // its first touch: the compiler stages constant uploads
                // at the head of a segment whose slot it allocated
                // mid-segment (after earlier releases), and the record
                // ids those uploads write are fresh by construction.
                touchLast(t.slot, pos);
                ++pos;
            }
            for (size_t i = 0; i < seg.program.instrs.size(); ++i) {
                const Instruction &in = seg.program.instrs[i];
                const size_t p = pos++;
                touch(in.dst, p);
                touch(in.src0, p);
                touch(in.src1, p);
                for (PolyId e : in.extra)
                    touch(e, p);
                // Positions grow monotonically, so try_emplace keeps
                // the FIRST touch of each record's extension residues.
                const auto ext = [&](PolyId id) {
                    if (id == kNoPoly)
                        return;
                    size_t &first = touchSlot(first_ext_touch_, id);
                    if (first == kNoIndex)
                        first = p;
                };
                if (in.op == Opcode::kLift)
                    ext(in.dst);
                if (in.op == Opcode::kScale)
                    ext(in.src0);
                if (in.batch == 1) {
                    ext(in.dst);
                    ext(in.src0);
                    ext(in.src1);
                }
            }
            result_.instructions += seg.program.instrs.size();
        }
    }

    /** Position of @p id in @p table, growing it on demand (record
     *  ids are small and dense; kNoIndex marks "never touched"). */
    static size_t &
    touchSlot(std::vector<size_t> &table, PolyId id)
    {
        if (id >= table.size())
            table.resize(id + 1, kNoIndex);
        return table[id];
    }

    void
    touch(PolyId id, size_t pos)
    {
        if (id == kNoPoly)
            return;
        size_t &first = touchSlot(first_touch_, id);
        if (first == kNoIndex) // positions are monotone
            first = pos;
        touchLast(id, pos);
    }

    void
    touchLast(PolyId id, size_t pos)
    {
        if (id == kNoPoly)
            return;
        touchSlot(last_touch_, id) = pos;
    }

    /** @return the recorded position, or kNoIndex when never touched. */
    static size_t
    touchAt(const std::vector<size_t> &table, PolyId id)
    {
        return id < table.size() ? table[id] : kNoIndex;
    }

    // --- phase 2: slot-action log replay ---------------------------------

    void
    replayActions()
    {
        const size_t capacity = c_.hw.n_rpaus * c_.hw.slots_per_rpau;
        const size_t q_residues = params_.qBase()->size();
        const size_t full_residues = params_.fullBase()->size();
        const size_t pinned_count = 2 * c_.resident_inputs.size();
        size_t in_use = 0;
        size_t peak = 0;
        PolyId next_id = 0;

        for (size_t a = 0; a < c_.slot_actions.size(); ++a) {
            const SlotAction &act = c_.slot_actions[a];
            switch (act.kind) {
              case SlotAction::Kind::kAllocate: {
                if (act.id != next_id) {
                    Diagnostic &d = diag(
                        Invariant::kSlotLog,
                        "slot log allocates out of sequence (replay "
                        "would diverge on a fresh memory file)");
                    d.action = a;
                    d.record = act.id;
                    d.expected = "id " + std::to_string(next_id);
                    d.actual = "id " + std::to_string(act.id);
                }
                if (act.level > params_.maxLevel()) {
                    Diagnostic &d =
                        diag(Invariant::kShape,
                             "allocation level beyond the last level");
                    d.action = a;
                    d.record = act.id;
                    d.expected =
                        "level <= " + std::to_string(params_.maxLevel());
                    d.actual = "level " + std::to_string(act.level);
                    break;
                }
                const size_t base_residues = act.base == BaseTag::kQ
                                                 ? q_residues
                                                 : full_residues;
                const size_t live = base_residues - act.level;
                in_use += live;
                peak = std::max(peak, in_use);
                if (in_use > capacity) {
                    Diagnostic &d = diag(
                        Invariant::kSlotCapacity,
                        "slot-action log oversubscribes the memory "
                        "file (a worker replay would abort)");
                    d.action = a;
                    d.record = act.id;
                    d.expected =
                        "<= " + std::to_string(capacity) + " slots";
                    d.actual = std::to_string(in_use) + " slots";
                }
                RecState rec;
                rec.exists = true;
                rec.base = act.base;
                rec.level = act.level;
                rec.q_live = qPrimes(act.level);
                rec.live = live;
                rec.layout.fill(act.layout);
                if (act.zeroed)
                    rec.zero = live >= kMaxResidues
                                   ? ~uint64_t(0)
                                   : (uint64_t(1) << live) - 1;
                rec.pinned = act.id < pinned_count;
                if (rec.pinned) {
                    // The cold pass uploads pinned operands directly
                    // (outside the transfer lists) and warm reruns
                    // inherit their data; both enter in coefficient
                    // order, fully defined.
                    rec.written.fill(true);
                }
                if (act.id >= recs_.size())
                    recs_.resize(act.id + 1);
                recs_[act.id] = std::move(rec);
                next_id = std::max(next_id, act.id) + 1;
                break;
              }
              case SlotAction::Kind::kRelease: {
                RecState *rec = state(act.id);
                if (rec == nullptr) {
                    Diagnostic &d =
                        diag(Invariant::kSlotLog,
                             "release of an unallocated record");
                    d.action = a;
                    d.record = act.id;
                    break;
                }
                if (rec->released) {
                    Diagnostic &d = diag(Invariant::kSlotLog,
                                         "double release of a record");
                    d.action = a;
                    d.record = act.id;
                    break;
                }
                if (rec->pinned) {
                    Diagnostic &d = diag(
                        Invariant::kPinned,
                        "release of a pinned resident-prefix record "
                        "(its slots must survive warm reruns)");
                    d.action = a;
                    d.record = act.id;
                    break;
                }
                const size_t base_residues = rec->base == BaseTag::kQ
                                                 ? q_residues
                                                 : full_residues;
                in_use -= base_residues - rec->level;
                rec->released = true;
                break;
              }
              case SlotAction::Kind::kExtend: {
                RecState *rec = state(act.id);
                if (rec == nullptr) {
                    Diagnostic &d =
                        diag(Invariant::kSlotLog,
                             "extend of an unallocated record");
                    d.action = a;
                    d.record = act.id;
                    break;
                }
                if (rec->base != BaseTag::kQ || rec->released) {
                    Diagnostic &d = diag(
                        Invariant::kSlotLog,
                        rec->released
                            ? "extend of a released record"
                            : "extend of an already-extended record");
                    d.action = a;
                    d.record = act.id;
                    break;
                }
                if (rec->pinned) {
                    Diagnostic &d =
                        diag(Invariant::kPinned,
                             "lift extension of a pinned resident-"
                             "prefix record (demotes the warm cache)");
                    d.action = a;
                    d.record = act.id;
                    break;
                }
                in_use += full_residues - q_residues;
                peak = std::max(peak, in_use);
                if (in_use > capacity) {
                    Diagnostic &d = diag(
                        Invariant::kSlotCapacity,
                        "lift extension oversubscribes the memory file");
                    d.action = a;
                    d.record = act.id;
                    d.expected =
                        "<= " + std::to_string(capacity) + " slots";
                    d.actual = std::to_string(in_use) + " slots";
                }
                rec->base = BaseTag::kFull;
                const size_t live = full_residues - rec->level;
                for (size_t k = rec->live; k < live; ++k) {
                    rec->layout[k] = Layout::kNatural;
                    rec->written[k] = false;
                }
                rec->live = live;
                break;
              }
            }
        }
        result_.records = recs_.size();

        if (peak != c_.peak_slots) {
            Diagnostic &d = diag(
                Invariant::kSlotCapacity,
                "slot-action log disagrees with the recorded peak "
                "(the log is not the one this circuit was built with)");
            d.expected = std::to_string(c_.peak_slots) + " peak slots";
            d.actual = std::to_string(peak) + " peak slots";
        }
    }

    // --- phase 3: resident-prefix shape ----------------------------------

    void
    checkResidentPrefix()
    {
        const size_t pinned_count = 2 * c_.resident_inputs.size();
        if (pinned_count == 0) {
            if (c_.resident_action_count != 0)
                diag(Invariant::kPinned,
                     "resident_action_count nonzero without resident "
                     "inputs");
            return;
        }
        if (c_.resident_action_count > c_.slot_actions.size() ||
            c_.resident_action_count != pinned_count) {
            Diagnostic &d = diag(
                Invariant::kPinned,
                "resident action prefix does not cover exactly the "
                "pinned slot pairs (warm replay would misalign)");
            d.expected = std::to_string(pinned_count) + " actions";
            d.actual = std::to_string(c_.resident_action_count);
            return;
        }
        for (size_t a = 0; a < c_.resident_action_count; ++a) {
            const SlotAction &act = c_.slot_actions[a];
            if (act.kind != SlotAction::Kind::kAllocate ||
                act.id != a) {
                Diagnostic &d =
                    diag(Invariant::kPinned,
                         "resident prefix action is not the pinned "
                         "record's allocation");
                d.action = a;
                d.record = act.id;
                return;
            }
        }
        for (size_t k = 0; k < c_.resident_slots.size(); ++k) {
            for (PolyId slot : c_.resident_slots[k]) {
                if (slot >= pinned_count) {
                    Diagnostic &d = diag(
                        Invariant::kPinned,
                        "resident slot pair escapes the pinned prefix");
                    d.record = slot;
                }
            }
        }
    }

    // --- phase 4: consume hazards ----------------------------------------

    /**
     * The compiler's static slot accounting is sound iff the action
     * log admits a monotone placement against program order: walking
     * the log with a cursor that jumps past a released record's last
     * use, every subsequent allocation (or lift extension) must first
     * touch its slots at or after the cursor — otherwise a record is
     * read or written while slots freed for it still hold live data,
     * which on the physical memory file is silent corruption (the
     * simulator masks it by keeping released records readable).
     */
    void
    checkConsumeHazards()
    {
        size_t cursor = 0;
        PolyId freed_by = kNoPoly;
        for (size_t a = 0; a < c_.slot_actions.size(); ++a) {
            const SlotAction &act = c_.slot_actions[a];
            switch (act.kind) {
              case SlotAction::Kind::kRelease: {
                const size_t last = touchAt(last_touch_, act.id);
                if (last != kNoIndex && last + 1 > cursor) {
                    cursor = last + 1;
                    freed_by = act.id;
                }
                break;
              }
              case SlotAction::Kind::kAllocate: {
                const size_t first = touchAt(first_touch_, act.id);
                if (first != kNoIndex && first < cursor)
                    consumeHazard(a, act.id, first, freed_by);
                break;
              }
              case SlotAction::Kind::kExtend: {
                const size_t first = touchAt(first_ext_touch_, act.id);
                if (first != kNoIndex && first < cursor)
                    consumeHazard(a, act.id, first, freed_by);
                break;
              }
            }
        }
    }

    void
    consumeHazard(size_t action, PolyId id, size_t pos, PolyId freed_by)
    {
        Diagnostic &d = diag(
            Invariant::kUseAfterConsume,
            "record " + std::to_string(id) +
                " occupies slots of record " + std::to_string(freed_by) +
                " before that record's last use — released slots "
                "reused while still live");
        d.action = action;
        d.record = id;
        d.expected = "first use after record " +
                     std::to_string(freed_by) + "'s last use";
        // Resolve the clashing touch to (segment, instruction) when it
        // is an instruction (upload positions keep kNoIndex).
        size_t seen = 0;
        for (size_t s = 0; s < c_.segments.size(); ++s) {
            const compiler::Segment &seg = c_.segments[s];
            const size_t instr_base = seen + seg.uploads.size();
            const size_t seg_end =
                instr_base + seg.program.instrs.size();
            if (pos < seg_end) {
                if (pos >= instr_base) {
                    d.segment = s;
                    d.instr = pos - instr_base;
                    d.has_op = true;
                    d.op = seg.program.instrs[d.instr].op;
                }
                break;
            }
            seen = seg_end;
        }
    }

    // --- phase 5: abstract interpretation of the segments ----------------

    void
    interpretSegments()
    {
        // Values whose data the host holds when a segment opens:
        // circuit inputs arrive with the request; spill downloads of
        // segment s are host-visible from segment s+1 (the compiler
        // breaks segments exactly so reload uploads follow the DMA).
        std::vector<bool> host(c_.circuit.nodes.size(), false);
        for (compiler::ValueId v : c_.inputs)
            if (v < host.size())
                host[v] = true;

        for (size_t s = 0; s < c_.segments.size(); ++s) {
            const compiler::Segment &seg = c_.segments[s];
            for (size_t u = 0; u < seg.uploads.size(); ++u)
                applyUpload(s, seg.uploads[u], host);
            for (size_t i = 0; i < seg.program.instrs.size(); ++i)
                interpret(s, i, seg.program.instrs[i]);
            for (const Transfer &t : seg.downloads) {
                applyDownload(s, t);
                if (t.source == Transfer::Source::kValue &&
                    t.index < host.size())
                    host[t.index] = true;
            }
        }
    }

    void
    applyUpload(size_t s, const Transfer &t, const std::vector<bool> &host)
    {
        RecState *rec = state(t.slot);
        if (rec == nullptr) {
            Diagnostic &d =
                diag(Invariant::kDefBeforeUse,
                     "upload targets a record the slot log never "
                     "allocates");
            d.segment = s;
            d.record = t.slot;
            return;
        }
        if (rec->pinned) {
            Diagnostic &d = diag(
                Invariant::kPinned,
                "upload overwrites a pinned resident-prefix record");
            d.segment = s;
            d.record = t.slot;
            return;
        }
        size_t live = rec->q_live;
        if (t.source == Transfer::Source::kValue) {
            if (t.index >= c_.value_levels.size()) {
                Diagnostic &d = diag(Invariant::kShape,
                                     "upload of an unknown value id");
                d.segment = s;
                d.record = t.slot;
                return;
            }
            if (!host[t.index]) {
                Diagnostic &d = diag(
                    Invariant::kDefBeforeUse,
                    "upload of value " + std::to_string(t.index) +
                        " before the host holds its data (not an "
                        "input, no prior spill download)");
                d.segment = s;
                d.record = t.slot;
            }
            const size_t value_level = c_.value_levels[t.index];
            if (rec->level != value_level) {
                Diagnostic &d =
                    diag(Invariant::kShape,
                         "upload record level disagrees with the "
                         "value's level");
                d.segment = s;
                d.record = t.slot;
                d.expected = "level " + std::to_string(value_level);
                d.actual = "level " + std::to_string(rec->level);
            }
            live = qPrimes(value_level);
        } else {
            if (t.index >= c_.constants.size()) {
                Diagnostic &d =
                    diag(Invariant::kShape,
                         "upload references a constant outside the "
                         "pool");
                d.segment = s;
                d.record = t.slot;
                d.expected = "< " + std::to_string(c_.constants.size());
                d.actual = std::to_string(t.index);
                return;
            }
            const size_t residues =
                c_.constants[t.index].residueCount();
            if (residues != rec->q_live) {
                Diagnostic &d =
                    diag(Invariant::kShape,
                         "constant residue count disagrees with the "
                         "staged record's level");
                d.segment = s;
                d.record = t.slot;
                d.expected = std::to_string(rec->q_live) + " residues";
                d.actual = std::to_string(residues) + " residues";
            }
            live = std::min(residues, rec->residues());
        }
        // uploadInto(): operand data lands in coefficient order and
        // any lift-extension residues are cleared.
        for (size_t k = 0; k < rec->residues(); ++k) {
            rec->layout[k] = Layout::kNatural;
            rec->written[k] = k < live;
        }
    }

    void
    applyDownload(size_t s, const Transfer &t)
    {
        RecState *rec = state(t.slot);
        if (rec == nullptr) {
            Diagnostic &d =
                diag(Invariant::kDefBeforeUse,
                     "download from a record the slot log never "
                     "allocates");
            d.segment = s;
            d.record = t.slot;
            return;
        }
        for (size_t k = 0; k < std::min(rec->q_live, rec->residues());
             ++k) {
            if (!rec->written[k]) {
                Diagnostic &d = diag(
                    Invariant::kDefBeforeUse,
                    "download of a record nothing ever wrote (residue " +
                        std::to_string(k) + ")");
                d.segment = s;
                d.record = t.slot;
                return;
            }
        }
        if (t.source == Transfer::Source::kValue &&
            t.index < c_.value_levels.size() &&
            rec->level != c_.value_levels[t.index]) {
            Diagnostic &d =
                diag(Invariant::kShape,
                     "download record level disagrees with the value's "
                     "level");
            d.segment = s;
            d.record = t.slot;
            d.expected =
                "level " + std::to_string(c_.value_levels[t.index]);
            d.actual = "level " + std::to_string(rec->level);
        }
    }

    // --- per-instruction interpretation ----------------------------------

    RecState *
    operand(size_t s, size_t i, const Instruction &in, PolyId id,
            const char *role)
    {
        RecState *rec = state(id);
        if (rec == nullptr)
            diagAt(Invariant::kDefBeforeUse, s, i, in.op, id,
                   std::string(role) +
                       " names a record the slot log never allocates");
        return rec;
    }

    /** Flag a write into the pinned resident prefix. */
    bool
    guardPinnedWrite(size_t s, size_t i, const Instruction &in,
                     const RecState &rec, PolyId id)
    {
        if (!rec.pinned)
            return false;
        diagAt(Invariant::kPinned, s, i, in.op, id,
               "instruction writes a pinned resident-prefix record "
               "(warm reruns would see corrupted operands)");
        return true;
    }

    void
    interpret(size_t s, size_t i, const Instruction &in)
    {
        switch (in.op) {
          case Opcode::kNtt:
          case Opcode::kIntt:
            interpretTransform(s, i, in);
            return;
          case Opcode::kRearrange:
            interpretRearrange(s, i, in);
            return;
          case Opcode::kCoeffMul:
          case Opcode::kCoeffAdd:
          case Opcode::kCoeffSub:
            interpretCoeffOp(s, i, in);
            return;
          case Opcode::kLift:
            interpretLift(s, i, in);
            return;
          case Opcode::kScale:
            interpretScale(s, i, in);
            return;
          case Opcode::kModSwitch:
            interpretModSwitch(s, i, in);
            return;
          case Opcode::kAutomorph:
            interpretAutomorph(s, i, in);
            return;
          case Opcode::kKeyLoad:
            interpretKeyLoad(s, i, in);
            return;
        }
        diagAt(Invariant::kShape, s, i, in.op, in.dst, "unknown opcode");
    }

    void
    interpretTransform(size_t s, size_t i, const Instruction &in)
    {
        RecState *rec = operand(s, i, in, in.dst, "transform target");
        if (rec == nullptr || guardPinnedWrite(s, i, in, *rec, in.dst))
            return;
        const bool forward = in.op == Opcode::kNtt;
        const Layout need =
            forward ? Layout::kPaired : Layout::kNttDomain;
        const Layout produced =
            forward ? Layout::kNttDomain : Layout::kPaired;
        const auto [lo, hi] = batchRange(*rec, in.batch);
        for (size_t k = lo; k < hi; ++k) {
            if (!rec->written[k]) {
                diagAt(Invariant::kDefBeforeUse, s, i, in.op, in.dst,
                       "transform of residues nothing ever wrote");
                return;
            }
            if (rec->layout[k] != need) {
                Diagnostic &d = diagAt(
                    Invariant::kLayout, s, i, in.op, in.dst,
                    forward ? "NTT input must be in paired layout "
                              "(rearrange first)"
                            : "INTT input must be in the NTT domain");
                d.expected = layoutName(need);
                d.actual = layoutName(rec->layout[k]);
                return;
            }
            rec->layout[k] = produced;
        }
    }

    void
    interpretRearrange(size_t s, size_t i, const Instruction &in)
    {
        RecState *rec = operand(s, i, in, in.dst, "rearrange target");
        if (rec == nullptr || guardPinnedWrite(s, i, in, *rec, in.dst))
            return;
        const auto [lo, hi] = batchRange(*rec, in.batch);
        for (size_t k = lo; k < hi; ++k) {
            if (!rec->written[k]) {
                diagAt(Invariant::kDefBeforeUse, s, i, in.op, in.dst,
                       "rearrange of residues nothing ever wrote");
                return;
            }
            if (rec->layout[k] == Layout::kNttDomain) {
                Diagnostic &d = diagAt(
                    Invariant::kLayout, s, i, in.op, in.dst,
                    "cannot rearrange NTT-domain data; INTT first");
                d.expected = "natural or paired";
                d.actual = layoutName(rec->layout[k]);
                return;
            }
            rec->layout[k] = rec->layout[k] == Layout::kNatural
                                 ? Layout::kPaired
                                 : Layout::kNatural;
        }
    }

    void
    interpretCoeffOp(size_t s, size_t i, const Instruction &in)
    {
        RecState *dst = operand(s, i, in, in.dst, "coeff-op dst");
        RecState *a = operand(s, i, in, in.src0, "coeff-op src0");
        RecState *b = operand(s, i, in, in.src1, "coeff-op src1");
        if (dst == nullptr || a == nullptr || b == nullptr)
            return;
        if (guardPinnedWrite(s, i, in, *dst, in.dst))
            return;
        if (in.batch == 1 && dst->base != a->base) {
            Diagnostic &d =
                diagAt(Invariant::kShape, s, i, in.op, in.src0,
                       "batch-1 coeff op needs matching bases");
            d.expected = dst->base == BaseTag::kFull ? "full base"
                                                     : "q base";
            d.actual = a->base == BaseTag::kFull ? "full base"
                                                 : "q base";
            return;
        }
        // An unwritten residue may be read only where it reads as zero
        // — a record allocated `zeroed`, the emitters' shared zero
        // constant — and only by an additive op, the zero constant's
        // contract. Any other record's storage holds stale words.
        const bool additive = in.op != Opcode::kCoeffMul;
        const auto [lo, hi] = batchRange(*dst, in.batch);
        for (size_t k = lo; k < hi; ++k) {
            if (k >= a->residues() || k >= b->residues()) {
                RecState *small = k >= a->residues() ? a : b;
                Diagnostic &d = diagAt(
                    Invariant::kShape, s, i, in.op,
                    k >= a->residues() ? in.src0 : in.src1,
                    "operand spans fewer residues than the "
                    "destination batch (level/base mismatch)");
                d.expected = ">= " + std::to_string(hi) + " residues";
                d.actual =
                    std::to_string(small->residues()) + " residues";
                return;
            }
            const bool a_ok =
                a->written[k] || (additive && a->readsZero(k));
            const bool b_ok =
                b->written[k] || (additive && b->readsZero(k));
            if (!a_ok || !b_ok) {
                diagAt(Invariant::kDefBeforeUse, s, i, in.op,
                       !a_ok ? in.src0 : in.src1,
                       additive ? "coeff op reads residues nothing "
                                  "ever wrote (not a zeroed record)"
                                : "multiplicative coeff op reads "
                                  "residues nothing ever wrote");
                return;
            }
            if (a->layout[k] != b->layout[k]) {
                Diagnostic &d =
                    diagAt(Invariant::kLayout, s, i, in.op, in.src1,
                           "coeff op operand layout mismatch");
                d.expected = layoutName(a->layout[k]);
                d.actual = layoutName(b->layout[k]);
                return;
            }
            dst->layout[k] = a->layout[k];
            dst->written[k] = true;
        }
    }

    void
    interpretLift(size_t s, size_t i, const Instruction &in)
    {
        RecState *rec = operand(s, i, in, in.dst, "lift target");
        if (rec == nullptr || guardPinnedWrite(s, i, in, *rec, in.dst))
            return;
        if (rec->base != BaseTag::kFull) {
            Diagnostic &d = diagAt(
                Invariant::kShape, s, i, in.op, in.dst,
                "lift of a record the slot log never extended to the "
                "full base");
            d.expected = "full base (pre-extended)";
            d.actual = "q base";
            return;
        }
        const size_t kq = std::min(rec->q_live, rec->residues());
        for (size_t k = 0; k < kq; ++k) {
            if (!rec->written[k]) {
                diagAt(Invariant::kDefBeforeUse, s, i, in.op, in.dst,
                       "lift of q residues nothing ever wrote");
                return;
            }
            if (rec->layout[k] != Layout::kNatural) {
                Diagnostic &d =
                    diagAt(Invariant::kLayout, s, i, in.op, in.dst,
                           "lift input must be in natural order");
                d.expected = "natural";
                d.actual = layoutName(rec->layout[k]);
                return;
            }
        }
        for (size_t k = kq; k < rec->residues(); ++k) {
            rec->layout[k] = Layout::kNatural;
            rec->written[k] = true;
        }
    }

    void
    interpretScale(size_t s, size_t i, const Instruction &in)
    {
        RecState *src = operand(s, i, in, in.src0, "scale source");
        RecState *dst = operand(s, i, in, in.dst, "scale dst");
        if (src == nullptr || dst == nullptr)
            return;
        if (guardPinnedWrite(s, i, in, *dst, in.dst))
            return;
        if (in.dst == in.src0) {
            diagAt(Invariant::kShape, s, i, in.op, in.dst,
                   "scale cannot stream onto its own source record");
            return;
        }
        if (src->base != BaseTag::kFull) {
            Diagnostic &d = diagAt(Invariant::kShape, s, i, in.op,
                                   in.src0,
                                   "scale input must span the full "
                                   "base (lift it first)");
            d.expected = "full base";
            d.actual = "q base";
            return;
        }
        for (size_t k = 0; k < src->residues(); ++k) {
            if (!src->written[k]) {
                diagAt(Invariant::kDefBeforeUse, s, i, in.op, in.src0,
                       "scale reads extension residues nothing ever "
                       "wrote (missing lift)");
                return;
            }
            if (src->layout[k] != Layout::kNatural) {
                Diagnostic &d =
                    diagAt(Invariant::kLayout, s, i, in.op, in.src0,
                           "scale input must be in natural order");
                d.expected = "natural";
                d.actual = layoutName(src->layout[k]);
                return;
            }
        }
        const size_t kq = qPrimes(src->level);
        if (dst->level != src->level) {
            Diagnostic &d =
                diagAt(Invariant::kShape, s, i, in.op, in.dst,
                       "scale destination level disagrees with the "
                       "source");
            d.expected = "level " + std::to_string(src->level);
            d.actual = "level " + std::to_string(dst->level);
            return;
        }
        if (!in.extra.empty() && in.extra.size() != kq) {
            Diagnostic &d =
                diagAt(Invariant::kShape, s, i, in.op, in.dst,
                       "WordDecomp broadcast needs one digit lane per "
                       "live q prime");
            d.expected = std::to_string(kq) + " lanes";
            d.actual = std::to_string(in.extra.size()) + " lanes";
            return;
        }
        for (size_t k = 0; k < std::min(kq, dst->residues()); ++k) {
            dst->layout[k] = Layout::kNatural;
            dst->written[k] = true;
        }
        for (size_t k = kq; k < dst->residues(); ++k)
            dst->layout[k] = Layout::kNatural;
        for (PolyId id : in.extra) {
            RecState *dig = operand(s, i, in, id, "WordDecomp digit");
            if (dig == nullptr)
                return;
            if (guardPinnedWrite(s, i, in, *dig, id))
                return;
            if (dig->residues() < kq) {
                Diagnostic &d =
                    diagAt(Invariant::kShape, s, i, in.op, id,
                           "digit record spans fewer residues than "
                           "the broadcast writes");
                d.expected = ">= " + std::to_string(kq) + " residues";
                d.actual =
                    std::to_string(dig->residues()) + " residues";
                return;
            }
            dig->zero = 0; // residues past kq keep stale words
            for (size_t k = 0; k < dig->residues(); ++k) {
                dig->layout[k] = Layout::kNatural;
                dig->written[k] = k < kq;
            }
        }
    }

    void
    interpretModSwitch(size_t s, size_t i, const Instruction &in)
    {
        RecState *src = operand(s, i, in, in.src0, "mod-switch source");
        RecState *dst = operand(s, i, in, in.dst, "mod-switch dst");
        if (src == nullptr || dst == nullptr)
            return;
        if (guardPinnedWrite(s, i, in, *dst, in.dst))
            return;
        if (src->level >= params_.maxLevel()) {
            Diagnostic &d =
                diagAt(Invariant::kShape, s, i, in.op, in.src0,
                       "mod-switch from the last level");
            d.expected =
                "level < " + std::to_string(params_.maxLevel());
            d.actual = "level " + std::to_string(src->level);
            return;
        }
        if (dst->level != src->level + 1) {
            Diagnostic &d =
                diagAt(Invariant::kShape, s, i, in.op, in.dst,
                       "mod-switch destination must sit one level "
                       "deeper than its source");
            d.expected = "level " + std::to_string(src->level + 1);
            d.actual = "level " + std::to_string(dst->level);
            return;
        }
        const size_t live = qPrimes(src->level);
        for (size_t k = 0; k < std::min(live, src->residues()); ++k) {
            if (!src->written[k]) {
                diagAt(Invariant::kDefBeforeUse, s, i, in.op, in.src0,
                       "mod-switch reads residues nothing ever wrote");
                return;
            }
            if (src->layout[k] != Layout::kNatural) {
                Diagnostic &d =
                    diagAt(Invariant::kLayout, s, i, in.op, in.src0,
                           "mod-switch input must be in natural order");
                d.expected = "natural";
                d.actual = layoutName(src->layout[k]);
                return;
            }
        }
        for (size_t k = 0; k + 1 < live && k < dst->residues(); ++k) {
            dst->layout[k] = Layout::kNatural;
            dst->written[k] = true;
        }
    }

    void
    interpretAutomorph(size_t s, size_t i, const Instruction &in)
    {
        RecState *src = operand(s, i, in, in.src0, "automorph source");
        if (src == nullptr)
            return;
        if (in.dst == in.src0) {
            diagAt(Invariant::kShape, s, i, in.op, in.dst,
                   "automorphism cannot permute a slot onto itself");
            return;
        }
        if (in.dst == kNoPoly && in.extra.empty()) {
            diagAt(Invariant::kShape, s, i, in.op, in.src0,
                   "automorphism needs a destination or digit "
                   "broadcasts");
            return;
        }
        if (in.aux != 1 && !galoisDeclared(in.aux)) {
            Diagnostic &d = diagAt(
                Invariant::kKey, s, i, in.op, in.src0,
                "automorphism element is not declared in "
                "galois_elements (no executing coprocessor is "
                "guaranteed to hold its key)");
            d.expected = "declared Galois element";
            d.actual = "element " + std::to_string(in.aux);
            return;
        }
        const size_t kq =
            std::min(qPrimes(src->level), src->residues());
        Layout layout = Layout::kNatural;
        for (size_t k = 0; k < kq; ++k) {
            if (!src->written[k]) {
                diagAt(Invariant::kDefBeforeUse, s, i, in.op, in.src0,
                       "automorphism of residues nothing ever wrote");
                return;
            }
            if (k == 0) {
                layout = src->layout[k];
            } else if (src->layout[k] != layout) {
                Diagnostic &d =
                    diagAt(Invariant::kLayout, s, i, in.op, in.src0,
                           "automorphism input layout is mixed");
                d.expected = layoutName(layout);
                d.actual = layoutName(src->layout[k]);
                return;
            }
        }
        if (layout == Layout::kPaired) {
            Diagnostic &d = diagAt(
                Invariant::kLayout, s, i, in.op, in.src0,
                "cannot permute paired-layout data; rearrange first");
            d.expected = "natural or ntt-domain";
            d.actual = "paired";
            return;
        }
        if (layout == Layout::kNttDomain && !in.extra.empty()) {
            diagAt(Invariant::kLayout, s, i, in.op, in.src0,
                   "the WordDecomp broadcast streams coefficient "
                   "order; NTT-domain automorphisms cannot emit "
                   "digits");
            return;
        }
        if (!in.extra.empty() && in.extra.size() != kq) {
            Diagnostic &d =
                diagAt(Invariant::kShape, s, i, in.op, in.src0,
                       "digit broadcast needs one lane per live q "
                       "prime");
            d.expected = std::to_string(kq) + " lanes";
            d.actual = std::to_string(in.extra.size()) + " lanes";
            return;
        }
        if (in.dst != kNoPoly) {
            RecState *dst =
                operand(s, i, in, in.dst, "automorph destination");
            if (dst == nullptr)
                return;
            if (guardPinnedWrite(s, i, in, *dst, in.dst))
                return;
            if (dst->residues() < kq) {
                Diagnostic &d =
                    diagAt(Invariant::kShape, s, i, in.op, in.dst,
                           "automorphism destination record too small");
                d.expected = ">= " + std::to_string(kq) + " residues";
                d.actual =
                    std::to_string(dst->residues()) + " residues";
                return;
            }
            for (size_t k = 0; k < kq; ++k) {
                dst->layout[k] = layout;
                dst->written[k] = true;
            }
        }
        for (PolyId id : in.extra) {
            if (id == kNoPoly)
                continue; // disabled broadcast lane
            RecState *dig = operand(s, i, in, id, "WordDecomp digit");
            if (dig == nullptr)
                return;
            if (guardPinnedWrite(s, i, in, *dig, id))
                return;
            if (dig->residues() < kq) {
                Diagnostic &d =
                    diagAt(Invariant::kShape, s, i, in.op, id,
                           "digit record spans fewer residues than "
                           "the broadcast writes");
                d.expected = ">= " + std::to_string(kq) + " residues";
                d.actual =
                    std::to_string(dig->residues()) + " residues";
                return;
            }
            dig->zero = 0; // residues past kq keep stale words
            for (size_t k = 0; k < dig->residues(); ++k) {
                dig->layout[k] = Layout::kNatural;
                dig->written[k] = k < kq;
            }
        }
    }

    void
    interpretKeyLoad(size_t s, size_t i, const Instruction &in)
    {
        const uint32_t selector = hw::keyLoadSelector(in.aux);
        const uint32_t digit = hw::keyLoadDigit(in.aux);
        if (selector == 0) {
            if (!circuitRelinearizes()) {
                diagAt(Invariant::kKey, s, i, in.op, kNoPoly,
                       "program loads relinearization keys but the "
                       "circuit never relinearizes");
                return;
            }
        } else if (!galoisDeclared(selector)) {
            Diagnostic &d = diagAt(
                Invariant::kKey, s, i, in.op, kNoPoly,
                "key load selects a Galois element the compiled "
                "circuit does not declare");
            d.expected = "declared Galois element";
            d.actual = "element " + std::to_string(selector);
            return;
        }
        if (digit >= params_.rnsDigitCount(0)) {
            Diagnostic &d = diagAt(Invariant::kKey, s, i, in.op,
                                   kNoPoly, "key digit out of range");
            d.expected =
                "< " + std::to_string(params_.rnsDigitCount(0));
            d.actual = "digit " + std::to_string(digit);
            return;
        }
        if (in.extra.size() != 2) {
            Diagnostic &d =
                diagAt(Invariant::kShape, s, i, in.op, kNoPoly,
                       "key load needs two buffer targets");
            d.expected = "2 buffers";
            d.actual = std::to_string(in.extra.size()) + " buffers";
            return;
        }
        for (PolyId id : in.extra) {
            RecState *buf = operand(s, i, in, id, "key buffer");
            if (buf == nullptr)
                return;
            if (guardPinnedWrite(s, i, in, *buf, id))
                return;
            // Keys stream in pre-transformed; a level-l buffer takes
            // the live-residue prefix of the level-0 key.
            for (size_t k = 0; k < buf->residues(); ++k) {
                buf->layout[k] = Layout::kNttDomain;
                buf->written[k] = true;
            }
        }
    }

    // --- phase 6: interface coverage -------------------------------------

    void
    checkInputCoverage()
    {
        // Which values each node actually reads: an input no node
        // consumes is legitimately never uploaded.
        std::vector<bool> used(c_.circuit.nodes.size(), false);
        for (const compiler::CircuitNode &node : c_.circuit.nodes) {
            for (int a = 0; a < compiler::nodeArgCount(node.kind); ++a)
                if (node.args[a] < used.size())
                    used[node.args[a]] = true;
        }
        std::vector<bool> resident(c_.inputs.size(), false);
        for (uint32_t pos : c_.resident_inputs)
            if (pos < resident.size())
                resident[pos] = true;

        for (size_t pos = 0; pos < c_.inputs.size(); ++pos) {
            const compiler::ValueId v = c_.inputs[pos];
            if (resident[pos] || v >= used.size() || !used[v])
                continue;
            const uint32_t polys = c_.value_sizes[v];
            for (uint32_t p = 0; p < polys; ++p) {
                if (!uploadExists(v, p)) {
                    Diagnostic &d = diag(
                        Invariant::kDefBeforeUse,
                        "input value " + std::to_string(v) +
                            " polynomial " + std::to_string(p) +
                            " is consumed but never uploaded");
                    d.record = kNoPoly;
                    d.expected = "an upload transfer";
                    d.actual = "none";
                }
            }
        }
    }

    bool
    uploadExists(compiler::ValueId v, uint32_t poly) const
    {
        for (const compiler::Segment &seg : c_.segments) {
            for (const Transfer &t : seg.uploads) {
                if (t.source == Transfer::Source::kValue &&
                    t.index == v && t.poly == poly)
                    return true;
            }
        }
        return false;
    }

    void
    checkOutputs()
    {
        for (size_t o = 0; o < c_.outputs.size(); ++o) {
            const compiler::ValueId v = c_.outputs[o];
            if (v >= c_.value_sizes.size())
                continue; // structural diagnostics already emitted
            const uint32_t polys = c_.value_sizes[v];
            for (uint32_t p = 0; p < polys; ++p) {
                if (!downloadExists(v, p)) {
                    Diagnostic &d = diag(
                        Invariant::kOutput,
                        "declared output value " + std::to_string(v) +
                            " polynomial " + std::to_string(p) +
                            " is never downloaded (dead at program "
                            "end)");
                    d.expected = "a download transfer";
                    d.actual = "none";
                }
            }
        }
    }

    bool
    downloadExists(compiler::ValueId v, uint32_t poly) const
    {
        for (const compiler::Segment &seg : c_.segments) {
            for (const Transfer &t : seg.downloads) {
                if (t.source == Transfer::Source::kValue &&
                    t.index == v && t.poly == poly)
                    return true;
            }
        }
        return false;
    }

    const CompiledCircuit &c_;
    const fv::FvParams &params_;
    VerifyResult result_;

    std::vector<RecState> recs_;
    // Touch positions indexed by record id (kNoIndex = never touched;
    // ids are dense, so flat tables beat hashing on the verify path
    // every compile and admission pays for).
    std::vector<size_t> first_touch_;
    std::vector<size_t> last_touch_;
    std::vector<size_t> first_ext_touch_;
};

} // namespace

const char *
invariantName(Invariant inv)
{
    switch (inv) {
      case Invariant::kSlotLog:
        return "slot-log";
      case Invariant::kSlotCapacity:
        return "slot-capacity";
      case Invariant::kDefBeforeUse:
        return "def-before-use";
      case Invariant::kUseAfterConsume:
        return "use-after-consume";
      case Invariant::kLayout:
        return "layout";
      case Invariant::kShape:
        return "shape";
      case Invariant::kKey:
        return "key";
      case Invariant::kPinned:
        return "pinned";
      case Invariant::kOutput:
        return "output";
    }
    return "?";
}

std::string
Diagnostic::str() const
{
    std::ostringstream oss;
    oss << "[" << invariantName(invariant) << "]";
    if (segment != kNoIndex)
        oss << " seg " << segment;
    if (instr != kNoIndex) {
        oss << " instr " << instr;
        if (has_op)
            oss << " (" << hw::opcodeName(op) << ")";
    } else if (action != kNoIndex) {
        oss << " action " << action;
    }
    if (record != hw::kNoPoly)
        oss << " record " << record;
    oss << ": " << message;
    if (!expected.empty() || !actual.empty())
        oss << " (expected " << expected << ", got " << actual << ")";
    return oss.str();
}

std::string
VerifyResult::report() const
{
    std::ostringstream oss;
    if (ok()) {
        oss << "verified clean: " << instructions << " instructions, "
            << records << " records";
        return oss.str();
    }
    oss << diagnostics.size() << " invariant violation"
        << (diagnostics.size() == 1 ? "" : "s") << " over "
        << instructions << " instructions:\n";
    for (const Diagnostic &d : diagnostics)
        oss << "  " << d.str() << "\n";
    return oss.str();
}

VerifyResult
verifyCompiledCircuit(const compiler::CompiledCircuit &compiled)
{
    return Verifier(compiled).run();
}

} // namespace heat::verify
