#include "hw/coprocessor.h"

#include <algorithm>
#include <string>

#include "common/panic.h"
#include "fv/arith.h"
#include "fv/galois.h"
#include "hw/cost.h"
#include "hw/rpau.h"
#include "ntt/ntt.h"
#include "obs/trace.h"
#include "simd/simd.h"

namespace heat::hw {

Coprocessor::Coprocessor(std::shared_ptr<const fv::FvParams> params,
                         const HwConfig &config, const fv::RelinKeys *rlk,
                         const fv::GaloisKeys *gkeys)
    : params_(params),
      config_(config),
      memory_(params, config),
      lift_unit_(params, config),
      scale_unit_(params, config),
      rlk_(rlk),
      gkeys_(gkeys)
{
    fatalIf(config.n_rpaus <
                (params_->fullBase()->size() + 1) / 2,
            "too few RPAUs for the RNS base (need ceil(k/2))");
}

PolyId
Coprocessor::uploadPoly(const ntt::RnsPoly &poly)
{
    return memory_.import(poly, Layout::kNatural);
}

void
Coprocessor::uploadInto(PolyId id, const ntt::RnsPoly &poly)
{
    // A fresh q-base operand may be written into a record that a
    // previous run extended to the full base; the extension residues
    // are cleared and regenerated by the next Lift.
    PolyRecord &rec = memory_.record(id);
    panicIf(poly.data().size() > rec.data.size(),
            "uploadInto: operand larger than the record");
    std::copy(poly.data().begin(), poly.data().end(), rec.data.begin());
    std::fill(rec.data.begin() + poly.data().size(), rec.data.end(), 0);
    for (auto &l : rec.layout)
        l = Layout::kNatural;
}

ntt::RnsPoly
Coprocessor::downloadPoly(PolyId id) const
{
    return memory_.exportPoly(id);
}

ExecStats
Coprocessor::execute(const Program &program, DispatchMode mode)
{
    // Levels are fixed when a record is allocated, before the program
    // runs, so the whole program is priced up front.
    const LevelOf levelOf = [this](PolyId id) {
        return memory_.recordLevel(id);
    };
    ExecStats stats =
        priceProgram(program, mode, params_, config_, levelOf);
    // Modeled-time tracing: per-instruction spans on the thread-local
    // modeled clock (deterministic — pure functions of the program and
    // the cost model, independent of host timing or worker count).
    obs::Tracer *const tracer = obs::activeTracer();
    if (tracer == nullptr) {
        for (const Instruction &instr : program.instrs)
            exec(instr);
        return stats;
    }
    const Cycle dispatch = static_cast<Cycle>(config_.dispatch_overhead);
    const bool fused = mode == DispatchMode::kFusedProgram;
    const double t0 = obs::modeledNowUs();
    for (const Instruction &instr : program.instrs) {
        exec(instr);
        const InstrCost cost =
            instructionCost(instr, params_, config_, levelOf);
        const Cycle cycles = fused ? cost.cycles : cost.cycles + dispatch;
        const double dur = config_.cyclesToUs(cycles) + cost.dma_us;
        obs::recordModeledSpan(opcodeName(instr.op), "hw.instr",
                               obs::modeledNowUs(), dur,
                               {{"unit", unitName(unitOf(instr.op))},
                                {"cycles", std::to_string(cycles)},
                                {"dma_us", std::to_string(cost.dma_us)}});
        obs::advanceModeledUs(dur);
        stats.traced_us += dur;
    }
    if (fused && !program.instrs.empty()) {
        // The whole instruction stream was queued in one Arm dispatch.
        const double dur = config_.cyclesToUs(dispatch);
        obs::recordModeledSpan("arm-dispatch", "hw", obs::modeledNowUs(),
                               dur,
                               {{"unit", unitName(Unit::kArmUnit)},
                                {"cycles", std::to_string(dispatch)}});
        obs::advanceModeledUs(dur);
        stats.traced_us += dur;
    }
    if (!program.instrs.empty()) {
        // Duration is the exact sum of the child durations, NOT
        // end-minus-start: the difference picks up clock-base-dependent
        // rounding, which would break trace determinism across workers.
        obs::recordModeledSpan(
            "program", "hw", t0, stats.traced_us,
            {{"instructions", std::to_string(stats.instructions)},
             {"fpga_cycles", std::to_string(stats.fpga_cycles)},
             {"dma_us", std::to_string(stats.dma_us)}});
    }
    return stats;
}

void
Coprocessor::exec(const Instruction &instr)
{
    switch (instr.op) {
      case Opcode::kNtt:
        execTransform(instr, false);
        return;
      case Opcode::kIntt:
        execTransform(instr, true);
        return;
      case Opcode::kCoeffMul:
      case Opcode::kCoeffAdd:
      case Opcode::kCoeffSub:
        execCoeffOp(instr);
        return;
      case Opcode::kRearrange:
        execRearrange(instr);
        return;
      case Opcode::kAutomorph:
        execAutomorph(instr);
        return;
      case Opcode::kLift:
        lift_unit_.run(memory_, instr.dst);
        return;
      case Opcode::kScale:
        scale_unit_.run(memory_, instr.src0, instr.dst, instr.extra);
        return;
      case Opcode::kModSwitch:
        scale_unit_.runModSwitch(memory_, instr.src0, instr.dst);
        return;
      case Opcode::kKeyLoad:
        execKeyLoad(instr);
        return;
    }
    panic("unknown opcode");
}

void
Coprocessor::execTransform(const Instruction &instr, bool inverse)
{
    PolyRecord &rec = memory_.record(instr.dst);
    const size_t n = params_->degree();
    const size_t kq = params_->qPrimeCount(rec.level);
    const auto &ctx = rec.base == BaseTag::kQ
                          ? params_->qContext(rec.level)
                          : params_->fullContext(rec.level);

    for (size_t k : residuesOfBatch(instr.batch, kq, rec.layout.size())) {
        std::span<uint64_t> span(rec.data.data() + k * n, n);
        if (!inverse) {
            panicIf(rec.layout[k] != Layout::kPaired,
                    "NTT input must be in paired layout (rearrange first)");
            ntt::forwardNtt(span, ctx.tables(k));
            rec.layout[k] = Layout::kNttDomain;
        } else {
            panicIf(rec.layout[k] != Layout::kNttDomain,
                    "INTT input must be in NTT domain");
            ntt::inverseNtt(span, ctx.tables(k));
            rec.layout[k] = Layout::kPaired;
        }
    }
}

void
Coprocessor::execCoeffOp(const Instruction &instr)
{
    PolyRecord &dst = memory_.record(instr.dst);
    const PolyRecord &a = memory_.record(instr.src0);
    const PolyRecord &b = memory_.record(instr.src1);
    panicIf(dst.base != a.base && instr.batch == 1,
            "batch-1 coeff op needs matching bases");

    const size_t n = params_->degree();
    const size_t kq = params_->qPrimeCount(dst.level);
    const auto base = dst.base == BaseTag::kQ
                          ? params_->qBase(dst.level)
                          : params_->fullBase(dst.level);
    const simd::Kernels &kern = simd::active();

    for (size_t k : residuesOfBatch(instr.batch, kq, dst.layout.size())) {
        panicIf(a.layout[k] != b.layout[k],
                "coeff op operand layout mismatch");
        uint64_t *d = dst.data.data() + k * n;
        const uint64_t *x = a.data.data() + k * n;
        const uint64_t *y = b.data.data() + k * n;
        const rns::Modulus &q = base->modulus(k);
        // The kernels work in place on their first operand. When dst
        // already holds y (and not x), fold x in from the other side;
        // x - y is then -y + x.
        const bool swapped = d == y && d != x;
        if (!swapped && d != x)
            std::copy_n(x, n, d);
        const uint64_t *rhs = swapped ? x : y;
        switch (instr.op) {
          case Opcode::kCoeffMul:
            kern.mul_mod(d, rhs, n, q);
            break;
          case Opcode::kCoeffAdd:
            kern.add_mod(d, rhs, n, q.value());
            break;
          case Opcode::kCoeffSub:
            if (swapped) {
                kern.negate_mod(d, n, q.value());
                kern.add_mod(d, rhs, n, q.value());
            } else {
                kern.sub_mod(d, rhs, n, q.value());
            }
            break;
          default:
            panic("not a coeff op");
        }
        dst.layout[k] = a.layout[k];
    }
}

void
Coprocessor::execRearrange(const Instruction &instr)
{
    PolyRecord &rec = memory_.record(instr.dst);
    const size_t kq = params_->qPrimeCount(rec.level);
    for (size_t k : residuesOfBatch(instr.batch, kq, rec.layout.size())) {
        switch (rec.layout[k]) {
          case Layout::kNatural:
            rec.layout[k] = Layout::kPaired;
            break;
          case Layout::kPaired:
            rec.layout[k] = Layout::kNatural;
            break;
          case Layout::kNttDomain:
            panic("cannot rearrange NTT-domain data; run INTT first");
        }
    }
}

void
Coprocessor::execAutomorph(const Instruction &instr)
{
    const size_t n = params_->degree();
    const uint32_t g = instr.aux;
    const PolyRecord &src = memory_.record(instr.src0);
    panicIf(instr.dst == instr.src0,
            "automorphism cannot permute a slot onto itself");
    panicIf(instr.dst == kNoPoly && instr.extra.empty(),
            "automorphism needs a destination or digit broadcasts");

    const auto &base = params_->qBase(src.level);
    const size_t kq = base->size();
    const auto &ctx = params_->qContext(src.level);

    // Ciphertext polynomials enter and leave over the q base; like
    // Scale, the automorphism reads and writes the q view (the first
    // kq residues) of records a later instruction of the fused program
    // may lift in place.
    const Layout layout = src.layout[0];
    for (size_t k = 0; k < kq; ++k)
        panicIf(src.layout[k] != layout,
                "automorphism input layout is mixed");
    panicIf(layout == Layout::kPaired,
            "cannot permute paired-layout data; rearrange first");
    const bool ntt_domain = layout == Layout::kNttDomain;
    panicIf(ntt_domain && !instr.extra.empty(),
            "the WordDecomp broadcast streams coefficient order; "
            "NTT-domain automorphisms cannot emit digits");

    // The permuted residues, materialized before any write so dst may
    // share banks with the digit targets. In the NTT domain tau_g is
    // still a pure data permutation of the evaluation points; the
    // simulator computes the identical values through the verified
    // transform (INTT -> coefficient index map -> NTT is exact modular
    // arithmetic, so it equals the index-mapped BRAM read bit for bit).
    std::vector<uint64_t> permuted(kq * n);
    std::vector<uint64_t> tmp(n);
    for (size_t k = 0; k < kq; ++k) {
        std::span<uint64_t> out(permuted.data() + k * n, n);
        if (ntt_domain) {
            std::copy_n(src.data.data() + k * n, n, tmp.data());
            ntt::inverseNtt(tmp, ctx.tables(k));
            fv::applyGaloisToResidue(tmp, out, g, base->modulus(k));
            ntt::forwardNtt(out, ctx.tables(k));
        } else {
            std::span<const uint64_t> in(src.data.data() + k * n, n);
            fv::applyGaloisToResidue(in, out, g, base->modulus(k));
        }
    }

    if (instr.dst != kNoPoly) {
        PolyRecord &dst = memory_.record(instr.dst);
        panicIf(dst.data.size() < permuted.size(),
                "automorphism destination record too small");
        std::copy(permuted.begin(), permuted.end(), dst.data.begin());
        for (size_t k = 0; k < kq; ++k)
            dst.layout[k] = layout;
    }

    // WordDecomp broadcast during writeback (same reduce lanes as the
    // Scale instruction): digit d is the permuted residue d reduced
    // modulo every q channel. kNoPoly entries disable a lane, so a
    // slot-pressured schedule can stream one digit per pass instead
    // of materializing all kq digit records at once.
    panicIf(!instr.extra.empty() && instr.extra.size() != kq,
            "digit broadcast needs one lane per q prime");
    for (size_t d = 0; d < instr.extra.size(); ++d) {
        if (instr.extra[d] == kNoPoly)
            continue;
        PolyRecord &dig = memory_.record(instr.extra[d]);
        fv::digitRows(*params_, src.level, permuted.data() + d * n,
                      dig.data.data());
        for (auto &l : dig.layout)
            l = Layout::kNatural;
    }
}

void
Coprocessor::execKeyLoad(const Instruction &instr)
{
    const uint32_t selector = keyLoadSelector(instr.aux);
    const uint32_t digit = keyLoadDigit(instr.aux);
    const fv::RelinKeys *keys = rlk_;
    if (selector != 0) {
        panicIf(gkeys_ == nullptr, "no Galois keys attached");
        const auto it = gkeys_->keys.find(selector);
        panicIf(it == gkeys_->keys.end(),
                "no Galois key for element ", selector);
        keys = &it->second;
    }
    panicIf(keys == nullptr, "no relinearization keys attached");
    panicIf(digit >= keys->digitCount(), "key digit out of range");
    panicIf(instr.extra.size() != 2, "key load needs two buffer targets");
    for (int half = 0; half < 2; ++half) {
        PolyRecord &buf = memory_.record(instr.extra[half]);
        const ntt::RnsPoly &key = keys->keys[digit][half];
        // A level-l buffer streams only the key's live-residue prefix
        // (keys are generated once at level 0; truncation is valid
        // because the key-switch gadget acts residue-wise).
        panicIf(buf.data.size() > key.data().size(),
                "key buffer larger than the stored key");
        std::copy(key.data().begin(),
                  key.data().begin() +
                      static_cast<ptrdiff_t>(buf.data.size()),
                  buf.data.begin());
        // Keys are stored pre-transformed in DDR and stream in ready to
        // use in the NTT domain.
        for (auto &l : buf.layout)
            l = Layout::kNttDomain;
    }
}

} // namespace heat::hw
