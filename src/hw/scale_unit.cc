#include "hw/scale_unit.h"

#include "common/panic.h"
#include "fv/arith.h"

namespace heat::hw {

ScaleUnit::ScaleUnit(std::shared_ptr<const fv::FvParams> params,
                     const HwConfig &config)
    : params_(std::move(params)), config_(config)
{
}

void
ScaleUnit::run(MemoryFile &memory, PolyId src, PolyId dst,
               const std::vector<PolyId> &digits) const
{
    const PolyRecord &in = memory.record(src);
    panicIf(in.base != BaseTag::kFull, "scale input must be full base");
    for (Layout l : in.layout)
        panicIf(l != Layout::kNatural, "scale input must be natural order");

    // The destination is a q polynomial. Its record may already span
    // the full base when a later instruction of the same fused program
    // lifts it in place (the compiler's static slot schedule extends
    // records up front): physically the q residues are the same slots
    // either way, so Scale simply writes the first kq residues.
    PolyRecord &out = memory.record(dst);

    const size_t n = memory.degree();
    const size_t level = in.level;
    const size_t kq = params_->qPrimeCount(level);
    panicIf(!digits.empty() && digits.size() != kq,
            "digit broadcast needs one record per q prime");
    // The broadcast streams the finished destination rows; a digit
    // record sharing the destination's slots would overwrite rows later
    // digits still read.
    for (PolyId d : digits)
        panicIf(d == dst, "scale digit record aliases its destination");

    fv::scaleRows(*params_, level, config_.lift_scale_arch, in.data.data(),
                  out.data.data());
    // WordDecomp broadcast: digit i is residue i reduced modulo every q
    // channel.
    for (size_t d = 0; d < digits.size(); ++d) {
        fv::digitRows(*params_, level, out.data.data() + d * n,
                      memory.record(digits[d]).data.data());
    }
    for (auto &l : out.layout)
        l = Layout::kNatural;
    for (PolyId d : digits) {
        for (auto &l : memory.record(d).layout)
            l = Layout::kNatural;
    }
}

void
ScaleUnit::runModSwitch(MemoryFile &memory, PolyId src, PolyId dst) const
{
    const PolyRecord &in = memory.record(src);
    PolyRecord &out = memory.record(dst);
    const size_t from_level = in.level;
    panicIf(from_level >= params_->maxLevel(),
            "mod-switch from the last level");
    panicIf(out.level != from_level + 1,
            "mod-switch destination must sit one level deeper");

    const size_t live = params_->qPrimeCount(from_level);
    // The record may be slot-extended to the full base ahead of time (a
    // fused program replays its static slot shapes, including a later
    // in-place lift of this operand, before any instruction runs); the
    // mod-switch itself only consumes the live q residues.
    for (size_t i = 0; i < live; ++i)
        panicIf(in.layout[i] != Layout::kNatural,
                "mod-switch input must be natural order");
    fv::modSwitchRows(*params_, from_level, config_.lift_scale_arch,
                      in.data.data(), out.data.data());
    for (size_t i = 0; i + 1 < live; ++i)
        out.layout[i] = Layout::kNatural;
}

Cycle
ScaleUnit::cycles(size_t level) const
{
    const size_t n = params_->degree();
    const size_t cores = config_.lift_scale_cores;
    const int beat = config_.lift_scale_arch == fv::ArithPath::kHps
                         ? config_.lift_beat
                         : config_.trad_scale_beat;
    // The fractional MAC chain of Block 1 streams one input residue per
    // cycle, so the beat shrinks with the live input lanes (m + kp of
    // the full kq + kp at level 0).
    const size_t kq = params_->qBase()->size();
    const size_t kp = params_->pBase()->size();
    const size_t lanes = params_->qPrimeCount(level) + kp;
    const int level_beat = static_cast<int>(
        (static_cast<size_t>(beat) * lanes + kq + kp - 1) / (kq + kp));
    return static_cast<Cycle>(config_.scale_fill +
                              (n + cores - 1) / cores * level_beat);
}

Cycle
ScaleUnit::modSwitchCycles(size_t level) const
{
    const size_t n = params_->degree();
    const size_t cores = config_.lift_scale_cores;
    const int beat = config_.lift_scale_arch == fv::ArithPath::kHps
                         ? config_.lift_beat
                         : config_.trad_scale_beat;
    // A mod-switch streams only the live q residues (no p extension):
    // the same divide-and-round datapath with far fewer input lanes.
    const size_t kq = params_->qBase()->size();
    const size_t kp = params_->pBase()->size();
    const size_t lanes = params_->qPrimeCount(level);
    int level_beat = static_cast<int>(
        (static_cast<size_t>(beat) * lanes + kq + kp - 1) / (kq + kp));
    if (level_beat < 1)
        level_beat = 1;
    return static_cast<Cycle>(config_.scale_fill +
                              (n + cores - 1) / cores * level_beat);
}

} // namespace heat::hw
