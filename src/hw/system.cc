#include "hw/system.h"

#include <algorithm>

#include "common/panic.h"
#include "hw/cost.h"
#include "hw/program_builder.h"

namespace heat::hw {

MultJobProfile
profileMultJob(const std::shared_ptr<const fv::FvParams> &params,
               const HwConfig &config, DispatchMode dispatch)
{
    // Emit the Mult (tensor + relinearization) at build time; its
    // level-0 costs need no memory-file state.
    Program program;
    CountingAllocator alloc(*params, config);
    OpEmitter emitter(*params, alloc, program);
    const auto operand = [&] {
        return alloc.allocate(BaseTag::kQ, Layout::kNatural,
                              "Mult operand");
    };
    const std::array<PolyId, 2> a{operand(), operand()};
    const std::array<PolyId, 2> b{operand(), operand()};
    const OpEmitter::MultResult tensor =
        emitter.emitMult(a, b, /*consume_a=*/true, /*consume_b=*/true,
                         /*want_digits=*/true, /*want_c2=*/false);
    emitter.emitRelin(tensor.ct[0], tensor.ct[1], tensor.digits);

    const ExecStats stats = priceProgram(program, dispatch, params, config);
    const OpStats &keys = stats.per_op.at(Opcode::kKeyLoad);
    MultJobProfile profile;
    profile.compute_us = config.cyclesToUs(stats.fpga_cycles);
    profile.key_segments = keys.calls;
    profile.key_dma_us = keys.dma_us / static_cast<double>(keys.calls);

    ArmHostModel host(params, config);
    profile.send_us = host.sendCiphertextsUs(2);
    profile.receive_us = host.receiveCiphertextUs();
    return profile;
}

HeatSystem::HeatSystem(std::shared_ptr<const fv::FvParams> params,
                       const HwConfig &config, size_t n_coprocessors)
    : HeatSystem(params, config, n_coprocessors,
                 profileMultJob(params, config))
{
}

HeatSystem::HeatSystem(std::shared_ptr<const fv::FvParams> params,
                       const HwConfig &config, size_t n_coprocessors,
                       const MultJobProfile &profile)
    : params_(std::move(params)), config_(config),
      n_coproc_(n_coprocessors), profile_(profile)
{
    fatalIf(n_coprocessors == 0, "need at least one coprocessor");
}

ThroughputResult
HeatSystem::simulate(size_t mults) const
{
    // Discrete-event timeline. Each coprocessor walks an alternating
    // sequence of compute segments (no arbitration) and DMA segments
    // (serialized through the mutex IP, granted first-come-first-served
    // by advancing the globally earliest-ready worker).
    const double chunk =
        profile_.compute_us /
        static_cast<double>(profile_.key_segments + 1);

    // Per-job segment list: {is_dma, duration}.
    std::vector<std::pair<bool, double>> job_segments;
    job_segments.emplace_back(true, profile_.send_us);
    for (size_t s = 0; s < profile_.key_segments; ++s) {
        job_segments.emplace_back(false, chunk);
        job_segments.emplace_back(true, profile_.key_dma_us);
    }
    job_segments.emplace_back(false, chunk);
    job_segments.emplace_back(true, profile_.receive_us);

    struct Worker
    {
        double t = 0.0;     // local time
        size_t jobs = 0;    // jobs remaining
        size_t seg = 0;     // index into job_segments
        double busy = 0.0;  // compute time accumulated
        bool
        done() const
        {
            return jobs == 0;
        }
    };
    std::vector<Worker> workers(n_coproc_);
    for (size_t c = 0; c < n_coproc_; ++c)
        workers[c].jobs = mults / n_coproc_ + (c < mults % n_coproc_);

    double dma_free = 0.0;
    double dma_busy = 0.0;
    while (true) {
        // Advance the earliest-ready unfinished worker by one segment.
        size_t best = n_coproc_;
        for (size_t c = 0; c < n_coproc_; ++c) {
            if (!workers[c].done() &&
                (best == n_coproc_ || workers[c].t < workers[best].t)) {
                best = c;
            }
        }
        if (best == n_coproc_)
            break;
        Worker &w = workers[best];
        const auto &[is_dma, dur] = job_segments[w.seg];
        if (is_dma) {
            const double start = std::max(w.t, dma_free);
            dma_free = start + dur;
            dma_busy += dur;
            w.t = dma_free;
        } else {
            w.t += dur;
            w.busy += dur;
        }
        if (++w.seg == job_segments.size()) {
            w.seg = 0;
            --w.jobs;
        }
    }

    std::vector<double> coproc_free(n_coproc_);
    std::vector<double> coproc_busy(n_coproc_);
    for (size_t c = 0; c < n_coproc_; ++c) {
        coproc_free[c] = workers[c].t;
        coproc_busy[c] = workers[c].busy;
    }

    ThroughputResult result;
    result.mults = mults;
    result.makespan_us =
        *std::max_element(coproc_free.begin(), coproc_free.end());
    result.mults_per_second =
        static_cast<double>(mults) / result.makespan_us * 1e6;
    result.dma_utilization = dma_busy / result.makespan_us;
    result.coproc_utilization.resize(n_coproc_);
    for (size_t c = 0; c < n_coproc_; ++c)
        result.coproc_utilization[c] = coproc_busy[c] / result.makespan_us;
    return result;
}

} // namespace heat::hw
