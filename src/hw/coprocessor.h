/**
 * @file
 * The instruction-set coprocessor (Fig. 10): seven RPAUs, two Lift/Scale
 * cores and the on-chip memory file behind a small instruction set.
 *
 * Execution is functional *and* timed: every instruction updates the
 * memory-file contents through the code the software evaluator runs —
 * the fv/arith.h Lift/Scale/ModSwitch/WordDecomp row drivers and the
 * heat::simd NTT and dyadic kernels — so results are bit-exact against
 * fv::Evaluator. A run is charged the price hw/cost.h puts on its
 * program (block-model cycles plus the Arm dispatch overhead, and the
 * key DMA in microseconds of the 250 MHz domain), with record levels
 * read from the memory file; execute() adds only the per-instruction
 * modeled-time trace spans.
 */

#ifndef HEAT_HW_COPROCESSOR_H
#define HEAT_HW_COPROCESSOR_H

#include <memory>

#include "fv/galois.h"
#include "fv/keys.h"
#include "fv/params.h"
#include "hw/config.h"
#include "hw/isa.h"
#include "hw/lift_unit.h"
#include "hw/memory_file.h"
#include "hw/scale_unit.h"

namespace heat::hw {

/** One coprocessor instance. */
class Coprocessor
{
  public:
    /**
     * @param params FV parameter set.
     * @param config hardware configuration.
     * @param rlk relinearization keys resident in DDR (may be null if
     *        the workload never issues kKeyLoad).
     * @param gkeys Galois key-switching keys resident in DDR (may be
     *        null if the workload never issues a Galois-selector
     *        kKeyLoad; see keyLoadAux).
     */
    Coprocessor(std::shared_ptr<const fv::FvParams> params,
                const HwConfig &config,
                const fv::RelinKeys *rlk = nullptr,
                const fv::GaloisKeys *gkeys = nullptr);

    /** @return the parameter set. */
    const fv::FvParams &params() const { return *params_; }

    /** @return the configuration. */
    const HwConfig &config() const { return config_; }

    /** @return the memory file. */
    MemoryFile &memory() { return memory_; }
    const MemoryFile &memory() const { return memory_; }

    /** Reprogram: drop all memory-file contents so a different op
     *  schedule can allocate from a clean slate. */
    void reset() { memory_.reset(); }

    /**
     * Swap the DDR-resident key sets the kKeyLoad instruction streams
     * from (selector 0 = relin, else the Galois element) — the
     * multi-tenant serving layer re-points a worker's coprocessor at
     * the submitting session's keys before running its jobs. Either
     * pointer may be null when the upcoming programs never load from
     * that set; both must outlive every subsequent execute().
     */
    void
    attachKeys(const fv::RelinKeys *rlk, const fv::GaloisKeys *gkeys)
    {
        rlk_ = rlk;
        gkeys_ = gkeys;
    }

    /** Upload an operand polynomial (coefficient form, natural order).
     *  Transfer timing is the host model's responsibility. */
    PolyId uploadPoly(const ntt::RnsPoly &poly);

    /** Overwrite an existing record with fresh operand data. */
    void uploadInto(PolyId id, const ntt::RnsPoly &poly);

    /** Download a result polynomial. */
    ntt::RnsPoly downloadPoly(PolyId id) const;

    /**
     * Execute a program; returns its statistics, which are
     * hw::priceProgram's for the memory file's record levels. In
     * kPerInstruction mode every instruction carries the Arm dispatch
     * overhead (the paper's measured Table II costs); in kFusedProgram
     * mode the whole instruction stream is queued with a single
     * dispatch — the circuit compiler's fused execution model.
     */
    ExecStats execute(const Program &program,
                      DispatchMode mode = DispatchMode::kPerInstruction);

  private:
    void exec(const Instruction &instr);
    void execTransform(const Instruction &instr, bool inverse);
    void execCoeffOp(const Instruction &instr);
    void execRearrange(const Instruction &instr);
    void execAutomorph(const Instruction &instr);
    void execKeyLoad(const Instruction &instr);

    std::shared_ptr<const fv::FvParams> params_;
    HwConfig config_;
    MemoryFile memory_;
    LiftUnit lift_unit_;
    ScaleUnit scale_unit_;
    const fv::RelinKeys *rlk_;
    const fv::GaloisKeys *gkeys_;
};

} // namespace heat::hw

#endif // HEAT_HW_COPROCESSOR_H
