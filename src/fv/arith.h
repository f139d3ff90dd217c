/**
 * @file
 * The Lift/Scale arithmetic core shared by the software evaluator and
 * the hardware model.
 *
 * FV.Mult's base-extension and rounding steps (Fig. 2), the
 * modulus-switch divide-and-round and the RNS WordDecomp broadcast are
 * driven here once, on residue-major rows: row i of a polynomial is its
 * degree() residues modulo prime i, rows back to back (stride n). That
 * is the layout of both ntt::RnsPoly::data() and hw::PolyRecord::data,
 * so fv::Evaluator and the coprocessor's Lift/Scale units make the same
 * calls and stay bit-identical by construction.
 *
 * Each driver splits the coefficients with parallelFor and runs either
 * arithmetic path of Sec. IV-C/D:
 *   - ArithPath::kHps: the Halevi-Polyakov-Shoup small-integer datapath
 *     through the batch entries (FastBaseConverter::convertBatch,
 *     ScaleRounder::scaleBatch), each one pass of the fused
 *     hps_convert / hps_scale SIMD kernel that streams a coefficient
 *     through all its residues once, or
 *   - ArithPath::kExactCrt: exact BigInt CRT reconstruction per
 *     coefficient (the traditional multi-precision datapath and the
 *     test oracle).
 */

#ifndef HEAT_FV_ARITH_H
#define HEAT_FV_ARITH_H

#include <cstddef>
#include <cstdint>

namespace heat::fv {

class FvParams;

/** Which Lift/Scale arithmetic an evaluator or a coprocessor runs. */
enum class ArithPath
{
    kHps,      ///< approximate-CRT small-integer arithmetic (fast)
    kExactCrt, ///< exact BigInt CRT arithmetic (traditional baseline)
};

/**
 * Lift q->Q at @p level: from the qPrimeCount(level) rows at @p q_rows,
 * write the pBase() extension rows of the centered representative to
 * @p p_rows. The q residues themselves are unchanged by the lift.
 */
void liftRows(const FvParams &params, size_t level, ArithPath path,
              const uint64_t *q_rows, uint64_t *p_rows);

/**
 * Scale Q->q at @p level: round(t x / q) of the full-base rows at
 * @p full_rows (q rows, then p rows), written over the q base to
 * @p q_rows (the p->q switch included). @p q_rows may alias
 * @p full_rows: each coefficient is consumed before it is written (the
 * HPS path stages the p-base intermediate in a stack block).
 */
void scaleRows(const FvParams &params, size_t level, ArithPath path,
               const uint64_t *full_rows, uint64_t *q_rows);

/**
 * Modulus switch out of @p from_level: round(x / q_last) of the live q
 * rows at @p in_rows, written to the next level's rows at @p out_rows.
 * The dropped prime's row feeds the rounder's divisor lane first, then
 * the surviving rows in basis order. The rows must not overlap.
 */
void modSwitchRows(const FvParams &params, size_t from_level,
                   ArithPath path, const uint64_t *in_rows,
                   uint64_t *out_rows);

/**
 * WordDecomp (RNS flavour) digit broadcast at @p level: digit row c is
 * the residue row @p row reduced modulo live q prime c. Values are
 * below 2^30, so each reduction is at most one conditional subtraction
 * — the paper's "cheap bit-level manipulation". @p digit_rows must not
 * overlap @p row.
 */
void digitRows(const FvParams &params, size_t level, const uint64_t *row,
               uint64_t *digit_rows);

} // namespace heat::fv

#endif // HEAT_FV_ARITH_H
