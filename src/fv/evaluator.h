/**
 * @file
 * Homomorphic evaluation: FV.Add and FV.Mult (Fig. 2 of the paper).
 *
 * FV.Mult pipeline:
 *   1. Lift q->Q of the four input polynomials (centered base extension),
 *   2. NTT + coefficient-wise tensor products + inverse NTT over R_Q,
 *   3. Scale Q->q of the three tensor polynomials (round(t x / q)),
 *   4. WordDecomp of c~2 + ReLin with the relinearization key.
 *
 * The evaluator runs either arithmetic path of Sec. IV-C/D:
 *   - ArithPath::kHps: the Halevi-Polyakov-Shoup small-integer datapath
 *     (what the faster coprocessor implements), or
 *   - ArithPath::kExactCrt: exact BigInt CRT reconstruction (the
 *     traditional multi-precision datapath and the test oracle).
 *
 * Both paths produce valid ciphertexts of the same plaintext; kHps may
 * differ from kExactCrt by +-1 in isolated coefficients (absorbed as
 * noise), exactly as the HPS paper argues.
 *
 * Thread safety: every entry point is const and the evaluator holds no
 * mutable state — one Evaluator may be shared by any number of threads
 * (the serving layer's workers and the differential tests rely on
 * this). All derived constants live in the immutable FvParams.
 */

#ifndef HEAT_FV_EVALUATOR_H
#define HEAT_FV_EVALUATOR_H

#include <memory>
#include <vector>

#include "fv/arith.h"
#include "fv/galois.h"
#include "fv/keys.h"
#include "fv/params.h"

namespace heat::fv {

/** Computes on ciphertexts. */
class Evaluator
{
  public:
    explicit Evaluator(std::shared_ptr<const FvParams> params,
                       ArithPath path = ArithPath::kHps);

    /** @return the arithmetic path in use. */
    ArithPath path() const { return path_; }

    // --- linear operations ----------------------------------------------

    /** c = a + b (component-wise polynomial addition). */
    Ciphertext add(const Ciphertext &a, const Ciphertext &b) const;

    /** a += b. */
    void addInPlace(Ciphertext &a, const Ciphertext &b) const;

    /** c = a - b. */
    Ciphertext sub(const Ciphertext &a, const Ciphertext &b) const;

    /** a = -a. */
    void negateInPlace(Ciphertext &a) const;

    /** ct += Delta * plain (no noise added). */
    void addPlainInPlace(Ciphertext &ct, const Plaintext &plain) const;

    /** ct -= Delta * plain. */
    void subPlainInPlace(Ciphertext &ct, const Plaintext &plain) const;

    /** c = ct * plain, plaintext multiplication (cheap, no relin). */
    Ciphertext multiplyPlain(const Ciphertext &ct,
                             const Plaintext &plain) const;

    // --- multiplication ---------------------------------------------------

    /** Full tensor product: returns a 3-element ciphertext. */
    Ciphertext multiplyNoRelin(const Ciphertext &a,
                               const Ciphertext &b) const;

    /** Reduce a 3-element ciphertext back to 2 with @p rlk. */
    void relinearizeInPlace(Ciphertext &ct, const RelinKeys &rlk) const;

    /** multiplyNoRelin followed by relinearization. */
    Ciphertext multiply(const Ciphertext &a, const Ciphertext &b,
                        const RelinKeys &rlk) const;

    /** ct^2 with relinearization. */
    Ciphertext square(const Ciphertext &ct, const RelinKeys &rlk) const;

    // --- modulus switching ----------------------------------------------

    /**
     * Switch @p ct one level down the modulus chain: every polynomial
     * becomes round(c / q_last) over the basis with the last live prime
     * dropped (exact divide-and-round via rns::ScaleRounder with t = 1).
     * The plaintext is preserved; the invariant noise picks up only the
     * small rounding term t*n/(2 q') — see NoiseModel::modSwitchStep.
     * Works on 2- and 3-element ciphertexts. Requires
     * ct.level < params->maxLevel().
     */
    Ciphertext modSwitch(const Ciphertext &ct) const;

    /** In-place variant of modSwitch (one level down). */
    void modSwitchInPlace(Ciphertext &ct) const;

    /** Repeated modSwitch until @p level (>= ct.level) is reached. */
    Ciphertext modSwitchTo(const Ciphertext &ct, size_t level) const;

    /**
     * Divide-and-round one coefficient-form polynomial from the
     * @p from_level basis to the next level's (golden model of the
     * hardware kModSwitch instruction).
     */
    ntt::RnsPoly modSwitchPoly(const ntt::RnsPoly &poly,
                               size_t from_level) const;

    // --- Galois automorphisms and rotations -----------------------------

    /**
     * Apply tau_g (m(x) -> m(x^g)) to a 2-element ciphertext and
     * key-switch back to the original secret with @p gkeys. Element 1
     * (tau_1 = identity) returns the input unchanged — no key lookup
     * and no key-switch noise.
     */
    Ciphertext applyGalois(const Ciphertext &ct, uint32_t galois_element,
                           const GaloisKeys &gkeys) const;

    /**
     * Hoisted variant of applyGalois (Halevi-Shoup; HEAX uses the same
     * trick): decompose c1 into WordDecomp digits *before* permuting,
     * then apply tau_g to each digit and multiply-accumulate with the
     * Galois keys. Valid because sum_i tau_g(D_i(c1)) f_i =
     * tau_g(c1) — the digit reconstruction scalars f_i are fixed by
     * tau_g — so the key-switch identity holds with the same keys.
     * The result decrypts identically to applyGalois but is not
     * bit-identical to it (the digit vectors differ); it IS the golden
     * model of the hardware's hoisted rotation datapath, where the
     * decompose + forward NTT of the digits is shared by every
     * rotation of one ciphertext and each rotation only pays an
     * NTT-domain permutation per digit.
     */
    Ciphertext applyGaloisHoisted(const Ciphertext &ct,
                                  uint32_t galois_element,
                                  const GaloisKeys &gkeys) const;

    /** Rotate batched slots by @p steps (see BatchEncoder). Steps are
     *  normalized modulo the slot-row length (galois.h), so step 0 —
     *  and any multiple of the row length — is an identity copy that
     *  needs no Galois key. */
    Ciphertext rotateSlots(const Ciphertext &ct, int steps,
                           const GaloisKeys &gkeys) const;

    /** Swap the two slot "columns" (Galois element 2n - 1). */
    Ciphertext rotateColumns(const Ciphertext &ct,
                             const GaloisKeys &gkeys) const;

    /**
     * Sum across all n slots with log-many rotations: afterwards every
     * slot holds the sum. Needs keys from generateRotationKeys().
     */
    Ciphertext sumAllSlots(const Ciphertext &ct,
                           const GaloisKeys &gkeys) const;

    // --- plaintext encodings (public: the circuit compiler mirrors
    //     these when it lowers plain-operand nodes to the hardware) ----

    /** Delta_l * plain embedded in R_{q_l}, coefficient form — the
     *  polynomial added to c0 by addPlainInPlace (and by the hardware
     *  AddPlain schedule, which uploads it as a constant operand). */
    ntt::RnsPoly scaledPlain(const Plaintext &plain,
                             size_t level = 0) const;

    /** plain embedded unscaled in R_{q_l}, coefficient form — the
     *  NTT-domain multiplicand of multiplyPlain (and the hardware
     *  MultPlain schedule's constant operand). */
    ntt::RnsPoly embeddedPlain(const Plaintext &plain,
                               size_t level = 0) const;

    // --- FV.Mult building blocks (public: golden models for the HW) -----

    /** Lift q->Q: extend a coefficient-form q polynomial to the full
     *  base (centered representative). */
    ntt::RnsPoly liftToFull(const ntt::RnsPoly &q_poly) const;

    /** Scale Q->q: round(t x / q) of a coefficient-form full-base
     *  polynomial, result over the q base (includes the p->q switch). */
    ntt::RnsPoly scaleToQ(const ntt::RnsPoly &full_poly) const;

    /** WordDecomp (RNS flavour): one digit polynomial per q prime. */
    std::vector<ntt::RnsPoly> rnsDigits(const ntt::RnsPoly &poly) const;

    /** WordDecomp (positional flavour): base-2^bits digits. */
    std::vector<ntt::RnsPoly> positionalDigits(const ntt::RnsPoly &poly,
                                               int digit_bits) const;

  private:
    /** @return the level a q-base polynomial's residue count implies. */
    size_t levelOf(const ntt::RnsPoly &q_poly) const;

    /**
     * Level-l view of a level-0 key-switch key polynomial: the first
     * live residues, as a poly over the level's q base. Valid because
     * makeKeySwitchKeys builds the digit-reconstruction scalars f_i
     * residue-wise (CRT unit vectors / positional powers), so the
     * prefix of a level-0 key IS the level-l key — no per-level keygen.
     */
    ntt::RnsPoly keyPolyAtLevel(const ntt::RnsPoly &key_poly,
                                size_t level) const;

    /**
     * Key-switch MAC shared by relinearization and Galois switching:
     * acc(0|1) += sum_i NTT(digits[i]) * key_i, with the keys truncated
     * to @p level. Digits enter in coefficient form and are consumed.
     */
    void keySwitchAccumulate(std::vector<ntt::RnsPoly> &digits,
                             const RelinKeys &key, size_t level,
                             ntt::RnsPoly &acc0, ntt::RnsPoly &acc1) const;

    std::shared_ptr<const FvParams> params_;
    ArithPath path_;
};

} // namespace heat::fv

#endif // HEAT_FV_EVALUATOR_H
