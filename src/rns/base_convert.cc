#include "rns/base_convert.h"

#include "common/bit_util.h"
#include "common/panic.h"
#include "obs/trace.h"

namespace heat::rns {

FastBaseConverter::FastBaseConverter(const RnsBase &from, const RnsBase &to)
    : from_(from), to_(to)
{
    // Common fixed-point scale for all reciprocals. For 30-bit primes this
    // is 89 fractional bits: the top 29 are zero, leaving 60 significant
    // bits so each reciprocal fits one 64-bit word (paper Sec. V-B2).
    int min_bits = 64;
    for (const auto &m : from_.moduli())
        min_bits = std::min(min_bits, m.bits());
    frac_bits_ = min_bits - 1 + 60;

    recip_.resize(from_.size());
    for (size_t i = 0; i < from_.size(); ++i) {
        mp::BigInt scaled = mp::BigInt::powerOfTwo(frac_bits_);
        mp::BigInt q_i = mp::BigInt::fromUint64(from_.modulus(i).value());
        // round(2^frac / q_i)
        mp::BigInt r = (scaled * mp::BigInt(2) + q_i) / (q_i * mp::BigInt(2));
        recip_[i] = r.toUint64();
    }

    qstar_mod_.assign(from_.size(),
                      std::vector<uint64_t>(to_.size(), 0));
    q_mod_.resize(to_.size());
    for (size_t j = 0; j < to_.size(); ++j) {
        const uint64_t b_j = to_.modulus(j).value();
        q_mod_[j] = from_.product().modUint64(b_j);
        for (size_t i = 0; i < from_.size(); ++i)
            qstar_mod_[i][j] = from_.puncturedProduct(i).modUint64(b_j);
    }

    // hps_convert carries the lambdas in 32-bit lane products and its
    // constant arrays hold simd::kHpsMaxTerms terms.
    bool eligible = from_.size() <= simd::kHpsMaxTerms;
    for (const auto &m : from_.moduli())
        eligible = eligible && simd::eligibleModulus(m.value());
    for (const auto &m : to_.moduli())
        eligible = eligible && simd::eligibleModulus(m.value());
    if (!eligible)
        return;
    hps_.terms = from_.size();
    hps_.frac_bits = frac_bits_;
    for (size_t i = 0; i < from_.size(); ++i) {
        const Modulus &q_i = from_.modulus(i);
        hps_.frac[i] = recip_[i];
        hps_.src_q[i] = q_i.value();
        hps_.qtilde[i] = from_.crtInverse(i);
        hps_.qtilde_phi[i] = q_i.shoupPrecompute(from_.crtInverse(i)) >> 32;
    }
    for (size_t j = 0; j < to_.size(); ++j) {
        simd::HpsPrime p = simd::hpsPrime(to_.modulus(j).value());
        // v' enters negated: out_j = sum_i lambda_i q*_ij - v' q.
        p.round_w = to_.modulus(j).negate(q_mod_[j]);
        for (size_t i = 0; i < from_.size(); ++i)
            p.w[i] = qstar_mod_[i][j];
        hps_.dst.push_back(p);
    }
}

void
FastBaseConverter::convert(std::span<const uint64_t> in,
                           std::span<uint64_t> out) const
{
    std::vector<uint64_t> lambda(from_.size());
    convertWith(in, out, lambda);
}

void
FastBaseConverter::convertWith(std::span<const uint64_t> in,
                               std::span<uint64_t> out,
                               std::span<uint64_t> lambda) const
{
    panicIf(in.size() != from_.size(), "input size mismatch");
    panicIf(out.size() != to_.size(), "output size mismatch");
    // Block 1: lambda_i = [x_i * q~_i] mod q_i. Blocks 3/4: the rounded
    // quotient v' = round(sum lambda_i / q_i) with 60-significant-bit
    // fixed-point reciprocals; lambda_i * recip_i < 2^122, so a sum of
    // up to 64 terms fits 128 bits.
    uint128_t frac = uint128_t(1) << (frac_bits_ - 1);
    for (size_t i = 0; i < from_.size(); ++i) {
        lambda[i] = from_.modulus(i).mul(in[i], from_.crtInverse(i));
        frac += mulWide64(lambda[i], recip_[i]);
    }
    const uint64_t v = static_cast<uint64_t>(frac >> frac_bits_);

    for (size_t j = 0; j < to_.size(); ++j) {
        const Modulus &b_j = to_.modulus(j);
        // sum_i lambda_i * (q*_i mod b_j): each product is < 2^60 and at
        // most 48 terms accumulate, so a 128-bit accumulator suffices.
        uint128_t acc = 0;
        for (size_t i = 0; i < from_.size(); ++i)
            acc += mulWide64(lambda[i], qstar_mod_[i][j]);
        uint64_t s = b_j.reduce128(acc);
        uint64_t corr = b_j.mul(b_j.reduce(v), q_mod_[j]);
        out[j] = b_j.sub(s, corr);
    }
}

void
FastBaseConverter::convertBatch(const uint64_t *const *in_rows,
                                uint64_t *const *out_rows,
                                size_t count) const
{
    OBS_SPAN("rns.convert_batch", "kernel");
    if (const simd::HpsTable *t = hpsTable()) {
        simd::active().hps_convert(*t, in_rows, out_rows, count);
        return;
    }
    const size_t kq = from_.size();
    const size_t kb = to_.size();
    std::vector<uint64_t> in(kq);
    std::vector<uint64_t> out(kb);
    std::vector<uint64_t> lambda(kq);
    for (size_t c = 0; c < count; ++c) {
        for (size_t i = 0; i < kq; ++i)
            in[i] = in_rows[i][c];
        convertWith(in, out, lambda);
        for (size_t j = 0; j < kb; ++j)
            out_rows[j][c] = out[j];
    }
}

void
FastBaseConverter::convertExact(std::span<const uint64_t> in,
                                std::span<uint64_t> out) const
{
    panicIf(in.size() != from_.size(), "input size mismatch");
    panicIf(out.size() != to_.size(), "output size mismatch");
    std::vector<uint64_t> residues(in.begin(), in.end());
    mp::BigInt x = from_.composeCentered(residues);
    for (size_t j = 0; j < to_.size(); ++j) {
        mp::BigInt b_j(static_cast<int64_t>(to_.modulus(j).value()));
        out[j] = x.mod(b_j).toUint64();
    }
}

} // namespace heat::rns
