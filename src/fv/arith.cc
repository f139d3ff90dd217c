#include "fv/arith.h"

#include <algorithm>
#include <vector>

#include "common/panic.h"
#include "common/parallel.h"
#include "fv/params.h"
#include "simd/simd.h"

namespace heat::fv {

namespace {

/**
 * Smallest coefficient range parallelFor hands one thread: the batch
 * kernels stream each coefficient through all its residues once, so
 * the range only needs to amortize the per-call dispatch.
 */
constexpr size_t kCoeffGrain = 512;

/**
 * Coefficients per scale stage in scaleRows: the p-base intermediate
 * lives in an L1-resident stack block of kScaleBlock words (16 KB; 7 KB
 * used at the paper's 7 p primes). Wider p bases take shorter stages.
 */
constexpr size_t kScaleStage = 128;
constexpr size_t kScaleBlock = 2048;

/** Pointers to @p count rows of stride @p n, offset by @p begin. */
template <typename T>
std::vector<T *>
rowPointers(T *rows, size_t count, size_t n, size_t begin)
{
    std::vector<T *> out(count);
    for (size_t i = 0; i < count; ++i)
        out[i] = rows + i * n + begin;
    return out;
}

} // namespace

void
liftRows(const FvParams &params, size_t level, ArithPath path,
         const uint64_t *q_rows, uint64_t *p_rows)
{
    const size_t n = params.degree();
    const size_t kq = params.qPrimeCount(level);
    const size_t kp = params.pBase()->size();
    const auto &conv = params.liftConverter(level);

    parallelFor(n, kCoeffGrain, [&](size_t begin, size_t end) {
        if (path == ArithPath::kHps) {
            const auto in = rowPointers(q_rows, kq, n, begin);
            const auto out = rowPointers(p_rows, kp, n, begin);
            conv.convertBatch(in.data(), out.data(), end - begin);
            return;
        }
        std::vector<uint64_t> in(kq), ext(kp);
        for (size_t j = begin; j < end; ++j) {
            for (size_t i = 0; i < kq; ++i)
                in[i] = q_rows[i * n + j];
            conv.convertExact(in, ext);
            for (size_t i = 0; i < kp; ++i)
                p_rows[i * n + j] = ext[i];
        }
    });
}

void
scaleRows(const FvParams &params, size_t level, ArithPath path,
          const uint64_t *full_rows, uint64_t *q_rows)
{
    const size_t n = params.degree();
    const size_t kq = params.qPrimeCount(level);
    const size_t kp = params.pBase()->size();
    const auto &scaler = params.scaler(level);
    const auto &back = params.scaleBackConverter(level);

    const size_t stage = std::min(kScaleStage, kScaleBlock / kp);
    panicIf(stage == 0, "p base too wide for the scale stage block");

    parallelFor(n, kCoeffGrain, [&](size_t begin, size_t end) {
        if (path == ArithPath::kHps) {
            auto in = rowPointers(full_rows, kq + kp, n, begin);
            auto out = rowPointers(q_rows, kq, n, begin);
            // A stage's outputs are stored only after all its inputs
            // were read into the intermediate, so q_rows may alias
            // full_rows.
            uint64_t mid[kScaleBlock];
            const auto mid_out = rowPointers(mid, kp, stage, 0);
            const auto mid_in =
                rowPointers<const uint64_t>(mid, kp, stage, 0);
            for (size_t b = begin; b < end; b += stage) {
                const size_t len = std::min(stage, end - b);
                scaler.scaleBatch(in.data(), mid_out.data(), len);
                back.convertBatch(mid_in.data(), out.data(), len);
                for (auto &row : in)
                    row += len;
                for (auto &row : out)
                    row += len;
            }
            return;
        }
        std::vector<uint64_t> in(kq + kp), mid(kp), res(kq);
        for (size_t j = begin; j < end; ++j) {
            for (size_t i = 0; i < kq + kp; ++i)
                in[i] = full_rows[i * n + j];
            scaler.scaleExact(in, mid);
            back.convertExact(mid, res);
            for (size_t i = 0; i < kq; ++i)
                q_rows[i * n + j] = res[i];
        }
    });
}

void
modSwitchRows(const FvParams &params, size_t from_level, ArithPath path,
              const uint64_t *in_rows, uint64_t *out_rows)
{
    const size_t n = params.degree();
    const size_t live = params.qPrimeCount(from_level);
    const auto &rounder = params.modSwitchRounder(from_level);

    // ScaleRounder input order: dropped-prime residue first (its "q"
    // base), then the surviving residues (its "p" base).
    parallelFor(n, kCoeffGrain, [&](size_t begin, size_t end) {
        std::vector<const uint64_t *> in(live);
        in[0] = in_rows + (live - 1) * n + begin;
        for (size_t i = 0; i + 1 < live; ++i)
            in[i + 1] = in_rows + i * n + begin;
        if (path == ArithPath::kHps) {
            const auto out = rowPointers(out_rows, live - 1, n, begin);
            rounder.scaleBatch(in.data(), out.data(), end - begin);
            return;
        }
        std::vector<uint64_t> x(live), next(live - 1);
        for (size_t j = begin; j < end; ++j) {
            for (size_t i = 0; i < live; ++i)
                x[i] = in[i][j - begin];
            rounder.scaleExact(x, next);
            for (size_t i = 0; i + 1 < live; ++i)
                out_rows[i * n + j] = next[i];
        }
    });
}

void
digitRows(const FvParams &params, size_t level, const uint64_t *row,
          uint64_t *digit_rows)
{
    const size_t n = params.degree();
    const auto &base = params.qBase(level);
    const simd::Kernels &kern = simd::active();
    parallelFor(base->size(), [&](size_t c) {
        kern.reduce_u32(digit_rows + c * n, row, n, base->modulus(c));
    });
}

} // namespace heat::fv
