#include "fv/arith.h"

#include <algorithm>
#include <functional>
#include <vector>

#include "common/parallel.h"
#include "fv/params.h"
#include "simd/simd.h"

namespace heat::fv {

namespace {

/**
 * Coefficient-block size for the lift/scale batch kernels: large
 * enough to amortize the per-call scratch rows and constant setup,
 * small enough that the blocks of a single residue row stay cache
 * resident across the sop128 passes (and the scratch rows stay far
 * below the allocator's mmap threshold).
 */
constexpr size_t kCoeffGrain = 512;

/**
 * Run fn(begin, end) over [0, n) in blocks of at most kCoeffGrain
 * coefficients; parallelFor spreads the blocks over the threads.
 */
void
forEachBlock(size_t n, const std::function<void(size_t, size_t)> &fn)
{
    parallelFor(n, kCoeffGrain, [&fn](size_t begin, size_t end) {
        for (size_t b = begin; b < end; b += kCoeffGrain)
            fn(b, std::min(end, b + kCoeffGrain));
    });
}

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

    if (path == ArithPath::kHps) {
        forEachBlock(n, [&](size_t begin, size_t end) {
            const auto in = rowPointers(q_rows, kq, n, begin);
            const auto out = rowPointers(p_rows, kp, n, begin);
            conv.convertBatch(in.data(), out.data(), end - begin);
        });
        return;
    }
    forEachBlock(n, [&](size_t begin, size_t end) {
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

    if (path == ArithPath::kHps) {
        forEachBlock(n, [&](size_t begin, size_t end) {
            const size_t len = end - begin;
            const auto in = rowPointers(full_rows, kq + kp, n, begin);
            // Scratch rows for the intermediate p-base result of the
            // scale, consumed directly by the back-conversion.
            std::vector<uint64_t> mid(kp * len);
            const auto mid_out = rowPointers(mid.data(), kp, len, 0);
            const auto mid_in =
                rowPointers<const uint64_t>(mid.data(), kp, len, 0);
            const auto out = rowPointers(q_rows, kq, n, begin);
            scaler.scaleBatch(in.data(), mid_out.data(), len);
            back.convertBatch(mid_in.data(), out.data(), len);
        });
        return;
    }
    forEachBlock(n, [&](size_t begin, size_t end) {
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
    if (path == ArithPath::kHps) {
        forEachBlock(n, [&](size_t begin, size_t end) {
            std::vector<const uint64_t *> in(live);
            in[0] = in_rows + (live - 1) * n + begin;
            for (size_t i = 0; i + 1 < live; ++i)
                in[i + 1] = in_rows + i * n + begin;
            const auto out = rowPointers(out_rows, live - 1, n, begin);
            rounder.scaleBatch(in.data(), out.data(), end - begin);
        });
        return;
    }
    forEachBlock(n, [&](size_t begin, size_t end) {
        std::vector<uint64_t> in(live), next(live - 1);
        for (size_t j = begin; j < end; ++j) {
            in[0] = in_rows[(live - 1) * n + j];
            for (size_t i = 0; i + 1 < live; ++i)
                in[i + 1] = in_rows[i * n + j];
            rounder.scaleExact(in, next);
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
