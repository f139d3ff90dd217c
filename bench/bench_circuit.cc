/**
 * @file
 * Circuit fusion: fused whole-circuit submission vs per-op round
 * trips, on the depth-4 mixed demo circuit (Add/Sub/MultPlain/Mult/
 * Square + relinearizations) over the paper parameter set.
 *
 * Three numbers:
 *  - fused modeled op/s: circuits submitted through
 *    ExecutionService::submitCircuit at workers=1; intermediates stay
 *    coprocessor-resident, inputs upload once, each on-chip segment
 *    costs one Arm dispatch;
 *  - unfused modeled op/s: the same circuit through
 *    compiler::runCircuitOpByOp — one host round trip and
 *    per-instruction dispatch for every node (the single-op serving
 *    model);
 *  - fused wall op/s: host wall clock of the functional simulation,
 *    the median over timed batches after an untimed warm-up batch.
 *
 * Exit status is the CI gate: fused modeled throughput must be
 * strictly above unfused.
 */

#include <algorithm>
#include <chrono>
#include <future>
#include <vector>

#include "bench_util.h"
#include "common/random.h"
#include "compiler/circuit.h"
#include "compiler/compiler.h"
#include "fv/encryptor.h"
#include "fv/keygen.h"
#include "fv/params.h"
#include "hw/coprocessor.h"
#include "service/service.h"
#include "verify/verify.h"

using namespace heat;

namespace {

fv::Plaintext
randomPlain(const fv::FvParams &params, uint64_t seed)
{
    Xoshiro256 rng(seed);
    fv::Plaintext p;
    p.coeffs.resize(params.degree());
    for (auto &c : p.coeffs)
        c = rng.uniformBelow(params.plainModulus());
    return p;
}

/** The depth-4 mixed circuit of the acceptance criteria. */
compiler::Circuit
demoCircuit(const fv::FvParams &params)
{
    compiler::CircuitBuilder b;
    const compiler::ValueId x = b.input();
    const compiler::ValueId y = b.input();
    const compiler::ValueId v1 = b.mult(x, y);
    const compiler::ValueId v2 = b.square(v1);
    const compiler::ValueId v3 = b.multPlain(v2, randomPlain(params, 31));
    const compiler::ValueId v4 = b.sub(v3, x);
    const compiler::ValueId v5 =
        b.addPlain(b.add(v4, y), randomPlain(params, 37));
    b.output(v5);
    return b.build();
}

} // namespace

int
main(int argc, char **argv)
{
    bench::JsonReporter reporter("bench_circuit", argc, argv);

    auto params = fv::FvParams::paper(/*t=*/65537);
    fv::KeyGenerator keygen(params, 42);
    fv::SecretKey sk = keygen.generateSecretKey();
    fv::PublicKey pk = keygen.generatePublicKey(sk);
    fv::RelinKeys rlk = keygen.generateRelinKeys(sk);
    fv::Encryptor encryptor(params, pk, 43);

    const compiler::Circuit circuit = demoCircuit(*params);
    const size_t nodes = circuit.opCount();
    std::vector<fv::Ciphertext> inputs = {
        encryptor.encrypt(randomPlain(*params, 1)),
        encryptor.encrypt(randomPlain(*params, 2))};

    // --- fused: through the serving layer at workers=1 ------------------
    // The first batch is untimed: it pays the worker's one-time costs,
    // such as growing the memory file's storage, and gives the modeled
    // figure. The wall figure is the median of the timed
    // batches that follow, so one preempted batch cannot move it.
    const size_t circuits = 4;
    const int timed_batches = 7;
    service::ServiceConfig cfg;
    cfg.workers = 1;
    service::ExecutionService svc(params, rlk, cfg);
    const auto runBatch = [&] {
        std::vector<std::future<std::vector<fv::Ciphertext>>> futures;
        for (size_t i = 0; i < circuits; ++i)
            futures.push_back(svc.submitCircuit(circuit, inputs));
        for (auto &f : futures)
            f.get();
    };

    runBatch();
    svc.drain();
    const service::ServiceStats stats = svc.stats();
    const double fused_modeled =
        static_cast<double>(stats.circuit_nodes_completed) /
        stats.makespan_us * 1e6;
    std::vector<double> batch_ops_per_sec;
    for (int b = 0; b < timed_batches; ++b) {
        const auto t0 = std::chrono::steady_clock::now();
        runBatch();
        const auto t1 = std::chrono::steady_clock::now();
        batch_ops_per_sec.push_back(
            static_cast<double>(stats.circuit_nodes_completed) /
            std::chrono::duration<double>(t1 - t0).count());
    }
    svc.drain();
    const auto mid = batch_ops_per_sec.begin() + timed_batches / 2;
    std::nth_element(batch_ops_per_sec.begin(), mid,
                     batch_ops_per_sec.end());
    const double fused_wall = *mid;

    // --- unfused: per-op round trips on one coprocessor -----------------
    hw::Coprocessor cp(params, cfg.hw, &rlk);
    compiler::CircuitRunStats unfused_stats;
    compiler::runCircuitOpByOp(cp, params, circuit, inputs,
                               &unfused_stats);
    const double unfused_modeled =
        static_cast<double>(nodes) /
        unfused_stats.modeledUs(cfg.hw) * 1e6;

    // Per-circuit detail from a direct compiled run.
    compiler::CompilerOptions options;
    options.hw = cfg.hw;
    const compiler::CompiledCircuit compiled =
        compiler::compileCircuit(params, circuit, options);
    compiler::CircuitRunStats fused_stats;
    compiler::runCompiledCircuit(cp, compiled, inputs, &fused_stats);

    // --- static-verifier overhead ---------------------------------------
    // The abstract interpreter runs on every compile (kWarn/kReject)
    // and every service admission; it must stay a small fraction of
    // the compile it guards. Compile and verify alternate round by
    // round and the gate takes the median per-round ratio, so host
    // noise in one stretch of the run cannot land on one side only.
    compiler::CompilerOptions unverified = options;
    unverified.verify = compiler::VerifyCheck::kOff;
    bool verified = true;
    const bench::InterleavedTimes times = bench::timeInterleaved(
        {
            [&] { compiler::compileCircuit(params, circuit, unverified); },
            [&] {
                verified &= verify::verifyCompiledCircuit(compiled).ok();
            },
        },
        /*rounds=*/31, /*iters=*/1);
    if (!verified) {
        std::fprintf(stderr, "bench circuit failed verification:\n%s\n",
                     verify::verifyCompiledCircuit(compiled).report().c_str());
        return 1;
    }
    const double compile_us = times.best(0) * 1e6;
    const double verify_us = times.best(1) * 1e6;
    const double verify_overhead_pct = 100.0 * times.medianRatio(1, 0);

    bench::printHeader("circuit fusion: depth-4 demo circuit "
                       "(8 ops, paper parameters)");
    bench::printInfo("fused modeled op/s", fused_modeled, "op/s");
    bench::printInfo("unfused modeled op/s", unfused_modeled, "op/s");
    bench::printInfo("fused wall op/s", fused_wall, "op/s");
    bench::printInfo("fused segments",
                     static_cast<double>(compiled.segments.size()), "");
    bench::printInfo("fused Arm dispatches",
                     static_cast<double>(fused_stats.dispatches), "");
    bench::printInfo("unfused Arm dispatches",
                     static_cast<double>(unfused_stats.dispatches), "");
    bench::printInfo("memory-file peak",
                     static_cast<double>(compiled.peak_slots), "slots");
    bench::printInfo("host polys fused up/down",
                     static_cast<double>(fused_stats.uploaded_polys +
                                         fused_stats.downloaded_polys),
                     "");
    bench::printInfo("host polys unfused up/down",
                     static_cast<double>(unfused_stats.uploaded_polys +
                                         unfused_stats.downloaded_polys),
                     "");
    bench::printInfo("compile time", compile_us, "us");
    bench::printInfo("verify time", verify_us, "us");
    bench::printInfo("verify overhead", verify_overhead_pct, "%");

    reporter.record("fused_modeled_ops_per_sec", fused_modeled, "op/s",
                    params->degree(), params->qBase()->size());
    reporter.record("unfused_modeled_ops_per_sec", unfused_modeled,
                    "op/s", params->degree(), params->qBase()->size());
    reporter.record("fused_wall_ops_per_sec", fused_wall, "op/s",
                    params->degree(), params->qBase()->size());
    reporter.record("fused_speedup", fused_modeled / unfused_modeled,
                    "x", params->degree(), params->qBase()->size());
    reporter.record("compile_us", compile_us, "us", params->degree(),
                    params->qBase()->size());
    reporter.record("verify_us", verify_us, "us", params->degree(),
                    params->qBase()->size());
    reporter.record("verify_overhead_pct", verify_overhead_pct, "%",
                    params->degree(), params->qBase()->size());

    const bool gate = fused_modeled > unfused_modeled;
    std::printf("\nfused vs unfused modeled throughput: %.2fx (%s)\n",
                fused_modeled / unfused_modeled,
                gate ? "fused wins" : "FUSION REGRESSION");
    return gate ? 0 : 1;
}
