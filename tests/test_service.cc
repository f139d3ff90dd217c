/**
 * @file
 * Tests of the asynchronous execution service: compiled single-op
 * value semantics (a program compiled once runs on any coprocessor),
 * concurrent multi-client submission across worker-pool sizes with
 * deterministic bit-exact results, operand validation, statistics
 * accounting, and the shutdown-while-queued regression (cancelled
 * futures must fail fast, never hang).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "common/panic.h"
#include "common/random.h"
#include "fv/decryptor.h"
#include "fv/encryptor.h"
#include "fv/evaluator.h"
#include "fv/keygen.h"
#include "fv/params.h"
#include "hw/coprocessor.h"
#include "service/service.h"
#include "verify_support.h"

namespace heat::service {
namespace {

using fv::Ciphertext;
using fv::Plaintext;

struct ServiceRig
{
    ServiceRig()
    {
        fv::FvConfig cfg;
        cfg.degree = 256;
        cfg.plain_modulus = 4;
        cfg.sigma = 3.2;
        cfg.q_prime_count = 3;
        params = fv::FvParams::create(cfg);
        fv::KeyGenerator keygen(params, 99);
        sk = keygen.generateSecretKey();
        pk = keygen.generatePublicKey(sk);
        rlk = keygen.generateRelinKeys(sk);
        evaluator = std::make_unique<fv::Evaluator>(params);
        hw = hw::HwConfig::paper();
        hw.n_rpaus = (params->fullBase()->size() + 1) / 2;
    }

    ServiceConfig
    serviceConfig(size_t workers, size_t max_batch = 4) const
    {
        ServiceConfig cfg;
        cfg.workers = workers;
        cfg.max_batch = max_batch;
        cfg.hw = hw;
        return cfg;
    }

    Plaintext
    randomPlain(uint64_t seed) const
    {
        Xoshiro256 rng(seed);
        Plaintext p;
        p.coeffs.resize(params->degree());
        for (auto &c : p.coeffs)
            c = rng.uniformBelow(params->plainModulus());
        return p;
    }

    std::shared_ptr<const fv::FvParams> params;
    fv::SecretKey sk;
    fv::PublicKey pk;
    fv::RelinKeys rlk;
    std::unique_ptr<fv::Evaluator> evaluator;
    hw::HwConfig hw;
};

TEST(SingleOpCircuit, IsAValueDispatchableToAnyCoprocessor)
{
    ServiceRig rig;
    // Compiling the one-node Mult twice yields identical programs and
    // slot schedules: allocation is deterministic accounting.
    compiler::CompilerOptions copts;
    copts.hw = rig.hw;
    const compiler::Circuit mult =
        compiler::singleOpCircuit(compiler::NodeKind::kMult);
    const compiler::CompiledCircuit c1 =
        compiler::compileCircuit(rig.params, mult, copts);
    const compiler::CompiledCircuit c2 =
        compiler::compileCircuit(rig.params, mult, copts);
    ASSERT_EQ(c1.segments.size(), 1u);
    ASSERT_EQ(c2.segments.size(), 1u);
    EXPECT_EQ(c1.segments[0].program, c2.segments[0].program);
    EXPECT_EQ(c1.slot_actions, c2.slot_actions);

    // The compiled value runs on any coprocessor, including one that
    // already ran a different program: the run replays its slots.
    fv::Encryptor encryptor(rig.params, rig.pk, 7);
    const std::vector<Ciphertext> in = {
        encryptor.encrypt(rig.randomPlain(1)),
        encryptor.encrypt(rig.randomPlain(2))};
    hw::Coprocessor cp(rig.params, rig.hw, &rig.rlk);
    compiler::runCompiledCircuit(
        cp,
        compiler::compileCircuit(
            rig.params, compiler::singleOpCircuit(compiler::NodeKind::kAdd),
            copts),
        in);
    const std::vector<Ciphertext> out =
        compiler::runCompiledCircuit(cp, c1, in);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], rig.evaluator->multiply(in[0], in[1], rig.rlk));
}

TEST(SlotReplay, OnANonResetCoprocessorPanics)
{
    ServiceRig rig;
    compiler::CompilerOptions copts;
    copts.hw = rig.hw;
    const compiler::CompiledCircuit add = compiler::compileCircuit(
        rig.params, compiler::singleOpCircuit(compiler::NodeKind::kAdd),
        copts);
    hw::Coprocessor cp(rig.params, rig.hw, &rig.rlk);
    hw::replaySlotActions(cp.memory(), add.slot_actions);
    // cp already holds the schedule: replaying on the non-reset memory
    // file must be rejected, not silently misbind slots.
    EXPECT_THROW(hw::replaySlotActions(cp.memory(), add.slot_actions),
                 PanicError);
}

/** Client workload: submit pairs, remember the evaluator's answers. */
struct ClientRun
{
    std::vector<std::future<Ciphertext>> futures;
    std::vector<Ciphertext> expected;
};

ClientRun
submitMixedOps(ServiceRig &rig, ExecutionService &svc, uint64_t seed,
               size_t ops)
{
    fv::Encryptor encryptor(rig.params, rig.pk, seed);
    ClientRun run;
    for (size_t i = 0; i < ops; ++i) {
        Ciphertext x =
            encryptor.encrypt(rig.randomPlain(seed * 1000 + 2 * i));
        Ciphertext y =
            encryptor.encrypt(rig.randomPlain(seed * 1000 + 2 * i + 1));
        if (i % 2 == 0) {
            run.expected.push_back(
                rig.evaluator->multiply(x, y, rig.rlk));
            run.futures.push_back(
                svc.submit(Op::kMult, std::move(x), std::move(y)));
        } else {
            run.expected.push_back(rig.evaluator->add(x, y));
            run.futures.push_back(
                svc.submit(Op::kAdd, std::move(x), std::move(y)));
        }
    }
    return run;
}

class ServiceMatrix
    : public ::testing::TestWithParam<std::pair<size_t, size_t>>
{
};

TEST_P(ServiceMatrix, ConcurrentClientsGetBitExactResults)
{
    const auto [n_clients, n_workers] = GetParam();
    ServiceRig rig;
    ExecutionService svc(rig.params, rig.rlk,
                         rig.serviceConfig(n_workers));

    const size_t ops_per_client = 4;
    std::vector<ClientRun> runs(n_clients);
    std::vector<std::thread> clients;
    for (size_t c = 0; c < n_clients; ++c) {
        clients.emplace_back([&, c] {
            runs[c] = submitMixedOps(rig, svc, 10 + c, ops_per_client);
        });
    }
    for (std::thread &t : clients)
        t.join();

    fv::Decryptor decryptor(rig.params, fv::SecretKey{rig.sk.s_ntt});
    for (size_t c = 0; c < n_clients; ++c) {
        for (size_t i = 0; i < runs[c].futures.size(); ++i) {
            Ciphertext got = runs[c].futures[i].get();
            // Results are deterministic — bit-exact against the
            // software evaluator — regardless of which worker ran the
            // op or how ops were batched.
            EXPECT_EQ(got, runs[c].expected[i])
                << "client " << c << " op " << i;
            EXPECT_EQ(decryptor.decrypt(got),
                      decryptor.decrypt(runs[c].expected[i]));
        }
    }
    svc.drain();
    ServiceStats stats = svc.stats();
    EXPECT_EQ(stats.ops_completed, n_clients * ops_per_client);
    EXPECT_EQ(stats.ops_rejected, 0u);
    EXPECT_GE(stats.batches, 1u);
    EXPECT_GT(stats.makespan_us, 0.0);
    EXPECT_GT(stats.modeledOpsPerSecond(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    ClientsByWorkers, ServiceMatrix,
    ::testing::Values(std::make_pair(2u, 1u), std::make_pair(2u, 4u),
                      std::make_pair(8u, 1u), std::make_pair(8u, 4u)));

TEST(Service, ResultsIdenticalAcrossWorkerCounts)
{
    ServiceRig rig;
    std::vector<std::vector<Ciphertext>> outcomes;
    for (size_t workers : {1u, 4u}) {
        ExecutionService svc(rig.params, rig.rlk,
                             rig.serviceConfig(workers, 2));
        ClientRun run = submitMixedOps(rig, svc, 5, 6);
        std::vector<Ciphertext> results;
        for (auto &f : run.futures)
            results.push_back(f.get());
        outcomes.push_back(std::move(results));
    }
    ASSERT_EQ(outcomes[0].size(), outcomes[1].size());
    for (size_t i = 0; i < outcomes[0].size(); ++i)
        EXPECT_EQ(outcomes[0][i], outcomes[1][i]) << "op " << i;
}

TEST(Service, ShutdownWhileQueuedFailsFuturesFast)
{
    // Regression: jobs still queued at shutdown must fail with
    // ServiceStoppedError — nothing may hang, and accounting must add
    // up. The service starts paused so the queue is provably deep when
    // shutdown runs.
    ServiceRig rig;
    ServiceConfig cfg = rig.serviceConfig(1, /*max_batch=*/1);
    cfg.start_paused = true;
    ExecutionService svc(rig.params, rig.rlk, cfg);

    fv::Encryptor encryptor(rig.params, rig.pk, 31);
    const size_t submitted = 24;
    std::vector<std::future<Ciphertext>> futures;
    for (size_t i = 0; i < submitted; ++i) {
        futures.push_back(svc.submit(
            Op::kMult, encryptor.encrypt(rig.randomPlain(2 * i)),
            encryptor.encrypt(rig.randomPlain(2 * i + 1))));
    }
    EXPECT_EQ(svc.queueDepth(), submitted);
    svc.shutdown();
    EXPECT_TRUE(svc.stopped());

    size_t completed = 0, rejected = 0;
    for (auto &f : futures) {
        try {
            f.get();
            ++completed;
        } catch (const ServiceStoppedError &) {
            ++rejected;
        }
    }
    EXPECT_EQ(completed + rejected, submitted);
    EXPECT_GE(rejected, 1u) << "queue should not have drained before "
                               "shutdown with a single serial worker";
    ServiceStats stats = svc.stats();
    EXPECT_EQ(stats.ops_completed, completed);
    EXPECT_EQ(stats.ops_rejected, rejected);

    // Submitting after shutdown is refused synchronously.
    EXPECT_THROW(svc.submit(Op::kAdd,
                            encryptor.encrypt(rig.randomPlain(100)),
                            encryptor.encrypt(rig.randomPlain(101))),
                 ServiceStoppedError);
}

TEST(Service, ShutdownIsIdempotentAndDestructorSafe)
{
    ServiceRig rig;
    fv::Encryptor encryptor(rig.params, rig.pk, 37);
    std::future<Ciphertext> orphan;
    {
        ExecutionService svc(rig.params, rig.rlk,
                             rig.serviceConfig(1, 1));
        for (int i = 0; i < 6; ++i) {
            orphan = svc.submit(
                Op::kMult, encryptor.encrypt(rig.randomPlain(50 + i)),
                encryptor.encrypt(rig.randomPlain(60 + i)));
        }
        svc.shutdown();
        svc.shutdown(); // idempotent
    } // destructor runs shutdown again
    // The last-submitted future resolved one way or the other.
    EXPECT_NO_THROW({
        try {
            orphan.get();
        } catch (const ServiceStoppedError &) {
        }
    });
}

TEST(Service, DrainWaitsForQueuedWork)
{
    ServiceRig rig;
    ExecutionService svc(rig.params, rig.rlk, rig.serviceConfig(2));
    fv::Encryptor encryptor(rig.params, rig.pk, 41);
    std::vector<std::future<Ciphertext>> futures;
    for (int i = 0; i < 6; ++i) {
        futures.push_back(svc.submit(
            Op::kAdd, encryptor.encrypt(rig.randomPlain(70 + i)),
            encryptor.encrypt(rig.randomPlain(80 + i))));
    }
    svc.drain();
    EXPECT_EQ(svc.queueDepth(), 0u);
    for (auto &f : futures) {
        EXPECT_EQ(f.wait_for(std::chrono::seconds(0)),
                  std::future_status::ready);
    }
}

TEST(Service, MalformedOperandsRejectedSynchronously)
{
    ServiceRig rig;
    ExecutionService svc(rig.params, rig.rlk, rig.serviceConfig(1));
    fv::Encryptor encryptor(rig.params, rig.pk, 43);
    Ciphertext good = encryptor.encrypt(rig.randomPlain(1));

    Ciphertext three = good;
    three.polys.push_back(good[0]);
    EXPECT_THROW(svc.submit(Op::kAdd, three, good), FatalError);

    // Mismatched parameter set (different q-base size).
    fv::FvConfig other_cfg;
    other_cfg.degree = 256;
    other_cfg.plain_modulus = 4;
    other_cfg.sigma = 3.2;
    other_cfg.q_prime_count = 4;
    auto other = fv::FvParams::create(other_cfg);
    fv::KeyGenerator other_keygen(other, 1);
    fv::Encryptor other_encryptor(
        other, other_keygen.generatePublicKey(
                   other_keygen.generateSecretKey()),
        2);
    Ciphertext alien = other_encryptor.encrypt(rig.randomPlain(2));
    EXPECT_THROW(svc.submit(Op::kAdd, alien, alien), FatalError);
}

TEST(Service, RejectsMismatchedRelinKeys)
{
    ServiceRig rig;
    fv::KeyGenerator keygen(rig.params, 3);
    fv::SecretKey sk = keygen.generateSecretKey();
    fv::RelinKeys positional =
        keygen.generatePositionalRelinKeys(sk, 45);
    EXPECT_THROW(ExecutionService(rig.params, positional,
                                  rig.serviceConfig(1)),
                 FatalError);
}

TEST(Service, BatchingAmortisesModeledDispatch)
{
    // Same 8-Mult workload, batch sizes 1 vs 8: the batched service's
    // modeled makespan must be strictly smaller (back-to-back programs
    // overlap the per-instruction Arm dispatch with compute). The
    // services start paused so the whole workload is queued before the
    // worker's first dequeue — batching width is then deterministic.
    ServiceRig rig;
    double makespan[2];
    int idx = 0;
    for (size_t batch : {1u, 8u}) {
        ServiceConfig cfg = rig.serviceConfig(1, batch);
        cfg.start_paused = true;
        ExecutionService svc(rig.params, rig.rlk, cfg);
        fv::Encryptor encryptor(rig.params, rig.pk, 47);
        std::vector<std::future<Ciphertext>> futures;
        for (int i = 0; i < 8; ++i) {
            futures.push_back(svc.submit(
                Op::kMult, encryptor.encrypt(rig.randomPlain(i)),
                encryptor.encrypt(rig.randomPlain(100 + i))));
        }
        svc.start();
        for (auto &f : futures)
            f.get();
        svc.drain();
        makespan[idx++] = svc.stats().makespan_us;
    }
    EXPECT_LT(makespan[1], makespan[0]);
}

TEST(Service, ModeledClockOfMixedSingleOpsAndCircuitsIsPinned)
{
    // Paper parameters, one worker, everything queued before the first
    // dequeue: Mult, Add, Add, a one-node compiled Add, Add, Mult. The
    // modeled cost must not depend on how single ops are lowered:
    // per-instruction dispatch (Add 5120, Mult 645740 cycles), a fused
    // one-node circuit (4620), 911.424 us of key DMA per Mult and
    // 539.712 us of host transfer per job. At max_batch 8 the batch
    // runs Adds, Mults, then the circuit; every per-instruction run
    // after the first overlaps its dispatch (2 Adds x 1000 + 2 Mults x
    // 45500 cycles = 465 us), and a fused circuit restarts the stream.
    auto params = fv::FvParams::paper();
    fv::KeyGenerator keygen(params, 5);
    const fv::SecretKey sk = keygen.generateSecretKey();
    const fv::RelinKeys rlk = keygen.generateRelinKeys(sk);
    fv::Encryptor encryptor(params, keygen.generatePublicKey(sk), 6);
    const Ciphertext x = encryptor.encrypt(Plaintext{});
    const Ciphertext y = encryptor.encrypt(Plaintext{});

    compiler::CircuitBuilder b;
    const compiler::ValueId in0 = b.input();
    b.output(b.add(in0, b.input()));
    compiler::CompilerOptions copts;
    copts.hw = hw::HwConfig::paper();
    auto add_circuit = std::make_shared<const compiler::CompiledCircuit>(
        compiler::compileCircuit(params, b.build(), copts));

    for (const auto &[max_batch, makespan_us] :
         {std::pair<size_t, double>{1, 11618.42},
          std::pair<size_t, double>{8, 11153.42}}) {
        ServiceConfig cfg;
        cfg.workers = 1;
        cfg.max_batch = max_batch;
        cfg.start_paused = true;
        cfg.verify = compiler::VerifyCheck::kReject;
        ExecutionService svc(params, rlk, cfg);
        std::vector<std::future<Ciphertext>> ops;
        ops.push_back(svc.submit(Op::kMult, x, y));
        ops.push_back(svc.submit(Op::kAdd, x, y));
        ops.push_back(svc.submit(Op::kAdd, x, y));
        auto circuit = svc.submitCompiled(add_circuit, {x, y});
        ops.push_back(svc.submit(Op::kAdd, x, y));
        ops.push_back(svc.submit(Op::kMult, x, y));
        svc.start();
        for (auto &f : ops)
            f.get();
        circuit.get();
        svc.drain();

        const ServiceStats st = svc.stats();
        EXPECT_EQ(st.fpga_cycles, 1311460u) << "max_batch " << max_batch;
        EXPECT_NEAR(st.dma_us, 1822.848, 1e-6);
        EXPECT_NEAR(st.host_us, 3238.272, 1e-6);
        EXPECT_NEAR(st.makespan_us, makespan_us, 1e-6)
            << "max_batch " << max_batch;
        // Single ops are ops, not circuits, and are never counted by
        // admission verification; the submitted circuit is.
        EXPECT_EQ(st.ops_completed, 5u);
        EXPECT_EQ(st.circuits_completed, 1u);
        EXPECT_EQ(st.circuit_nodes_completed, 1u);
        EXPECT_EQ(st.circuits_verified, 1u);
    }
}

TEST(Service, MultiTenantKeySetsStayIsolated)
{
    // Two tenants with independent secret keys on one worker pool: each
    // tenant's Mults must relinearize with *its* keys (a cross-tenant
    // key would decrypt to garbage). start_paused + one worker forces
    // both tenants into one batch, so the worker provably swaps key
    // sets mid-batch.
    ServiceRig rig;
    fv::KeyGenerator keygen_b(rig.params, 777);
    fv::SecretKey sk_b = keygen_b.generateSecretKey();
    fv::PublicKey pk_b = keygen_b.generatePublicKey(sk_b);
    fv::RelinKeys rlk_b = keygen_b.generateRelinKeys(sk_b);

    ServiceConfig cfg = rig.serviceConfig(1, /*max_batch=*/16);
    cfg.start_paused = true;
    ExecutionService svc(rig.params, rig.rlk, cfg);
    const TenantId tenant_b = svc.registerTenant("tenant-b", rlk_b);
    EXPECT_EQ(svc.tenantCount(), 2u);

    fv::Encryptor enc_a(rig.params, rig.pk, 5);
    fv::Encryptor enc_b(rig.params, pk_b, 6);
    std::vector<std::future<Ciphertext>> futures;
    std::vector<Ciphertext> expected;
    for (int i = 0; i < 4; ++i) {
        Ciphertext xa = enc_a.encrypt(rig.randomPlain(100 + i));
        Ciphertext ya = enc_a.encrypt(rig.randomPlain(200 + i));
        expected.push_back(rig.evaluator->multiply(xa, ya, rig.rlk));
        futures.push_back(svc.submit(kDefaultTenant, Op::kMult,
                                     std::move(xa), std::move(ya)));
        Ciphertext xb = enc_b.encrypt(rig.randomPlain(300 + i));
        Ciphertext yb = enc_b.encrypt(rig.randomPlain(400 + i));
        expected.push_back(rig.evaluator->multiply(xb, yb, rlk_b));
        futures.push_back(svc.submit(tenant_b, Op::kMult,
                                     std::move(xb), std::move(yb)));
    }
    svc.start();
    std::vector<Ciphertext> results;
    for (size_t i = 0; i < futures.size(); ++i) {
        results.push_back(futures[i].get());
        EXPECT_EQ(results.back(), expected[i]) << "job " << i;
    }

    // Tenant B's products decrypt under B's secret key to the same
    // plaintext the software evaluator produced with B's keys — proof
    // the worker relinearized them with B's key set, not A's.
    fv::Decryptor dec_b(rig.params, fv::SecretKey{sk_b.s_ntt});
    EXPECT_EQ(dec_b.decrypt(results[1]), dec_b.decrypt(expected[1]));

    svc.drain();
    EXPECT_GE(svc.stats().key_swaps, 1u)
        << "one worker serving two tenants must have re-attached keys";
}

TEST(Service, RejectsCircuitWhoseGaloisKeysTheTenantLacks)
{
    ServiceRig rig;
    ExecutionService svc(rig.params, rig.rlk, rig.serviceConfig(1));

    compiler::CircuitBuilder b;
    const compiler::ValueId x = b.input();
    b.output(b.rotate(x, 1));
    const compiler::Circuit circuit = b.build();
    compiler::CompilerOptions copts;
    copts.hw = rig.hw;
    auto compiled = std::make_shared<const compiler::CompiledCircuit>(
        compiler::compileCircuit(rig.params, circuit, copts));
    ASSERT_FALSE(compiled->galois_elements.empty());

    fv::Encryptor encryptor(rig.params, rig.pk, 51);
    // The default session holds no Galois keys: rejected synchronously.
    EXPECT_THROW(svc.submitCompiled(
                     kDefaultTenant, compiled,
                     {encryptor.encrypt(rig.randomPlain(1))}),
                 FatalError);

    // A session registered with the circuit's keys is accepted, and the
    // result matches the software evaluator. Reseeding the rig's
    // keygen reproduces its secret key, so these Galois keys switch
    // back to the same secret the rig's ciphertexts live under.
    fv::KeyGenerator keygen(rig.params, 99);
    fv::SecretKey sk = keygen.generateSecretKey();
    fv::GaloisKeys gkeys = keygen.generateGaloisKeys(
        sk, compiler::requiredGaloisElements(circuit,
                                             rig.params->degree()));
    const TenantId rotator =
        svc.registerTenant("rotator", rig.rlk, gkeys);
    const std::vector<Ciphertext> inputs = {
        encryptor.encrypt(rig.randomPlain(2))};
    const std::vector<Ciphertext> reference = compiler::evaluateCircuit(
        *rig.evaluator, &rig.rlk, circuit, inputs, &gkeys);
    std::future<std::vector<Ciphertext>> fut =
        svc.submitCompiled(rotator, compiled, inputs);
    EXPECT_EQ(fut.get(), reference);
}

TEST(Service, BoundedTenantQueueShedsOverload)
{
    ServiceRig rig;
    ServiceConfig cfg = rig.serviceConfig(1, /*max_batch=*/1);
    cfg.start_paused = true;
    cfg.max_queue_per_tenant = 4;
    ExecutionService svc(rig.params, rig.rlk, cfg);

    fv::Encryptor encryptor(rig.params, rig.pk, 53);
    std::vector<std::future<Ciphertext>> accepted;
    for (int i = 0; i < 4; ++i) {
        accepted.push_back(svc.submit(
            Op::kAdd, encryptor.encrypt(rig.randomPlain(2 * i)),
            encryptor.encrypt(rig.randomPlain(2 * i + 1))));
    }
    EXPECT_EQ(svc.queueDepth(), 4u);

    // The bound is reached: further submissions shed synchronously.
    for (int i = 0; i < 2; ++i) {
        EXPECT_THROW(
            svc.submit(Op::kAdd, encryptor.encrypt(rig.randomPlain(90)),
                       encryptor.encrypt(rig.randomPlain(91))),
            ServiceOverloadedError);
    }
    EXPECT_EQ(svc.stats().ops_shed, 2u);

    // Shedding is per tenant: another tenant still has headroom.
    const TenantId other = svc.registerTenant("other", rig.rlk);
    std::future<Ciphertext> other_fut =
        svc.submit(other, Op::kAdd, encryptor.encrypt(rig.randomPlain(92)),
                   encryptor.encrypt(rig.randomPlain(93)));

    // Accepted work still completes once the workers run.
    svc.start();
    for (auto &f : accepted)
        EXPECT_NO_THROW(f.get());
    EXPECT_NO_THROW(other_fut.get());
    svc.drain();
    EXPECT_EQ(svc.stats().ops_completed, 5u);
}

TEST(Service, AdmissionRejectsNoiseExhaustedCircuit)
{
    // A squaring chain far beyond the 3-prime budget: no level
    // assignment can rescue it, so kReject admission must refuse it
    // synchronously with the node-level diagnostic.
    ServiceRig rig;
    compiler::CircuitBuilder b;
    const compiler::ValueId x = b.input();
    compiler::ValueId v = x;
    for (int i = 0; i < 8; ++i)
        v = b.square(v);
    b.output(v);
    const compiler::Circuit circuit = b.build();

    fv::Encryptor encryptor(rig.params, rig.pk, 59);

    ServiceConfig cfg = rig.serviceConfig(1);
    cfg.admission = compiler::NoiseCheck::kReject;
    ExecutionService svc(rig.params, rig.rlk, cfg);
    try {
        svc.submitCircuit(kDefaultTenant, circuit,
                          {encryptor.encrypt(rig.randomPlain(1))});
        FAIL() << "expected AdmissionRejectedError";
    } catch (const AdmissionRejectedError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("node"), std::string::npos) << what;
        EXPECT_NE(what.find("bits"), std::string::npos) << what;
    }
    EXPECT_EQ(svc.stats().admission_rejected, 1u);

    // The default (kWarn) policy keeps accepting the same circuit —
    // existing pipelines are unaffected by admission control.
    ExecutionService lenient(rig.params, rig.rlk, rig.serviceConfig(1));
    std::future<std::vector<fv::Ciphertext>> fut = lenient.submitCircuit(
        kDefaultTenant, circuit, {encryptor.encrypt(rig.randomPlain(2))});
    EXPECT_NO_THROW(fut.get());
    EXPECT_EQ(lenient.stats().admission_rejected, 0u);
}

TEST(Service, ResidentCacheIsBitExactAcrossWorkerCounts)
{
    // PIR-flavoured workload: a pinned "database" ciphertext multiplied
    // by fresh per-request queries. Warm runs skip the database upload;
    // results must be bit-identical to cold runs and to the software
    // evaluator at every worker count.
    ServiceRig rig;
    fv::Encryptor encryptor(rig.params, rig.pk, 61);

    compiler::CircuitBuilder b;
    const compiler::ValueId db = b.input();
    const compiler::ValueId query = b.input();
    b.output(b.mult(db, query));
    const compiler::Circuit circuit = b.build();
    compiler::CompilerOptions copts;
    copts.hw = rig.hw;
    copts.resident_inputs = {0};
    auto compiled = std::make_shared<const compiler::CompiledCircuit>(
        compiler::compileCircuit(rig.params, circuit, copts));

    const Ciphertext hot = encryptor.encrypt(rig.randomPlain(7));
    const size_t requests = 6;
    std::vector<Ciphertext> queries;
    std::vector<Ciphertext> expected;
    for (size_t i = 0; i < requests; ++i) {
        queries.push_back(encryptor.encrypt(rig.randomPlain(10 + i)));
        expected.push_back(
            rig.evaluator->multiply(hot, queries.back(), rig.rlk));
    }

    for (size_t workers : {1u, 3u}) {
        ExecutionService svc(rig.params, rig.rlk,
                             rig.serviceConfig(workers, 4));
        const PinnedHandle handle = svc.pinInput(kDefaultTenant, hot);
        const std::vector<PinnedHandle> handles = {handle};

        // An unknown handle is rejected synchronously.
        const std::vector<PinnedHandle> bogus = {handle + 7};
        EXPECT_THROW(svc.submitCompiledResident(kDefaultTenant, compiled,
                                                bogus, {queries[0]}),
                     FatalError);

        std::vector<std::future<std::vector<Ciphertext>>> futures;
        for (size_t i = 0; i < requests; ++i) {
            futures.push_back(svc.submitCompiledResident(
                kDefaultTenant, compiled, handles, {queries[i]}));
        }
        for (size_t i = 0; i < requests; ++i) {
            std::vector<Ciphertext> outs = futures[i].get();
            ASSERT_EQ(outs.size(), 1u);
            EXPECT_EQ(outs[0], expected[i])
                << "workers " << workers << " request " << i;
        }
        svc.drain();
        ServiceStats stats = svc.stats();
        EXPECT_EQ(stats.resident_cold_runs + stats.resident_warm_runs,
                  requests);
        EXPECT_GE(stats.resident_cold_runs, 1u);
        EXPECT_LE(stats.resident_cold_runs, workers);
        if (workers == 1) {
            // One serial worker: exactly one upload of the database,
            // every subsequent request runs warm.
            EXPECT_EQ(stats.resident_cold_runs, 1u);
            EXPECT_EQ(stats.resident_warm_runs, requests - 1);
        }
    }
}

TEST(Service, SnapshotIsInternallyConsistentUnderLoad)
{
    ServiceRig rig;
    ExecutionService svc(rig.params, rig.rlk, rig.serviceConfig(4));

    // An observer thread snapshots continuously while two clients
    // submit. snapshot() captures stats, latency and queue depth under
    // ONE lock acquisition, and workers observe latencies into the
    // histogram BEFORE retiring the batch under that lock — so no
    // snapshot may ever show more completed jobs than latency samples,
    // and the per-unit cycle buckets must sum exactly to fpga_cycles
    // at every instant. (The TSan CI leg runs this suite.)
    std::atomic<bool> done{false};
    std::thread observer([&] {
        while (!done.load(std::memory_order_relaxed)) {
            const ServiceSnapshot snap = svc.snapshot();
            const ServiceStats &st = snap.stats;
            EXPECT_GE(snap.latency.samples,
                      st.ops_completed + st.circuits_completed);
            EXPECT_LE(snap.latency.p50_us, snap.latency.p99_us);
            EXPECT_LE(snap.latency.p99_us, snap.latency.max_us);
            hw::Cycle unit_sum = 0;
            for (hw::Cycle c : st.unit_cycles)
                unit_sum += c;
            EXPECT_EQ(unit_sum, st.fpga_cycles);
            uint64_t tenant_completed = 0;
            uint64_t tenant_arrivals = 0;
            for (const TenantStats &t : st.tenants) {
                tenant_completed += t.completed;
                tenant_arrivals += t.arrivals;
            }
            // Tenant slices retire in the same critical section as the
            // aggregate counters.
            EXPECT_EQ(tenant_completed,
                      st.ops_completed + st.circuits_completed);
            EXPECT_GE(tenant_arrivals, tenant_completed);
            std::this_thread::yield();
        }
    });

    const size_t kClients = 2;
    const size_t kOps = 12;
    std::vector<ClientRun> runs(kClients);
    std::vector<std::thread> clients;
    for (size_t c = 0; c < kClients; ++c)
        clients.emplace_back(
            [&, c] { runs[c] = submitMixedOps(rig, svc, 31 + c, kOps); });
    for (std::thread &t : clients)
        t.join();
    for (ClientRun &r : runs)
        for (auto &f : r.futures)
            f.get();
    svc.drain();
    done.store(true, std::memory_order_relaxed);
    observer.join();

    const ServiceSnapshot fin = svc.snapshot();
    EXPECT_EQ(fin.stats.ops_completed, kClients * kOps);
    EXPECT_EQ(fin.latency.samples, kClients * kOps);
    EXPECT_EQ(fin.queue_depth, 0u);
    ASSERT_EQ(fin.stats.tenants.size(), 1u);
    EXPECT_EQ(fin.stats.tenants[0].arrivals, kClients * kOps);
    EXPECT_EQ(fin.stats.tenants[0].completed, kClients * kOps);
    EXPECT_EQ(fin.stats.tenants[0].shed, 0u);
}

} // namespace
} // namespace heat::service
