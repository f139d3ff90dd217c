/**
 * @file
 * Integration tests of the coprocessor: memory file discipline, program
 * construction (Table II instruction mix), bit-exact golden comparison
 * of the simulated FV.Mult against the software evaluator, end-to-end
 * decryption of hardware-produced ciphertexts, timing against Tables
 * I-II and the two-coprocessor system throughput (Sec. VI-A).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>
#include <vector>

#include "common/panic.h"
#include "compiler/compiler.h"
#include "fv/decryptor.h"
#include "fv/encryptor.h"
#include "fv/evaluator.h"
#include "fv/keygen.h"
#include "hw/arm_host.h"
#include "hw/coprocessor.h"
#include "hw/cost.h"
#include "hw/program_builder.h"
#include "hw/system.h"

namespace heat::hw {
namespace {

using fv::ArithPath;
using fv::Ciphertext;
using fv::Plaintext;

/** Small-ring fixture so functional tests run fast. */
struct SmallRig
{
    SmallRig()
    {
        fv::FvConfig cfg;
        cfg.degree = 256;
        cfg.plain_modulus = 4;
        cfg.sigma = 3.2;
        cfg.q_prime_count = 3;
        params = fv::FvParams::create(cfg);
        keygen = std::make_unique<fv::KeyGenerator>(params, 99);
        sk = keygen->generateSecretKey();
        pk = keygen->generatePublicKey(sk);
        rlk = keygen->generateRelinKeys(sk);
        encryptor = std::make_unique<fv::Encryptor>(params, pk, 100);
        decryptor = std::make_unique<fv::Decryptor>(params, sk);
        evaluator = std::make_unique<fv::Evaluator>(params, ArithPath::kHps);
        // The small base has 3+4 primes -> 4 RPAUs.
        config = HwConfig::paper();
        config.n_rpaus = 4;
    }

    Plaintext
    somePlain(uint64_t seed) const
    {
        Xoshiro256 rng(seed);
        Plaintext p;
        p.coeffs.resize(params->degree());
        for (auto &c : p.coeffs)
            c = rng.uniformBelow(params->plainModulus());
        return p;
    }

    std::shared_ptr<const fv::FvParams> params;
    std::unique_ptr<fv::KeyGenerator> keygen;
    fv::SecretKey sk;
    fv::PublicKey pk;
    fv::RelinKeys rlk;
    std::unique_ptr<fv::Encryptor> encryptor;
    std::unique_ptr<fv::Decryptor> decryptor;
    std::unique_ptr<fv::Evaluator> evaluator;
    HwConfig config;
};

/** FV.Mult with relinearization over operand slots @p a and @p b of
 *  @p cp's memory file (consumed); outputs {c0, c1}. */
Program
emitMult(Coprocessor &cp, std::array<PolyId, 2> a, std::array<PolyId, 2> b)
{
    Program p;
    OpEmitter emitter(cp.params(), cp.memory(), p);
    const OpEmitter::MultResult tensor =
        emitter.emitMult(a, b, /*consume_a=*/true, /*consume_b=*/true,
                         /*want_digits=*/true, /*want_c2=*/false);
    const std::array<PolyId, 2> out =
        emitter.emitRelin(tensor.ct[0], tensor.ct[1], tensor.digits);
    p.outputs = {out[0], out[1]};
    return p;
}

/** The one-node Mult circuit compiled for the paper configuration. */
compiler::CompiledCircuit
compiledPaperMult()
{
    return compiler::compileCircuit(
        fv::FvParams::paper(),
        compiler::singleOpCircuit(compiler::NodeKind::kMult));
}

TEST(MemoryFile, AllocationAccounting)
{
    auto params = fv::FvParams::paper();
    MemoryFile mem(params, HwConfig::paper());
    EXPECT_EQ(mem.capacity(), 84u);
    PolyId a = mem.allocate(BaseTag::kQ);
    EXPECT_EQ(mem.slotsInUse(), 6u);
    PolyId b = mem.allocate(BaseTag::kFull);
    EXPECT_EQ(mem.slotsInUse(), 19u);
    mem.extendToFull(a);
    EXPECT_EQ(mem.slotsInUse(), 26u);
    mem.release(b);
    EXPECT_EQ(mem.slotsInUse(), 13u);
    EXPECT_EQ(mem.peakSlots(), 26u);
    // Released records stay readable.
    EXPECT_NO_THROW(mem.record(b));
    mem.free(a);
    EXPECT_THROW(mem.record(a), PanicError);
}

TEST(MemoryFile, InvalidRecordAccessNamesTheRecord)
{
    auto params = fv::FvParams::paper();
    MemoryFile mem(params, HwConfig::paper());
    const PolyId a = mem.allocate(BaseTag::kQ);

    // Out-of-range id: the error carries the id and the record count.
    try {
        mem.record(a + 41);
        FAIL() << "out-of-range access must throw";
    } catch (const InvalidRecordError &e) {
        EXPECT_EQ(e.id(), a + 41);
        EXPECT_NE(std::string(e.what()).find("records exist"),
                  std::string::npos)
            << e.what();
    }

    // Freed record: same typed error, different cause in the message.
    mem.free(a);
    try {
        mem.record(a);
        FAIL() << "freed-record access must throw";
    } catch (const InvalidRecordError &e) {
        EXPECT_EQ(e.id(), a);
        EXPECT_NE(std::string(e.what()).find("freed"),
                  std::string::npos)
            << e.what();
    }

    // The typed error still is a PanicError, so existing broad
    // handlers keep working.
    EXPECT_THROW(mem.exportPoly(a), PanicError);
}

TEST(MemoryFile, ExhaustionIsFatal)
{
    auto params = fv::FvParams::paper();
    MemoryFile mem(params, HwConfig::paper());
    // 84 slots / 13 per full poly = 6 polys fit, the 7th does not.
    for (int i = 0; i < 6; ++i)
        mem.allocate(BaseTag::kFull);
    EXPECT_THROW(mem.allocate(BaseTag::kFull), FatalError);
}

TEST(MemoryFile, ImportExportRoundTrip)
{
    SmallRig rig;
    MemoryFile mem(rig.params, rig.config);
    ntt::RnsPoly poly(rig.params->qBase(), rig.params->degree());
    Xoshiro256 rng(7);
    for (size_t i = 0; i < poly.residueCount(); ++i) {
        for (auto &x : poly.residue(i))
            x = rng.uniformBelow(rig.params->qBase()->modulus(i).value());
    }
    PolyId id = mem.import(poly, Layout::kNatural);
    EXPECT_EQ(mem.exportPoly(id).data(), poly.data());
}

TEST(MemoryFile, StorageSurvivesReset)
{
    SmallRig rig;
    MemoryFile mem(rig.params, rig.config);
    const PolyId a = mem.allocate(BaseTag::kQ);
    std::fill(mem.record(a).data.begin(), mem.record(a).data.end(), 7);
    const PolyId b = mem.allocate(BaseTag::kQ);
    std::fill(mem.record(b).data.begin(), mem.record(b).data.end(), 9);
    mem.extendToFull(b);
    const size_t n = rig.params->degree();
    const size_t kq = mem.residueCount(BaseTag::kQ);
    const size_t kfull = mem.residueCount(BaseTag::kFull);
    // Views are exact-size; an extension keeps the q residues.
    EXPECT_EQ(mem.record(a).data.size(), kq * n);
    ASSERT_EQ(mem.record(b).data.size(), kfull * n);
    for (size_t j = 0; j < kq * n; ++j)
        ASSERT_EQ(mem.record(b).data[j], 9u) << j;
    const size_t bytes = mem.storageBytes();
    EXPECT_EQ(bytes, (kq + kfull) * n * sizeof(uint64_t));

    // Same shapes after a reset: no new storage, and a zeroed
    // allocation clears the stale words it lands on.
    mem.reset();
    const PolyId z = mem.allocate(BaseTag::kQ, Layout::kNatural, "zero",
                                  /*zeroed=*/true);
    EXPECT_EQ(z, a);
    for (uint64_t w : mem.record(z).data)
        ASSERT_EQ(w, 0u);
    mem.allocate(BaseTag::kFull);
    EXPECT_EQ(mem.storageBytes(), bytes);
}

TEST(MemoryFile, ReplayZeroesExactlyTheZeroedAllocations)
{
    SmallRig rig;
    CountingAllocator counting(*rig.params, rig.config);
    const PolyId plain = counting.allocate(BaseTag::kQ);
    const PolyId zero = counting.allocate(BaseTag::kQ, Layout::kNatural,
                                          "zero constant", true);
    ASSERT_EQ(counting.actions().size(), 2u);
    EXPECT_FALSE(counting.actions()[0].zeroed);
    EXPECT_TRUE(counting.actions()[1].zeroed);

    MemoryFile mem(rig.params, rig.config);
    replaySlotActions(mem, counting.actions());
    for (PolyId id : {plain, zero})
        std::fill(mem.record(id).data.begin(), mem.record(id).data.end(),
                  5);
    mem.reset();
    replaySlotActions(mem, counting.actions());
    for (uint64_t w : mem.record(zero).data)
        ASSERT_EQ(w, 0u);
    // The other record is not cleared: it keeps the stale words.
    EXPECT_EQ(mem.record(plain).data[0], 5u);
}

TEST(CompiledMult, MatchesTableIIInstructionMix)
{
    const compiler::CompiledCircuit mult = compiledPaperMult();
    ASSERT_EQ(mult.segments.size(), 1u);

    std::map<Opcode, int> counts;
    for (const auto &i : mult.segments[0].program.instrs)
        ++counts[i.op];
    // Table II call counts (CoeffAdd: we schedule 14, the paper lists 26).
    EXPECT_EQ(counts[Opcode::kNtt], 14);
    EXPECT_EQ(counts[Opcode::kIntt], 8);
    EXPECT_EQ(counts[Opcode::kCoeffMul], 20);
    EXPECT_EQ(counts[Opcode::kCoeffAdd], 14);
    EXPECT_EQ(counts[Opcode::kRearrange], 22);
    EXPECT_EQ(counts[Opcode::kLift], 4);
    EXPECT_EQ(counts[Opcode::kScale], 3);
    EXPECT_EQ(counts[Opcode::kKeyLoad], 6);
}

TEST(CompiledMult, FitsTheMemoryFile)
{
    const compiler::CompiledCircuit mult = compiledPaperMult();
    // Peak pressure must fit the 84-slot budget of Table IV without
    // spilling.
    EXPECT_EQ(mult.spilled_polys, 0u);
    EXPECT_LE(mult.peak_slots, mult.hw.n_rpaus * mult.hw.slots_per_rpau);
    EXPECT_GE(mult.peak_slots, 70u); // and genuinely tight
}

TEST(CoprocessorFunctional, AddMatchesEvaluator)
{
    SmallRig rig;
    Ciphertext x = rig.encryptor->encrypt(rig.somePlain(1));
    Ciphertext y = rig.encryptor->encrypt(rig.somePlain(2));

    Coprocessor cp(rig.params, rig.config, &rig.rlk);
    std::array<PolyId, 2> a{cp.uploadPoly(x[0]), cp.uploadPoly(x[1])};
    std::array<PolyId, 2> b{cp.uploadPoly(y[0]), cp.uploadPoly(y[1])};
    Program p;
    OpEmitter emitter(cp.params(), cp.memory(), p);
    const std::array<PolyId, 2> sum = emitter.emitAdd(a, b);
    cp.execute(p);

    Ciphertext expect = rig.evaluator->add(x, y);
    EXPECT_EQ(cp.downloadPoly(sum[0]).data(), expect[0].data());
    EXPECT_EQ(cp.downloadPoly(sum[1]).data(), expect[1].data());
}

TEST(CoprocessorFunctional, MultBitExactAgainstEvaluator)
{
    // The coprocessor and the software evaluator share every arithmetic
    // kernel, so the simulated Mult must be bit-identical to the HPS
    // evaluator path.
    SmallRig rig;
    Ciphertext x = rig.encryptor->encrypt(rig.somePlain(3));
    Ciphertext y = rig.encryptor->encrypt(rig.somePlain(4));

    Coprocessor cp(rig.params, rig.config, &rig.rlk);
    std::array<PolyId, 2> a{cp.uploadPoly(x[0]), cp.uploadPoly(x[1])};
    std::array<PolyId, 2> b{cp.uploadPoly(y[0]), cp.uploadPoly(y[1])};
    Program p = emitMult(cp, a, b);
    cp.execute(p);

    Ciphertext expect = rig.evaluator->multiply(x, y, rig.rlk);
    EXPECT_EQ(cp.downloadPoly(p.outputs[0]).data(), expect[0].data());
    EXPECT_EQ(cp.downloadPoly(p.outputs[1]).data(), expect[1].data());
}

TEST(CoprocessorFunctional, MultDecryptsToProduct)
{
    SmallRig rig;
    Plaintext m0 = rig.somePlain(5);
    Plaintext m1 = rig.somePlain(6);
    Ciphertext x = rig.encryptor->encrypt(m0);
    Ciphertext y = rig.encryptor->encrypt(m1);

    Coprocessor cp(rig.params, rig.config, &rig.rlk);
    std::array<PolyId, 2> a{cp.uploadPoly(x[0]), cp.uploadPoly(x[1])};
    std::array<PolyId, 2> b{cp.uploadPoly(y[0]), cp.uploadPoly(y[1])};
    Program p = emitMult(cp, a, b);
    cp.execute(p);

    Ciphertext hw_ct;
    hw_ct.polys.push_back(cp.downloadPoly(p.outputs[0]));
    hw_ct.polys.push_back(cp.downloadPoly(p.outputs[1]));
    Plaintext hw_plain = rig.decryptor->decrypt(hw_ct);

    // Reference product mod (x^n + 1, t).
    const uint64_t t = rig.params->plainModulus();
    const size_t n = rig.params->degree();
    std::vector<uint64_t> expect(n, 0);
    for (size_t i = 0; i < n; ++i) {
        for (size_t j = 0; j < n; ++j) {
            uint64_t prod = m0.coeffs[i] * m1.coeffs[j] % t;
            size_t k = i + j;
            if (k < n)
                expect[k] = (expect[k] + prod) % t;
            else
                expect[k - n] = (expect[k - n] + t - prod) % t;
        }
    }
    for (size_t i = 0; i < n; ++i) {
        uint64_t got = i < hw_plain.coeffs.size() ? hw_plain.coeffs[i] : 0;
        ASSERT_EQ(got, expect[i]) << "coefficient " << i;
    }
}

TEST(CoprocessorFunctional, ProgramReusableAcrossRuns)
{
    // Throughput benches build the program once and re-upload operands.
    SmallRig rig;
    Coprocessor cp(rig.params, rig.config, &rig.rlk);
    ntt::RnsPoly zero(rig.params->qBase(), rig.params->degree());
    std::array<PolyId, 2> a{cp.uploadPoly(zero), cp.uploadPoly(zero)};
    std::array<PolyId, 2> b{cp.uploadPoly(zero), cp.uploadPoly(zero)};
    Program p = emitMult(cp, a, b);

    for (uint64_t round = 0; round < 2; ++round) {
        Ciphertext x = rig.encryptor->encrypt(rig.somePlain(10 + round));
        Ciphertext y = rig.encryptor->encrypt(rig.somePlain(20 + round));
        cp.uploadInto(a[0], x[0]);
        cp.uploadInto(a[1], x[1]);
        cp.uploadInto(b[0], y[0]);
        cp.uploadInto(b[1], y[1]);
        cp.execute(p);

        Ciphertext expect = rig.evaluator->multiply(x, y, rig.rlk);
        EXPECT_EQ(cp.downloadPoly(p.outputs[0]).data(), expect[0].data());
        EXPECT_EQ(cp.downloadPoly(p.outputs[1]).data(), expect[1].data());
    }
}

/** Modeled microseconds of one @p op instruction dispatched on its
 *  own, at the paper configuration. */
double
paperInstructionUs(Opcode op)
{
    Program program;
    program.instrs.resize(1);
    program.instrs[0].op = op;
    const HwConfig config = HwConfig::paper();
    return priceProgram(program, DispatchMode::kPerInstruction,
                        fv::FvParams::paper(), config)
        .totalUs(config);
}

TEST(CoprocessorTiming, TableIIPerInstructionTimes)
{
    // Table II: NTT 73.0, Inverse-NTT 85.0, CMul 13.1, CAdd 13.6,
    // Rearrange 20.8, Lift 82.6, Scale 82.7 (us). Model within ~15%.
    EXPECT_NEAR(paperInstructionUs(Opcode::kNtt), 73.0, 6.0);
    EXPECT_NEAR(paperInstructionUs(Opcode::kIntt), 85.0, 7.0);
    EXPECT_NEAR(paperInstructionUs(Opcode::kCoeffMul), 13.1, 2.0);
    EXPECT_NEAR(paperInstructionUs(Opcode::kCoeffAdd), 13.6, 2.0);
    EXPECT_NEAR(paperInstructionUs(Opcode::kRearrange), 20.8, 3.1);
    EXPECT_NEAR(paperInstructionUs(Opcode::kLift), 82.6, 8.0);
    EXPECT_NEAR(paperInstructionUs(Opcode::kScale), 82.7, 8.0);
}

TEST(CoprocessorTiming, MultMatchesTableI)
{
    // Table I: Mult in HW 5,349,567 Arm cycles = 4.458 ms.
    const compiler::CompiledCircuit mult = compiledPaperMult();
    const double total_us =
        priceProgram(mult.segments.at(0).program,
                     DispatchMode::kPerInstruction, mult.params, mult.hw)
            .totalUs(mult.hw);
    EXPECT_NEAR(total_us / 1000.0, 4.458, 0.45); // within 10%
}

TEST(CoprocessorTiming, AddMatchesTableI)
{
    // Table I: Add in HW 31,339 Arm cycles = 26 us.
    EXPECT_NEAR(2.0 * paperInstructionUs(Opcode::kCoeffAdd), 26.0, 3.0);
}

TEST(ArmHost, TableITransferAndSwAdd)
{
    auto params = fv::FvParams::paper();
    ArmHostModel host(params, HwConfig::paper());
    // Table I: send two ciphertexts 362 us, receive one 180 us,
    // Add in SW 45.57 ms.
    EXPECT_NEAR(host.sendCiphertextsUs(2), 362.0, 15.0);
    EXPECT_NEAR(host.receiveCiphertextUs(), 180.0, 8.0);
    EXPECT_NEAR(host.softwareAddUs() / 1000.0, 45.567, 1.0);
    // The paper: SW add is ~80x slower than HW add incl. transfers.
    const double hw_add_total =
        26.0 + host.sendCiphertextsUs(2) + host.receiveCiphertextUs();
    EXPECT_NEAR(host.softwareAddUs() / hw_add_total, 80.0, 12.0);
}

TEST(HeatSystem, Throughput400MultPerSecond)
{
    // Sec. VI-A: two coprocessors give ~400 Mult/s.
    auto params = fv::FvParams::paper();
    HeatSystem system(params, HwConfig::paper(), 2);
    ThroughputResult r = system.simulate(200);
    EXPECT_NEAR(r.mults_per_second, 400.0, 45.0);
    EXPECT_LT(r.dma_utilization, 1.0);
}

TEST(HeatSystem, TwoCoprocessorsNearlyDoubleThroughput)
{
    auto params = fv::FvParams::paper();
    HeatSystem one(params, HwConfig::paper(), 1);
    HeatSystem two(params, HwConfig::paper(), 2);
    const double t1 = one.simulate(100).mults_per_second;
    const double t2 = two.simulate(100).mults_per_second;
    EXPECT_GT(t2, 1.8 * t1);
    EXPECT_LE(t2, 2.05 * t1);
}

TEST(HeatSystem, TraditionalArchitectureIsSlower)
{
    // Sec. VI-C: the traditional-CRT coprocessor needs 8.3 ms per Mult
    // (225 MHz, 4 Lift/Scale cores) versus 4.458 ms for HPS — slower,
    // but less than 2x because relin keys are 3x smaller. Our model
    // charges the same 6-digit key schedule, so expect <2.2x.
    auto params = fv::FvParams::paper();
    HeatSystem fast(params, HwConfig::paper(), 1);
    HeatSystem slow(params, HwConfig::paperTraditional(), 1);
    const double fast_ms =
        fast.profile().compute_us / 1000.0 +
        fast.profile().key_dma_us * fast.profile().key_segments / 1000.0;
    const double slow_ms =
        slow.profile().compute_us / 1000.0 +
        slow.profile().key_dma_us * slow.profile().key_segments / 1000.0;
    EXPECT_GT(slow_ms, fast_ms);
    EXPECT_LT(slow_ms, 2.2 * fast_ms);
    EXPECT_NEAR(slow_ms, 8.3, 1.2);
}

// --- storage reuse across requests ----------------------------------------
//
// The memory file keeps its record storage across reset() and
// resetToPinned() and does not clear it, so every program must write a
// record before reading it. Each request below runs on one shared
// coprocessor, whose buffers hold every earlier request's words, and
// must be bit-identical to the same request on a fresh coprocessor.

compiler::CompiledCircuit
compileSmall(const SmallRig &rig, const compiler::Circuit &circuit,
             std::vector<uint32_t> resident = {})
{
    compiler::CompilerOptions options;
    options.hw = rig.config;
    options.noise_check = compiler::NoiseCheck::kOff;
    options.resident_inputs = std::move(resident);
    return compiler::compileCircuit(rig.params, circuit, options);
}

/** The depth-4 multiply chain (a * c)^8 with relinearization. */
compiler::Circuit
chainCircuit()
{
    compiler::CircuitBuilder b;
    const compiler::ValueId xa = b.input();
    const compiler::ValueId xc = b.input();
    compiler::ValueId acc = b.mult(xa, xc);
    for (int d = 1; d < 4; ++d)
        acc = b.mult(acc, acc);
    b.output(acc);
    return b.build();
}

constexpr size_t kPirShards = 4;

/** PIR selection sum_k sel_k * db_k + query over resident shards. */
compiler::Circuit
pirCircuit(const SmallRig &rig)
{
    compiler::CircuitBuilder b;
    std::vector<compiler::ValueId> db;
    for (size_t k = 0; k < kPirShards; ++k)
        db.push_back(b.input());
    const compiler::ValueId query = b.input();
    compiler::ValueId acc = compiler::kNoValue;
    for (size_t k = 0; k < kPirShards; ++k) {
        const compiler::ValueId sel =
            b.multPlain(db[k], rig.somePlain(40 + k));
        acc = k == 0 ? sel : b.add(acc, sel);
    }
    b.output(b.add(acc, query));
    return b.build();
}

/** Negation, subtraction and a product: reads the zero constant. */
compiler::Circuit
mixedCircuit()
{
    compiler::CircuitBuilder b;
    const compiler::ValueId x = b.input();
    const compiler::ValueId y = b.input();
    b.output(b.sub(b.negate(b.mult(x, y)), x));
    return b.build();
}

struct StorageRig : SmallRig
{
    StorageRig()
        : chain(compileSmall(*this, chainCircuit())),
          pir(compileSmall(*this, pirCircuit(*this), {0, 1, 2, 3})),
          add(compileSmall(
              *this, compiler::singleOpCircuit(compiler::NodeKind::kAdd))),
          mult(compileSmall(
              *this, compiler::singleOpCircuit(compiler::NodeKind::kMult)))
    {
        for (uint64_t k = 0; k < 2; ++k)
            pair.push_back(encryptor->encrypt(somePlain(50 + k)));
        for (uint64_t k = 0; k <= kPirShards; ++k)
            pir_inputs.push_back(encryptor->encrypt(somePlain(60 + k)));
        warm_query.push_back(encryptor->encrypt(somePlain(70)));
    }

    std::unique_ptr<Coprocessor>
    coprocessor() const
    {
        return std::make_unique<Coprocessor>(params, config, &rlk);
    }

    std::vector<Ciphertext>
    runChain(Coprocessor &cp) const
    {
        return compiler::runCompiledCircuit(cp, chain, pair);
    }

    std::vector<Ciphertext>
    runPirCold(Coprocessor &cp) const
    {
        return compiler::runCompiledCircuit(cp, pir, pir_inputs);
    }

    std::vector<Ciphertext>
    runOne(Coprocessor &cp, const compiler::CompiledCircuit &c) const
    {
        return compiler::runCompiledCircuit(
            cp, c, pair, nullptr, DispatchMode::kPerInstruction);
    }

    std::vector<Ciphertext>
    runOpByOp(Coprocessor &cp) const
    {
        return compiler::runCircuitOpByOp(cp, params, mixedCircuit(),
                                          pair);
    }

    compiler::CompiledCircuit chain, pir, add, mult;
    std::vector<Ciphertext> pair, pir_inputs, warm_query;
};

TEST(StorageReuse, RequestsOnOneCoprocessorMatchFreshCoprocessors)
{
    const StorageRig rig;
    const auto shared = rig.coprocessor();
    const auto fresh = [&] { return rig.coprocessor(); };
    ASSERT_EQ(rig.runChain(*fresh()).size(), 1u);

    EXPECT_TRUE(rig.runChain(*shared) == rig.runChain(*fresh()))
        << "mult4 chain";
    EXPECT_TRUE(rig.runPirCold(*shared) == rig.runPirCold(*fresh()))
        << "PIR cold";
    {
        const auto warm = fresh();
        rig.runPirCold(*warm);
        EXPECT_TRUE(compiler::runCompiledCircuitWarm(*shared, rig.pir,
                                                     rig.warm_query) ==
                    compiler::runCompiledCircuitWarm(*warm, rig.pir,
                                                     rig.warm_query))
            << "PIR warm";
    }
    EXPECT_TRUE(rig.runOne(*shared, rig.add) ==
                rig.runOne(*fresh(), rig.add))
        << "one-node Add";
    EXPECT_TRUE(rig.runOne(*shared, rig.mult) ==
                rig.runOne(*fresh(), rig.mult))
        << "one-node Mult";
    EXPECT_TRUE(rig.runOpByOp(*shared) == rig.runOpByOp(*fresh()))
        << "op-by-op";
    EXPECT_TRUE(rig.runChain(*shared) == rig.runChain(*fresh()))
        << "mult4 chain after every other request";
}

TEST(StorageReuse, SecondIdenticalRequestAddsNoStorage)
{
    const StorageRig rig;
    const auto cp = rig.coprocessor();
    const auto twice = [&](const char *what, const auto &run) {
        run();
        const size_t bytes = cp->memory().storageBytes();
        EXPECT_GT(bytes, 0u) << what;
        run();
        EXPECT_EQ(cp->memory().storageBytes(), bytes) << what;
    };
    twice("mult4 chain", [&] { rig.runChain(*cp); });
    twice("one-node Mult", [&] { rig.runOne(*cp, rig.mult); });
    twice("op-by-op", [&] { rig.runOpByOp(*cp); });
    rig.runPirCold(*cp);
    twice("PIR warm", [&] {
        compiler::runCompiledCircuitWarm(*cp, rig.pir, rig.warm_query);
    });
}

TEST(StorageReuse, IdsFromBeforeAResetStillThrow)
{
    const StorageRig rig;
    const auto cp = rig.coprocessor();
    rig.runChain(*cp);
    const PolyId last = rig.chain.slot_actions.back().id;
    ASSERT_NO_THROW(cp->memory().record(last));
    cp->reset();
    EXPECT_THROW(cp->memory().record(0), InvalidRecordError);
    EXPECT_THROW(cp->memory().record(last), InvalidRecordError);

    rig.runPirCold(*cp);
    const size_t pinned = cp->memory().pinnedRecords();
    ASSERT_EQ(pinned, 2 * kPirShards);
    cp->memory().resetToPinned();
    EXPECT_NO_THROW(cp->memory().record(PolyId(pinned - 1)));
    EXPECT_THROW(cp->memory().record(PolyId(pinned)), InvalidRecordError);
}

TEST(StorageReuse, PinnedDataSurvivesResetToPinned)
{
    const StorageRig rig;
    const auto cp = rig.coprocessor();
    rig.runPirCold(*cp);
    MemoryFile &mem = cp->memory();
    const size_t pinned = mem.pinnedRecords();
    ASSERT_GT(pinned, 0u);
    std::vector<std::vector<uint64_t>> before;
    for (PolyId id = 0; id < pinned; ++id)
        before.emplace_back(mem.record(id).data.begin(),
                            mem.record(id).data.end());

    // Warm reruns reuse every buffer past the prefix.
    for (int round = 0; round < 2; ++round)
        compiler::runCompiledCircuitWarm(*cp, rig.pir, rig.warm_query);
    mem.resetToPinned();
    const PolyId scratch = mem.allocate(BaseTag::kFull);
    EXPECT_EQ(scratch, pinned);
    std::fill(mem.record(scratch).data.begin(),
              mem.record(scratch).data.end(), ~uint64_t(0));
    for (PolyId id = 0; id < pinned; ++id) {
        const std::span<const uint64_t> data = mem.record(id).data;
        EXPECT_TRUE(std::equal(data.begin(), data.end(),
                               before[id].begin(), before[id].end()))
            << "pinned record " << id;
    }
}

} // namespace
} // namespace heat::hw
