/**
 * @file
 * The closed-loop workloads: set-up from the seed, the timed loop,
 * result checking, and the end-to-end and service-layer metrics.
 *
 * Every workload drives service::ExecutionService with three workers
 * and three tenants, each tenant with its own keys. One generator
 * thread keeps a fixed number of requests outstanding and stamps each
 * request when its future becomes ready (polled, not waited in
 * submission order). Every result is compared bit for bit with a
 * reference computed at set-up, and every reference is decrypted once
 * and compared with the plaintext result computed in the clear.
 */

#include <sys/prctl.h>
#include <sys/resource.h>

#include <array>
#include <cmath>
#include <cstdio>
#include <future>
#include <optional>
#include <random>
#include <stdexcept>

#include "compiler/attribution.h"
#include "compiler/circuit.h"
#include "compiler/noise_pass.h"
#include "fv/decryptor.h"
#include "fv/encryptor.h"
#include "fv/evaluator.h"
#include "fv/keygen.h"
#include "perfbench.h"
#include "service/service.h"
#include "verify/verify.h"

namespace perfbench {

namespace {

using namespace heat;
using std::chrono::microseconds;

constexpr size_t kWorkers = 3;
constexpr size_t kTenants = 3;
/** Full set-ups per run; setup_s is their median. */
constexpr int kSetups = 3;
/** mult4 chain depth (multiplications per request). */
constexpr int kChainDepth = 4;
constexpr size_t kPirShards = 8;
/** ops_mix issues blocks of kMixBlock requests with one Mult each. */
constexpr size_t kMixBlock = 4;
/** Requests of the timed loop that record spans (keeps traces small). */
constexpr uint64_t kTracedRequests = 2000;

enum class Kind
{
    kMult4,
    kPir8,
    kOpsMix
};

struct Spec
{
    const char *name;
    Kind kind;
    /** Requests kept outstanding. */
    size_t outstanding;
    /** Completion-poll period: bounds the latency stamp error. */
    microseconds poll;
    /** Operand cases encrypted per tenant. */
    size_t cases;
};

const Spec kSpecs[] = {
    {"mult4", Kind::kMult4, 3, microseconds(200), 2},
    {"pir8", Kind::kPir8, 6, microseconds(10), 4},
    {"ops_mix", Kind::kOpsMix, 6, microseconds(10), 2},
};

const Spec &
specFor(const std::string &name)
{
    for (const Spec &s : kSpecs)
        if (name == s.name)
            return s;
    throw std::invalid_argument("unknown workload '" + name + "'");
}

/** One request's operands and the bit-exact results expected of it. */
struct Case
{
    /** Request inputs (pir8: the query only; the shards are pinned). */
    std::vector<fv::Ciphertext> inputs;
    /** Expected outputs (ops_mix: {Add, Mult}; else the one output). */
    std::vector<fv::Ciphertext> reference;
};

struct Tenant
{
    service::TenantId id = service::kDefaultTenant;
    fv::RelinKeys rlk;
    std::vector<Case> cases;
    /** pir8: this tenant's encrypted database shards. */
    std::vector<fv::Ciphertext> shards;
    std::vector<service::PinnedHandle> handles;
};

/** Per-layer set-up timings (ms per call). */
struct SetupTimes
{
    double keygen_ms = 0.0;
    double encrypt_ms = 0.0;
    double decrypt_ms = 0.0;
};

/** Everything a workload holds between set-up and the timed loop. */
struct Rig
{
    std::shared_ptr<const fv::FvParams> params;
    compiler::Circuit circuit;
    /** mult4 / pir8: the circuit compiled once for the service. */
    std::shared_ptr<const compiler::CompiledCircuit> compiled;
    std::vector<Tenant> tenants;
    /** Declared after the tenants so it shuts down first. */
    std::unique_ptr<service::ExecutionService> svc;
    SetupTimes times;
    double setup_s = 0.0;
    /** ops_mix: modeled cycles of one Add and one Mult served alone. */
    std::array<hw::Cycle, 2> op_cycles{};
    /** Warm-up results that did not match their reference. */
    size_t warmup_mismatches = 0;
};

std::shared_ptr<const fv::FvParams>
paramsFor(Kind kind)
{
    if (kind != Kind::kPir8)
        return fv::FvParams::paper(2);
    // The small serving ring: the 8-shard resident prefix does not fit
    // the memory file at n = 4096.
    fv::FvConfig cfg;
    cfg.degree = 256;
    cfg.plain_modulus = 257;
    cfg.sigma = 3.2;
    cfg.q_prime_count = 3;
    return fv::FvParams::create(cfg);
}

/** The depth-4 multiply chain: (a * c)^8 with relinearization. */
compiler::Circuit
chainCircuit()
{
    compiler::CircuitBuilder b;
    const compiler::ValueId xa = b.input();
    const compiler::ValueId xc = b.input();
    compiler::ValueId acc = b.mult(xa, xc);
    for (int d = 1; d < kChainDepth; ++d)
        acc = b.mult(acc, acc);
    b.output(acc);
    return b.build();
}

/** The 8-shard PIR circuit: sum_k sel_k * db_k + query. */
compiler::Circuit
pirCircuit(const std::vector<fv::Plaintext> &selectors)
{
    compiler::CircuitBuilder b;
    std::vector<compiler::ValueId> db;
    for (size_t k = 0; k < kPirShards; ++k)
        db.push_back(b.input());
    const compiler::ValueId query = b.input();
    compiler::ValueId acc = compiler::kNoValue;
    for (size_t k = 0; k < kPirShards; ++k) {
        const compiler::ValueId sel = b.multPlain(db[k], selectors[k]);
        acc = k == 0 ? sel : b.add(acc, sel);
    }
    b.output(b.add(acc, query));
    return b.build();
}

/** One-node circuit of a single Add or Mult (ops_mix replay). */
compiler::Circuit
oneNode(bool mult)
{
    compiler::CircuitBuilder b;
    const compiler::ValueId x = b.input();
    const compiler::ValueId y = b.input();
    b.output(mult ? b.mult(x, y) : b.add(x, y));
    return b.build();
}

/** Negacyclic product of two plaintexts mod t (x^n + 1). */
fv::Plaintext
mulPlain(const fv::FvParams &params, const fv::Plaintext &a,
         const fv::Plaintext &b)
{
    const size_t n = params.degree();
    const uint64_t t = params.plainModulus();
    // Terms of x^k, k < 2n; sums of n products below t^2 fit 64 bits
    // for every ring the benchmark uses.
    std::vector<uint64_t> acc(2 * n, 0);
    for (size_t i = 0; i < n; ++i) {
        const uint64_t ai = a.coeffs[i] % t;
        if (ai == 0)
            continue;
        uint64_t *row = acc.data() + i;
        for (size_t j = 0; j < n; ++j)
            row[j] += ai * (b.coeffs[j] % t);
    }
    fv::Plaintext out;
    out.coeffs.resize(n);
    for (size_t k = 0; k < n; ++k) // x^n = -1
        out.coeffs[k] = (acc[k] % t + t - acc[k + n] % t) % t;
    return out;
}

/** Peak resident set of this process, MiB. */
double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

fv::Plaintext
addPlain(const fv::FvParams &params, const fv::Plaintext &a,
         const fv::Plaintext &b)
{
    const uint64_t t = params.plainModulus();
    fv::Plaintext out;
    out.coeffs.resize(params.degree());
    for (size_t i = 0; i < out.coeffs.size(); ++i)
        out.coeffs[i] = (a.coeffs[i] + b.coeffs[i]) % t;
    return out;
}

/** Runs @p fn and adds its wall ms to @p acc_ms. */
template <typename F>
auto
timed(double &acc_ms, F &&fn)
{
    const Clock::time_point t0 = Clock::now();
    auto result = fn();
    acc_ms += msBetween(t0, Clock::now());
    return result;
}

/** Draws tenant, case and (ops_mix) operation of each request. */
class RequestPicker
{
  public:
    RequestPicker(uint64_t seed, size_t cases)
        : rng_(seed * 0x9E3779B97F4A7C15ull + 0x5EED), cases_(cases)
    {
    }

    struct Pick
    {
        size_t tenant;
        size_t item;
        /** ops_mix: 0 = Add, 1 = Mult. */
        size_t op;
    };

    Pick
    next()
    {
        // ops_mix: exactly one Mult per block of kMixBlock, at a
        // random position, so any whole number of blocks has the 3:1
        // mix and a per-request modeled cost independent of run length.
        if (block_pos_ == 0)
            mult_pos_ = rng_() % kMixBlock;
        const size_t op = block_pos_ == mult_pos_ ? 1 : 0;
        block_pos_ = (block_pos_ + 1) % kMixBlock;
        const size_t tenant = rng_() % kTenants;
        return {tenant, static_cast<size_t>(rng_() % cases_), op};
    }

    /** True at a block boundary (the ops_mix stopping point). */
    bool atBlockStart() const { return block_pos_ == 0; }

  private:
    std::mt19937_64 rng_;
    size_t cases_;
    size_t block_pos_ = 0;
    size_t mult_pos_ = 0;
};

using Pick = RequestPicker::Pick;

/** The future of one submitted request, single-op or circuit. */
struct Pending
{
    std::future<fv::Ciphertext> op;
    std::future<std::vector<fv::Ciphertext>> circuit;

    bool
    ready() const
    {
        return op.valid() ? op.wait_for(microseconds(0)) ==
                                std::future_status::ready
                          : circuit.wait_for(microseconds(0)) ==
                                std::future_status::ready;
    }

    void
    waitFor(microseconds d) const
    {
        if (op.valid())
            op.wait_for(d);
        else
            circuit.wait_for(d);
    }

    /** @return the single output (throws what the job threw). */
    fv::Ciphertext
    get()
    {
        if (op.valid())
            return op.get();
        std::vector<fv::Ciphertext> outs = circuit.get();
        if (outs.size() != 1)
            throw std::runtime_error("expected one circuit output");
        return std::move(outs[0]);
    }
};

const Case &
caseOf(const Rig &rig, const Pick &pick)
{
    return rig.tenants[pick.tenant].cases[pick.item];
}

const fv::Ciphertext &
referenceOf(const Rig &rig, const Pick &pick)
{
    const Case &c = caseOf(rig, pick);
    return c.reference[c.reference.size() == 1 ? 0 : pick.op];
}

/** Submit one request; @p inputs is the caller's marshaled copy. */
Pending
submit(Kind kind, Rig &rig, const Pick &pick,
       std::vector<fv::Ciphertext> inputs)
{
    const Tenant &t = rig.tenants[pick.tenant];
    Pending p;
    switch (kind) {
      case Kind::kMult4:
        p.circuit =
            rig.svc->submitCompiled(t.id, rig.compiled, std::move(inputs));
        break;
      case Kind::kPir8:
        p.circuit = rig.svc->submitCompiledResident(
            t.id, rig.compiled, t.handles, std::move(inputs));
        break;
      case Kind::kOpsMix:
        p.op = rig.svc->submit(
            t.id, pick.op == 0 ? service::Op::kAdd : service::Op::kMult,
            std::move(inputs[0]), std::move(inputs[1]));
        break;
    }
    return p;
}

/** Submit @p pick, wait for it, and compare with its reference. */
bool
serveChecked(Kind kind, Rig &rig, const Pick &pick)
{
    return submit(kind, rig, pick, caseOf(rig, pick).inputs).get() ==
           referenceOf(rig, pick);
}

/**
 * One full set-up: keys, operands, references (checked against the
 * cleartext), circuit compile, service, tenants, pinning and one
 * warm-up request per worker. Spans go on the set-up track.
 */
std::unique_ptr<Rig>
setUp(const Spec &spec, uint64_t seed, SpanLog &spans)
{
    const Clock::time_point start = Clock::now();
    const double start_us = obs::wallNowUs();
    auto rig = std::make_unique<Rig>();
    // Children are recorded as they finish; the set-up span itself is
    // recorded last under an id reserved now.
    const uint64_t root = spans.reserve();
    const auto span = [&](const char *name, const char *layer,
                          double t0_us) {
        spans.add(name, layer, root, 0, kSetupTrack, t0_us,
                  obs::wallNowUs());
    };

    rig->params = paramsFor(spec.kind);
    const fv::FvParams &params = *rig->params;
    Xoshiro256 rng(seed * 1000003 + 17);
    std::vector<fv::Plaintext> selectors;
    if (spec.kind == Kind::kPir8) {
        for (size_t k = 0; k < kPirShards; ++k)
            selectors.push_back(randomPlain(params, rng));
        rig->circuit = pirCircuit(selectors);
    } else {
        rig->circuit = chainCircuit();
    }

    const fv::Evaluator evaluator(rig->params);
    SetupTimes &times = rig->times;
    size_t encrypts = 0, decrypts = 0;
    bool references_ok = true;
    rig->tenants.resize(kTenants);
    for (size_t ti = 0; ti < kTenants; ++ti) {
        Tenant &tenant = rig->tenants[ti];
        double t0_us = obs::wallNowUs();
        fv::KeyGenerator keygen(rig->params, seed * 131 + ti);
        fv::SecretKey sk;
        fv::PublicKey pk;
        timed(times.keygen_ms, [&] {
            sk = keygen.generateSecretKey();
            pk = keygen.generatePublicKey(sk);
            tenant.rlk = keygen.generateRelinKeys(sk);
            return 0;
        });
        span("keygen", "fv", t0_us);
        fv::Encryptor encryptor(rig->params, pk, seed * 7919 + ti);
        const fv::Decryptor decryptor(rig->params, sk);
        const auto encrypt = [&](const fv::Plaintext &p) {
            ++encrypts;
            return timed(times.encrypt_ms,
                         [&] { return encryptor.encrypt(p); });
        };
        const auto check = [&](const fv::Ciphertext &ct,
                               const fv::Plaintext &expected) {
            ++decrypts;
            fv::Plaintext got = timed(times.decrypt_ms,
                                      [&] { return decryptor.decrypt(ct); });
            got.coeffs.resize(params.degree(), 0);
            references_ok = references_ok && got == expected;
        };

        t0_us = obs::wallNowUs();
        std::vector<fv::Plaintext> shard_plain;
        for (size_t k = 0; spec.kind == Kind::kPir8 && k < kPirShards;
             ++k) {
            shard_plain.push_back(randomPlain(params, rng));
            tenant.shards.push_back(encrypt(shard_plain.back()));
        }
        for (size_t ci = 0; ci < spec.cases; ++ci) {
            Case c;
            const fv::Plaintext pa = randomPlain(params, rng);
            c.inputs.push_back(encrypt(pa));
            if (spec.kind == Kind::kPir8) {
                std::vector<fv::Ciphertext> all = tenant.shards;
                all.push_back(c.inputs[0]);
                c.reference = compiler::evaluateCircuit(
                    evaluator, &tenant.rlk, rig->circuit, all);
                fv::Plaintext expected = pa;
                for (size_t k = 0; k < kPirShards; ++k)
                    expected = addPlain(
                        params, expected,
                        mulPlain(params, selectors[k], shard_plain[k]));
                check(c.reference[0], expected);
            } else {
                const fv::Plaintext pb = randomPlain(params, rng);
                c.inputs.push_back(encrypt(pb));
                fv::Plaintext product = mulPlain(params, pa, pb);
                fv::Ciphertext acc =
                    evaluator.multiply(c.inputs[0], c.inputs[1], tenant.rlk);
                if (spec.kind == Kind::kOpsMix) {
                    c.reference = {evaluator.add(c.inputs[0], c.inputs[1]),
                                   acc};
                    check(c.reference[0], addPlain(params, pa, pb));
                    check(c.reference[1], product);
                } else {
                    for (int d = 1; d < kChainDepth; ++d) {
                        acc = evaluator.multiply(acc, acc, tenant.rlk);
                        product = mulPlain(params, product, product);
                    }
                    c.reference = {acc};
                    check(c.reference[0], product);
                }
            }
            tenant.cases.push_back(std::move(c));
        }
        span("operands+references", "fv", t0_us);
    }
    if (!references_ok)
        throw std::runtime_error(
            "a set-up reference does not decrypt to its cleartext result");
    times.keygen_ms /= kTenants;
    times.encrypt_ms /= static_cast<double>(encrypts);
    times.decrypt_ms /= static_cast<double>(decrypts);

    service::ServiceConfig cfg;
    cfg.workers = kWorkers;
    double t0_us = obs::wallNowUs();
    if (spec.kind != Kind::kOpsMix) {
        compiler::CompilerOptions opts;
        opts.hw = cfg.hw;
        for (uint32_t k = 0; spec.kind == Kind::kPir8 && k < kPirShards; ++k)
            opts.resident_inputs.push_back(k);
        rig->compiled = std::make_shared<const compiler::CompiledCircuit>(
            compiler::compileCircuit(rig->params, rig->circuit, opts));
        span("compile", "compiler", t0_us);
    }

    t0_us = obs::wallNowUs();
    rig->svc = std::make_unique<service::ExecutionService>(
        rig->params, rig->tenants[0].rlk, cfg);
    for (size_t ti = 1; ti < kTenants; ++ti)
        rig->tenants[ti].id = rig->svc->registerTenant(
            "tenant" + std::to_string(ti), rig->tenants[ti].rlk);
    for (Tenant &t : rig->tenants)
        for (const fv::Ciphertext &ct : t.shards)
            t.handles.push_back(rig->svc->pinInput(t.id, ct));
    span("service+tenants", "service", t0_us);

    t0_us = obs::wallNowUs();
    if (spec.kind == Kind::kOpsMix) {
        // One Add and one Mult served alone: their modeled cycles are
        // the per-op baseline of the modeled-clock self-check.
        for (size_t op = 0; op < 2; ++op) {
            const hw::Cycle before = rig->svc->snapshot().stats.fpga_cycles;
            if (!serveChecked(spec.kind, *rig, Pick{0, 0, op}))
                ++rig->warmup_mismatches;
            rig->svc->drain();
            rig->op_cycles[op] =
                rig->svc->snapshot().stats.fpga_cycles - before;
        }
    }
    // One warm-up request per worker, submitted together.
    std::vector<std::pair<Pick, Pending>> warm;
    for (size_t w = 0; w < kWorkers; ++w) {
        const Pick pick{w % kTenants, 0, w % 2};
        warm.emplace_back(pick, submit(spec.kind, *rig, pick,
                                       caseOf(*rig, pick).inputs));
    }
    for (auto &[pick, p] : warm)
        if (!(p.get() == referenceOf(*rig, pick)))
            ++rig->warmup_mismatches;
    rig->svc->drain();
    span("warm-up", "service", t0_us);

    rig->setup_s = msBetween(start, Clock::now()) / 1e3;
    spans.addReserved(root, "setup", "bench", 0, 0, kSetupTrack, start_us,
                      obs::wallNowUs());
    return rig;
}

/** What the timed loop observed. */
struct LoopStats
{
    std::vector<double> latency_ms;
    std::vector<double> submit_us;
    double queue_depth_sum = 0.0;
    uint64_t attempted = 0;
    uint64_t completed = 0;
    uint64_t failed = 0;
    uint64_t mismatched = 0;
    /** Requests that returned a result, per op (ops_mix: {Add, Mult};
     *  mismatched results included — they ran). */
    std::array<uint64_t, 2> executed_by_op{};
    double wall_s = 0.0;
    service::ServiceStats before;
    service::ServiceStats after;
};

/** One outstanding request of the closed loop. */
struct InFlight
{
    uint64_t id = 0;
    Pick pick{};
    Clock::time_point t_submit;
    double submit_start_us = 0.0;
    double submit_end_us = 0.0;
    Pending pending;
};

/**
 * Closed loop against the service: keep spec.outstanding requests in
 * flight until @p seconds have passed (ops_mix: until the current
 * block of four is issued), then let the outstanding ones finish.
 * Each in-flight slot is one span track.
 */
LoopStats
serviceLoop(const Spec &spec, Rig &rig, uint64_t seed, double seconds,
            SpanLog &spans)
{
    // Timer slack well under the poll period, so completion stamps are
    // accurate to about spec.poll.
    prctl(PR_SET_TIMERSLACK, 1000UL, 0UL, 0UL, 0UL);
    LoopStats st;
    RequestPicker picker(seed, spec.cases);
    std::vector<std::optional<InFlight>> slots(spec.outstanding);
    uint64_t next_id = 1;
    bool issuing = true;
    st.before = rig.svc->snapshot().stats;
    const Clock::time_point t_start = Clock::now();
    const Clock::time_point deadline =
        t_start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(seconds));
    Clock::time_point t_last = t_start;

    const auto complete = [&](size_t slot) {
        InFlight &f = *slots[slot];
        const Clock::time_point t_done = Clock::now();
        const double done_us = obs::wallNowUs();
        t_last = t_done;
        try {
            const fv::Ciphertext out = f.pending.get();
            ++st.executed_by_op[f.pick.op];
            if (out == referenceOf(rig, f.pick)) {
                ++st.completed;
                st.latency_ms.push_back(msBetween(f.t_submit, t_done));
            } else {
                ++st.mismatched;
                ++st.failed;
            }
        } catch (...) {
            ++st.failed; // the job failed or was stopped
        }
        if (f.id <= kTracedRequests) {
            const auto track = static_cast<uint32_t>(slot);
            const uint64_t req = spans.add("request", "bench", 0, f.id,
                                           track, f.submit_start_us,
                                           done_us);
            spans.add("submit", "service", req, f.id, track,
                      f.submit_start_us, f.submit_end_us);
            spans.add("wait", "service", req, f.id, track,
                      f.submit_end_us, done_us);
        }
        slots[slot].reset();
    };

    for (;;) {
        for (size_t s = 0; s < slots.size() && issuing; ++s) {
            if (slots[s])
                continue;
            if (Clock::now() >= deadline &&
                (spec.kind != Kind::kOpsMix || picker.atBlockStart())) {
                issuing = false;
                break;
            }
            InFlight f;
            f.id = next_id++;
            f.pick = picker.next();
            std::vector<fv::Ciphertext> inputs = caseOf(rig, f.pick).inputs;
            st.queue_depth_sum +=
                static_cast<double>(rig.svc->queueDepth());
            ++st.attempted;
            f.submit_start_us = obs::wallNowUs();
            f.t_submit = Clock::now();
            try {
                f.pending = submit(spec.kind, rig, f.pick, std::move(inputs));
            } catch (const service::ServiceOverloadedError &) {
                ++st.failed;
                continue;
            } catch (const service::AdmissionRejectedError &) {
                ++st.failed;
                continue;
            } catch (const service::ServiceStoppedError &) {
                ++st.failed;
                continue;
            }
            st.submit_us.push_back(msBetween(f.t_submit, Clock::now()) *
                                   1e3);
            f.submit_end_us = obs::wallNowUs();
            slots[s] = std::move(f);
        }

        bool waiting = false, completed = false;
        std::optional<size_t> oldest;
        for (size_t s = 0; s < slots.size(); ++s) {
            if (!slots[s])
                continue;
            if (slots[s]->pending.ready()) {
                complete(s);
                completed = true;
                continue;
            }
            waiting = true;
            if (!oldest || slots[s]->id < slots[*oldest]->id)
                oldest = s;
        }
        if (!waiting && !completed && !issuing)
            break;
        if (!completed && oldest)
            slots[*oldest]->pending.waitFor(spec.poll);
    }
    rig.svc->drain();
    st.after = rig.svc->snapshot().stats;
    st.wall_s = msBetween(t_start, t_last) / 1e3;
    return st;
}

/** Round a modeled figure to 1e-6 of its unit: the modeled clock is
 *  deterministic, but float sums taken in worker order differ in the
 *  last bits. */
double
roundModeled(double v)
{
    return std::round(v * 1e6) / 1e6;
}

/** Median of the compile, noise-pass and verify steps over a few
 *  repeats of compiling @p circuits. */
void
probeCompiler(const Rig &rig, const std::vector<compiler::Circuit> &circuits,
              Metrics &out, SpanLog &spans)
{
    constexpr int kRepeats = 5;
    std::vector<double> compile, noise, verify;
    compiler::CompilerOptions opts;
    opts.verify = compiler::VerifyCheck::kOff; // timed on its own below
    for (int r = 0; r < kRepeats; ++r) {
        double c_ms = 0.0, n_ms = 0.0, v_ms = 0.0;
        for (const compiler::Circuit &circuit : circuits) {
            const double t0_us = obs::wallNowUs();
            const compiler::CompiledCircuit cc = timed(c_ms, [&] {
                return compiler::compileCircuit(rig.params, circuit, opts);
            });
            timed(n_ms, [&] {
                return compiler::estimateCircuitNoise(rig.params, circuit);
            });
            const verify::VerifyResult vr = timed(
                v_ms, [&] { return verify::verifyCompiledCircuit(cc); });
            if (!vr.ok())
                throw std::runtime_error("static verifier rejected a "
                                         "benchmark circuit:\n" +
                                         vr.report());
            spans.add("compile+noise+verify", "compiler", 0, 0, kProbeTrack,
                      t0_us, obs::wallNowUs());
        }
        compile.push_back(c_ms);
        noise.push_back(n_ms);
        verify.push_back(v_ms);
    }
    out.set("compiler.compile_ms", median(compile), "ms");
    out.set("compiler.noise_pass_ms", median(noise), "ms");
    out.set("verify.verify_ms", median(verify), "ms");
}

/** Service-stat differences over the timed loop. */
struct ServiceDelta
{
    hw::Cycle fpga_cycles = 0;
    std::array<hw::Cycle, hw::kUnitCount> unit_cycles{};
    double dma_us = 0.0;
    double host_us = 0.0;
    /** Jobs completed (single ops and circuits). */
    uint64_t jobs = 0;
    uint64_t failed = 0;
    uint64_t batches = 0;
    uint64_t key_swaps = 0;
    uint64_t warm = 0;
    uint64_t cold = 0;
    uint64_t verified = 0;

    ServiceDelta(const service::ServiceStats &a,
                 const service::ServiceStats &b)
        : fpga_cycles(a.fpga_cycles - b.fpga_cycles),
          dma_us(a.dma_us - b.dma_us), host_us(a.host_us - b.host_us),
          jobs(a.ops_completed + a.circuits_completed - b.ops_completed -
               b.circuits_completed),
          failed(a.ops_failed - b.ops_failed),
          batches(a.batches - b.batches),
          key_swaps(a.key_swaps - b.key_swaps),
          warm(a.resident_warm_runs - b.resident_warm_runs),
          cold(a.resident_cold_runs - b.resident_cold_runs),
          verified(a.circuits_verified - b.circuits_verified)
    {
        for (size_t u = 0; u < hw::kUnitCount; ++u)
            unit_cycles[u] = a.unit_cycles[u] - b.unit_cycles[u];
    }
};

/** The per-layer metrics of a traced run. */
void
perLayerMetrics(const Spec &spec, const Rig &rig,
                const std::vector<SetupTimes> &times, const LoopStats &st,
                const ServiceDelta &d, uint64_t seed, RunResult &result,
                SpanLog &spans)
{
    Metrics &m = result.metrics;
    const double jobs = static_cast<double>(d.jobs);
    const auto ratio = [](double num, double den) {
        return den > 0.0 ? num / den : 0.0;
    };
    m.set("service.submit_us", median(st.submit_us), "us");
    m.set("service.queue_depth_mean",
          ratio(st.queue_depth_sum, static_cast<double>(st.attempted)),
          "count");
    m.set("service.batch_size_mean",
          ratio(static_cast<double>(d.jobs + d.failed),
                static_cast<double>(d.batches)),
          "count");
    m.set("service.key_swaps_per_req",
          ratio(static_cast<double>(d.key_swaps), jobs), "count");
    m.set("service.resident_warm_frac",
          ratio(static_cast<double>(d.warm),
                static_cast<double>(d.warm + d.cold)),
          "frac");
    // Single ops are not verified at admission: 0 on ops_mix.
    m.set("service.verify_cache_hit_frac",
          spec.kind == Kind::kOpsMix
              ? 0.0
              : 1.0 - ratio(static_cast<double>(d.verified), jobs),
          "frac");

    std::vector<compiler::Circuit> circuits = {rig.circuit};
    if (spec.kind == Kind::kOpsMix)
        circuits = {oneNode(false), oneNode(true)};
    probeCompiler(rig, circuits, m, spans);
    std::vector<double> keygen, encrypt, decrypt;
    for (const SetupTimes &t : times) {
        keygen.push_back(t.keygen_ms);
        encrypt.push_back(t.encrypt_ms);
        decrypt.push_back(t.decrypt_ms);
    }
    m.set("fv.keygen_ms", median(keygen), "ms");
    m.set("fv.encrypt_ms", median(encrypt), "ms");
    m.set("fv.decrypt_ms", median(decrypt), "ms");

    for (size_t u = 0; u < hw::kUnitCount; ++u) {
        const auto unit = static_cast<hw::Unit>(u);
        if (unit == hw::Unit::kDmaUnit)
            continue; // DMA is modeled in us: hw.dma_us_per_req
        m.set(std::string("hw.cycles_per_req.") + hw::unitName(unit),
              roundModeled(static_cast<double>(d.unit_cycles[u]) / jobs),
              "cycles");
    }
    m.set("hw.dma_us_per_req", roundModeled(d.dma_us / jobs), "model_us");
    m.set("hw.host_us_per_req", roundModeled(d.host_us / jobs), "model_us");
    m.set("hw.mult_model_error_pct", multModelErrorPct(seed), "%");

    // Traced replay of one request (ops_mix: one block of 3 Add + 1
    // Mult) on a private coprocessor.
    const Tenant &t = rig.tenants[0];
    const Case &c = t.cases[0];
    std::vector<ReplayCase> cases;
    if (spec.kind == Kind::kOpsMix) {
        for (size_t k = 0; k < kMixBlock; ++k)
            cases.push_back(ReplayCase{
                std::make_shared<const compiler::CompiledCircuit>(
                    compiler::compileCircuit(rig.params,
                                             oneNode(k + 1 == kMixBlock))),
                c.inputs});
    } else {
        std::vector<fv::Ciphertext> all = t.shards;
        all.insert(all.end(), c.inputs.begin(), c.inputs.end());
        cases.push_back(ReplayCase{rig.compiled, all});
    }
    const ReplayBreakdown rb = replayRequests(cases, t.rlk, 2.0, spans);
    if (!rb.bit_equal) {
        std::fprintf(stderr, "perfbench: traced replay differs from "
                             "runCompiledCircuit\n");
        result.correct = false;
    }
    for (size_t u = 0; u < hw::kUnitCount; ++u) {
        const auto unit = static_cast<hw::Unit>(u);
        // DMA and Arm dispatch are modeled only; no opcode runs there.
        if (unit == hw::Unit::kDmaUnit || unit == hw::Unit::kArmUnit)
            continue;
        m.set(std::string("hw.wall_ms.") + hw::unitName(unit),
              rb.unit_ms[u], "ms");
    }
    m.set("hw.wall_ms.slots", rb.slots_ms, "ms");
    m.set("hw.wall_ms.upload", rb.upload_ms, "ms");
    m.set("hw.wall_ms.download", rb.download_ms, "ms");
    m.set("hw.wall_ms.unattributed", rb.unattributed_ms, "ms");
    m.set("hw.wall_ms.request", rb.whole_ms, "ms");
    m.set("hw.wall_per_modeled", rb.whole_ms * 1e3 / rb.modeled_us, "x");

    probeKernels(seed, m, spans);
}

} // namespace

RunResult
runWorkload(const RunOptions &options, SpanLog &spans)
{
    const Spec &spec = specFor(options.workload);
    RunResult result;

    // Several full set-ups; the last one serves the timed loop.
    std::vector<double> setup_s;
    std::vector<SetupTimes> times;
    std::unique_ptr<Rig> rig;
    for (int i = 0; i < kSetups; ++i) {
        rig.reset();
        rig = setUp(spec, options.seed, spans);
        setup_s.push_back(rig->setup_s);
        times.push_back(rig->times);
    }
    if (rig->warmup_mismatches > 0) {
        std::fprintf(stderr,
                     "perfbench: %zu warm-up result(s) differ from their "
                     "reference\n",
                     rig->warmup_mismatches);
        result.correct = false;
    }

    const LoopStats st =
        serviceLoop(spec, *rig, options.seed, options.seconds, spans);
    result.attempted = st.attempted;
    result.failed = st.failed;
    if (st.mismatched > 0) {
        std::fprintf(stderr,
                     "perfbench: %llu result(s) differ from their "
                     "reference\n",
                     static_cast<unsigned long long>(st.mismatched));
        result.correct = false;
    }
    if (st.attempted != st.completed + st.failed)
        throw std::logic_error("attempted != completed + failed");
    if (st.completed == 0)
        throw std::runtime_error("no request completed in the timed loop");

    // Modeled-clock self-check: the service's cycles equal the
    // compile-time attribution (circuits) or the single-op baselines
    // (ops_mix) times the requests that ran.
    const ServiceDelta d(st.after, st.before);
    const uint64_t ran = st.executed_by_op[0] + st.executed_by_op[1];
    const hw::Cycle expected =
        spec.kind == Kind::kOpsMix
            ? rig->op_cycles[0] * st.executed_by_op[0] +
                  rig->op_cycles[1] * st.executed_by_op[1]
            : compiler::attributeCompiledCircuit(*rig->compiled)
                      .total_cycles *
                  ran;
    hw::Cycle unit_sum = 0;
    for (hw::Cycle c : d.unit_cycles)
        unit_sum += c;
    if (d.fpga_cycles != expected || unit_sum != d.fpga_cycles ||
        d.jobs != ran) {
        std::fprintf(stderr,
                     "perfbench: modeled-clock self-check failed: %llu "
                     "fpga cycles, expected %llu\n",
                     static_cast<unsigned long long>(d.fpga_cycles),
                     static_cast<unsigned long long>(expected));
        result.correct = false;
    }

    if (options.trace) {
        perLayerMetrics(spec, *rig, times, st, d, options.seed, result,
                        spans);
        return result;
    }
    const hw::HwConfig &hwc = rig->svc->config().hw;
    const double modeled_us =
        hwc.cyclesToUs(d.fpga_cycles) + d.dma_us + d.host_us;
    Metrics &m = result.metrics;
    m.set("setup_s", median(setup_s), "s");
    m.set("req_per_s", static_cast<double>(st.completed) / st.wall_s, "1/s");
    m.set("wall_p50_ms", quantile(st.latency_ms, 0.5), "ms");
    m.set("wall_p90_ms", quantile(st.latency_ms, 0.9), "ms");
    m.set("modeled_us_per_req",
          roundModeled(modeled_us / static_cast<double>(d.jobs)),
          "model_us");
    m.set("success_rate",
          static_cast<double>(st.completed) /
              static_cast<double>(st.attempted),
          "frac");
    m.set("peak_rss_mb", peakRssMb(), "MB");
    std::fprintf(stderr,
                 "perfbench: %s seed %llu: %llu attempted, %llu completed, "
                 "error_rate %.6f, %zu latency samples\n",
                 spec.name, static_cast<unsigned long long>(options.seed),
                 static_cast<unsigned long long>(st.attempted),
                 static_cast<unsigned long long>(st.completed),
                 static_cast<double>(st.failed) /
                     static_cast<double>(st.attempted),
                 st.latency_ms.size());
    return result;
}

} // namespace perfbench
