#include "check/generators.h"

#include <algorithm>
#include <limits>
#include <sstream>

#include "npu/memory_system.h"
#include "ops/op_factory.h"

namespace opdvfs::check {

namespace {

/** Round to three significant-ish decimals so literals stay readable. */
double
pick(Rng &rng, double lo, double hi)
{
    return rng.uniform(lo, hi);
}

trace::OpRecord
recordFor(const SyntheticOp &op, Tick start, double mhz)
{
    trace::OpRecord r;
    r.op_id = op.id;
    r.type = op.type;
    r.category = op.category;
    r.start = start;
    double seconds = op.durationAt(mhz);
    r.end = start + std::max<Tick>(secondsToTicks(seconds), 1);
    r.duration_s = seconds;
    r.f_mhz = mhz;
    if (op.category == npu::OpCategory::Compute) {
        // Ratio sums above 1 so classification lands on the dominant
        // pipe (core bound vs uncore bound), as in the unit tests.
        if (op.sensitive) {
            r.ratios.cube = 0.95;
            r.ratios.mte2 = 0.30;
        } else {
            r.ratios.mte2 = 0.95;
            r.ratios.vector = 0.30;
        }
    }
    return r;
}

} // namespace

npu::FreqTableConfig
genFreqTableConfig(Rng &rng)
{
    npu::FreqTableConfig config;
    config.step_mhz = static_cast<double>(rng.uniformInt(1, 8)) * 25.0;
    config.min_mhz = static_cast<double>(rng.uniformInt(16, 60)) * 25.0;
    int extra_points = static_cast<int>(rng.uniformInt(1, 8));
    config.max_mhz = config.min_mhz + config.step_mhz * extra_points;
    // Knee anywhere in (or just outside) the range: all-flat and
    // all-linear voltage curves are both legal firmware shapes.
    config.knee_mhz = pick(rng, config.min_mhz - config.step_mhz,
                           config.max_mhz + config.step_mhz);
    config.base_volts = pick(rng, 0.55, 0.9);
    config.volts_per_mhz = pick(rng, 0.0, 0.8e-3);
    return config;
}

npu::NpuConfig
genChipConfig(Rng &rng)
{
    npu::NpuConfig config;
    config.freq = genFreqTableConfig(rng);
    config.initial_mhz = config.freq.max_mhz;

    config.aicore_power.beta = pick(rng, 1.0e-9, 8.0e-9);
    config.aicore_power.theta = pick(rng, 2.0, 15.0);
    config.aicore_power.gamma = pick(rng, 0.05, 0.3);

    config.uncore_power.idle_watts = pick(rng, 60.0, 180.0);
    config.uncore_power.active_watts = pick(rng, 20.0, 90.0);
    config.uncore_power.gamma = pick(rng, 0.3, 1.6);
    config.uncore_power.dynamic_fraction = pick(rng, 0.2, 0.8);

    config.thermal.ambient_celsius = pick(rng, 15.0, 40.0);
    // k * gamma_soc * V stays well under 1: the fix point contracts.
    config.thermal.k_per_watt = pick(rng, 0.05, 0.22);
    config.thermal.time_constant_s = pick(rng, 2.0, 16.0);
    return config;
}

power::CalibratedConstants
genConstants(Rng &rng)
{
    power::CalibratedConstants constants;
    constants.beta_aicore = pick(rng, 1.0e-9, 8.0e-9);
    constants.theta_aicore = pick(rng, 2.0, 15.0);
    constants.beta_soc = constants.beta_aicore + pick(rng, 0.0, 4.0e-9);
    constants.theta_soc = pick(rng, 80.0, 220.0);
    constants.gamma_aicore = pick(rng, 0.05, 0.3);
    constants.gamma_soc = constants.gamma_aicore + pick(rng, 0.2, 1.6);
    constants.k_per_watt = pick(rng, 0.05, 0.22);
    constants.ambient_c = pick(rng, 15.0, 40.0);
    return constants;
}

power::OpPowerModel
genOpPower(Rng &rng)
{
    power::OpPowerModel op;
    op.alpha_aicore = pick(rng, 0.0, 5.0e-10);
    op.alpha_soc = op.alpha_aicore + pick(rng, 0.0, 3.0e-10);
    return op;
}

double
SyntheticOp::durationAt(double mhz) const
{
    if (category != npu::OpCategory::Compute)
        return const_seconds;
    return const_seconds + cycle_seconds_ghz / (mhz / 1000.0);
}

std::vector<trace::OpRecord>
SyntheticWorkload::recordsAt(double mhz) const
{
    std::vector<trace::OpRecord> records;
    records.reserve(ops.size());
    Tick t = 0;
    for (const SyntheticOp &op : ops) {
        records.push_back(recordFor(op, t, mhz));
        t = records.back().end;
    }
    return records;
}

SyntheticWorkload
genSyntheticWorkload(Rng &rng, int min_ops, int max_ops)
{
    SyntheticWorkload workload;
    int count = static_cast<int>(rng.uniformInt(min_ops, max_ops));
    workload.ops.reserve(static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i) {
        SyntheticOp op;
        op.id = static_cast<std::uint64_t>(i);
        double kind = rng.uniform(0.0, 1.0);
        if (kind < 0.70) {
            op.category = npu::OpCategory::Compute;
            op.sensitive = rng.chance(0.6);
            op.type = op.sensitive ? "PropCore" : "PropUncore";
            op.const_seconds = pick(rng, 20e-6, 2e-3);
            // Sensitive ops owe most of their time to core cycles;
            // insensitive (Ld/St-bound) ops keep a small cycle part.
            op.cycle_seconds_ghz = op.sensitive ? pick(rng, 0.5e-3, 8e-3)
                                                : pick(rng, 0.0, 0.2e-3);
        } else if (kind < 0.82) {
            op.category = npu::OpCategory::Aicpu;
            op.type = "PropAicpu";
            op.const_seconds = pick(rng, 0.2e-3, 4e-3);
        } else if (kind < 0.92) {
            op.category = npu::OpCategory::Communication;
            op.type = "PropAllReduce";
            op.const_seconds = pick(rng, 0.2e-3, 6e-3);
        } else {
            op.category = npu::OpCategory::Idle;
            op.type = "PropIdle";
            op.const_seconds = pick(rng, 0.1e-3, 3e-3);
        }
        op.alpha_aicore = pick(rng, 0.0, 5.0e-10);
        op.alpha_soc = op.alpha_aicore + pick(rng, 0.0, 3.0e-10);
        workload.ops.push_back(std::move(op));
    }
    return workload;
}

TinyProblem
genTinyProblem(Rng &rng, int max_stages, int max_freqs, int min_stages)
{
    TinyProblem problem;

    // A small table: 2..max_freqs points.
    problem.freq = genFreqTableConfig(rng);
    int points = static_cast<int>(
        rng.uniformInt(2, std::max(2, max_freqs)));
    problem.freq.max_mhz =
        problem.freq.min_mhz + problem.freq.step_mhz * (points - 1);

    problem.constants = genConstants(rng);
    problem.perf_loss_target = pick(rng, 0.005, 0.08);

    npu::FreqTable table(problem.freq);
    double f_max = table.maxMhz();

    // Alternate sensitivity runs; a tiny FAI keeps every run its own
    // stage, so the stage count is exactly the run count.
    int stage_target = static_cast<int>(
        rng.uniformInt(min_stages, std::max(min_stages, max_stages)));
    std::uint64_t id = 0;
    for (int s = 0; s < stage_target; ++s) {
        int ops_in_stage = static_cast<int>(rng.uniformInt(1, 3));
        bool sensitive = s % 2 == 0;
        for (int o = 0; o < ops_in_stage; ++o) {
            SyntheticOp op;
            op.id = id++;
            op.category = npu::OpCategory::Compute;
            op.sensitive = sensitive;
            op.type = sensitive ? "PropCore" : "PropUncore";
            op.const_seconds = pick(rng, 0.2e-3, 2e-3);
            op.cycle_seconds_ghz = sensitive ? pick(rng, 1e-3, 8e-3)
                                             : pick(rng, 0.0, 0.2e-3);
            op.alpha_aicore = pick(rng, 0.0, 5.0e-10);
            op.alpha_soc = op.alpha_aicore + pick(rng, 0.0, 3.0e-10);
            problem.workload.ops.push_back(std::move(op));
        }
    }

    dvfs::PreprocessOptions prep;
    prep.fai = kTicksPerUs;
    problem.stages =
        dvfs::preprocess(problem.workload.recordsAt(f_max), prep).stages;

    // Two-point noise-free profiles; QuadOverF recovers the synthetic
    // T(f) = const + cycles/f exactly (a = const, c = cycles term).
    problem.perf.addProfile(table.minMhz(),
                            problem.workload.recordsAt(table.minMhz()));
    problem.perf.addProfile(f_max, problem.workload.recordsAt(f_max));
    perf::PerfBuildOptions perf_options;
    perf_options.kind = perf::FitFunction::QuadOverF;
    problem.perf.fitAll(perf_options);

    for (const SyntheticOp &op : problem.workload.ops) {
        power::OpPowerModel pw;
        pw.alpha_aicore = op.alpha_aicore;
        pw.alpha_soc = op.alpha_soc;
        problem.op_power.emplace(op.id, pw);
    }
    return problem;
}

std::vector<trace::OpRecord>
genRecordStream(Rng &rng, int min_ops, int max_ops)
{
    SyntheticWorkload workload = genSyntheticWorkload(rng, min_ops, max_ops);
    return workload.recordsAt(1800.0);
}

dvfs::Strategy
genStrategy(Rng &rng, const npu::FreqTable &table)
{
    std::vector<double> freqs = table.frequenciesMhz();
    dvfs::Strategy strategy;
    int stages = static_cast<int>(rng.uniformInt(1, 8));
    Tick t = static_cast<Tick>(rng.uniformInt(0, 4)) * kTicksPerMs;
    for (int s = 0; s < stages; ++s) {
        dvfs::Stage stage;
        stage.start = t;
        stage.duration =
            static_cast<Tick>(rng.uniformInt(1, 50)) * kTicksPerMs;
        stage.high_frequency = rng.chance(0.5);
        t = stage.start + stage.duration;
        // Occasional gap between stages (merged-out idle tails).
        if (rng.chance(0.3))
            t += static_cast<Tick>(rng.uniformInt(1, 5)) * kTicksPerMs;
        strategy.stages.push_back(std::move(stage));
        strategy.mhz_per_stage.push_back(freqs[rng.index(freqs.size())]);
    }
    strategy.plan.initial_mhz = freqs[rng.index(freqs.size())];
    int triggers = static_cast<int>(rng.uniformInt(0, 6));
    for (int i = 0; i < triggers; ++i) {
        trace::SetFreqTrigger trigger;
        trigger.after_op_index = static_cast<std::size_t>(
            rng.uniformInt(0, 200));
        trigger.mhz = freqs[rng.index(freqs.size())];
        strategy.plan.triggers.push_back(trigger);
    }
    if (rng.chance(0.5)) {
        dvfs::StrategyMeta meta;
        meta.score = rng.uniform(0.0, 50.0);
        meta.pre_refine_score = rng.uniform(0.0, meta.score + 1e-12);
        meta.converged_at = static_cast<int>(rng.uniformInt(0, 600));
        meta.generations = static_cast<int>(rng.uniformInt(0, 600));
        const char *tokens[] = {"cold", "warm-start", "exact-hit",
                                "unknown"};
        meta.provenance = tokens[rng.index(4)];
        meta.fingerprint = static_cast<std::uint64_t>(
            rng.uniformInt(0, std::numeric_limits<std::int64_t>::max()));
        strategy.meta = std::move(meta);
    }
    return strategy;
}

models::Workload
genWorkload(Rng &rng, const npu::MemorySystem &memory, int min_ops,
            int max_ops)
{
    ops::OpFactory factory(memory, rng.fork());
    models::Workload workload;
    workload.name = "prop-workload";
    int count = static_cast<int>(rng.uniformInt(min_ops, max_ops));
    for (int i = 0; i < count; ++i) {
        double kind = rng.uniform(0.0, 1.0);
        if (kind < 0.35) {
            workload.iteration.push_back(factory.matMul(
                static_cast<int>(rng.uniformInt(2, 12)) * 64,
                static_cast<int>(rng.uniformInt(2, 12)) * 64,
                static_cast<int>(rng.uniformInt(2, 12)) * 64));
        } else if (kind < 0.55) {
            workload.iteration.push_back(
                factory.add(rng.uniformInt(1, 48) * (1 << 18)));
        } else if (kind < 0.70) {
            workload.iteration.push_back(
                factory.gelu(rng.uniformInt(1, 48) * (1 << 18)));
        } else if (kind < 0.80) {
            workload.iteration.push_back(factory.layerNorm(
                rng.uniformInt(64, 512), rng.uniformInt(256, 2048)));
        } else if (kind < 0.90) {
            workload.iteration.push_back(
                factory.allReduce(rng.uniformInt(1, 64) * (1 << 20)));
        } else {
            workload.iteration.push_back(
                factory.aicpu("PropAicpu", rng.uniform(0.2e-3, 2e-3)));
        }
    }
    return workload;
}

net::WireRequest
genWireRequest(Rng &rng)
{
    net::WireRequest request;
    npu::NpuConfig chip;
    npu::MemorySystem memory(chip.memory);
    request.chip = chip;
    request.workload = genWorkload(rng, memory, 1, 8);
    request.perf_loss_target = rng.uniform(0.005, 0.5);
    request.seed = static_cast<std::uint64_t>(rng.uniformInt(0, 1LL << 40));
    request.use_cache = rng.chance(0.5);
    request.allow_warm_start = rng.chance(0.5);
    if (rng.chance(0.4))
        request.deadline_ms =
            static_cast<std::uint32_t>(rng.uniformInt(1, 600000));
    return request;
}

std::string
genWireFrame(Rng &rng, const net::WireLimits &limits)
{
    if (rng.chance(0.5))
        return net::frameRequest(genWireRequest(rng), limits);
    net::WireResponse response;
    switch (rng.uniformInt(0, 3)) {
    case 0: {
        response.status = net::Status::Ok;
        npu::FreqTable table(genFreqTableConfig(rng));
        response.strategy = genStrategy(rng, table);
        response.best_score = rng.uniform(0.0, 1.0);
        response.provenance =
            static_cast<serve::Provenance>(rng.uniformInt(0, 3));
        response.similarity = rng.uniform(0.0, 1.0);
        response.generations_run =
            static_cast<std::uint32_t>(rng.uniformInt(0, 200));
        response.generations_saved =
            static_cast<std::uint32_t>(rng.uniformInt(0, 200));
        response.service_seconds = rng.uniform(0.0, 10.0);
        response.fingerprint_digest = static_cast<std::uint64_t>(
            rng.uniformInt(0, 1LL << 50));
        response.model_epoch =
            static_cast<std::uint64_t>(rng.uniformInt(0, 40));
        break;
    }
    case 1:
        response.status = net::Status::Busy;
        response.reject = static_cast<serve::RejectReason>(
            rng.uniformInt(1, 4)); // every rejecting reason
        response.message = "net: admission rejected";
        if (rng.chance(0.7))
            response.retry_after_ms = static_cast<std::uint32_t>(
                rng.uniformInt(0, 60000));
        break;
    case 2:
        response.status = net::Status::Malformed;
        response.message = "wire: truncated u64";
        break;
    default:
        response.status = rng.chance(0.5) ? net::Status::ChipMismatch
                                          : net::Status::Internal;
        response.message = "net: request failed";
        break;
    }
    return net::frameResponse(response, limits);
}

// --- printers ----------------------------------------------------------

std::string
show(const npu::FreqTableConfig &config)
{
    std::ostringstream os;
    os.precision(17);
    os << "FreqTableConfig{min=" << config.min_mhz
       << ", max=" << config.max_mhz << ", step=" << config.step_mhz
       << ", knee=" << config.knee_mhz << ", base_volts="
       << config.base_volts << ", volts_per_mhz=" << config.volts_per_mhz
       << "}";
    return os.str();
}

std::string
show(const npu::NpuConfig &config)
{
    std::ostringstream os;
    os.precision(17);
    os << "NpuConfig{freq=" << show(config.freq)
       << ",\n  aicore{beta=" << config.aicore_power.beta
       << ", theta=" << config.aicore_power.theta
       << ", gamma=" << config.aicore_power.gamma << "}"
       << ",\n  uncore{idle=" << config.uncore_power.idle_watts
       << ", active=" << config.uncore_power.active_watts
       << ", gamma=" << config.uncore_power.gamma
       << ", dyn_frac=" << config.uncore_power.dynamic_fraction << "}"
       << ",\n  thermal{ambient=" << config.thermal.ambient_celsius
       << ", k=" << config.thermal.k_per_watt
       << ", tau=" << config.thermal.time_constant_s << "}}";
    return os.str();
}

std::string
show(const power::CalibratedConstants &constants)
{
    std::ostringstream os;
    os.precision(17);
    os << "CalibratedConstants{beta_aicore=" << constants.beta_aicore
       << ", theta_aicore=" << constants.theta_aicore
       << ", beta_soc=" << constants.beta_soc
       << ", theta_soc=" << constants.theta_soc
       << ", gamma_aicore=" << constants.gamma_aicore
       << ", gamma_soc=" << constants.gamma_soc
       << ", k=" << constants.k_per_watt
       << ", ambient=" << constants.ambient_c << "}";
    return os.str();
}

std::string
show(const SyntheticWorkload &workload)
{
    std::ostringstream os;
    os.precision(17);
    os << "SyntheticWorkload{" << workload.ops.size() << " ops:\n";
    for (const SyntheticOp &op : workload.ops) {
        os << "  {id=" << op.id << ", type=" << op.type
           << ", category=" << static_cast<int>(op.category)
           << ", sensitive=" << op.sensitive
           << ", const_s=" << op.const_seconds
           << ", cycle_s_ghz=" << op.cycle_seconds_ghz
           << ", alpha_aicore=" << op.alpha_aicore
           << ", alpha_soc=" << op.alpha_soc << "}\n";
    }
    os << "}";
    return os.str();
}

std::string
show(const TinyProblem &problem)
{
    std::ostringstream os;
    os.precision(17);
    os << "TinyProblem{freq=" << show(problem.freq)
       << ",\n constants=" << show(problem.constants)
       << ",\n loss_target=" << problem.perf_loss_target
       << ",\n stages=" << problem.stages.size()
       << ",\n workload=" << show(problem.workload) << "}";
    return os.str();
}

std::string
show(const std::vector<trace::OpRecord> &records)
{
    std::ostringstream os;
    os.precision(17);
    os << "Records{" << records.size() << ":\n";
    for (const trace::OpRecord &r : records) {
        os << "  {id=" << r.op_id << ", type=" << r.type
           << ", category=" << static_cast<int>(r.category)
           << ", start=" << r.start << ", end=" << r.end
           << ", cube=" << r.ratios.cube << ", vector=" << r.ratios.vector
           << ", mte2=" << r.ratios.mte2 << "}\n";
    }
    os << "}";
    return os.str();
}

std::string
show(const dvfs::Strategy &strategy)
{
    // The text format *is* the literal: paste into a file to replay.
    std::ostringstream os;
    dvfs::saveStrategy(strategy, os);
    return os.str();
}

std::string
show(const models::Workload &workload)
{
    std::ostringstream os;
    os.precision(17);
    os << "Workload{" << workload.name << ", " << workload.opCount()
       << " ops:\n";
    for (const ops::Op &op : workload.iteration) {
        os << "  {id=" << op.id << ", type=" << op.type
           << ", category=" << static_cast<int>(op.hw.category)
           << ", n=" << op.hw.n << ", core_cycles=" << op.hw.core_cycles
           << ", ld=" << op.hw.ld_volume_bytes
           << ", st=" << op.hw.st_volume_bytes
           << ", fixed_s=" << op.hw.fixed_seconds << "}\n";
    }
    os << "}";
    return os.str();
}

// --- shrinkers ---------------------------------------------------------

std::vector<SyntheticWorkload>
shrinkWorkload(const SyntheticWorkload &w)
{
    std::vector<SyntheticWorkload> out;
    for (std::vector<SyntheticOp> &ops : shrinkVector(w.ops)) {
        SyntheticWorkload smaller;
        smaller.ops = std::move(ops);
        for (std::size_t i = 0; i < smaller.ops.size(); ++i)
            smaller.ops[i].id = i;
        out.push_back(std::move(smaller));
    }
    return out;
}

std::vector<dvfs::Strategy>
shrinkStrategy(const dvfs::Strategy &s)
{
    std::vector<dvfs::Strategy> out;
    // Fewer triggers first: cheaper counterexamples to read.
    for (auto &triggers : shrinkVector(s.plan.triggers)) {
        dvfs::Strategy smaller = s;
        smaller.plan.triggers = std::move(triggers);
        out.push_back(std::move(smaller));
    }
    if (s.stages.size() > 1) {
        for (std::size_t skip = 0; skip < s.stages.size(); ++skip) {
            dvfs::Strategy smaller = s;
            smaller.stages.erase(smaller.stages.begin()
                                 + static_cast<std::ptrdiff_t>(skip));
            smaller.mhz_per_stage.erase(
                smaller.mhz_per_stage.begin()
                + static_cast<std::ptrdiff_t>(skip));
            out.push_back(std::move(smaller));
        }
    }
    if (s.meta) {
        dvfs::Strategy smaller = s;
        smaller.meta.reset();
        out.push_back(std::move(smaller));
    }
    return out;
}

} // namespace opdvfs::check
