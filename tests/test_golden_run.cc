/**
 * Golden fingerprints of the simulator's measured outputs.
 *
 * Every case hashes each field of a measurement result bit for bit
 * (per-operator records and telemetry samples included) and compares
 * the hash with a pinned constant.  Host-side work on the simulator
 * (sim/npu/trace) must leave every constant unchanged; a deliberate
 * modelling change re-pins them, and the failure output prints the
 * observed values in the table's format for that purpose.  The
 * predict-then-refine row pins what the strategy service stores once a
 * background refinement settles; the search rows pin every field of a
 * GaResult, so a change to the GA's host-side work must leave them
 * unchanged as well.  One of them runs the GA directly on a space
 * searchStrategy may enumerate instead, so it pins the GA itself.
 * The store-less row adds a Compute op with a zero store ratio to a
 * run, so the noise stream the warm-up skips is pinned for ops that
 * draw no deviate for a transfer as well.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "calib/drift_loop.h"
#include "cluster/cluster_runner.h"
#include "dvfs/evaluator.h"
#include "dvfs/guard.h"
#include "dvfs/pipeline.h"
#include "models/model_zoo.h"
#include "models/transformer.h"
#include "npu/freq_table.h"
#include "power/offline_calibration.h"
#include "power/power_model.h"
#include "serve/service.h"
#include "trace/workload_runner.h"

namespace opdvfs {
namespace {

/** FNV-1a over the exact bytes of every hashed value. */
class Hasher
{
  public:
    void bytes(const void *data, std::size_t size)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < size; ++i) {
            state_ ^= p[i];
            state_ *= 0x100000001b3ULL;
        }
    }
    void u64(std::uint64_t v) { bytes(&v, sizeof v); }
    void i64(std::int64_t v) { bytes(&v, sizeof v); }
    void f64(double v)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        u64(bits);
    }
    void str(const std::string &s)
    {
        u64(s.size());
        bytes(s.data(), s.size());
    }
    std::uint64_t value() const { return state_; }

  private:
    std::uint64_t state_ = 0xcbf29ce484222325ULL;
};

void
hashRatios(Hasher &h, const npu::PipelineRatios &r)
{
    for (double v : {r.cube, r.vector, r.scalar, r.mte1, r.mte2, r.mte3})
        h.f64(v);
}

std::uint64_t
hashRun(const trace::RunResult &run)
{
    Hasher h;
    h.f64(run.iteration_seconds);
    h.f64(run.aicore_energy_j);
    h.f64(run.soc_energy_j);
    h.f64(run.aicore_avg_w);
    h.f64(run.soc_avg_w);
    h.f64(run.avg_temperature_c);
    h.u64(run.set_freq_count);
    h.u64(run.records.size());
    for (const trace::OpRecord &r : run.records) {
        h.u64(r.op_id);
        h.str(r.type);
        h.i64(static_cast<std::int64_t>(r.category));
        h.i64(r.start);
        h.i64(r.end);
        h.f64(r.duration_s);
        h.f64(r.f_mhz);
        hashRatios(h, r.ratios);
    }
    h.u64(run.samples.size());
    for (const trace::PowerSample &s : run.samples) {
        h.i64(s.tick);
        h.f64(s.soc_watts);
        h.f64(s.aicore_watts);
        h.f64(s.temperature_c);
        h.f64(s.f_mhz);
    }
    return h.value();
}

void
hashFaults(Hasher &h, const npu::FaultCounters &c)
{
    h.u64(c.set_freqs_seen);
    h.u64(c.set_freqs_dropped);
    h.i64(c.jitter_injected);
    h.u64(c.throttle_trips);
    h.u64(c.spurious_trips);
    h.u64(c.throttle_releases);
    h.u64(c.forced_releases);
    h.u64(c.samples_seen);
    h.u64(c.samples_blacked_out);
    h.u64(c.samples_spiked);
}

std::uint64_t
hashGuarded(const dvfs::GuardedRunResult &run)
{
    Hasher h;
    h.u64(run.iterations.size());
    for (const dvfs::GuardedIteration &it : run.iterations) {
        h.f64(it.seconds);
        h.f64(it.loss);
        h.f64(it.temperature_c);
        h.u64(it.telemetry_ok);
        h.u64(it.throttled);
        h.u64(it.strategy_active);
        h.i64(static_cast<std::int64_t>(it.state_after));
        h.u64(it.set_freq_count);
    }
    h.f64(run.baseline_seconds);
    const dvfs::GuardStats &g = run.guard;
    for (std::uint64_t v :
         {g.perf_violations, g.thermal_violations, g.fallbacks, g.reenables,
          g.throttle_resets, g.set_freq_retries, g.set_freq_abandoned,
          g.telemetry_gaps, g.safe_holds, g.rebases})
        h.u64(v);
    hashFaults(h, run.faults);
    return h.value();
}

void
hashTriggers(Hasher &h, const std::vector<trace::SetFreqTrigger> &triggers)
{
    h.u64(triggers.size());
    for (const trace::SetFreqTrigger &t : triggers) {
        h.u64(t.after_op_index);
        h.f64(t.mhz);
    }
}

std::uint64_t
hashPipeline(const dvfs::PipelineResult &result)
{
    Hasher h;
    h.u64(hashRun(result.baseline));
    h.u64(hashRun(result.dvfs));
    const dvfs::GaResult &ga = result.ga;
    h.bytes(ga.best_genome.data(), ga.best_genome.size());
    for (double mhz : ga.best_mhz)
        h.f64(mhz);
    h.f64(ga.best_score);
    for (double score : ga.score_history)
        h.f64(score);
    h.i64(ga.converged_at);
    hashTriggers(h, result.plan.triggers);
    h.f64(result.plan.initial_mhz);
    return h.value();
}

std::uint64_t
hashDriftLoop(const calib::DriftLoopResult &run)
{
    Hasher h;
    h.u64(run.iterations.size());
    for (const calib::DriftIteration &it : run.iterations) {
        for (double v :
             {it.seconds, it.loss, it.aicore_joules, it.soc_joules,
              it.mean_abs_time_residual, it.mean_abs_power_residual,
              it.mean_time_residual, it.mean_power_residual,
              it.mean_thermal_residual})
            h.f64(v);
        h.u64(it.strategy_active);
        h.i64(static_cast<std::int64_t>(it.guard_state));
        h.i64(static_cast<std::int64_t>(it.watchdog_state));
        h.u64(it.verdict.perf);
        h.u64(it.verdict.power);
        h.u64(it.verdict.thermal);
        h.u64(it.recalibrated);
    }
    const calib::WatchdogStats &w = run.watchdog;
    for (std::uint64_t v :
         {w.suspects, w.confirmations, w.recalibrations, w.dismissals})
        h.u64(v);
    h.u64(run.guard.fallbacks);
    h.u64(run.guard.safe_holds);
    h.u64(run.guard.rebases);
    hashFaults(h, run.faults);
    h.f64(run.patch.time_scale_global);
    h.f64(run.patch.power_dynamic_scale);
    h.f64(run.patch.power_static_bias_w);
    h.u64(run.patch.epoch);
    h.f64(run.final_baseline_seconds);
    return h.value();
}

std::uint64_t
hashCluster(const cluster::ClusterRunResult &run)
{
    Hasher h;
    h.f64(run.iteration_seconds);
    h.u64(run.collectives);
    h.f64(run.collective_wait_seconds);
    h.u64(run.devices.size());
    for (const cluster::DeviceResult &d : run.devices) {
        h.f64(d.aicore_avg_w);
        h.f64(d.soc_avg_w);
        h.f64(d.aicore_energy_j);
        h.f64(d.soc_energy_j);
        h.u64(d.set_freq_count);
    }
    return h.value();
}

void
hashEvaluation(Hasher &h, const dvfs::StrategyEvaluation &e)
{
    for (double v : {e.seconds, e.aicore_joules, e.soc_joules,
                     e.aicore_watts, e.soc_watts, e.delta_t})
        h.f64(v);
}

/** Every GaResult field, bit for bit. */
void
hashGa(Hasher &h, const dvfs::GaResult &ga)
{
    h.bytes(ga.best_genome.data(), ga.best_genome.size());
    for (double mhz : ga.best_mhz)
        h.f64(mhz);
    h.f64(ga.best_score);
    hashEvaluation(h, ga.best_eval);
    hashEvaluation(h, ga.baseline_eval);
    for (double score : ga.score_history)
        h.f64(score);
    h.i64(ga.converged_at);
    h.f64(ga.pre_refine_score);
}

std::uint64_t
hashSearch(const dvfs::PipelineOptions &options,
           const models::Workload &workload)
{
    Hasher h;
    hashGa(h, dvfs::EnergyPipeline(options).optimize(workload).ga);
    return h.value();
}

/**
 * geneticSearch on the instance and GA options optimize() would
 * search, whichever route searchStrategy takes for it.
 */
std::uint64_t
hashGeneticSearch(const dvfs::PipelineOptions &options,
                  const models::Workload &workload)
{
    dvfs::PreparedWorkload prepared =
        dvfs::EnergyPipeline(options).prepare(workload);
    npu::FreqTable table(options.chip.freq);
    power::PowerModel power_model(prepared.constants, table);
    dvfs::StageEvaluator evaluator(prepared.prep.stages,
                                   prepared.perf_models, power_model,
                                   prepared.op_power, table);
    dvfs::GaOptions ga = options.ga;
    ga.perf_loss_target = options.perf_loss_target;
    ga.seed = options.seed * 7 + 13;
    Hasher h;
    hashGa(h, dvfs::geneticSearch(evaluator, prepared.prep.stages, ga));
    return h.value();
}

std::uint64_t
hashServed(const serve::StrategyResponse &response,
           const serve::ServiceStats &stats)
{
    Hasher h;
    h.u64(stats.refine_upgrades);
    h.u64(stats.refine_discards);
    h.i64(static_cast<std::int64_t>(response.provenance));
    hashGa(h, response.ga);
    hashTriggers(h, response.strategy.plan.triggers);
    h.f64(response.strategy.plan.initial_mhz);
    if (response.strategy.meta) {
        h.f64(response.strategy.meta->score);
        h.str(response.strategy.meta->provenance);
    }
    return h.value();
}

models::Workload
servedTransformer(const npu::MemorySystem &memory, int seq, int hidden)
{
    models::TransformerConfig model;
    model.name = "golden-serve";
    model.layers = 2;
    model.hidden = hidden;
    model.heads = 8;
    model.seq = seq;
    return models::buildTransformerTraining(memory, model, 5);
}

/**
 * Predict-then-refine through the strategy service: one cold search
 * trains the surrogate, a fresh first contact is served predicted,
 * and the exact hit after the background refinement settles carries
 * what that refinement left in the cache.  The first contact is one
 * whose refinement beats the prediction, so the hash covers the
 * refinement's own search result.
 */
std::uint64_t
hashSettledRefinement(const npu::MemorySystem &memory,
                      const power::CalibratedConstants &constants)
{
    tune::SurrogateOptions surrogate;
    surrogate.min_rows = 1;
    surrogate.refit_interval_rows = 1;
    surrogate.boost_rounds = 6;
    surrogate.quantile_cuts = 4;

    serve::ServiceOptions options;
    options.pipeline.warmup_seconds = 2.0;
    options.pipeline.profile_freqs_mhz = {1000.0, 1800.0};
    options.pipeline.ga.population = 30;
    options.pipeline.ga.generations = 24;
    options.pipeline.ga.refine_sweeps = 2;
    options.pipeline.constants = constants;
    options.workers = 2;
    options.cache.capacity = 32;
    options.surrogate = std::make_shared<tune::Surrogate>(surrogate);
    options.predict_first = true;
    options.refine_generation_fraction = 0.5;
    serve::StrategyService service(options);

    serve::StrategyRequest trainer;
    trainer.workload = servedTransformer(memory, 256, 1024);
    trainer.seed = 3;
    service.submit(trainer).get();

    serve::StrategyRequest fresh;
    fresh.workload = servedTransformer(memory, 300, 768);
    fresh.seed = 5;
    service.submit(fresh).get();
    service.waitForRefines();
    serve::StrategyResponse hit = service.submit(fresh).get();
    return hashServed(hit, service.stats());
}

/** A cyclic three-step strategy: mid-iteration drops, wrap restore. */
std::vector<trace::SetFreqTrigger>
stepTriggers(std::size_t op_count, double initial_mhz)
{
    return {{op_count / 3, 1400.0},
            {(2 * op_count) / 3, 1000.0},
            {op_count - 1, initial_mhz}};
}

/** Every fault class at once, dense enough to fire within seconds. */
npu::FaultPlan
everyFault()
{
    npu::FaultPlan plan;
    plan.seed = 23;
    plan.set_freq_drop_rate = 0.3;
    plan.set_freq_jitter_max = 300 * kTicksPerUs;
    plan.thermal_throttle = true;
    // Just above the die temperature a 2 s warm-up reaches, so the
    // throttle trips and releases on its own as well as spuriously.
    plan.throttle_trip_celsius = 31.6;
    plan.throttle_release_celsius = 31.2;
    plan.spurious_trip_rate_hz = 2.0;
    plan.blackout_rate_hz = 4.0;
    plan.blackout_duration = 20 * kTicksPerMs;
    plan.spike_rate = 0.1;
    plan.aging_dynamic_drift = 0.08;
    plan.sensor_bias_watts = 3.0;
    plan.latency_drift = 0.05;
    plan.ambient_drift_celsius = 1.0;
    plan.drift_start = kTicksPerSecond / 2;
    plan.drift_ramp = kTicksPerSecond;
    return plan;
}

struct GoldenCase
{
    const char *name;
    std::uint64_t expected;
};

/** Observed hash of every case, computed once. */
struct Observed
{
    std::vector<std::pair<std::string, std::uint64_t>> values;

    Observed()
    {
        npu::NpuConfig chip;
        npu::MemorySystem memory(chip.memory);
        trace::WorkloadRunner runner(chip);

        for (const char *model : {"AlexNet", "ResNet50", "BERT"}) {
            models::Workload workload =
                models::buildWorkload(model, memory, 5);
            for (double mhz : {1000.0, 1800.0}) {
                for (bool stepped : {false, true}) {
                    trace::RunOptions options;
                    options.initial_mhz = mhz;
                    options.warmup_seconds = 2.0;
                    options.sample_period = 2 * kTicksPerMs;
                    options.seed = 11;
                    std::vector<trace::SetFreqTrigger> triggers;
                    if (stepped) {
                        triggers = stepTriggers(workload.opCount(), mhz);
                        options.cooldown_seconds = 0.3;
                    }
                    std::string name = std::string(model) + "@"
                        + std::to_string(static_cast<int>(mhz))
                        + (stepped ? "+steps+cooldown" : "");
                    values.emplace_back(
                        name,
                        hashRun(runner.run(workload, options, triggers)));
                }
            }
        }

        // The zoo's Compute ops all load and store.  Append one that
        // stores nothing: its zero store ratio draws no deviate, and the
        // warm-up retires it outside any window hundreds of times, so a
        // skip that miscounts it moves every record after the warm-up.
        models::Workload load_only =
            models::buildWorkload("AlexNet", memory, 5);
        auto compute = std::find_if(
            load_only.iteration.begin(), load_only.iteration.end(),
            [](const ops::Op &op) {
                return op.hw.category == npu::OpCategory::Compute
                       && op.hw.core_cycles > 0.0;
            });
        if (compute != load_only.iteration.end()) {
            ops::Op store_less = *compute;
            store_less.id = load_only.opCount();
            store_less.hw.st_volume_bytes = 0.0;
            load_only.iteration.push_back(store_less);
        }
        trace::RunOptions load_only_options;
        load_only_options.initial_mhz = 1800.0;
        load_only_options.warmup_seconds = 2.0;
        load_only_options.sample_period = 2 * kTicksPerMs;
        load_only_options.seed = 11;
        values.emplace_back("AlexNet+store-less-op@1800",
                            hashRun(runner.run(load_only, load_only_options,
                                               {})));

        models::Workload alexnet = models::buildWorkload("AlexNet", memory, 5);
        std::vector<trace::SetFreqTrigger> steps =
            stepTriggers(alexnet.opCount(), 1800.0);

        npu::NpuConfig faulty = chip;
        faulty.faults = everyFault();
        trace::RunOptions fault_options;
        fault_options.warmup_seconds = 2.0;
        fault_options.sample_period = kTicksPerMs;
        fault_options.cooldown_seconds = 0.2;
        fault_options.seed = 13;
        values.emplace_back("AlexNet+faults",
                            hashRun(trace::WorkloadRunner(faulty).run(
                                alexnet, fault_options, steps)));

        dvfs::GuardedRunOptions guarded;
        guarded.iterations = 16;
        guarded.run.warmup_seconds = 2.0;
        guarded.run.sample_period = kTicksPerMs;
        guarded.run.seed = 17;
        // A baseline the faulted iterations overrun now and then, so
        // the guard falls back and re-enables.
        values.emplace_back(
            "AlexNet+guarded",
            hashGuarded(dvfs::runGuarded(faulty, alexnet, steps,
                                         /*baseline_seconds=*/0.0080,
                                         guarded)));

        // The whole Fig. 1 pipeline, then its strategy under the drift
        // loop with a latency step that forces a recalibration.
        models::Workload resnet = models::buildWorkload("ResNet50", memory, 5);
        dvfs::PipelineOptions pipeline;
        pipeline.chip = chip;
        pipeline.constants = power::calibrateOffline(chip);
        pipeline.warmup_seconds = 2.0;
        pipeline.profile_freqs_mhz = {1000.0, 1400.0, 1800.0};
        pipeline.ga.population = 30;
        pipeline.ga.generations = 24;
        dvfs::PipelineResult optimized =
            dvfs::EnergyPipeline(pipeline).optimize(resnet);
        values.emplace_back("ResNet50+pipeline", hashPipeline(optimized));

        double iteration = optimized.baseline.iteration_seconds;
        npu::NpuConfig drifting = chip;
        drifting.faults.latency_drift = 0.1;
        drifting.faults.drift_start = secondsToTicks(2.0 + 5.0 * iteration);
        calib::DriftLoopOptions loop;
        loop.iterations = 14;
        loop.run.initial_mhz = optimized.plan.initial_mhz;
        loop.run.warmup_seconds = 2.0;
        loop.run.sample_period = kTicksPerMs / 2;
        loop.run.seed = 19;
        loop.recalibrator.min_thermal_samples = 4;
        values.emplace_back(
            "ResNet50+driftloop",
            hashDriftLoop(calib::runDriftLoop(
                drifting, resnet, optimized.perf_models,
                power::PowerModel(optimized.constants,
                                  npu::FreqTable(chip.freq)),
                optimized.op_power, optimized.plan.triggers, iteration,
                loop)));

        cluster::ClusterConfig cluster_config;
        cluster_config.devices = 2;
        cluster_config.chip = chip;
        models::Workload bert = models::buildWorkload("BERT", memory, 5);
        cluster::ClusterRunOptions cluster_options;
        cluster_options.warmup_iterations = 2;
        values.emplace_back(
            "BERT+cluster",
            hashCluster(cluster::ClusterRunner(cluster_config)
                            .run(bert,
                                 {stepTriggers(bert.opCount(), 1800.0),
                                  {}},
                                 cluster_options)));

        values.emplace_back(
            "Transformer+predict+refine",
            hashSettledRefinement(memory, *pipeline.constants));

        // Whole GA searches at the bench options (Sect. 7.4: population
        // 200 x 600 generations, 12 refine sweeps).  First the GPT-3
        // Table 3 anchor row (2%, seed 1, 1326 stages) with
        // bench_table3_end2end's settings.
        dvfs::PipelineOptions table3;
        table3.chip = chip;
        table3.perf_loss_target = 0.02;
        table3.constants = pipeline.constants;
        table3.warmup_seconds = 15.0;
        table3.fit_kind = perf::FitFunction::PwlCycles;
        table3.profile_freqs_mhz = {1000.0, 1400.0, 1800.0};
        table3.preprocess.fai = 5 * kTicksPerMs;
        table3.ga.population = 200;
        table3.ga.generations = 600;
        table3.ga.mutation_rate = 0.15;
        table3.seed = 1;
        values.emplace_back(
            "GPT3+table3+search",
            hashSearch(table3, models::buildWorkload("GPT3", memory, 1)));

        // A one-stage serving first contact (serve-mix's pipeline:
        // 0.5 s warm-up, two profile points) warm-started from one
        // prior individual.
        dvfs::PipelineOptions first_contact = table3;
        first_contact.warmup_seconds = 0.5;
        first_contact.profile_freqs_mhz = {1000.0, 1800.0};
        first_contact.ga.prior_individuals = {{1400.0}};
        first_contact.seed = 5;
        values.emplace_back(
            "Transformer+prior+search",
            hashSearch(first_contact, servedTransformer(memory, 300, 768)));
        values.emplace_back("Transformer+prior+ga",
                            hashGeneticSearch(first_contact,
                                              servedTransformer(memory, 300,
                                                                768)));

        // BERT at the Table 3 GA options, past the enumeration budget.
        dvfs::PipelineOptions bert_search = table3;
        bert_search.warmup_seconds = 2.0;
        bert_search.seed = 3;
        values.emplace_back("BERT+search", hashSearch(bert_search, bert));

        // An odd number of children per generation (31 - 2 elites), so
        // the last pair's second child finds the generation full; its
        // mutation draws still shape every later generation.
        dvfs::PipelineOptions odd = bert_search;
        odd.ga.population = 31;
        odd.ga.generations = 60;
        values.emplace_back("BERT+odd-population+search",
                            hashSearch(odd, bert));
    }
};

const Observed &
observed()
{
    static const Observed value;
    return value;
}

// Pinned from the reference build; see the file comment.
const GoldenCase kGolden[] = {
    {"AlexNet@1000", 0x15c65c954f9278cbULL},
    {"AlexNet@1000+steps+cooldown", 0xb832b8defba1b565ULL},
    {"AlexNet@1800", 0x682413251754552fULL},
    {"AlexNet@1800+steps+cooldown", 0x4a41ceefdb5ac665ULL},
    {"ResNet50@1000", 0xc6b287c357621565ULL},
    {"ResNet50@1000+steps+cooldown", 0x49c8370bfbb216adULL},
    {"ResNet50@1800", 0xc0e5cd6d0750a8a6ULL},
    {"ResNet50@1800+steps+cooldown", 0x57b43151af45c723ULL},
    {"BERT@1000", 0x3fb3a1147b57a82dULL},
    {"BERT@1000+steps+cooldown", 0xb2bcd77f047de429ULL},
    {"BERT@1800", 0x89530197b5ea0e15ULL},
    {"BERT@1800+steps+cooldown", 0xacdb6885ccdff888ULL},
    {"AlexNet+store-less-op@1800", 0x0ea181e9fad6c781ULL},
    {"AlexNet+faults", 0xfcec94359f025360ULL},
    {"AlexNet+guarded", 0xb0a1217c957a5f80ULL},
    {"ResNet50+pipeline", 0x418509ed6c2d61f3ULL},
    {"ResNet50+driftloop", 0x0092dbfa74116337ULL},
    {"BERT+cluster", 0xc3f8b62aba5f0acaULL},
    {"Transformer+predict+refine", 0x4ca0141d46f76ef6ULL},
    {"GPT3+table3+search", 0xb56dd3c044ca50c5ULL},
    {"Transformer+prior+search", 0xc2cf9cef74929fd8ULL},
    {"Transformer+prior+ga", 0xc2cf9cef74929fd8ULL},
    {"BERT+search", 0x37e4884f113f79d3ULL},
    {"BERT+odd-population+search", 0xb0f5205d8fc01945ULL},
};

TEST(GoldenRun, EveryFingerprintMatchesThePinnedValue)
{
    const auto &values = observed().values;
    std::string table;
    for (const auto &[name, hash] : values) {
        char line[128];
        std::snprintf(line, sizeof line, "    {\"%s\", 0x%016llxULL},\n",
                      name.c_str(), static_cast<unsigned long long>(hash));
        table += line;
    }

    ASSERT_EQ(std::size(kGolden), values.size())
        << "observed fingerprints:\n" << table;
    for (std::size_t i = 0; i < values.size(); ++i) {
        EXPECT_EQ(values[i].first, kGolden[i].name);
        EXPECT_EQ(values[i].second, kGolden[i].expected)
            << values[i].first << " observed 0x" << std::hex
            << values[i].second;
    }
    if (HasFailure())
        std::printf("observed fingerprints:\n%s", table.c_str());
}

} // namespace
} // namespace opdvfs
