/**
 * @file
 * Cold-path latency benchmark: what does the surrogate pre-ranker buy
 * on first contact?
 *
 * Three arms over the same evaluation workloads, same seeds:
 *
 *   1. cold      — full pipeline (profile + full-budget GA), the
 *                  baseline the paper's offline generator pays on
 *                  every new workload.
 *   2. seeded    — surrogate-seeded GA: the prediction joins the
 *                  initial population and the budget is halved; shows
 *                  how much search the prior replaces at equal final
 *                  quality.
 *   3. predict   — the serving-path predict-then-refine mode: the
 *                  response returns after profile + one model
 *                  evaluation (provenance "predicted"), the refinement
 *                  runs asynchronously and upgrades the cache.
 *
 * The surrogate is trained online by a warm-up service that solves a
 * disjoint training set first — exactly the production sequence.
 *
 * Emits BENCH_cold.json.  Exit code asserts the PR's acceptance
 * criteria: predict-first p50 at least 2x below cold p50, refined
 * (or predicted, when the refinement could not improve it) score
 * within 1% of the pure cold-GA score.
 */

#include <algorithm>
#include <chrono>
#include <iostream>
#include <map>
#include <memory>
#include <vector>

#include "bench_common.h"
#include "dvfs/evaluator.h"
#include "dvfs/genetic.h"
#include "models/transformer.h"
#include "npu/freq_table.h"
#include "power/power_model.h"
#include "serve/service.h"
#include "tune/features.h"
#include "tune/surrogate.h"

namespace {

using Clock = std::chrono::steady_clock;

double
millisSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
}

double
percentile(std::vector<double> values, double fraction)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    std::size_t at = static_cast<std::size_t>(
        fraction * static_cast<double>(values.size() - 1));
    return values[at];
}

opdvfs::models::Workload
benchWorkload(const opdvfs::npu::MemorySystem &memory, int seq, int hidden)
{
    opdvfs::models::TransformerConfig model;
    model.name = "cold-bench";
    model.layers = 2;
    model.hidden = hidden;
    model.heads = 8;
    model.seq = seq;
    return opdvfs::models::buildTransformerTraining(memory, model, 5);
}

} // namespace

int
main()
{
    using namespace opdvfs;
    bench::banner("cold-path latency: surrogate predict-then-refine",
                  "service-layer extension of the paper's Sect. 6 "
                  "strategy generator");

    constexpr std::uint64_t kSeed = 11;
    constexpr double kLossTarget = 0.02;
    constexpr int kFullGenerations = 600;

    npu::NpuConfig chip = bench::standardChip();
    npu::MemorySystem memory(chip.memory);

    // Disjoint training and evaluation sets: the surrogate never sees
    // an evaluation workload before predicting it.
    std::vector<models::Workload> train_set;
    for (int seq : {128, 160, 192, 224, 256, 512})
        train_set.push_back(benchWorkload(memory, seq, 1024));
    train_set.push_back(benchWorkload(memory, 192, 768));
    std::vector<models::Workload> eval_set;
    for (int seq : {288, 352, 448})
        eval_set.push_back(benchWorkload(memory, seq, 1024));

    serve::ServiceOptions base;
    base.pipeline = bench::standardPipeline(kLossTarget);
    base.pipeline.warmup_seconds = 0.5;
    base.pipeline.profile_freqs_mhz = {1000.0, 1800.0};
    // Paper Sect. 7.4 search budget: the GA, not the profiling, must
    // dominate the cold path — that is the cost the surrogate removes.
    base.pipeline.ga.population = 200;
    base.pipeline.ga.generations = kFullGenerations;
    base.workers = 2;

    tune::SurrogateOptions surrogate_options;
    surrogate_options.min_rows = 4;
    surrogate_options.refit_interval_rows = 8;
    auto surrogate = std::make_shared<tune::Surrogate>(surrogate_options);

    // --- warm-up: train the surrogate from real finished searches ------
    std::cout << "training: " << train_set.size()
              << " cold searches feed the surrogate corpus\n";
    {
        serve::ServiceOptions train_options = base;
        train_options.surrogate = surrogate;
        serve::StrategyService trainer(train_options);
        for (const models::Workload &workload : train_set) {
            serve::StrategyRequest request;
            request.workload = workload;
            request.seed = kSeed;
            request.perf_loss_target = kLossTarget;
            request.allow_warm_start = false; // full searches only
            trainer.submit(request).get();
        }
        trainer.drain();
    }
    if (!surrogate->ready()) {
        std::cerr << "surrogate failed to train\n";
        return 1;
    }

    // --- arm 1: cold (full pipeline, no cache/donor help) --------------
    std::vector<double> cold_ms;
    std::map<std::size_t, double> cold_score;
    {
        serve::StrategyService cold(base);
        for (std::size_t at = 0; at < eval_set.size(); ++at) {
            serve::StrategyRequest request;
            request.workload = eval_set[at];
            request.seed = kSeed;
            request.perf_loss_target = kLossTarget;
            request.allow_warm_start = false;
            Clock::time_point start = Clock::now();
            serve::StrategyResponse response =
                cold.submit(request).get();
            cold_ms.push_back(millisSince(start));
            cold_score[at] = response.ga.best_score;
        }
        cold.drain();
    }

    // --- arm 2: surrogate-seeded GA at half budget ----------------------
    std::vector<double> seeded_ms;
    double seeded_ratio_min = 1e300;
    {
        dvfs::PipelineOptions pipeline_options = base.pipeline;
        pipeline_options.seed = kSeed;
        pipeline_options.perf_loss_target = kLossTarget;
        dvfs::EnergyPipeline pipeline(pipeline_options);
        npu::FreqTable table(chip.freq);
        for (std::size_t at = 0; at < eval_set.size(); ++at) {
            Clock::time_point start = Clock::now();
            dvfs::PreparedWorkload prepared =
                pipeline.prepare(eval_set[at]);
            power::PowerModel power_model(prepared.constants, table);
            dvfs::StageEvaluator evaluator(prepared.prep.stages,
                                           prepared.perf_models,
                                           power_model,
                                           prepared.op_power, table);
            std::vector<tune::StageSample> rows = tune::extractStageRows(
                eval_set[at], chip, kLossTarget, prepared.prep);
            tune::PredictedStrategy predicted = tune::predictStrategy(
                *surrogate, rows, evaluator, kLossTarget);

            dvfs::GaOptions ga_options = pipeline_options.ga;
            ga_options.perf_loss_target = kLossTarget;
            ga_options.seed = kSeed * 7 + 13; // the pipeline derivation
            ga_options.generations = kFullGenerations / 2;
            ga_options.prior_individuals.push_back(predicted.mhz);
            dvfs::GaResult seeded = dvfs::searchStrategy(
                evaluator, prepared.prep.stages, ga_options);
            seeded_ms.push_back(millisSince(start));
            seeded_ratio_min = std::min(
                seeded_ratio_min, seeded.best_score / cold_score[at]);
        }
    }

    // --- arm 3: predict-then-refine serving -----------------------------
    std::vector<double> predict_ms;
    double refined_ratio_min = 1e300;
    std::uint64_t refine_upgrades = 0;
    std::uint64_t refine_discards = 0;
    {
        serve::ServiceOptions predict_options = base;
        predict_options.surrogate = surrogate;
        predict_options.predict_first = true;
        predict_options.refine_generation_fraction = 0.5;
        serve::StrategyService service(predict_options);
        for (std::size_t at = 0; at < eval_set.size(); ++at) {
            serve::StrategyRequest request;
            request.workload = eval_set[at];
            request.seed = kSeed;
            request.perf_loss_target = kLossTarget;
            Clock::time_point start = Clock::now();
            serve::StrategyResponse response =
                service.submit(request).get();
            double ms = millisSince(start);
            if (response.provenance != serve::Provenance::Predicted) {
                std::cerr << "eval workload " << at
                          << " was not served from the surrogate\n";
                return 1;
            }
            predict_ms.push_back(ms);
        }
        // The refined (or kept-predicted) entries are the ones later
        // exact hits serve: compare their quality to the pure cold GA.
        service.waitForRefines();
        for (std::size_t at = 0; at < eval_set.size(); ++at) {
            serve::StrategyRequest request;
            request.workload = eval_set[at];
            request.seed = kSeed;
            request.perf_loss_target = kLossTarget;
            serve::StrategyResponse hit = service.submit(request).get();
            refined_ratio_min = std::min(
                refined_ratio_min, hit.ga.best_score / cold_score[at]);
        }
        serve::ServiceStats stats = service.stats();
        refine_upgrades = stats.refine_upgrades;
        refine_discards = stats.refine_discards;
        service.drain();
    }

    double cold_p50 = percentile(cold_ms, 0.5);
    double predict_p50 = percentile(predict_ms, 0.5);
    double speedup = predict_p50 > 0.0 ? cold_p50 / predict_p50 : 0.0;

    std::cout << "\ncold    p50 " << cold_p50 << " ms, p95 "
              << percentile(cold_ms, 0.95) << " ms\n"
              << "seeded  p50 " << percentile(seeded_ms, 0.5)
              << " ms (half budget), worst score ratio "
              << seeded_ratio_min << "\n"
              << "predict p50 " << predict_p50 << " ms, p95 "
              << percentile(predict_ms, 0.95) << " ms ("
              << speedup << "x vs cold), worst refined ratio "
              << refined_ratio_min << "\n"
              << "refines: " << refine_upgrades << " upgraded, "
              << refine_discards << " kept the prediction\n";

    bench::BenchJson json("cold");
    json.add("cold_p50", cold_p50, "ms");
    json.add("cold_p95", percentile(cold_ms, 0.95), "ms");
    json.add("seeded_p50", percentile(seeded_ms, 0.5), "ms");
    json.add("seeded_score_ratio_min", seeded_ratio_min, "ratio");
    json.add("predict_p50", predict_p50, "ms");
    json.add("predict_p95", percentile(predict_ms, 0.95), "ms");
    json.add("predict_speedup_p50", speedup, "x");
    json.add("refined_score_ratio_min", refined_ratio_min, "ratio");
    json.add("generations_saved_per_predict",
             static_cast<double>(kFullGenerations), "generations");
    json.add("refine_upgrades", static_cast<double>(refine_upgrades),
             "count");
    json.add("refine_discards", static_cast<double>(refine_discards),
             "count");
    json.write();

    bool ok = speedup >= 2.0 && refined_ratio_min >= 0.99;
    if (!ok)
        std::cerr << "ACCEPTANCE FAILED: speedup " << speedup
                  << " (need >= 2), refined ratio " << refined_ratio_min
                  << " (need >= 0.99)\n";
    return ok ? 0 : 1;
}
