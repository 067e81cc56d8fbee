#include "dvfs/baselines.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "common/random.h"

namespace opdvfs::dvfs {

UniformFrequencyResult
selectUniformFrequency(const StageEvaluator &evaluator,
                       double perf_loss_target)
{
    UniformFrequencyResult result;
    result.baseline_eval = evaluator.evaluateBaseline();
    double per_lb =
        1e-6 / result.baseline_eval.seconds * (1.0 - perf_loss_target);

    for (std::size_t fi = 0; fi < evaluator.freqCount(); ++fi) {
        std::vector<std::uint8_t> genome(evaluator.stageCount(),
                                         static_cast<std::uint8_t>(fi));
        StrategyEvaluation eval = evaluator.evaluate(genome);
        double score = strategyScore(eval, per_lb);
        if (score > result.score) {
            result.score = score;
            result.eval = eval;
            result.mhz = evaluator.frequenciesMhz()[fi];
        }
    }
    return result;
}

namespace {

/** Measure one candidate strategy on the device. */
trace::RunResult
measure(const trace::WorkloadRunner &runner,
        const models::Workload &workload, const std::vector<Stage> &stages,
        const std::vector<trace::OpRecord> &baseline_records,
        const std::vector<double> &mhz, double warmup_seconds,
        std::uint64_t seed)
{
    ExecutionPlan plan = planExecution(stages, mhz, baseline_records, {});
    trace::RunOptions options;
    options.initial_mhz = plan.initial_mhz;
    options.warmup_seconds = warmup_seconds;
    options.seed = seed;
    return runner.run(workload, options, plan.triggers);
}

double
runScore(const trace::RunResult &run, double per_lb)
{
    StrategyEvaluation eval;
    eval.seconds = run.iteration_seconds;
    eval.soc_watts = run.soc_avg_w;
    return strategyScore(eval, per_lb);
}

} // namespace

ModelFreeResult
searchModelFree(const trace::WorkloadRunner &runner,
                const models::Workload &workload,
                const std::vector<Stage> &stages,
                const std::vector<trace::OpRecord> &baseline_records,
                const npu::FreqTable &table,
                const ModelFreeOptions &options)
{
    if (stages.empty())
        throw std::invalid_argument("searchModelFree: no stages");
    if (options.population < 2 || options.evaluation_budget < 2)
        throw std::invalid_argument("searchModelFree: bad options");

    const std::vector<double> freqs = table.frequenciesMhz();
    const std::size_t n = stages.size();
    Rng rng(options.seed);

    ModelFreeResult result;

    // Baseline measurement (all-max).
    std::vector<double> max_mhz(n, freqs.back());
    result.baseline_run =
        measure(runner, workload, stages, baseline_records, max_mhz,
                options.warmup_seconds, options.seed);
    ++result.evaluations;
    result.simulated_seconds += result.baseline_run.iteration_seconds;
    double per_lb = 1e-6 / result.baseline_run.iteration_seconds
        * (1.0 - options.perf_loss_target);
    result.best_mhz = max_mhz;
    result.best_score = runScore(result.baseline_run, per_lb);
    result.best_run = result.baseline_run;

    // Small measurement-driven GA under the evaluation budget.
    using Genome = std::vector<double>;
    std::vector<Genome> population;
    population.push_back(max_mhz);
    Genome prior(n);
    for (std::size_t s = 0; s < n; ++s)
        prior[s] = stages[s].high_frequency ? freqs.back() : 1600.0;
    population.push_back(table.supports(1600.0) ? prior : max_mhz);
    while (population.size() < static_cast<std::size_t>(options.population)) {
        Genome g(n);
        for (auto &mhz : g)
            mhz = freqs[rng.index(freqs.size())];
        population.push_back(std::move(g));
    }

    std::vector<double> scores(population.size(), 0.0);
    std::size_t next_to_score = 0;
    std::uint64_t run_seed = options.seed + 101;

    while (result.evaluations < options.evaluation_budget) {
        if (next_to_score >= population.size()) {
            // Breed the next generation from what has been measured.
            std::vector<double> prefix(scores.size());
            std::partial_sum(scores.begin(), scores.end(), prefix.begin());
            std::vector<Genome> next;
            next.push_back(result.best_mhz); // elitism
            while (next.size() < population.size()) {
                Genome a = population[rng.weightedIndex(prefix)];
                Genome b = population[rng.weightedIndex(prefix)];
                if (n > 1 && rng.chance(options.crossover_rate)) {
                    std::size_t k = rng.index(n - 1) + 1;
                    for (std::size_t s = n - k; s < n; ++s)
                        std::swap(a[s], b[s]);
                }
                if (rng.chance(options.mutation_rate))
                    a[rng.index(n)] = freqs[rng.index(freqs.size())];
                next.push_back(std::move(a));
            }
            population = std::move(next);
            std::fill(scores.begin(), scores.end(), 0.0);
            next_to_score = 1; // the elite keeps its (re-measured) rank
            scores[0] = result.best_score;
        }

        trace::RunResult run =
            measure(runner, workload, stages, baseline_records,
                    population[next_to_score], options.warmup_seconds,
                    run_seed++);
        ++result.evaluations;
        result.simulated_seconds += run.iteration_seconds;
        double score = runScore(run, per_lb);
        scores[next_to_score] = score;
        if (score > result.best_score) {
            result.best_score = score;
            result.best_mhz = population[next_to_score];
            result.best_run = run;
        }
        ++next_to_score;
    }
    return result;
}

} // namespace opdvfs::dvfs
