/**
 * @file
 * Fig. 17 reproduction: fittest-individual score versus GA iteration
 * for performance-loss targets from 2% to 10%, on the GPT-3 training
 * workload (Sect. 7.4: population 200, mutation 0.15, 600 iterations).
 * Also reports convergence generation and wall-clock per search, and
 * the Sect. 8.1 model-based evaluation-rate argument.
 */

#include <chrono>
#include <iostream>

#include "bench_common.h"
#include "common/table.h"
#include "dvfs/evaluator.h"
#include "dvfs/genetic.h"
#include "models/model_zoo.h"
#include "power/online_calibration.h"
#include "trace/workload_runner.h"

int
main()
{
    using namespace opdvfs;
    using Clock = std::chrono::steady_clock;
    bench::banner("bench_fig17_ga_convergence",
                  "Fig. 17 (Sect. 7.4): GA score vs iteration, GPT-3");

    npu::NpuConfig chip = bench::standardChip();
    npu::MemorySystem memory(chip.memory);
    npu::FreqTable table(chip.freq);
    trace::WorkloadRunner runner(chip);
    models::Workload gpt3 = models::buildWorkload("GPT3", memory, 1);

    // Profile + models (shared across targets).
    power::PowerModel power_model(bench::calibratedConstants(), table);
    power::OnlinePowerCalibrator online(power_model);
    perf::PerfModelRepository repo;
    trace::RunResult baseline;
    for (double f : {1000.0, 1400.0, 1800.0}) {
        trace::RunOptions options;
        options.initial_mhz = f;
        options.warmup_seconds = 15.0;
        options.sample_period = 2 * kTicksPerMs;
        options.seed = 17 + static_cast<std::uint64_t>(f);
        trace::RunResult run = runner.run(gpt3, options);
        repo.addProfile(f, run.records);
        online.addRun(run);
        if (f == 1800.0)
            baseline = run;
    }
    perf::PerfBuildOptions perf_options;
    perf_options.kind = perf::FitFunction::PwlCycles;
    repo.fitAll(perf_options);
    auto op_power = online.perOpModels();

    dvfs::PreprocessResult prep = dvfs::preprocess(baseline.records, {});
    dvfs::StageEvaluator evaluator(prep.stages, repo, power_model, op_power,
                                   table);
    std::cout << "GPT-3: " << gpt3.opCount() << " operators, "
              << prep.stages.size() << " frequency candidates after "
              << "preprocessing (FAI 5 ms)\n\n";

    Table series("Fig. 17: fittest score (x1e-16) every 50 generations");
    std::vector<std::string> header = {"target"};
    for (int gen = 0; gen <= 600; gen += 50)
        header.push_back("g" + std::to_string(gen));
    header.push_back("conv@");
    header.push_back("search (s)");
    series.setHeader(std::move(header));

    for (double target : {0.02, 0.04, 0.06, 0.08, 0.10}) {
        dvfs::GaOptions options;
        options.population = 200;
        options.generations = 600;
        options.mutation_rate = 0.15;
        options.perf_loss_target = target;
        options.refine_sweeps = 0; // pure GA for the convergence plot
        auto t0 = Clock::now();
        dvfs::GaResult result =
            dvfs::geneticSearch(evaluator, prep.stages, options);
        double seconds =
            std::chrono::duration<double>(Clock::now() - t0).count();

        std::vector<std::string> row = {Table::pct(target, 0)};
        for (int gen = 0; gen <= 600; gen += 50) {
            std::size_t index = gen == 0
                ? 0
                : std::min<std::size_t>(static_cast<std::size_t>(gen) - 1,
                                        result.score_history.size() - 1);
            row.push_back(
                Table::num(result.score_history[index] * 1e16, 3));
        }
        row.push_back(std::to_string(result.converged_at));
        row.push_back(Table::num(seconds, 2));
        series.addRow(std::move(row));
    }
    series.print(std::cout);
    std::cout << "paper: all configurations converge within 500 rounds, "
                 "each search within 2.5 s; stricter targets converge "
                 "faster\n\n";

    // Sect. 8.1: model-based policy evaluation rate.
    {
        std::vector<std::uint8_t> genome(
            evaluator.stageCount(),
            static_cast<std::uint8_t>(evaluator.freqCount() - 1));
        auto t0 = Clock::now();
        const int evals = 20'000;
        double checksum = 0.0;
        for (int i = 0; i < evals; ++i) {
            genome[static_cast<std::size_t>(i)
                   % evaluator.stageCount()] ^= 1;
            checksum += evaluator.evaluate(genome).soc_watts;
        }
        double seconds =
            std::chrono::duration<double>(Clock::now() - t0).count();
        std::cout << "Sect. 8.1: evaluated " << evals << " policies in "
                  << Table::num(seconds, 2) << " s ("
                  << Table::num(seconds / evals * 1e3, 3)
                  << " ms per policy; paper: milliseconds per policy, "
                     "20,000 policies in 5 minutes; checksum "
                  << Table::num(checksum, 0) << ")\n";
        std::cout << "model-free alternative: one 11 s training "
                     "iteration per policy => ~30 policies in the same "
                     "5 minutes\n";
    }
    return 0;
}
