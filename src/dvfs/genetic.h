/**
 * @file
 * Genetic-algorithm strategy search (paper Sect. 6.3).
 *
 * A genome assigns one supported frequency to each candidate stage.
 * The first generation holds the all-max baseline, a prior individual
 * (LFC at 1600 MHz, HFC at 1800 MHz) and random individuals.  Each
 * generation scores individuals via the model-based evaluator using
 * the piecewise scoring of Eq. 17 — individuals missing the
 * performance lower bound are penalised — then breeds the next
 * generation with score-proportional selection, tail-swap crossover
 * and point and block mutation.  Populations live in flat byte
 * buffers; a child equal to the row it was copied from keeps that
 * row's score, and only the other rows are evaluated.
 */

#ifndef OPDVFS_DVFS_GENETIC_H
#define OPDVFS_DVFS_GENETIC_H

#include <cstdint>
#include <functional>
#include <vector>

#include "common/random.h"
#include "dvfs/evaluator.h"

namespace opdvfs::dvfs {

/**
 * Data-parallel index loop: run fn(0) .. fn(count - 1), each exactly
 * once, in any order, returning when all completed.  The strategy
 * service injects a thread-pool-backed implementation to score GA
 * populations concurrently; each index is one block of genomes.
 */
using ParallelFor =
    std::function<void(std::size_t count,
                       const std::function<void(std::size_t)> &fn)>;

/** GA hyper-parameters (paper defaults from Sect. 7.4). */
struct GaOptions
{
    int population = 200;
    int generations = 600;
    double mutation_rate = 0.15;
    double crossover_rate = 0.7;
    /** Elite individuals copied unchanged each generation. */
    int elite = 2;
    /** Allowed relative performance loss, e.g. 0.02. */
    double perf_loss_target = 0.02;
    /** Prior individual: LFC stages start here. */
    double prior_lfc_mhz = 1600.0;
    /** Prior individual: HFC stages start here. */
    double prior_hfc_mhz = 1800.0;
    /**
     * Seed one extra prior individual per supported LFC level (all
     * HFC stages at max); the infeasible ones die off via Eq. 17's
     * penalty branch.
     */
    bool multi_level_priors = true;
    /** Probability of a contiguous block mutation per child. */
    double block_mutation_rate = 0.10;
    /**
     * Post-search memetic refinement: hill-climbing sweeps over the
     * genome, accepting single-gene moves that improve the Eq. 17
     * score.  0 disables (pure GA, as in the paper).
     */
    int refine_sweeps = 12;
    std::uint64_t seed = 7;
    /**
     * Extra prior individuals seeded into generation 0, as MHz per
     * stage — e.g. cached strategies of similar workloads (warm
     * start).  Frequencies snap to the nearest supported point; a
     * prior whose length differs from the stage count is adapted by
     * nearest-position resampling.  Empty priors are rejected.
     */
    std::vector<std::vector<double>> prior_individuals;
    /**
     * When set, population fitness is scored through this loop.  Each
     * index is one block of up to 16 rows that need scoring; elites
     * and children identical to the row they were copied from inherit
     * its score instead, and a generation in which no row needs
     * scoring makes no call.  A block writes only its own rows' batched
     * StageEvaluator::evaluate + strategyScore results and the best
     * individual is picked serially afterwards, so the result is
     * bit-identical to the serial path regardless of evaluation order
     * or thread count.
     */
    ParallelFor parallel_for;
};

/** Search output. */
struct GaResult
{
    /** Best genome: frequency index per stage. */
    std::vector<std::uint8_t> best_genome;
    /** Best genome as MHz per stage. */
    std::vector<double> best_mhz;
    double best_score = 0.0;
    StrategyEvaluation best_eval;
    StrategyEvaluation baseline_eval;
    /** Fittest score after each generation (Fig. 17). */
    std::vector<double> score_history;
    /** Generation at which the best score was first reached. */
    int converged_at = 0;
    /** Score before the memetic refinement pass. */
    double pre_refine_score = 0.0;
};

/** Eq. 17 score of an evaluation against the baseline bound. */
double strategyScore(const StrategyEvaluation &eval, double perf_lower_bound);

/**
 * Run the search.  Every score of every generation and of every
 * memetic refinement probe comes from evaluator.evaluate() (or its
 * bitwise-equal batched overload) + strategyScore(), so
 * GaResult::best_score is bitwise the Eq. 17 score of best_genome.
 */
GaResult searchStrategy(const StageEvaluator &evaluator,
                        const std::vector<Stage> &stages,
                        const GaOptions &options = {});

} // namespace opdvfs::dvfs

#endif // OPDVFS_DVFS_GENETIC_H
