/**
 * @file
 * Strategy search (paper Sect. 6.3): the genetic algorithm, and an
 * exact enumeration for spaces no larger than the GA's own budget.
 *
 * A genome assigns one supported frequency to each candidate stage,
 * scored via the model-based evaluator using the piecewise scoring of
 * Eq. 17 — individuals missing the performance lower bound are
 * penalised.  searchStrategy() enumerates every genome when the space
 * of |F|^n genomes (F supported frequencies, n stages) is no larger
 * than population x generations, the number of genomes the GA would
 * score; otherwise it runs the GA.
 *
 * The GA's first generation holds the all-max baseline, a prior
 * individual (LFC at 1600 MHz, HFC at 1800 MHz) and random
 * individuals.  Each generation scores its individuals, then breeds
 * the next generation with score-proportional selection, tail-swap
 * crossover and point and block mutation.  Populations live in flat
 * byte buffers, each row beside the evaluator's checkpoints of its
 * partial sums.  A child is written once, head from one parent and
 * tail from the other, and its breeding records the lowest gene any
 * operator touched: a child still equal to the row it was bred from
 * keeps that row's score and checkpoints, and any other child resumes
 * its sums from its parent's checkpoint at or before that gene.  The
 * optional refinement sweep scores its single-gene moves four at a
 * time the same way, resumed from the best genome's checkpoints, and
 * accepts them in the order a one-move-at-a-time sweep would.
 */

#ifndef OPDVFS_DVFS_GENETIC_H
#define OPDVFS_DVFS_GENETIC_H

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "dvfs/evaluator.h"

namespace opdvfs::dvfs {

/**
 * GA hyper-parameters (paper defaults from Sect. 7.4).  An enumerated
 * search reads only `perf_loss_target`, and `population` and
 * `generations` for its budget and history; the priors, `seed`, the
 * breeding rates and `refine_sweeps` do not apply.
 */
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
     * nearest-position resampling.  Empty priors are rejected on
     * either route.
     */
    std::vector<std::vector<double>> prior_individuals;
};

/**
 * Search output.  An enumerated search reports what an elitist GA
 * whose first generation already held the optimum would: the optimum
 * once per generation of the budget in `score_history`,
 * `converged_at` 0 and `pre_refine_score` equal to `best_score`.
 */
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
 * Run the search: exhaustiveSearch() when |F|^n <= population x
 * generations, else geneticSearch().  The route depends only on the
 * table size, the stage count and @p options.  Every score either
 * search compares comes from evaluator.evaluate() (or its
 * bitwise-equal batched overload) + strategyScore(), so
 * GaResult::best_score is bitwise the Eq. 17 score of best_genome.
 * @throws std::invalid_argument, before routing, when @p stages does
 *         not match the evaluator, population < 2, generations < 1 or
 *         a prior individual is empty
 */
GaResult searchStrategy(const StageEvaluator &evaluator,
                        const std::vector<Stage> &stages,
                        const GaOptions &options = {});

/** The genetic algorithm of the file comment, on any space; throws
 *  as searchStrategy() does. */
GaResult geneticSearch(const StageEvaluator &evaluator,
                       const std::vector<Stage> &stages,
                       const GaOptions &options = {});

/**
 * Score every genome, in odometer order with stage 0 fastest, through
 * evaluator.evaluate() + strategyScore(); the first strictly greater
 * score wins.  Costs |F|^n evaluations; throws as searchStrategy()
 * does.
 */
GaResult exhaustiveSearch(const StageEvaluator &evaluator,
                          const std::vector<Stage> &stages,
                          const GaOptions &options = {});

} // namespace opdvfs::dvfs

#endif // OPDVFS_DVFS_GENETIC_H
