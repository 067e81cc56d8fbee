/**
 * @file
 * Fast per-stage strategy evaluation for the genetic search
 * (Sect. 6.3.2 and the Sect. 8.1 argument for model-based scoring).
 *
 * Construction precomputes, for every (stage, frequency) pair, the
 * predicted stage duration and the temperature-independent AICore and
 * SoC energies from the performance and power models.  Evaluating one
 * strategy is then a single pass over stages plus the global
 * temperature fix point (Sect. 5.4.2), giving the microsecond-scale
 * policy evaluation the paper relies on to score hundreds of thousands
 * of candidates.
 *
 * evaluate() followed by strategyScore() is the one fitness path: GA
 * generations, refinement probes and surrogate predictions all score
 * through it, so every score the system stores or compares is summed
 * in the same (serial, stage-order) sequence.  The batched overload
 * scores many genomes of a flat population buffer at once, four per
 * pass over the stages, and returns bitwise what evaluate() returns
 * for each.  It resumes each genome from a checkpoint: the running
 * sums at every kBlockStages-th stage, kept per row by the caller.  A
 * genome whose first genes equal those of a row already summed (a GA
 * child and its parent, a refinement probe and the best genome) adds
 * the same cells in the same order from the same zero up to there,
 * so it may start from that row's checkpoint at or before its first
 * differing gene and still match evaluate() bit for bit.
 */

#ifndef OPDVFS_DVFS_EVALUATOR_H
#define OPDVFS_DVFS_EVALUATOR_H

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "dvfs/preprocess.h"
#include "npu/freq_table.h"
#include "perf/perf_model.h"
#include "power/online_calibration.h"
#include "power/power_model.h"

namespace opdvfs::dvfs {

/** Predicted behaviour of one strategy. */
struct StrategyEvaluation
{
    double seconds = 0.0;
    double aicore_joules = 0.0;
    double soc_joules = 0.0;
    double aicore_watts = 0.0;
    double soc_watts = 0.0;
    double delta_t = 0.0;
};

/** Precomputed per-stage/per-frequency model tables. */
class StageEvaluator
{
  public:
    /**
     * @param stages       preprocessing output
     * @param perf         fitted per-operator performance models
     * @param power        calibrated power model (constants)
     * @param op_power     per-operator activity factors
     * @param table        supported frequency points; at most 256,
     *                     since a gene is one byte
     * @throws std::invalid_argument when @p stages is empty or the
     *         table has more points than a gene can index
     */
    StageEvaluator(
        const std::vector<Stage> &stages,
        const perf::PerfModelRepository &perf,
        const power::PowerModel &power,
        const std::unordered_map<std::uint64_t, power::OpPowerModel>
            &op_power,
        const npu::FreqTable &table);

    /** Number of stages (genome length). */
    std::size_t stageCount() const { return stage_count_; }

    /** Number of supported frequency points (gene alphabet size). */
    std::size_t freqCount() const { return freqs_mhz_.size(); }

    /** Supported frequencies in MHz, ascending. */
    const std::vector<double> &frequenciesMhz() const { return freqs_mhz_; }

    /** Evaluate one strategy: a frequency index per stage. */
    StrategyEvaluation
    evaluate(const std::vector<std::uint8_t> &freq_index_per_stage) const;

    /** Evaluate the all-max-frequency baseline. */
    StrategyEvaluation evaluateBaseline() const;

    /** Precomputed per-(stage, frequency) contributions.  Public so
     *  the surrogate's feasibility repair can reuse the tables instead
     *  of rebuilding the models. */
    struct Cell
    {
        double seconds = 0.0;
        /** Energy without the gamma dT V term, J. */
        double aicore_joules_no_t = 0.0;
        double soc_joules_no_t = 0.0;
        /** Voltage-seconds, for the time-weighted mean voltage. */
        double volt_seconds = 0.0;
    };

    /** The (stage, frequency) table cell. */
    const Cell &
    cellAt(std::size_t stage, std::size_t freq) const
    {
        return cells_[stage * freqs_mhz_.size() + freq];
    }

    /** Stages per checkpoint block of the batched overload. */
    static constexpr std::size_t kBlockStages = 64;

    /** Checkpoints per row: one per started block of kBlockStages. */
    std::size_t
    blockCount() const
    {
        return (stage_count_ + kBlockStages - 1) / kBlockStages;
    }

    /** Per-field running sums of one strategy's cells.  Checkpoint b
     *  of a row holds those of its stages [0, b * kBlockStages). */
    struct Sums
    {
        double seconds = 0.0;
        double aicore_no_t = 0.0;
        double soc_no_t = 0.0;
        double volt_seconds = 0.0;

        void
        add(const Cell &c)
        {
            seconds += c.seconds;
            aicore_no_t += c.aicore_joules_no_t;
            soc_no_t += c.soc_joules_no_t;
            volt_seconds += c.volt_seconds;
        }
    };

    /**
     * Evaluate the listed rows of a flat genome buffer, where row r is
     * genomes[r * stageCount(), (r + 1) * stageCount()) and its
     * checkpoints are checkpoints[r * blockCount(), (r + 1) *
     * blockCount()).  Listed row rows[k] resumes from its checkpoint
     * from[k], which must hold the row's serial sums up to there (zero
     * sums at block 0); no later checkpoint is read, and each later
     * one is rewritten as the row passes it.  out[rows[k]] receives
     * bitwise what evaluate() returns for the row: four rows are
     * summed per pass over the stages, each in serial stage order.
     * Rows not listed leave their slot and checkpoints untouched.
     * @throws std::invalid_argument when @p genomes is not a whole
     *         number of rows, @p out does not hold one slot per row,
     *         @p checkpoints does not hold one row per slot, @p from
     *         does not hold one block per listed row, a listed row is
     *         out of range or a resume block is not below blockCount()
     */
    void evaluate(std::span<const std::uint8_t> genomes,
                  std::span<const std::size_t> rows,
                  std::span<const std::size_t> from,
                  std::span<Sums> checkpoints,
                  std::span<StrategyEvaluation> out) const;

  private:
    /** One genome's cells summed in stage order. */
    Sums sum(const std::uint8_t *genome) const;

    /** Continue @p sums over blocks [first, last) of @p genome, storing
     *  each checkpoint it passes into @p checkpoints (the row's). */
    void sumBlocks(const std::uint8_t *genome, std::size_t first,
                   std::size_t last, Sums &sums, Sums *checkpoints) const;

    /** The temperature fix point over a strategy's summed cells. */
    StrategyEvaluation finish(const Sums &sums) const;

    std::size_t stage_count_ = 0;
    std::vector<double> freqs_mhz_;
    std::vector<Cell> cells_;
    double gamma_aicore_ = 0.0;
    double gamma_soc_ = 0.0;
    double k_per_watt_ = 0.0;
};

} // namespace opdvfs::dvfs

#endif // OPDVFS_DVFS_EVALUATOR_H
