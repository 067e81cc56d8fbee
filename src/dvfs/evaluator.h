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
 * in the same (serial, stage-order) sequence.
 */

#ifndef OPDVFS_DVFS_EVALUATOR_H
#define OPDVFS_DVFS_EVALUATOR_H

#include <cstdint>
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

  private:
    std::size_t stage_count_ = 0;
    std::vector<double> freqs_mhz_;
    std::vector<Cell> cells_;
    double gamma_aicore_ = 0.0;
    double gamma_soc_ = 0.0;
    double k_per_watt_ = 0.0;
};

} // namespace opdvfs::dvfs

#endif // OPDVFS_DVFS_EVALUATOR_H
