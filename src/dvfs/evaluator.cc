#include "dvfs/evaluator.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "common/units.h"

namespace opdvfs::dvfs {

StageEvaluator::StageEvaluator(
    const std::vector<Stage> &stages, const perf::PerfModelRepository &perf,
    const power::PowerModel &power,
    const std::unordered_map<std::uint64_t, power::OpPowerModel> &op_power,
    const npu::FreqTable &table)
    : stage_count_(stages.size()),
      freqs_mhz_(table.frequenciesMhz()),
      gamma_aicore_(power.constants().gamma_aicore),
      gamma_soc_(power.constants().gamma_soc),
      k_per_watt_(power.constants().k_per_watt)
{
    if (stages.empty())
        throw std::invalid_argument("StageEvaluator: no stages");
    // Genes are uint8_t: a larger table would wrap the top indices
    // (the baseline and the GA's max gene) onto lower frequencies.
    if (freqs_mhz_.size() > 256)
        throw std::invalid_argument(
            "StageEvaluator: more than 256 frequency points");

    cells_.resize(stage_count_ * freqs_mhz_.size());
    for (std::size_t s = 0; s < stage_count_; ++s) {
        for (std::size_t fi = 0; fi < freqs_mhz_.size(); ++fi) {
            double f = freqs_mhz_[fi];
            double volts = table.voltageFor(f);
            double fv2 = mhzToHz(f) * volts * volts;

            Cell &c = cells_[s * freqs_mhz_.size() + fi];
            for (std::uint64_t op_id : stages[s].op_ids) {
                const perf::OpPerfModel *model = perf.find(op_id);
                if (!model) {
                    throw std::invalid_argument(
                        "StageEvaluator: operator without perf model");
                }
                double t = std::max(model->predictSeconds(f), 0.0);
                c.seconds += t;

                auto pw = op_power.find(op_id);
                double alpha_core =
                    pw != op_power.end() ? pw->second.alpha_aicore : 0.0;
                double alpha_soc =
                    pw != op_power.end() ? pw->second.alpha_soc : 0.0;
                c.aicore_joules_no_t +=
                    (alpha_core * fv2 + power.aicoreIdle(f)) * t;
                c.soc_joules_no_t +=
                    (alpha_soc * fv2 + power.socIdle(f)) * t;
            }
            c.volt_seconds = volts * c.seconds;
        }
    }
}

StrategyEvaluation
StageEvaluator::evaluate(
    const std::vector<std::uint8_t> &freq_index_per_stage) const
{
    if (freq_index_per_stage.size() != stage_count_)
        throw std::invalid_argument("evaluate: genome length mismatch");

    return finish(sum(freq_index_per_stage.data()));
}

void
StageEvaluator::evaluate(std::span<const std::uint8_t> genomes,
                         std::span<const std::size_t> rows,
                         std::span<const std::size_t> from,
                         std::span<Sums> checkpoints,
                         std::span<StrategyEvaluation> out) const
{
    const std::size_t n = stage_count_;
    const std::size_t blocks = blockCount();
    if (genomes.size() % n != 0 || genomes.size() / n != out.size())
        throw std::invalid_argument("evaluate: genome buffer size mismatch");
    if (checkpoints.size() != out.size() * blocks)
        throw std::invalid_argument(
            "evaluate: checkpoint buffer size mismatch");
    if (from.size() != rows.size())
        throw std::invalid_argument("evaluate: resume block count mismatch");
    for (std::size_t k = 0; k < rows.size(); ++k) {
        if (rows[k] >= out.size())
            throw std::invalid_argument("evaluate: row out of range");
        if (from[k] >= blocks)
            throw std::invalid_argument(
                "evaluate: resume block out of range");
    }

    // Rows in resume-block order, so that a group's four chains start
    // close together: its earlier-starting rows sum alone up to the
    // group's last start.
    std::vector<std::size_t> order(rows.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(),
              [from](std::size_t a, std::size_t b) {
                  return from[a] < from[b];
              });
    auto genome = [&](std::size_t k) { return genomes.data() + rows[k] * n; };
    auto saved = [&](std::size_t k) {
        return checkpoints.data() + rows[k] * blocks;
    };

    const std::size_t stride = freqs_mhz_.size();
    std::size_t i = 0;
    for (; i + 4 <= order.size(); i += 4) {
        const std::size_t k0 = order[i], k1 = order[i + 1];
        const std::size_t k2 = order[i + 2], k3 = order[i + 3];
        const std::size_t start = from[k3];
        Sums a = saved(k0)[from[k0]], b = saved(k1)[from[k1]];
        Sums c = saved(k2)[from[k2]], d = saved(k3)[start];
        sumBlocks(genome(k0), from[k0], start, a, saved(k0));
        sumBlocks(genome(k1), from[k1], start, b, saved(k1));
        sumBlocks(genome(k2), from[k2], start, c, saved(k2));

        // Four independent summation chains per field hide the add
        // latency that one genome's serial chain exposes.
        const std::uint8_t *g0 = genome(k0), *g1 = genome(k1);
        const std::uint8_t *g2 = genome(k2), *g3 = genome(k3);
        Sums *s0 = saved(k0), *s1 = saved(k1);
        Sums *s2 = saved(k2), *s3 = saved(k3);
        const Cell *stage = cells_.data() + start * kBlockStages * stride;
        for (std::size_t blk = start; blk < blocks; ++blk) {
            const std::size_t end = std::min(n, (blk + 1) * kBlockStages);
            for (std::size_t s = blk * kBlockStages; s < end;
                 ++s, stage += stride) {
                a.add(stage[g0[s]]);
                b.add(stage[g1[s]]);
                c.add(stage[g2[s]]);
                d.add(stage[g3[s]]);
            }
            if (blk + 1 < blocks) {
                s0[blk + 1] = a;
                s1[blk + 1] = b;
                s2[blk + 1] = c;
                s3[blk + 1] = d;
            }
        }
        out[rows[k0]] = finish(a);
        out[rows[k1]] = finish(b);
        out[rows[k2]] = finish(c);
        out[rows[k3]] = finish(d);
    }
    for (; i < order.size(); ++i) {
        const std::size_t k = order[i];
        Sums sums = saved(k)[from[k]];
        sumBlocks(genome(k), from[k], blocks, sums, saved(k));
        out[rows[k]] = finish(sums);
    }
}

StageEvaluator::Sums
StageEvaluator::sum(const std::uint8_t *genome) const
{
    Sums sums;
    for (std::size_t s = 0; s < stage_count_; ++s)
        sums.add(cellAt(s, genome[s]));
    return sums;
}

void
StageEvaluator::sumBlocks(const std::uint8_t *genome, std::size_t first,
                          std::size_t last, Sums &sums,
                          Sums *checkpoints) const
{
    const std::size_t blocks = blockCount();
    for (std::size_t blk = first; blk < last; ++blk) {
        const std::size_t end =
            std::min(stage_count_, (blk + 1) * kBlockStages);
        for (std::size_t s = blk * kBlockStages; s < end; ++s)
            sums.add(cellAt(s, genome[s]));
        if (blk + 1 < blocks)
            checkpoints[blk + 1] = sums;
    }
}

StrategyEvaluation
StageEvaluator::finish(const Sums &sums) const
{
    const double seconds = sums.seconds;
    StrategyEvaluation eval;
    eval.seconds = seconds;
    if (seconds <= 0.0)
        return eval;

    double mean_volts = sums.volt_seconds / seconds;
    double p_soc_no_t = sums.soc_no_t / seconds;

    // Global temperature fix point (Sect. 5.4.2): P depends on dT and
    // dT on P; iterate from dT = 0.
    double delta_t = 0.0;
    for (int iter = 0; iter < 16; ++iter) {
        double p_soc = p_soc_no_t + gamma_soc_ * delta_t * mean_volts;
        double next = k_per_watt_ * p_soc;
        if (std::abs(next - delta_t) < 0.01) {
            delta_t = next;
            break;
        }
        delta_t = next;
    }

    eval.delta_t = delta_t;
    eval.soc_watts = p_soc_no_t + gamma_soc_ * delta_t * mean_volts;
    eval.aicore_watts =
        sums.aicore_no_t / seconds + gamma_aicore_ * delta_t * mean_volts;
    eval.soc_joules = eval.soc_watts * seconds;
    eval.aicore_joules = eval.aicore_watts * seconds;
    return eval;
}

StrategyEvaluation
StageEvaluator::evaluateBaseline() const
{
    std::vector<std::uint8_t> genome(
        stage_count_, static_cast<std::uint8_t>(freqs_mhz_.size() - 1));
    return evaluate(genome);
}

} // namespace opdvfs::dvfs
