/**
 * @file
 * Property suite over the genetic strategy search (paper Sect. 6.3,
 * Eq. 17): on tiny instances — at most 4 stages x 3 supported
 * frequencies — the GA never scores above the exhaustive optimum
 * (soundness), always reaches it (the search budget covers the genome
 * space many times over), and its reported artefacts are consistent
 * (best genome rescores to the reported score, the score history
 * never regresses, refinement never hurts).  searchStrategy, which
 * enumerates such spaces instead of running the GA, returns the
 * exhaustive optimum bit for bit.  The batched evaluation
 * the GA scores its populations with returns, for any listed rows of
 * a flat genome buffer in any order, each resumed at any checkpoint
 * block, bitwise what evaluate() returns for each row; it leaves every
 * checkpoint a listed row passes holding the serial prefix sum, reads
 * none past a row's resume block, and leaves the other rows' slots
 * and checkpoints alone.  Its stage counts straddle the checkpoint
 * blocks.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <iterator>
#include <limits>
#include <numeric>
#include <sstream>
#include <vector>

#include "check/generators.h"
#include "check/oracles.h"
#include "check/prop.h"
#include "dvfs/evaluator.h"
#include "npu/freq_table.h"
#include "power/power_model.h"

namespace {

using namespace opdvfs;
using namespace opdvfs::check;

TEST(PropGa, MatchesExhaustiveOptimumOnTinyInstances)
{
    Property<TinyProblem> prop(
        "ga-vs-exhaustive",
        [](Rng &rng) { return genTinyProblem(rng, 4, 3); },
        checkGaOptimality);
    prop.withPrinter([](const TinyProblem &problem) {
        return show(problem);
    });
    OPDVFS_CHECK_PROP(prop);
}

TEST(PropGa, RoutedSearchIsTheExhaustiveOptimumOnTinyInstances)
{
    Property<TinyProblem> prop(
        "routed-search-vs-exhaustive",
        [](Rng &rng) { return genTinyProblem(rng, 4, 3); },
        checkRoutedSearchIsExact);
    prop.withPrinter([](const TinyProblem &problem) {
        return show(problem);
    });
    OPDVFS_CHECK_PROP(prop);
}

/**
 * A flat buffer of random genomes, the rows to score in order, the
 * block each listed row resumes at, and the garbage that fills every
 * checkpoint the evaluation may not read (a row's checkpoints past its
 * resume block, an unlisted row's all).
 */
struct BatchCase
{
    TinyProblem problem;
    std::vector<std::uint8_t> genomes;
    std::vector<std::size_t> rows;
    std::vector<std::size_t> from;
    std::vector<double> garbage;
};

using Sums = dvfs::StageEvaluator::Sums;

bool
sameBits(const Sums &a, const Sums &b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

TEST(PropGa, BatchedEvaluationIsBitwiseEvaluate)
{
    Property<BatchCase> prop(
        "batched-evaluate",
        [](Rng &rng) {
            BatchCase batch;
            // Stage counts on both sides of each block boundary.
            constexpr int block =
                static_cast<int>(dvfs::StageEvaluator::kBlockStages);
            const int counts[] = {1,         block - 1,     block,
                                  block + 1, 2 * block + 1, 3 * block};
            int stages = counts[rng.index(std::size(counts))];
            batch.problem = genTinyProblem(rng, stages, 9, stages);
            std::size_t n = batch.problem.stages.size();
            std::size_t blocks = (n + block - 1) / block;
            std::size_t freqs =
                npu::FreqTable(batch.problem.freq).frequenciesMhz().size();
            std::size_t listed = 1 + rng.index(9);
            std::size_t buffer_rows = listed + rng.index(4);
            batch.genomes.resize(buffer_rows * n);
            for (std::uint8_t &gene : batch.genomes)
                gene = static_cast<std::uint8_t>(rng.index(freqs));
            std::vector<std::size_t> all(buffer_rows);
            std::iota(all.begin(), all.end(), std::size_t{0});
            std::shuffle(all.begin(), all.end(), rng.engine());
            batch.rows.assign(all.begin(),
                              all.begin() + static_cast<long>(listed));
            for (std::size_t k = 0; k < listed; ++k)
                batch.from.push_back(rng.index(blocks));
            const double odd[] = {std::numeric_limits<double>::quiet_NaN(),
                                  std::numeric_limits<double>::infinity(),
                                  -1e300, 0.0};
            batch.garbage.resize(buffer_rows * blocks * 4);
            for (double &value : batch.garbage) {
                value = rng.chance(0.25) ? odd[rng.index(std::size(odd))]
                                         : rng.uniform(-1e3, 1e3);
            }
            return batch;
        },
        [](const BatchCase &batch) -> std::optional<std::string> {
            const TinyProblem &problem = batch.problem;
            if (problem.stages.empty())
                return "tiny problem produced no stages";
            npu::FreqTable table(problem.freq);
            power::PowerModel power_model(problem.constants, table);
            dvfs::StageEvaluator evaluator(problem.stages, problem.perf,
                                           power_model, problem.op_power,
                                           table);
            const std::size_t n = evaluator.stageCount();
            const std::size_t blocks = evaluator.blockCount();
            const std::size_t buffer_rows = batch.genomes.size() / n;
            if (batch.garbage.size() != buffer_rows * blocks * 4)
                return "stage count does not match the generated one";

            // Serial prefix sums of row r at each block boundary.
            auto prefix = [&](std::size_t r) {
                std::vector<Sums> sums(blocks);
                Sums running;
                for (std::size_t s = 0; s < n; ++s) {
                    if (s % dvfs::StageEvaluator::kBlockStages == 0)
                        sums[s / dvfs::StageEvaluator::kBlockStages] =
                            running;
                    running.add(
                        evaluator.cellAt(s, batch.genomes[r * n + s]));
                }
                return sums;
            };

            // A listed row starts with its prefix sums up to its resume
            // block and garbage past it; an unlisted row with garbage.
            std::vector<Sums> saved(buffer_rows * blocks);
            for (std::size_t i = 0; i < saved.size(); ++i) {
                const double *g = batch.garbage.data() + 4 * i;
                saved[i] = Sums{g[0], g[1], g[2], g[3]};
            }
            for (std::size_t k = 0; k < batch.rows.size(); ++k) {
                std::vector<Sums> sums = prefix(batch.rows[k]);
                std::copy_n(sums.begin(), batch.from[k] + 1,
                            saved.begin()
                                + static_cast<long>(batch.rows[k] * blocks));
            }
            const std::vector<Sums> before = saved;

            dvfs::StrategyEvaluation untouched;
            untouched.seconds = -1.0;
            std::vector<dvfs::StrategyEvaluation> out(buffer_rows,
                                                      untouched);
            evaluator.evaluate(batch.genomes, batch.rows, batch.from, saved,
                               out);

            for (std::size_t r = 0; r < buffer_rows; ++r) {
                bool listed = std::find(batch.rows.begin(), batch.rows.end(),
                                        r) != batch.rows.end();
                dvfs::StrategyEvaluation expected = untouched;
                std::vector<Sums> expected_sums(
                    before.begin() + static_cast<long>(r * blocks),
                    before.begin() + static_cast<long>((r + 1) * blocks));
                if (listed) {
                    auto first = batch.genomes.begin()
                        + static_cast<long>(r * n);
                    expected = evaluator.evaluate(
                        std::vector<std::uint8_t>(first, first
                                                  + static_cast<long>(n)));
                    expected_sums = prefix(r);
                }
                std::ostringstream os;
                os.precision(17);
                os << "row " << r << (listed ? " (listed)" : "");
                if (std::memcmp(&out[r], &expected, sizeof expected) != 0) {
                    os << ": batched seconds " << out[r].seconds
                       << " soc_watts " << out[r].soc_watts
                       << ", expected " << expected.seconds << " / "
                       << expected.soc_watts;
                    return os.str();
                }
                for (std::size_t b = 0; b < blocks; ++b) {
                    if (!sameBits(saved[r * blocks + b], expected_sums[b])) {
                        os << ": checkpoint " << b << " seconds "
                           << saved[r * blocks + b].seconds << ", expected "
                           << expected_sums[b].seconds;
                        return os.str();
                    }
                }
            }
            return std::nullopt;
        });
    prop.withPrinter([](const BatchCase &batch) {
        std::ostringstream os;
        os << show(batch.problem) << "\nrows (resume block):";
        for (std::size_t k = 0; k < batch.rows.size(); ++k)
            os << ' ' << batch.rows[k] << " (" << batch.from[k] << ')';
        os << " of a " << batch.genomes.size() << "-gene buffer";
        return os.str();
    });
    OPDVFS_CHECK_PROP(prop);
}

} // namespace
