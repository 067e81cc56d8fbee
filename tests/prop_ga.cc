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
 * a flat genome buffer in any order, bitwise what evaluate() returns
 * for each row and leaves the other rows' slots alone.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
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

/** A flat buffer of random genomes and the rows to score, in order. */
struct BatchCase
{
    TinyProblem problem;
    std::vector<std::uint8_t> genomes;
    std::vector<std::size_t> rows;
};

TEST(PropGa, BatchedEvaluationIsBitwiseEvaluate)
{
    Property<BatchCase> prop(
        "batched-evaluate",
        [](Rng &rng) {
            BatchCase batch;
            batch.problem = genTinyProblem(rng, 12, 9);
            std::size_t n = batch.problem.stages.size();
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
            const std::size_t buffer_rows = batch.genomes.size() / n;

            dvfs::StrategyEvaluation untouched;
            untouched.seconds = -1.0;
            std::vector<dvfs::StrategyEvaluation> out(buffer_rows,
                                                      untouched);
            evaluator.evaluate(batch.genomes, batch.rows, out);

            for (std::size_t r = 0; r < buffer_rows; ++r) {
                bool listed = std::find(batch.rows.begin(), batch.rows.end(),
                                        r) != batch.rows.end();
                dvfs::StrategyEvaluation expected = untouched;
                if (listed) {
                    auto first = batch.genomes.begin()
                        + static_cast<long>(r * n);
                    expected = evaluator.evaluate(
                        std::vector<std::uint8_t>(first, first
                                                  + static_cast<long>(n)));
                }
                if (std::memcmp(&out[r], &expected, sizeof expected) != 0) {
                    std::ostringstream os;
                    os.precision(17);
                    os << "row " << r << (listed ? " (listed)" : "")
                       << ": batched seconds " << out[r].seconds
                       << " soc_watts " << out[r].soc_watts
                       << ", expected " << expected.seconds << " / "
                       << expected.soc_watts;
                    return os.str();
                }
            }
            return std::nullopt;
        });
    prop.withPrinter([](const BatchCase &batch) {
        std::ostringstream os;
        os << show(batch.problem) << "\nrows:";
        for (std::size_t r : batch.rows)
            os << ' ' << r;
        os << " of a " << batch.genomes.size() << "-gene buffer";
        return os.str();
    });
    OPDVFS_CHECK_PROP(prop);
}

} // namespace
