#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <concepts>
#include <cstdint>
#include <numeric>
#include <random>
#include <vector>

#include "common/random.h"

namespace opdvfs {
namespace {

// std::shuffle (prop_ga) and std::uniform_int_distribution take it.
static_assert(std::uniform_random_bit_generator<MersenneTwister64>);

std::uint64_t
bits(double v)
{
    return std::bit_cast<std::uint64_t>(v);
}

TEST(MersenneTwister64, MatchesTheStandardEngineWordForWord)
{
    std::vector<std::uint64_t> seeds = {0, 1, 5489, UINT64_MAX};
    // The run harness's profiler and power-sampler seeds.
    for (std::uint64_t run_seed : std::vector<std::uint64_t>{1, 9, 2027,
                                                             UINT64_MAX}) {
        seeds.push_back(run_seed * 7919 + 1);
        seeds.push_back(run_seed * 104729 + 2);
    }
    // Ten refills of the 312-word state, and into the eleventh.
    constexpr int kWords = 10 * 312 + 1;
    for (std::uint64_t seed : seeds) {
        std::mt19937_64 expected(seed);
        MersenneTwister64 actual(seed);
        for (int i = 0; i < kWords; ++i)
            ASSERT_EQ(actual(), expected()) << "seed " << seed << " word " << i;
    }
}

TEST(MersenneTwister64, TenThousandthWordOfTheDefaultSeedIsTheStandards)
{
    // [rand.predef]: the 10000th consecutive invocation of a
    // default-constructed mt19937_64 (seed 5489) produces this value.
    MersenneTwister64 engine(5489);
    for (int i = 1; i < 10000; ++i)
        engine();
    EXPECT_EQ(engine(), 9981545732273789042ULL);
}

#if defined(__GLIBCXX__)
TEST(Rng, DistributionsAreBitwiseLibstdcxxsOverTheStandardEngine)
{
    // std distributions are implementation-defined; Rng spells out
    // libstdc++'s, so compare against libstdc++ itself, one fresh
    // distribution per draw as Rng used to make them.
    constexpr std::uint64_t kSeed = 20250807;
    std::mt19937_64 engine(kSeed);
    Rng rng(kSeed);
    Rng params(3);
    int clamped = 0;
    for (int i = 0; i < 1'000'000; ++i) {
        switch (i % 4) {
          case 0: {
            double mean = params.uniform(-5.0, 5.0);
            double sigma = params.uniform(1e-3, 3.0);
            double expected =
                std::normal_distribution<double>(mean, sigma)(engine);
            ASSERT_EQ(bits(rng.gaussian(mean, sigma)), bits(expected))
                << "draw " << i;
            break;
          }
          case 1: {
            double sigma = params.uniform(1e-3, 0.6);
            double f = std::normal_distribution<double>(1.0, sigma)(engine);
            double expected = f > 0.01 ? f : 0.01;
            clamped += f <= 0.01;
            ASSERT_EQ(bits(rng.noiseFactor(sigma)), bits(expected))
                << "draw " << i;
            break;
          }
          case 2: {
            double lo = params.uniform(-10.0, 10.0);
            double hi = lo + params.uniform(0.0, 20.0);
            double expected =
                std::uniform_real_distribution<double>(lo, hi)(engine);
            ASSERT_EQ(bits(rng.uniform(lo, hi)), bits(expected))
                << "draw " << i;
            break;
          }
          case 3: {
            double p = i % 12 == 3 ? 0.0
                : i % 12 == 7      ? 1.0
                                   : params.uniform(0.0, 1.0);
            bool expected = std::bernoulli_distribution(p)(engine);
            ASSERT_EQ(rng.chance(p), expected) << "draw " << i;
            break;
          }
        }
    }
    EXPECT_GT(clamped, 0);
    EXPECT_EQ(rng.engine()(), engine());
}
#endif

TEST(Rng, SkipGaussianLeavesTheEngineWhereGaussianDoes)
{
    Rng drawn(41), skipped(41);
    for (int i = 0; i < 100'000; ++i) {
        drawn.gaussian(i % 3 - 1.0, 0.5 + i % 5);
        skipped.skipGaussian();
        ASSERT_EQ(skipped.engine()(), drawn.engine()()) << "pair " << i;
    }
}

/**
 * The seeds the batched skip is checked on: small ones, and the
 * profiler's seeds (RunHarness: seed * 7919 + 1) for three run seeds.
 */
std::vector<std::uint64_t>
skipSeeds()
{
    std::vector<std::uint64_t> seeds = {0, 1, 41};
    for (std::uint64_t run_seed : {1, 9, 2027})
        seeds.push_back(run_seed * 7919 + 1);
    return seeds;
}

/** A generator on @p seed that has handed out @p words words. */
Rng
afterWords(std::uint64_t seed, int words)
{
    Rng rng(seed);
    for (int i = 0; i < words; ++i)
        rng.engine()();
    return rng;
}

/** The next four words of a copy of @p rng; @p rng itself stays put. */
std::vector<std::uint64_t>
peek(Rng rng)
{
    std::vector<std::uint64_t> words;
    for (int i = 0; i < 4; ++i)
        words.push_back(rng.engine()());
    return words;
}

TEST(Rng, SkipGaussiansLeavesTheEngineWhereSingleSkipsDo)
{
    // k words first puts the skip at every offset of both parities in
    // a 312-word refill block, including 311, whose first pair
    // straddles the refill.  The counts cover no point, a few, the
    // points of about one block either side of 156 pairs, and several
    // blocks.
    const std::uint64_t counts[] = {0, 1, 2, 3, 155, 156, 157, 1000};
    for (std::uint64_t seed : skipSeeds()) {
        for (int k = 0; k < 312; ++k) {
            Rng single = afterWords(seed, k);
            std::uint64_t skipped = 0;
            for (std::uint64_t n : counts) {
                for (; skipped < n; ++skipped)
                    single.skipGaussian();
                Rng batch = afterWords(seed, k);
                batch.skipGaussians(n);
                ASSERT_EQ(peek(batch), peek(single))
                    << "seed " << seed << " k " << k << " n " << n;
            }
        }
    }
}

TEST(Rng, SkipGaussiansMatchesAMillionSingleSkips)
{
    // A block's start parity is the first start's for the whole skip,
    // so both parities, the straddle and the block ends suffice here.
    constexpr std::uint64_t kMillion = 1'000'000;
    for (std::uint64_t seed : skipSeeds()) {
        for (int k : {0, 1, 2, 155, 156, 310, 311}) {
            Rng single = afterWords(seed, k);
            for (std::uint64_t i = 0; i < kMillion; ++i)
                single.skipGaussian();
            Rng batch = afterWords(seed, k);
            batch.skipGaussians(kMillion);
            ASSERT_EQ(peek(batch), peek(single))
                << "seed " << seed << " k " << k;
        }
    }
}

TEST(Rng, SkipGaussiansInterleavesWithDraws)
{
    // Draws between batches start each batch at the offset the draws
    // left, odd or even, and the draws see the stream the single skips
    // leave.
    Rng single(2027 * 7919 + 1), batch(2027 * 7919 + 1);
    for (int i = 0; i < 2000; ++i) {
        std::uint64_t n = (i * 37) % 401;
        for (std::uint64_t j = 0; j < n; ++j)
            single.skipGaussian();
        batch.skipGaussians(n);
        double mean = i % 3 - 1.0;
        double sigma = 0.5 + i % 5;
        ASSERT_EQ(bits(batch.gaussian(mean, sigma)),
                  bits(single.gaussian(mean, sigma)))
            << "round " << i;
        if (i % 7 == 0) {
            ASSERT_EQ(batch.engine()(), single.engine()()) << "round " << i;
        }
    }
    EXPECT_EQ(peek(batch), peek(single));
}

TEST(Rng, FirstGaussianDrawsOfSeedOneArePinned)
{
    // A change of engine or standard library that moves the noise
    // stream fails here rather than silently moving the goldens.
    const std::uint64_t expected[] = {
        0xbfd8c1da014dda10ULL, 0x3fe5fa75918ca314ULL, 0xbfe971d689089fddULL,
        0x3fff01d3e119ca68ULL, 0x3fbe15bc7159ee3dULL, 0xbfe4bec5ef0151f1ULL,
        0xbff862918a96f613ULL, 0x3fed3d936bb14019ULL,
    };
    Rng rng(1);
    for (std::uint64_t pattern : expected)
        EXPECT_EQ(bits(rng.gaussian(0.0, 1.0)), pattern);
}

TEST(Rng, DeterministicBySeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_DOUBLE_EQ(a.uniform(0, 1), b.uniform(0, 1));
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int equal = 0;
    for (int i = 0; i < 100; ++i) {
        if (a.uniform(0, 1) == b.uniform(0, 1))
            ++equal;
    }
    EXPECT_LT(equal, 5);
}

TEST(Rng, UniformRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        double x = rng.uniform(2.5, 3.5);
        EXPECT_GE(x, 2.5);
        EXPECT_LT(x, 3.5);
    }
}

TEST(Rng, UniformIntInclusive)
{
    Rng rng(7);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        auto v = rng.uniformInt(0, 3);
        EXPECT_GE(v, 0);
        EXPECT_LE(v, 3);
        saw_lo |= v == 0;
        saw_hi |= v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, IndexCoversRange)
{
    Rng rng(11);
    std::vector<int> counts(5, 0);
    for (int i = 0; i < 5000; ++i)
        counts[rng.index(5)]++;
    for (int c : counts)
        EXPECT_GT(c, 700); // roughly uniform
}

TEST(Rng, NoiseFactorStaysPositive)
{
    Rng rng(13);
    for (int i = 0; i < 10000; ++i) {
        double f = rng.noiseFactor(0.5); // extreme sigma
        EXPECT_GT(f, 0.0);
    }
}

TEST(Rng, NoiseFactorCentredOnOne)
{
    Rng rng(17);
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += rng.noiseFactor(0.02);
    EXPECT_NEAR(sum / n, 1.0, 0.005);
}

/** Running sums of @p weights, the sampler's input. */
std::vector<double>
prefixOf(const std::vector<double> &weights)
{
    std::vector<double> prefix(weights.size());
    std::partial_sum(weights.begin(), weights.end(), prefix.begin());
    return prefix;
}

/**
 * The sampler before it took running sums: re-sum the weights, draw
 * one uniform deviate, then scan for the first running total above it.
 */
std::size_t
scanWeightedIndex(Rng &rng, const std::vector<double> &weights)
{
    double total = std::accumulate(weights.begin(), weights.end(), 0.0);
    if (total <= 0.0)
        return rng.index(weights.size());

    double r = rng.uniform(0.0, total);
    double acc = 0.0;
    for (std::size_t i = 0; i < weights.size(); ++i) {
        acc += weights[i];
        if (r < acc)
            return i;
    }
    return weights.size() - 1;
}

TEST(Rng, WeightedIndexFollowsWeights)
{
    Rng rng(19);
    std::vector<double> prefix = prefixOf({1.0, 0.0, 3.0});
    std::vector<int> counts(3, 0);
    for (int i = 0; i < 8000; ++i)
        counts[rng.weightedIndex(prefix)]++;
    EXPECT_EQ(counts[1], 0);
    EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.5);
}

TEST(Rng, WeightedIndexAllZeroFallsBackToUniform)
{
    Rng rng(23);
    std::vector<double> prefix = prefixOf({0.0, 0.0, 0.0, 0.0});
    std::vector<int> counts(4, 0);
    for (int i = 0; i < 4000; ++i)
        counts[rng.weightedIndex(prefix)]++;
    for (int c : counts)
        EXPECT_GT(c, 600);
}

TEST(Rng, WeightedIndexMatchesTheLinearScanDrawForDraw)
{
    // Random weight vectors, GA-score-like (tiny magnitudes, many
    // exact zeros) and all-zero: two generators on one seed, one
    // through each sampler, must return the same index every draw and
    // so stay in lockstep.
    Rng gen(37);
    std::size_t zero_weight_vectors = 0;
    std::size_t all_zero_vectors = 0;
    for (int trial = 0; trial < 400; ++trial) {
        std::size_t size = 1 + gen.index(trial % 4 == 0 ? 3 : 250);
        double scale = trial % 3 == 0 ? 1e-16 : 1.0;
        double zero_share = (trial % 5) * 0.2;
        std::vector<double> weights(size);
        for (double &w : weights)
            w = gen.chance(zero_share) ? 0.0 : gen.uniform(0.0, scale);
        if (trial % 7 == 0)
            weights.assign(size, 0.0);
        zero_weight_vectors +=
            std::count(weights.begin(), weights.end(), 0.0) > 0;
        all_zero_vectors += std::all_of(weights.begin(), weights.end(),
                                        [](double w) { return w == 0.0; });

        std::vector<double> prefix = prefixOf(weights);
        std::uint64_t seed = gen.engine()();
        Rng scan(seed), roulette(seed);
        for (int i = 0; i < 200; ++i) {
            std::size_t expected = scanWeightedIndex(scan, weights);
            ASSERT_EQ(roulette.weightedIndex(prefix), expected)
                << "trial " << trial << " draw " << i;
        }
        ASSERT_EQ(scan.engine()(), roulette.engine()());
    }
    EXPECT_GT(zero_weight_vectors, 100u);
    EXPECT_GT(all_zero_vectors, 40u);
}

TEST(Rng, ChanceExtremes)
{
    Rng rng(29);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(Rng, ForkProducesIndependentStream)
{
    Rng a(31);
    Rng child = a.fork();
    // The child must not replay the parent's stream.
    Rng reference(31);
    reference.fork();
    double parent_next = a.uniform(0, 1);
    double child_next = child.uniform(0, 1);
    EXPECT_NE(parent_next, child_next);
    // But forking is deterministic overall.
    Rng b(31);
    Rng child_b = b.fork();
    EXPECT_DOUBLE_EQ(child_b.uniform(0, 1), child_next);
}

} // namespace
} // namespace opdvfs
