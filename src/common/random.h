/**
 * @file
 * Deterministic random number generation.
 *
 * All stochastic behaviour in the library (measurement noise, genetic
 * algorithm, workload synthesis) flows through Rng instances seeded
 * explicitly, so every experiment is reproducible bit-for-bit.
 *
 * Every simulated op advances its profiler's noise stream here, so the
 * stream is a large share of a simulation's host time.  The engine is
 * MT19937-64 with the standard's output sequence, and uniform, chance
 * and gaussian are spelled out exactly as libstdc++ computes them over
 * that engine, so outputs stay what the std engine and distributions
 * gave.  The spelled-out forms drop the branches that mispredict: the
 * twist's per-word choice of matrix and the word-to-double conversion's
 * test of the top bit.  uniformInt alone still uses a std distribution,
 * which reads the same words.
 *
 * Most deviates are never looked at: the profiler skips those of ops
 * that retire outside a measurement window, in one skipGaussians call
 * when the window opens.  That call tests the polar method's candidate
 * points two per vector instruction over the engine's unread state, so
 * a skipped deviate costs a fraction of a drawn one.
 */

#ifndef OPDVFS_COMMON_RANDOM_H
#define OPDVFS_COMMON_RANDOM_H

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <random>
#include <vector>

namespace opdvfs {

/**
 * MT19937-64: for every seed, the word sequence of [rand.predef]'s
 * mt19937_64.  Its refill applies the twist matrix through a mask of
 * the word's low bit instead of a conditional jump.
 */
class MersenneTwister64
{
  public:
    using result_type = std::uint64_t;

    explicit MersenneTwister64(result_type seed);

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type{0}; }

    /** Next word of the sequence. */
    result_type
    operator()()
    {
        if (next_ >= kStateSize)
            refill();
        result_type z = state_[next_++];
        z ^= (z >> 29) & 0x5555555555555555ULL;
        z ^= (z << 17) & 0x71d67fffeda60000ULL;
        z ^= (z << 37) & 0xfff7eee000000000ULL;
        z ^= z >> 43;
        return z;
    }

  private:
    /** Rng::skipGaussians reads the unread state in place. */
    friend class Rng;

    static constexpr std::size_t kStateSize = 312;

    /** Regenerate all kStateSize words of state. */
    void refill();

    std::array<result_type, kStateSize> state_;
    std::size_t next_ = kStateSize;
};

/**
 * A seeded pseudo-random source with the distribution helpers the
 * library needs.
 */
class Rng
{
  public:
    /** Construct from an explicit seed. */
    explicit Rng(std::uint64_t seed) : engine_(seed) {}

    /** Uniform double in [lo, hi). */
    double
    uniform(double lo, double hi)
    {
        return canonical() * (hi - lo) + lo;
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t
    uniformInt(std::int64_t lo, std::int64_t hi)
    {
        return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
    }

    /** Uniform index in [0, n). @p n must be > 0. */
    std::size_t
    index(std::size_t n)
    {
        return static_cast<std::size_t>(
            uniformInt(0, static_cast<std::int64_t>(n) - 1));
    }

    /**
     * Normal deviate with the given mean and standard deviation, by
     * Marsaglia's polar method.  Each call draws a fresh pair and keeps
     * one of its two deviates.
     */
    double
    gaussian(double mean, double stddev)
    {
        PolarPoint p = polarPoint();
        double mult = std::sqrt(-2 * std::log(p.r2) / p.r2);
        return p.y * mult * stddev + mean;
    }

    /**
     * Advance the stream exactly as gaussian() would, without computing
     * the deviate.
     */
    void
    skipGaussian()
    {
        polarPoint();
    }

    /**
     * Advance the stream exactly as @p n calls of skipGaussian() would.
     * Counts accepted points block by block over the engine's unread
     * state, two per vector step and with no branch per point, and
     * steps one point at a time only across a pair that straddles a
     * refill and in the block holding the n-th accepted point.
     */
    void skipGaussians(std::uint64_t n);

    /**
     * Multiplicative noise factor: 1 + N(0, relative_sigma), clamped so
     * the factor stays positive.  Used to model measurement noise.
     */
    double
    noiseFactor(double relative_sigma)
    {
        double f = gaussian(1.0, relative_sigma);
        return f > 0.01 ? f : 0.01;
    }

    /** Bernoulli trial with probability @p p of returning true. */
    bool
    chance(double p)
    {
        return canonical() < p;
    }

    /**
     * Roulette-wheel draw: sample an index in [0, prefix.size()) with
     * probability proportional to its weight, given the running sums
     * of the (non-negative, finite) weights left to right, e.g. from
     * std::partial_sum.  If every weight is zero, samples uniformly.
     * Build the sums once per weight vector: each draw is then one
     * uniform deviate plus a binary search, and returns exactly the
     * index a linear scan over the weights would.
     */
    std::size_t weightedIndex(const std::vector<double> &prefix);

    /** Derive an independent child RNG; advances this generator. */
    Rng
    fork()
    {
        return Rng(engine_());
    }

    /** Access the underlying engine (for std::shuffle etc.). */
    MersenneTwister64 &engine() { return engine_; }

  private:
    /**
     * One word scaled into [0, 1): the word as a double, times 2^-64,
     * clamped below 1.  Both halves convert exactly, so their sum is
     * rounded once and equals the word's own conversion.
     */
    double
    canonical()
    {
        std::uint64_t v = engine_();
        double high = static_cast<std::uint32_t>(v >> 32);
        double low = static_cast<std::uint32_t>(v);
        double u = (high * 0x1p32 + low) * 0x1p-64;
        return u < 1.0 ? u : std::nextafter(1.0, 0.0);
    }

    /** The y and the squared radius of a point in the unit disc. */
    struct PolarPoint
    {
        double y = 0.0;
        double r2 = 0.0;
    };

    /**
     * The polar method's rejection loop: draw points uniform in the
     * square [-1, 1)^2 until one falls inside the unit disc, minus its
     * centre.
     */
    PolarPoint
    polarPoint()
    {
        PolarPoint p;
        do {
            double x = 2.0 * canonical() - 1.0;
            p.y = 2.0 * canonical() - 1.0;
            p.r2 = x * x + p.y * p.y;
        } while (p.r2 > 1.0 || p.r2 == 0.0);
        return p;
    }

    MersenneTwister64 engine_;
};

} // namespace opdvfs

#endif // OPDVFS_COMMON_RANDOM_H
