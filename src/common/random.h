/**
 * @file
 * Deterministic random number generation.
 *
 * All stochastic behaviour in the library (measurement noise, genetic
 * algorithm, workload synthesis) flows through Rng instances seeded
 * explicitly, so every experiment is reproducible bit-for-bit.
 */

#ifndef OPDVFS_COMMON_RANDOM_H
#define OPDVFS_COMMON_RANDOM_H

#include <cstdint>
#include <random>
#include <vector>

namespace opdvfs {

/**
 * A seeded pseudo-random source with the distribution helpers the
 * library needs.  Thin wrapper over std::mt19937_64.
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
        return std::uniform_real_distribution<double>(lo, hi)(engine_);
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

    /** Normal deviate with the given mean and standard deviation. */
    double
    gaussian(double mean, double stddev)
    {
        return std::normal_distribution<double>(mean, stddev)(engine_);
    }

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
        return std::bernoulli_distribution(p)(engine_);
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
    std::mt19937_64 &engine() { return engine_; }

  private:
    std::mt19937_64 engine_;
};

} // namespace opdvfs

#endif // OPDVFS_COMMON_RANDOM_H
