#include "common/random.h"

#include <algorithm>

namespace opdvfs {

namespace {

constexpr std::size_t kShift = 156;
constexpr std::uint64_t kMatrix = 0xb5026f5aa96619e9ULL;
constexpr std::uint64_t kUpperMask = ~std::uint64_t{0} << 31;

/**
 * One word of the twist.  (0 - (y & 1)) is all ones when y is odd and
 * zero otherwise, so the matrix is applied without a branch.
 */
std::uint64_t
twist(std::uint64_t upper, std::uint64_t lower, std::uint64_t shifted)
{
    std::uint64_t y = (upper & kUpperMask) | (lower & ~kUpperMask);
    return shifted ^ (y >> 1) ^ ((0 - (y & 1)) & kMatrix);
}

} // namespace

MersenneTwister64::MersenneTwister64(result_type seed)
{
    state_[0] = seed;
    for (std::size_t i = 1; i < kStateSize; ++i) {
        result_type x = state_[i - 1];
        state_[i] = 6364136223846793005ULL * (x ^ (x >> 62)) + i;
    }
}

void
MersenneTwister64::refill()
{
    std::size_t k = 0;
    for (; k < kStateSize - kShift; ++k)
        state_[k] = twist(state_[k], state_[k + 1], state_[k + kShift]);
    for (; k < kStateSize - 1; ++k)
        state_[k] = twist(state_[k], state_[k + 1],
                          state_[k + kShift - kStateSize]);
    state_[k] = twist(state_[k], state_[0], state_[kShift - 1]);
    next_ = 0;
}

std::size_t
Rng::weightedIndex(const std::vector<double> &prefix)
{
    double total = prefix.back();
    if (total <= 0.0)
        return index(prefix.size());

    // Non-negative weights keep the sums non-decreasing, so the first
    // sum above r is the index where a scan's running total passes r.
    double r = uniform(0.0, total);
    auto at = std::upper_bound(prefix.begin(), prefix.end(), r);
    return at == prefix.end()
        ? prefix.size() - 1
        : static_cast<std::size_t>(at - prefix.begin());
}

} // namespace opdvfs
