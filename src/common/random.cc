#include "common/random.h"

#include <algorithm>
#include <bit>

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

// Two-lane vectors (GCC/Clang vector extensions): SSE2 on x86-64, the
// target's vector unit or scalar code elsewhere.
using U64x2 = std::uint64_t __attribute__((vector_size(16)));
using I64x2 = std::int64_t __attribute__((vector_size(16)));
using F64x2 = double __attribute__((vector_size(16)));

/** MersenneTwister64's tempering, per lane. */
U64x2
temper(U64x2 z)
{
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71d67fffeda60000ULL;
    z ^= (z << 37) & 0xfff7eee000000000ULL;
    z ^= z >> 43;
    return z;
}

/**
 * Rng::canonical per lane.  A 32-bit half h or'ed into the mantissa of
 * 2^52 is the double 2^52 + h, so subtracting 2^52 converts each half
 * exactly, as the scalar path's conversion does; the sum, scaling and
 * clamp below 1 are the scalar path's expressions.
 */
F64x2
canonical(U64x2 v)
{
    constexpr std::uint64_t kTwo52Bits = 0x4330000000000000ULL;
    constexpr double kTwo52 = 0x1p52;
    constexpr double kBelowOne = 0x1.fffffffffffffp-1; // nextafter(1, 0)
    F64x2 high = std::bit_cast<F64x2>((v >> 32) | kTwo52Bits) - kTwo52;
    F64x2 low =
        std::bit_cast<F64x2>((v & 0xffffffffULL) | kTwo52Bits) - kTwo52;
    F64x2 u = (high * 0x1p32 + low) * 0x1p-64;
    I64x2 below = std::bit_cast<I64x2>(u < 1.0);
    I64x2 clamped = std::bit_cast<I64x2>(F64x2{kBelowOne, kBelowOne});
    return std::bit_cast<F64x2>((std::bit_cast<I64x2>(u) & below)
                                | (clamped & ~below));
}

/**
 * -1 in each lane whose point, x from @p xw and y from @p yw (untempered
 * state words), Rng::polarPoint rejects; 0 where it accepts.  The lanes
 * round each product and the sum as the scalar loop does; a target that
 * fused x * x + y * y differently in the two would break that, which
 * test_random's skip cases check on every build.  Inline, or GCC calls
 * it from both of acceptedPoints' sites and reloads every constant per
 * step.
 */
inline I64x2
rejected(U64x2 xw, U64x2 yw)
{
    F64x2 x = 2.0 * canonical(temper(xw)) - 1.0;
    F64x2 y = 2.0 * canonical(temper(yw)) - 1.0;
    F64x2 r2 = x * x + y * y;
    return std::bit_cast<I64x2>((r2 > 1.0) | (r2 == 0.0));
}

/**
 * How many of the @p pairs points at @p w (x then y, in consecutive
 * untempered words) Rng::polarPoint accepts.
 */
std::size_t
acceptedPoints(const std::uint64_t *w, std::size_t pairs)
{
    I64x2 rejects = {0, 0};
    std::size_t i = 0;
    for (; i + 2 <= pairs; i += 2, w += 4)
        rejects += rejected(U64x2{w[0], w[2]}, U64x2{w[1], w[3]});
    if (i < pairs) // An odd last point rides in both lanes; count one.
        rejects += rejected(U64x2{w[0], w[0]}, U64x2{w[1], w[1]})
            & I64x2{-1, 0};
    return pairs - static_cast<std::size_t>(-(rejects[0] + rejects[1]));
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

void
Rng::skipGaussians(std::uint64_t n)
{
    constexpr std::size_t kStateSize = MersenneTwister64::kStateSize;
    while (n > 0) {
        if (engine_.next_ >= kStateSize)
            engine_.refill();
        std::size_t pairs = (kStateSize - engine_.next_) / 2;
        std::size_t accepted =
            acceptedPoints(&engine_.state_[engine_.next_], pairs);
        if (accepted >= n)
            break; // The n-th accepted point is in this block.
        n -= accepted;
        engine_.next_ += 2 * pairs;
        if (engine_.next_ < kStateSize) {
            // From an odd start the last pair straddles the refill:
            // word 311, then word 0 of the next block.
            polarPoint();
            --n;
        }
    }
    for (; n > 0; --n)
        polarPoint();
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
