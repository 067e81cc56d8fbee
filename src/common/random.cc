#include "common/random.h"

#include <algorithm>

namespace opdvfs {

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
