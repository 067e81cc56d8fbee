#include "serve/strategy_cache.h"

#include <cmath>
#include <limits>
#include <stdexcept>

namespace opdvfs::serve {

StrategyCache::StrategyCache(const Options &options)
    : loss_target_tolerance_(options.loss_target_tolerance),
      capacity_(options.capacity)
{
    if (options.capacity == 0)
        throw std::invalid_argument("StrategyCache: zero capacity");
    if (!std::isfinite(options.loss_target_tolerance)
        || options.loss_target_tolerance < 0.0)
        throw std::invalid_argument(
            "StrategyCache: negative loss_target_tolerance");
}

const CacheEntry *
StrategyCache::touchLocked(std::uint64_t digest, bool donors)
{
    auto found = by_digest_.find(digest);
    if (found == by_digest_.end())
        return nullptr;
    const CacheEntry &entry = (*found->second)->entry;
    if (!donors && entry.kind == CacheEntry::Kind::Donor)
        return nullptr;
    entries_.splice(entries_.begin(), entries_, found->second);
    return &entry;
}

std::optional<CacheEntry>
StrategyCache::findExact(std::uint64_t digest)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (const CacheEntry *entry = touchLocked(digest, false))
        return *entry;
    return std::nullopt;
}

std::optional<CacheEntry>
StrategyCache::findReplica(std::uint64_t digest)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (const CacheEntry *entry = touchLocked(digest, true))
        return *entry;
    return std::nullopt;
}

bool
StrategyCache::containsFresh(std::uint64_t digest,
                             std::uint64_t model_epoch)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto found = by_digest_.find(digest);
    if (found == by_digest_.end())
        return false;
    const CacheEntry &entry = (*found->second)->entry;
    return entry.kind != CacheEntry::Kind::Donor
           && entry.fingerprint.model_epoch == model_epoch;
}

std::optional<SimilarHit>
StrategyCache::findSimilar(const Fingerprint &probe, double min_similarity,
                           std::optional<double> loss_target,
                           bool owned_only)
{
    similar_lookups_.fetch_add(1, std::memory_order_relaxed);
    std::uint64_t scanned = 0;
    std::uint64_t pruned = 0;

    // Branch and bound over the full scan: similarity is a monotone
    // decreasing function of the squared feature distance, so once the
    // running partial distance of an entry exceeds the incumbent
    // best's full distance the entry cannot *strictly* beat the best
    // and the row is abandoned.  Iteration order and the
    // strictly-greater replacement rule match the exhaustive scan
    // exactly, so the returned hit is identical — only wasted feature
    // arithmetic is skipped.
    std::optional<SimilarHit> best;
    double best_squared = std::numeric_limits<double>::infinity();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (const auto &stored : entries_) {
            const CacheEntry &entry = stored->entry;
            ++scanned;
            if (owned_only && entry.kind == CacheEntry::Kind::Donor)
                continue;
            if (loss_target
                && std::abs(entry.perf_loss_target - *loss_target)
                    > loss_target_tolerance_)
                continue;
            const std::vector<double> &a = probe.features;
            const std::vector<double> &b = entry.fingerprint.features;
            if (a.size() != b.size() || a.empty()) {
                // fingerprintSimilarity defines this as 0.
                if (0.0 >= min_similarity && !best)
                    best = SimilarHit{entry, 0.0};
                continue;
            }
            double squared = 0.0;
            bool abandoned = false;
            for (std::size_t i = 0; i < a.size(); ++i) {
                double d = a[i] - b[i];
                squared += d * d;
                if (squared > best_squared) {
                    abandoned = true;
                    ++pruned;
                    break;
                }
            }
            if (abandoned)
                continue;
            double similarity = std::exp(-5.0 * std::sqrt(squared));
            if (similarity < min_similarity)
                continue;
            if (!best || similarity > best->similarity) {
                best = SimilarHit{entry, similarity};
                best_squared = squared;
            }
        }
    }
    similar_scanned_.fetch_add(scanned, std::memory_order_relaxed);
    similar_pruned_.fetch_add(pruned, std::memory_order_relaxed);
    return best;
}

ScanCounters
StrategyCache::scanCounters() const
{
    ScanCounters out;
    out.similar_lookups = similar_lookups_.load(std::memory_order_relaxed);
    out.similar_scanned = similar_scanned_.load(std::memory_order_relaxed);
    out.similar_pruned = similar_pruned_.load(std::memory_order_relaxed);
    return out;
}

void
StrategyCache::insert(CacheEntry entry)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto found = by_digest_.find(entry.fingerprint.digest);
    if (found != by_digest_.end()) {
        if (entry.kind == CacheEntry::Kind::Donor
            && (*found->second)->entry.kind != CacheEntry::Kind::Donor)
            return; // never shadow a served result with a donor copy
        entries_.erase(found->second);
        by_digest_.erase(found);
    }
    entries_.push_front(std::make_shared<const StoredEntry>(std::move(entry)));
    by_digest_[entries_.front()->entry.fingerprint.digest] =
        entries_.begin();
    while (entries_.size() > capacity_) {
        by_digest_.erase(entries_.back()->entry.fingerprint.digest);
        entries_.pop_back();
    }
    publishLocked();
}

void
StrategyCache::publishLocked()
{
    auto next = std::make_shared<ReadSnapshot>();
    next->reserve(entries_.size());
    for (const auto &stored : entries_)
        next->emplace(stored->entry.fingerprint.digest, stored);
    index_.publish(std::move(next));
}

std::size_t
StrategyCache::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
}

std::vector<CacheEntry>
StrategyCache::snapshotEntries() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<CacheEntry> entries;
    entries.reserve(entries_.size());
    for (const auto &stored : entries_)
        entries.push_back(stored->entry);
    return entries;
}

std::shared_ptr<const std::string>
StrategyCache::exactHitFrame(std::size_t reader, std::uint64_t digest,
                             std::uint64_t model_epoch,
                             const FrameEncoder &encode)
{
    std::shared_ptr<const StoredEntry> stored = index_.lookup(reader, digest);
    if (!stored || stored->entry.kind == CacheEntry::Kind::Donor
        || stored->entry.fingerprint.model_epoch != model_epoch)
        return nullptr;
    const std::string *frame = stored->frame.load(std::memory_order_acquire);
    if (!frame) {
        auto fresh =
            std::make_unique<const std::string>(encode(stored->entry));
        if (stored->frame.compare_exchange_strong(
                frame, fresh.get(), std::memory_order_acq_rel,
                std::memory_order_acquire))
            frame = fresh.release();
        // else `frame` now holds the winner's copy; ours is dropped.
    }
    // Aliasing: the frame lives exactly as long as its entry.
    return std::shared_ptr<const std::string>(std::move(stored), frame);
}

} // namespace opdvfs::serve
