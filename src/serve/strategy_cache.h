/**
 * @file
 * The serving layer's one strategy cache: an LRU of immutable entries.
 *
 * Workers use it behind one mutex.  Exact lookups key on the
 * fingerprint digest and refresh recency; similarity lookups scan
 * every entry, most recently used first, for the one whose feature
 * vector is closest to the probe — the warm-start donor search.  With
 * production-scale capacities (hundreds of entries) the scan is a few
 * microseconds, far below one GA generation.
 *
 * Reactors never take that mutex.  Every write publishes the digest
 * -> entry index through an epoch-based RCU (cache_read.h), so a
 * reactor reads an entry wait-free.  Each entry carries its own
 * exact-hit wire frame: the first reactor to serve the entry encodes
 * it and installs it with one compare-and-swap.  A refinement upgrade
 * or an epoch recompute inserts a new entry with no frame yet, so a
 * frame can never outlive the entry it encodes.
 */

#ifndef OPDVFS_SERVE_STRATEGY_CACHE_H
#define OPDVFS_SERVE_STRATEGY_CACHE_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "dvfs/genetic.h"
#include "dvfs/strategy_io.h"
#include "serve/cache_read.h"
#include "serve/fingerprint.h"

namespace opdvfs::serve {

/** One cached optimisation result. */
struct CacheEntry
{
    /** Where the entry came from, which decides how it may be used. */
    enum class Kind : std::uint8_t
    {
        /** Searched by this shard: served as an exact hit, persisted
         *  and replicated. */
        Owned,
        /**
         * Provisional entry from the surrogate's predict-first path: a
         * full asynchronous search is (or was) still refining it.
         * Served as an exact hit like an owned entry, but never
         * replicated, WAL-logged or snapshotted, so a restart cannot
         * resurrect the lower-quality answer.  A winning refinement
         * replaces it with an Owned entry; a losing one leaves it
         * Predicted.
         */
        Predicted,
        /**
         * May seed warm starts but is never served as an exact hit.
         * Set on strategies imported from peer shards and on failover
         * answers: this shard is not the entry's owner, so serving it
         * verbatim would let a stale copy outlive the owner's
         * invalidation.
         */
        Donor,
    };

    Fingerprint fingerprint;
    /** The generated strategy (stages, per-stage MHz, SetFreq plan). */
    dvfs::Strategy strategy;
    /** Full search output; `best_mhz` seeds warm starts. */
    dvfs::GaResult ga;
    /** The loss target the strategy was generated for. */
    double perf_loss_target = 0.0;
    Kind kind = Kind::Owned;
};

/**
 * An entry as the cache holds it: immutable once inserted, plus the
 * exact-hit wire frame the first reactor to serve it installs.
 */
struct StoredEntry
{
    explicit StoredEntry(CacheEntry value) : entry(std::move(value)) {}
    ~StoredEntry() { delete frame.load(std::memory_order_acquire); }
    StoredEntry(const StoredEntry &) = delete;
    StoredEntry &operator=(const StoredEntry &) = delete;

    const CacheEntry entry;
    /** Null until first served; then owned here and never replaced. */
    mutable std::atomic<const std::string *> frame{nullptr};
};

/** A similarity lookup hit. */
struct SimilarHit
{
    CacheEntry entry;
    double similarity = 0.0;
};

/** Similarity-scan effort counters (monotonic). */
struct ScanCounters
{
    /** findSimilar() calls. */
    std::uint64_t similar_lookups = 0;
    /** Entries visited across all lookups. */
    std::uint64_t similar_scanned = 0;
    /** Entries whose partial distance exceeded the incumbent best and
     *  were abandoned mid-row (the branch-and-bound win). */
    std::uint64_t similar_pruned = 0;
};

/** Thread-safe LRU over fingerprint digests with a wait-free reactor
 *  read path. */
class StrategyCache
{
  public:
    struct Options
    {
        /** Entries kept; the least recently used is evicted beyond
         *  this. */
        std::size_t capacity = 256;
        /**
         * Max |donor loss target - probe loss target| a similarity
         * lookup tolerates.  A strategy tuned for a different
         * performance envelope optimises the wrong trade-off; seeding
         * the GA with it drags the search toward that envelope.
         */
        double loss_target_tolerance = 0.005;
    };

    /** Builds an entry's exact-hit wire frame (the net layer owns the
     *  wire format; this layer treats the frame as opaque bytes). */
    using FrameEncoder = std::function<std::string(const CacheEntry &)>;

    explicit StrategyCache(const Options &options);

    /** Exact hit by digest; refreshes LRU recency.  Donor entries are
     *  invisible here. */
    std::optional<CacheEntry> findExact(std::uint64_t digest);

    /**
     * Exact lookup by digest *including* Donor entries — the failover
     * read: a successor answering for a dead owner may serve its
     * replica copy (degraded to warm-start provenance by the
     * service).  Refreshes LRU recency.  Never used on the normal
     * serving path, where donors stay invisible.
     */
    std::optional<CacheEntry> findReplica(std::uint64_t digest);

    /**
     * Cheap admission-control probe: is a non-donor entry for the
     * digest cached at this model epoch?  Copies nothing and does not
     * refresh recency — a probe is a prediction, not a use; the hit is
     * only consumed if the request is admitted and findExact runs on a
     * worker.
     */
    bool containsFresh(std::uint64_t digest, std::uint64_t model_epoch);

    /**
     * Best entry by feature similarity to @p probe, if any reaches
     * @p min_similarity.  Scans most recently used first and replaces
     * the incumbent only on a strictly greater similarity.  Does not
     * refresh recency (a donor is not a use of the entry's own
     * workload).  When @p loss_target is set, entries generated for a
     * loss target differing by more than
     * `Options::loss_target_tolerance` are skipped.  With
     * @p owned_only, Donor entries are skipped too — a shard exporting
     * donors to peers must not relay second-hand copies it imported
     * itself.
     */
    std::optional<SimilarHit>
    findSimilar(const Fingerprint &probe, double min_similarity,
                std::optional<double> loss_target = std::nullopt,
                bool owned_only = false);

    /** Similarity-scan effort so far (served into ServiceStats). */
    ScanCounters scanCounters() const;

    /** Insert or overwrite as the most recently used entry; evicts the
     *  least recently used one when full.  A Donor entry never replaces
     *  a non-donor entry with the same digest — a donor copy must not
     *  shadow a result this shard serves. */
    void insert(CacheEntry entry);

    /** Current entry count. */
    std::size_t size() const;

    /** A copy of every entry, most recently used first — the
     *  persistence snapshot. */
    std::vector<CacheEntry> snapshotEntries() const;

    /** Claim a wait-free reader slot (one per reactor thread). */
    std::size_t registerReader() { return index_.registerReader(); }

    /**
     * Reactor read: the exact-hit frame of @p digest's entry when that
     * entry is servable as an exact hit at @p model_epoch — not a
     * Donor, and computed under exactly that epoch — null otherwise.
     * An entry without a frame yet gets one from @p encode, installed
     * with one compare-and-swap; a losing encoder drops its copy.
     * Never takes the mutex and does not refresh recency.  Exceptions
     * from @p encode propagate and install nothing.  @p reader must be
     * a slot from registerReader(), used by one thread at a time.
     */
    std::shared_ptr<const std::string>
    exactHitFrame(std::size_t reader, std::uint64_t digest,
                  std::uint64_t model_epoch, const FrameEncoder &encode);

    /** Retired index snapshots not yet freed (0 after a write that
     *  found every reader quiescent). */
    std::size_t retiredSnapshots() const
    {
        return index_.retiredSnapshots();
    }

  private:
    using Lru = std::list<std::shared_ptr<const StoredEntry>>;

    /** Move @p digest's entry to the front and return it; null when
     *  absent or when it is a Donor and @p donors is false.  Caller
     *  holds mutex_. */
    const CacheEntry *touchLocked(std::uint64_t digest, bool donors);
    /** Publish the current digest -> entry map to the readers.  Caller
     *  holds mutex_, so snapshots publish in write order. */
    void publishLocked();

    double loss_target_tolerance_;
    std::size_t capacity_;

    mutable std::mutex mutex_;
    /** Most recently used first. */
    Lru entries_;
    std::unordered_map<std::uint64_t, Lru::iterator> by_digest_;
    ReadIndex index_;

    std::atomic<std::uint64_t> similar_lookups_{0};
    std::atomic<std::uint64_t> similar_scanned_{0};
    std::atomic<std::uint64_t> similar_pruned_{0};
};

} // namespace opdvfs::serve

#endif // OPDVFS_SERVE_STRATEGY_CACHE_H
