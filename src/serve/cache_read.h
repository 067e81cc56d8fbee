/**
 * @file
 * Epoch-based RCU read path for the serving cache.
 *
 * The strategy cache proper (strategy_cache.h) keeps its LRU behind a
 * mutex — fine for GA workers that hold a result for milliseconds,
 * fatal for a reactor thread that wants to answer an exact hit in a
 * few microseconds without ever blocking.  ReadIndex gives reactors a
 * wait-free read path: every cache write builds a fully immutable
 * snapshot (digest -> entry), publishes it with one atomic pointer
 * store, and readers dereference the current snapshot without taking
 * any lock.
 *
 * Reclamation is epoch-based.  Each registered reader owns a
 * cache-line-padded pin slot; a lookup stores the current global
 * epoch into its slot, loads the snapshot pointer, finishes, and
 * stores 0.  A publish retires the previous snapshot stamped with the
 * post-bump epoch R; a retired snapshot is freed only once every
 * *active* reader's pin is >= R — a reader pinned at >= R provably
 * loaded the pointer after the swap (all pin/epoch/pointer accesses
 * are seq_cst, so the reader's later pointer load is ordered after
 * the writer's store in the single total order), so it cannot hold
 * the retired snapshot.  Quiescent readers (pin 0) never block
 * reclamation.
 *
 * Writers (publish) serialize on an internal mutex; readers never
 * touch it.  Readers must each call registerReader() once and pass
 * their slot to every lookup — slots are owned, not shared.
 */

#ifndef OPDVFS_SERVE_CACHE_READ_H
#define OPDVFS_SERVE_CACHE_READ_H

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace opdvfs::serve {

struct StoredEntry; // strategy_cache.h

/** An immutable published generation of the index. */
using ReadSnapshot =
    std::unordered_map<std::uint64_t, std::shared_ptr<const StoredEntry>>;

/**
 * Atomically-published immutable digest index with epoch-based
 * reclamation.  One writer side (internally serialized), up to
 * kMaxReaders registered lock-free readers.
 */
class ReadIndex
{
  public:
    /** Reader slots are statically sized: reactors register at server
     *  start, tests register a handful of threads. */
    static constexpr std::size_t kMaxReaders = 64;

    ReadIndex();
    ~ReadIndex() = default;

    ReadIndex(const ReadIndex &) = delete;
    ReadIndex &operator=(const ReadIndex &) = delete;

    /**
     * Claim a reader slot for the calling thread's exclusive use.
     * @throws std::runtime_error when kMaxReaders slots are taken.
     */
    std::size_t registerReader();

    /**
     * Wait-free exact lookup: the entry published for @p digest, or
     * null.  Never takes a lock.  The reference is taken while pinned,
     * so the entry outlives the snapshot it came from.  @p reader must
     * be a slot returned by registerReader() and used by one thread at
     * a time.
     */
    std::shared_ptr<const StoredEntry> lookup(std::size_t reader,
                                              std::uint64_t digest);

    /**
     * Publish @p next as the current snapshot and retire the previous
     * one.  Serialized internally; safe against concurrent lookups.
     * @p next must not be mutated after the call.
     */
    void publish(std::shared_ptr<const ReadSnapshot> next);

    /** Retired snapshots not yet freed.  Every publish frees those no
     *  reader can still hold, so this is bounded by slow readers and
     *  0 after a publish that found every reader quiescent. */
    std::size_t retiredSnapshots() const;

  private:
    struct alignas(64) ReaderSlot
    {
        /** 0 = quiescent; otherwise the global epoch pinned by an
         *  in-progress lookup. */
        std::atomic<std::uint64_t> pin{0};
    };

    struct Retired
    {
        std::shared_ptr<const ReadSnapshot> snapshot;
        /** Global epoch value *after* the swap that retired it: safe
         *  to free once every active pin is >= this. */
        std::uint64_t epoch = 0;
    };

    /** Free every retired snapshot no active reader can still hold.
     *  Caller holds writer_mutex_. */
    void reclaimLocked();

    std::array<ReaderSlot, kMaxReaders> slots_;
    std::atomic<std::size_t> reader_count_{0};

    /** Raw pointer readers dereference; owned by current_owner_. */
    std::atomic<const ReadSnapshot *> current_;
    std::atomic<std::uint64_t> global_epoch_{1};

    mutable std::mutex writer_mutex_;
    std::shared_ptr<const ReadSnapshot> current_owner_;
    std::vector<Retired> retired_;
};

} // namespace opdvfs::serve

#endif // OPDVFS_SERVE_CACHE_READ_H
