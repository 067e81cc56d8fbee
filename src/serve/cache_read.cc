#include "serve/cache_read.h"

#include <algorithm>
#include <stdexcept>

namespace opdvfs::serve {

ReadIndex::ReadIndex()
{
    auto empty = std::make_shared<const ReadSnapshot>();
    current_.store(empty.get(), std::memory_order_seq_cst);
    current_owner_ = std::move(empty);
}

std::size_t
ReadIndex::registerReader()
{
    std::size_t slot = reader_count_.fetch_add(1, std::memory_order_acq_rel);
    if (slot >= kMaxReaders)
        throw std::runtime_error("ReadIndex: out of reader slots");
    return slot;
}

std::shared_ptr<const StoredEntry>
ReadIndex::lookup(std::size_t reader, std::uint64_t digest)
{
    ReaderSlot &slot = slots_[reader];
    // Pin first, then load the pointer: seq_cst on the pin store, the
    // epoch bump and the pointer swap puts this load after the swap in
    // the single total order whenever the writer's reclaim scan missed
    // the pin — the snapshot we dereference is always alive (see the
    // file comment for the full argument).
    std::uint64_t epoch = global_epoch_.load(std::memory_order_seq_cst);
    slot.pin.store(epoch, std::memory_order_seq_cst);
    const ReadSnapshot *snapshot =
        current_.load(std::memory_order_seq_cst);
    std::shared_ptr<const StoredEntry> entry;
    auto it = snapshot->find(digest);
    if (it != snapshot->end())
        entry = it->second; // ref taken while pinned: outlives us
    slot.pin.store(0, std::memory_order_release);
    return entry;
}

void
ReadIndex::publish(std::shared_ptr<const ReadSnapshot> next)
{
    const ReadSnapshot *raw = next.get();
    std::lock_guard<std::mutex> lock(writer_mutex_);
    current_.store(raw, std::memory_order_seq_cst);
    std::uint64_t retire_epoch =
        global_epoch_.fetch_add(1, std::memory_order_seq_cst) + 1;
    retired_.push_back({std::move(current_owner_), retire_epoch});
    current_owner_ = std::move(next);
    reclaimLocked();
}

void
ReadIndex::reclaimLocked()
{
    std::uint64_t min_pin = UINT64_MAX;
    std::size_t readers =
        std::min(reader_count_.load(std::memory_order_acquire),
                 kMaxReaders);
    for (std::size_t i = 0; i < readers; ++i) {
        std::uint64_t pin =
            slots_[i].pin.load(std::memory_order_seq_cst);
        if (pin != 0)
            min_pin = std::min(min_pin, pin);
    }
    auto still_held = [min_pin](const Retired &r) {
        return r.epoch > min_pin;
    };
    auto kept = std::stable_partition(retired_.begin(), retired_.end(),
                                      still_held);
    retired_.erase(kept, retired_.end());
}

std::size_t
ReadIndex::retiredSnapshots() const
{
    std::lock_guard<std::mutex> lock(writer_mutex_);
    return retired_.size();
}

} // namespace opdvfs::serve
