/**
 * @file
 * Ordered execution streams with record/wait synchronisation events,
 * mirroring the CANN/PyTorch stream-and-event mechanism the paper's
 * DVFS executor is built on (Sect. 7.1, Fig. 14): compute operators run
 * on a compute stream, SetFreq operators run on a dedicated SetFreq
 * stream, and Event Record / Event Wait order the two.
 */

#ifndef OPDVFS_SIM_STREAM_H
#define OPDVFS_SIM_STREAM_H

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/simulator.h"

namespace opdvfs::sim {

/**
 * A one-shot synchronisation event: recorded exactly once by a stream,
 * waited on by any number of streams.
 */
class SyncEvent
{
  public:
    /** True once record() has happened. */
    bool recorded() const { return recorded_; }

    /** Tick at which the event was recorded (valid once recorded()). */
    Tick recordTick() const { return record_tick_; }

    /** Mark recorded and release all waiters. */
    void record(Tick now);

    /** Invoke @p fn when recorded (immediately if already recorded). */
    void onRecord(std::function<void()> fn);

  private:
    bool recorded_ = false;
    Tick record_tick_ = 0;
    std::vector<std::function<void()>> waiters_;
};

/**
 * A FIFO stream of asynchronous tasks.
 *
 * A task receives a completion callback and must invoke it exactly once
 * (typically from a Simulator event it schedules); the stream starts
 * the next queued item when the callback fires.  Besides tasks, the
 * queue can hold event records (instantaneous) and event waits (block
 * the stream until another stream records the event).
 *
 * The stream itself allocates nothing per task in steady state: the
 * completion callback carries the stream and a per-task token (16
 * bytes, inside std::function's local buffer), and the queue reuses
 * its storage.
 */
class Stream
{
  public:
    /**
     * Task body: perform the work, then call @p done (possibly later,
     * from a scheduled event).
     */
    using Task = std::function<void(std::function<void()> done)>;

    Stream(Simulator &simulator, std::string name);

    /** Queue an asynchronous task. */
    void enqueue(Task task);

    /** Queue a fixed-duration busy period. */
    void enqueueDelay(Tick duration);

    /** Queue an instantaneous record of @p event. */
    void enqueueRecord(std::shared_ptr<SyncEvent> event);

    /** Queue a wait: the stream stalls until @p event is recorded. */
    void enqueueWait(std::shared_ptr<SyncEvent> event);

    /** True when nothing queued and no task in flight. */
    bool idle() const { return !busy_ && queueEmpty(); }

    /** Tick when the stream last became idle. */
    Tick lastIdleTick() const { return last_idle_tick_; }

    const std::string &name() const { return name_; }

    Simulator &simulator() { return simulator_; }

  private:
    struct Item
    {
        enum class Kind { Task, Record, Wait };
        Kind kind;
        Task task;
        std::shared_ptr<SyncEvent> event;
    };

    /** Append @p item and start whatever became runnable. */
    void push(Item item);

    /** Start queued items until blocked, busy, or drained. */
    void pump();

    /**
     * Completion of the task started with @p token.
     * @throws std::logic_error unless that task is the one in flight
     *         (a repeated or stale completion).
     */
    void complete(std::uint64_t token);

    bool queueEmpty() const { return head_ == queue_.size(); }

    Simulator &simulator_;
    std::string name_;
    /** Queued items are queue_[head_..]; the consumed prefix is reused. */
    std::vector<Item> queue_;
    std::size_t head_ = 0;
    /** Token of the task in flight; each started task gets a new one. */
    std::uint64_t task_token_ = 0;
    bool busy_ = false;
    bool waiting_ = false;
    Tick last_idle_tick_ = 0;
    // Guards against re-entrant pump() from a synchronously-completing
    // task.
    bool pumping_ = false;
};

} // namespace opdvfs::sim

#endif // OPDVFS_SIM_STREAM_H
