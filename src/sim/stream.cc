#include "sim/stream.h"

#include <stdexcept>

namespace opdvfs::sim {

void
SyncEvent::record(Tick now)
{
    if (recorded_)
        throw std::logic_error("SyncEvent: recorded twice");
    recorded_ = true;
    record_tick_ = now;
    auto waiters = std::move(waiters_);
    waiters_.clear();
    for (auto &fn : waiters)
        fn();
}

void
SyncEvent::onRecord(std::function<void()> fn)
{
    if (recorded_)
        fn();
    else
        waiters_.push_back(std::move(fn));
}

Stream::Stream(Simulator &simulator, std::string name)
    : simulator_(simulator), name_(std::move(name))
{
}

void
Stream::enqueue(Task task)
{
    push({Item::Kind::Task, std::move(task), nullptr});
}

void
Stream::push(Item item)
{
    // Reclaim the consumed prefix once it is at least as long as the
    // live items: a drained stream restarts at the front of its
    // storage, and one that never drains stays bounded.
    if (head_ > 0 && head_ >= queue_.size() - head_) {
        queue_.erase(queue_.begin(),
                     queue_.begin() + static_cast<std::ptrdiff_t>(head_));
        head_ = 0;
    }
    queue_.push_back(std::move(item));
    pump();
}

void
Stream::enqueueDelay(Tick duration)
{
    if (duration < 0)
        throw std::invalid_argument("Stream: negative delay");
    enqueue([this, duration](std::function<void()> done) {
        simulator_.scheduleIn(duration, std::move(done));
    });
}

void
Stream::enqueueRecord(std::shared_ptr<SyncEvent> event)
{
    if (!event)
        throw std::invalid_argument("Stream: null event");
    push({Item::Kind::Record, nullptr, std::move(event)});
}

void
Stream::enqueueWait(std::shared_ptr<SyncEvent> event)
{
    if (!event)
        throw std::invalid_argument("Stream: null event");
    push({Item::Kind::Wait, nullptr, std::move(event)});
}

void
Stream::pump()
{
    if (pumping_)
        return;
    pumping_ = true;

    while (!busy_ && !waiting_ && !queueEmpty()) {
        Item item = std::move(queue_[head_++]);

        switch (item.kind) {
          case Item::Kind::Record:
            item.event->record(simulator_.now());
            break;

          case Item::Kind::Wait:
            if (!item.event->recorded()) {
                waiting_ = true;
                item.event->onRecord([this] {
                    waiting_ = false;
                    pump();
                });
            }
            break;

          case Item::Kind::Task: {
            busy_ = true;
            std::uint64_t token = ++task_token_;
            item.task([this, token] { complete(token); });
            break;
          }
        }
    }

    pumping_ = false;
    // A task may have completed synchronously while we held the guard;
    // if so there may be runnable items left.
    if (!busy_ && !waiting_ && !queueEmpty())
        pump();
}

void
Stream::complete(std::uint64_t token)
{
    if (!busy_ || token != task_token_)
        throw std::logic_error(
            "Stream: task completion invoked twice or after the next "
            "task started");
    busy_ = false;
    if (queueEmpty() && !waiting_)
        last_idle_tick_ = simulator_.now();
    pump();
}

} // namespace opdvfs::sim
