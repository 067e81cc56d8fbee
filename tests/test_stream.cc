#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

#include "sim/stream.h"

namespace opdvfs::sim {
namespace {

TEST(SyncEvent, RecordReleasesWaiters)
{
    SyncEvent event;
    int released = 0;
    event.onRecord([&] { ++released; });
    event.onRecord([&] { ++released; });
    EXPECT_EQ(released, 0);
    event.record(5);
    EXPECT_EQ(released, 2);
    EXPECT_TRUE(event.recorded());
    EXPECT_EQ(event.recordTick(), 5);
    // Late waiters run immediately.
    event.onRecord([&] { ++released; });
    EXPECT_EQ(released, 3);
}

TEST(SyncEvent, DoubleRecordThrows)
{
    SyncEvent event;
    event.record(1);
    EXPECT_THROW(event.record(2), std::logic_error);
}

TEST(Stream, TasksRunInFifoOrder)
{
    Simulator sim;
    Stream stream(sim, "s");
    std::vector<int> order;
    for (int i = 0; i < 3; ++i) {
        stream.enqueue([&sim, &order, i](std::function<void()> done) {
            order.push_back(i);
            sim.scheduleIn(10, std::move(done));
        });
    }
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
    EXPECT_TRUE(stream.idle());
}

TEST(Stream, TasksQueuedWhileRunningKeepFifoOrder)
{
    // The second task queues two more while the third still waits, so
    // the stream reuses its consumed storage with live items in it.
    Simulator sim;
    Stream stream(sim, "s");
    std::vector<int> order;
    auto task = [&](int i) {
        return [&sim, &order, i](std::function<void()> done) {
            order.push_back(i);
            sim.scheduleIn(10, std::move(done));
        };
    };
    stream.enqueue(task(0));
    stream.enqueue([&](std::function<void()> done) {
        order.push_back(1);
        stream.enqueue(task(3));
        stream.enqueue(task(4));
        sim.scheduleIn(10, std::move(done));
    });
    stream.enqueue(task(2));
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
    EXPECT_TRUE(stream.idle());
    EXPECT_EQ(sim.now(), 50);
}

TEST(Stream, DelaysAreSequential)
{
    Simulator sim;
    Stream stream(sim, "s");
    stream.enqueueDelay(100);
    stream.enqueueDelay(50);
    Tick finished = -1;
    stream.enqueue([&](std::function<void()> done) {
        finished = sim.now();
        done();
    });
    sim.run();
    EXPECT_EQ(finished, 150);
}

TEST(Stream, WaitBlocksUntilRecord)
{
    Simulator sim;
    Stream producer(sim, "producer");
    Stream consumer(sim, "consumer");
    auto event = std::make_shared<SyncEvent>();

    Tick consumer_ran_at = -1;
    consumer.enqueueWait(event);
    consumer.enqueue([&](std::function<void()> done) {
        consumer_ran_at = sim.now();
        done();
    });

    producer.enqueueDelay(500);
    producer.enqueueRecord(event);

    sim.run();
    EXPECT_EQ(consumer_ran_at, 500);
    EXPECT_EQ(event->recordTick(), 500);
}

TEST(Stream, WaitOnAlreadyRecordedEventDoesNotBlock)
{
    Simulator sim;
    Stream stream(sim, "s");
    auto event = std::make_shared<SyncEvent>();
    event->record(0);
    stream.enqueueWait(event);
    stream.enqueueDelay(10);
    sim.run();
    EXPECT_EQ(sim.now(), 10);
    EXPECT_TRUE(stream.idle());
}

TEST(Stream, SynchronousCompletionContinuesQueue)
{
    Simulator sim;
    Stream stream(sim, "s");
    std::vector<int> order;
    for (int i = 0; i < 3; ++i) {
        stream.enqueue([&order, i](std::function<void()> done) {
            order.push_back(i);
            done(); // completes without a scheduled event
        });
    }
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
    EXPECT_TRUE(stream.idle());
}

TEST(Stream, DoubleCompletionThrows)
{
    Simulator sim;
    Stream stream(sim, "s");
    std::function<void()> captured;
    stream.enqueue([&](std::function<void()> done) {
        captured = std::move(done);
    });
    captured();
    EXPECT_THROW(captured(), std::logic_error);
}

TEST(Stream, StaleCompletionAfterNextTaskStartedThrows)
{
    Simulator sim;
    Stream stream(sim, "s");
    std::function<void()> first, second;
    stream.enqueue([&](std::function<void()> done) {
        first = std::move(done);
    });
    stream.enqueue([&](std::function<void()> done) {
        second = std::move(done);
    });
    first(); // starts the second task
    ASSERT_TRUE(second);
    EXPECT_THROW(first(), std::logic_error);
    // The stale call neither finished nor disturbed the running task.
    EXPECT_FALSE(stream.idle());
    second();
    EXPECT_TRUE(stream.idle());
}

TEST(Stream, NullEventThrows)
{
    Simulator sim;
    Stream stream(sim, "s");
    EXPECT_THROW(stream.enqueueRecord(nullptr), std::invalid_argument);
    EXPECT_THROW(stream.enqueueWait(nullptr), std::invalid_argument);
    EXPECT_THROW(stream.enqueueDelay(-5), std::invalid_argument);
}

TEST(Stream, CrossStreamPipelineOrdering)
{
    // Fig. 14 pattern: compute records after op N; setfreq waits, then
    // runs a 1 ms task; change must land before compute op N+2.
    Simulator sim;
    Stream compute(sim, "compute");
    Stream setfreq(sim, "setfreq");
    auto event = std::make_shared<SyncEvent>();

    compute.enqueueDelay(3 * kTicksPerMs); // op N
    compute.enqueueRecord(event);
    compute.enqueueDelay(2 * kTicksPerMs); // op N+1

    Tick applied_at = -1;
    setfreq.enqueueWait(event);
    setfreq.enqueue([&](std::function<void()> done) {
        sim.scheduleIn(kTicksPerMs, [&applied_at, &sim, done] {
            applied_at = sim.now();
            done();
        });
    });

    sim.run();
    EXPECT_EQ(applied_at, 4 * kTicksPerMs);
    EXPECT_EQ(sim.now(), 5 * kTicksPerMs);
}

TEST(Stream, LastIdleTickUpdates)
{
    Simulator sim;
    Stream stream(sim, "s");
    stream.enqueueDelay(70);
    sim.run();
    EXPECT_EQ(stream.lastIdleTick(), 70);
}

} // namespace
} // namespace opdvfs::sim
