/**
 * Thread-pool unit tests: task submission, inline execution with zero
 * workers, and destruction running every pending task.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <future>

#include "serve/thread_pool.h"

namespace opdvfs::serve {
namespace {

TEST(ThreadPool, RunsSubmittedTasks)
{
    ThreadPool pool(2);
    std::promise<int> result;
    pool.submit([&result] { result.set_value(42); });
    EXPECT_EQ(result.get_future().get(), 42);
}

TEST(ThreadPool, ZeroWorkersRunInline)
{
    ThreadPool pool(0);
    EXPECT_EQ(pool.threadCount(), 0u);
    bool ran = false;
    pool.submit([&ran] { ran = true; });
    EXPECT_TRUE(ran); // inline: completed before submit returned
}

TEST(ThreadPool, DestructorDrainsPendingTasks)
{
    std::atomic<int> ran{0};
    {
        ThreadPool pool(1);
        for (int t = 0; t < 16; ++t)
            pool.submit([&ran] { ran.fetch_add(1); });
    }
    EXPECT_EQ(ran.load(), 16);
}

} // namespace
} // namespace opdvfs::serve
