/**
 * @file
 * A fixed-size worker pool for the strategy service.
 *
 * submit() enqueues an independent task: one strategy request or one
 * background refinement.  A task runs start to finish on the worker
 * that dequeued it, and nothing else joins in, so queueDepth() counts
 * only requests and refinements waiting for a worker.
 */

#ifndef OPDVFS_SERVE_THREAD_POOL_H
#define OPDVFS_SERVE_THREAD_POOL_H

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace opdvfs::serve {

/** Fixed-size task pool; joins on destruction. */
class ThreadPool
{
  public:
    /** Start @p threads workers (0 is allowed: everything runs inline
     *  in the calling thread). */
    explicit ThreadPool(std::size_t threads);

    /** Drains nothing: pending tasks still run, then workers join. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Number of worker threads. */
    std::size_t threadCount() const { return workers_.size(); }

    /**
     * Enqueue one task.  With zero workers the task runs inline
     * before submit returns.
     */
    void submit(std::function<void()> task);

    /** Tasks enqueued but not yet started. */
    std::size_t queueDepth() const;

  private:
    void workerMain();

    mutable std::mutex mutex_;
    std::condition_variable wake_;
    std::deque<std::function<void()>> tasks_;
    bool stopping_ = false;
    std::vector<std::thread> workers_;
};

} // namespace opdvfs::serve

#endif // OPDVFS_SERVE_THREAD_POOL_H
