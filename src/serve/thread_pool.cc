#include "serve/thread_pool.h"

namespace opdvfs::serve {

ThreadPool::ThreadPool(std::size_t threads)
{
    workers_.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t)
        workers_.emplace_back([this] { workerMain(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    wake_.notify_all();
    for (std::thread &worker : workers_)
        worker.join();
}

void
ThreadPool::submit(std::function<void()> task)
{
    if (workers_.empty()) {
        task();
        return;
    }
    {
        std::lock_guard<std::mutex> lock(mutex_);
        tasks_.push_back(std::move(task));
    }
    wake_.notify_one();
}

std::size_t
ThreadPool::queueDepth() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return tasks_.size();
}

void
ThreadPool::workerMain()
{
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            wake_.wait(lock, [this] {
                return stopping_ || !tasks_.empty();
            });
            if (tasks_.empty())
                return; // stopping and drained
            task = std::move(tasks_.front());
            tasks_.pop_front();
        }
        task();
    }
}

} // namespace opdvfs::serve
