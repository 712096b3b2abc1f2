#include "util/thread_pool.hpp"

#include <algorithm>
#include <exception>
#include <stdexcept>
#include <string>

#if defined(__linux__)
#include <pthread.h>
#endif

#include "obs/trace.hpp"

namespace recloud {
namespace {

/// OS-level thread name for debuggers, TSan reports and `perf`. Linux
/// truncates to 15 chars + NUL; other platforms are a no-op.
void set_os_thread_name(const std::string& name) {
    (void)name;
#if defined(__linux__)
    char buffer[16];
    const std::size_t n = std::min(name.size(), sizeof(buffer) - 1);
    name.copy(buffer, n);
    buffer[n] = '\0';
    pthread_setname_np(pthread_self(), buffer);
#endif
}

}  // namespace

thread_pool::thread_pool(std::size_t threads, const char* name_prefix) {
    if (threads == 0) {
        throw std::invalid_argument{"thread_pool needs at least one thread"};
    }
    workers_.reserve(threads);
    for (std::size_t i = 0; i < threads; ++i) {
        workers_.emplace_back(
            [this, name = std::string{name_prefix} + "-" + std::to_string(i)] {
                worker_loop(std::move(name));
            });
    }
}

thread_pool::~thread_pool() {
    {
        const std::lock_guard lock{mutex_};
        stopping_ = true;
    }
    cv_.notify_all();
    for (auto& worker : workers_) {
        worker.join();
    }
}

void thread_pool::worker_loop(std::string name) {
    set_os_thread_name(name);
    obs::tracer::global().set_current_thread_name(name);
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock lock{mutex_};
            cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
            if (queue_.empty()) {
                return;  // stopping_ and nothing left to drain
            }
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        task();
    }
}

void thread_pool::parallel_for(std::size_t count,
                               const std::function<void(std::size_t)>& fn) {
    if (count == 0) {
        return;
    }
    // Chunk into ~4 tasks per worker instead of one packaged_task per index:
    // enough slack for load balancing across uneven iterations without the
    // per-index allocation + future + queue traffic drowning small bodies.
    const std::size_t chunks = std::min(count, size() * 4);
    const std::size_t base = count / chunks;
    const std::size_t extra = count % chunks;  // first `extra` chunks get +1
    std::vector<std::future<void>> futures;
    futures.reserve(chunks);
    std::size_t begin = 0;
    for (std::size_t c = 0; c < chunks; ++c) {
        const std::size_t end = begin + base + (c < extra ? 1 : 0);
        futures.push_back(submit([&fn, begin, end] {
            for (std::size_t i = begin; i < end; ++i) {
                fn(i);
            }
        }));
        begin = end;
    }
    // Wait for every chunk before rethrowing: a chunk still running after
    // an early return would call `fn` after its caller released it.
    std::exception_ptr first_error;
    for (auto& future : futures) {
        try {
            future.get();
        } catch (...) {
            if (!first_error) {
                first_error = std::current_exception();
            }
        }
    }
    if (first_error) {
        std::rethrow_exception(first_error);
    }
}

}  // namespace recloud
