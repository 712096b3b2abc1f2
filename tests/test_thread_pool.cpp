#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <pthread.h>
#endif

namespace recloud {
namespace {

/// OS-reported name of the thread executing the task, "" off Linux.
std::string current_os_thread_name() {
#if defined(__linux__)
    char buffer[16] = {};
    pthread_getname_np(pthread_self(), buffer, sizeof(buffer));
    return buffer;
#else
    return "";
#endif
}

/// Collects the distinct OS names of every worker by parking all of them on
/// a barrier-ish set of tasks.
std::set<std::string> worker_names(thread_pool& pool) {
    std::mutex mutex;
    std::set<std::string> names;
    std::atomic<std::size_t> arrived{0};
    std::vector<std::future<void>> futures;
    for (std::size_t i = 0; i < pool.size(); ++i) {
        futures.push_back(pool.submit([&] {
            {
                const std::lock_guard lock{mutex};
                names.insert(current_os_thread_name());
            }
            ++arrived;
            // Hold until every worker has reported (so one worker cannot
            // serve two tasks and hide another worker's name). Bounded wait.
            for (int spin = 0; spin < 20000 && arrived < pool.size(); ++spin) {
                std::this_thread::sleep_for(std::chrono::microseconds{50});
            }
        }));
    }
    for (auto& f : futures) {
        f.get();
    }
    return names;
}

TEST(ThreadPool, RejectsZeroThreads) {
    EXPECT_THROW(thread_pool{0}, std::invalid_argument);
}

TEST(ThreadPool, ReportsSize) {
    thread_pool pool{3};
    EXPECT_EQ(pool.size(), 3u);
}

TEST(ThreadPool, SubmitReturnsResult) {
    thread_pool pool{2};
    auto future = pool.submit([] { return 21 * 2; });
    EXPECT_EQ(future.get(), 42);
}

TEST(ThreadPool, ManyTasksAllComplete) {
    thread_pool pool{4};
    std::atomic<int> counter{0};
    std::vector<std::future<void>> futures;
    for (int i = 0; i < 500; ++i) {
        futures.push_back(pool.submit([&counter] { ++counter; }));
    }
    for (auto& f : futures) {
        f.get();
    }
    EXPECT_EQ(counter.load(), 500);
}

TEST(ThreadPool, ExceptionsPropagateThroughFuture) {
    thread_pool pool{1};
    auto future = pool.submit([]() -> int {
        throw std::runtime_error{"boom"};
    });
    EXPECT_THROW(future.get(), std::runtime_error);
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
    thread_pool pool{4};
    std::vector<std::atomic<int>> hits(100);
    pool.parallel_for(100, [&hits](std::size_t i) { ++hits[i]; });
    for (const auto& h : hits) {
        EXPECT_EQ(h.load(), 1);
    }
}

TEST(ThreadPool, ParallelForCoversCountSmallerThanWorkers) {
    thread_pool pool{8};
    std::vector<std::atomic<int>> hits(3);
    pool.parallel_for(3, [&hits](std::size_t i) { ++hits[i]; });
    for (const auto& h : hits) {
        EXPECT_EQ(h.load(), 1);
    }
}

TEST(ThreadPool, ParallelForCoversCountNotDivisibleByChunks) {
    // 4 workers -> up to 16 chunks; 1003 indices force uneven chunk sizes.
    thread_pool pool{4};
    std::vector<std::atomic<int>> hits(1003);
    pool.parallel_for(1003, [&hits](std::size_t i) { ++hits[i]; });
    for (const auto& h : hits) {
        EXPECT_EQ(h.load(), 1);
    }
}

TEST(ThreadPool, ParallelForZeroCountIsANoOp) {
    thread_pool pool{2};
    pool.parallel_for(0, [](std::size_t) { FAIL() << "must not be called"; });
}

TEST(ThreadPool, ParallelForChunksWorkIntoFewTasks) {
    // The chunked implementation enqueues at most workers x 4 tasks, each
    // covering a contiguous index range — not one task per index. Each task
    // appears in some thread's execution order as one maximal ascending
    // run of consecutive indices, so counting those runs counts the tasks.
    thread_pool pool{2};
    std::mutex mutex;
    std::map<std::thread::id, std::vector<std::size_t>> per_thread;
    pool.parallel_for(1000, [&](std::size_t i) {
        const std::lock_guard lock{mutex};
        per_thread[std::this_thread::get_id()].push_back(i);
    });
    std::size_t runs = 0;
    std::size_t total = 0;
    for (const auto& [thread, indices] : per_thread) {
        total += indices.size();
        for (std::size_t k = 0; k < indices.size(); ++k) {
            if (k == 0 || indices[k] != indices[k - 1] + 1) {
                ++runs;
            }
        }
    }
    EXPECT_EQ(total, 1000u);
    EXPECT_LE(runs, pool.size() * 4);
}

TEST(ThreadPool, ParallelForPropagatesException) {
    thread_pool pool{2};
    EXPECT_THROW(pool.parallel_for(10,
                                   [](std::size_t i) {
                                       if (i == 7) {
                                           throw std::runtime_error{"bad index"};
                                       }
                                   }),
                 std::runtime_error);
}

TEST(ThreadPool, ParallelForFinishesEveryChunkBeforeRethrowing) {
    // The caller may release `fn` (and whatever it captures) as soon as
    // parallel_for returns, so no chunk may still be running then.
    thread_pool pool{2};
    std::atomic<int> finished{0};
    EXPECT_THROW(pool.parallel_for(8,
                                   [&finished](std::size_t i) {
                                       if (i == 0) {
                                           throw std::runtime_error{"first"};
                                       }
                                       std::this_thread::sleep_for(
                                           std::chrono::milliseconds{2});
                                       ++finished;
                                   }),
                 std::runtime_error);
    EXPECT_EQ(finished.load(), 7);
}

TEST(ThreadPool, DestructorDrainsQueue) {
    std::atomic<int> counter{0};
    {
        thread_pool pool{2};
        for (int i = 0; i < 100; ++i) {
            (void)pool.submit([&counter] {
                std::this_thread::sleep_for(std::chrono::microseconds{100});
                ++counter;
            });
        }
    }  // destructor joins after draining
    EXPECT_EQ(counter.load(), 100);
}

#if defined(__linux__)
TEST(ThreadPool, WorkersCarryOsNames) {
    thread_pool pool{3};
    const std::set<std::string> names = worker_names(pool);
    EXPECT_EQ(names.size(), 3u);
    for (int i = 0; i < 3; ++i) {
        EXPECT_TRUE(names.count("recloud-wkr-" + std::to_string(i)))
            << "missing worker " << i;
    }
}

TEST(ThreadPool, CustomPrefixIsTruncatedToOsLimit) {
    // pthread names cap at 15 chars + NUL; the pool must truncate, not fail.
    thread_pool pool{1, "a-very-long-prefix"};
    const std::set<std::string> names = worker_names(pool);
    ASSERT_EQ(names.size(), 1u);
    EXPECT_EQ(*names.begin(), std::string{"a-very-long-prefix-0"}.substr(0, 15));
}

TEST(ThreadPool, NamesSurvivePoolRestarts) {
    // Destroying and recreating a pool must produce freshly-named workers
    // (stale names from dead threads cannot leak into the new pool).
    for (int restart = 0; restart < 3; ++restart) {
        thread_pool pool{2};
        const std::set<std::string> names = worker_names(pool);
        EXPECT_EQ(names.size(), 2u) << "restart " << restart;
        EXPECT_TRUE(names.count("recloud-wkr-0")) << "restart " << restart;
        EXPECT_TRUE(names.count("recloud-wkr-1")) << "restart " << restart;
    }
}
#endif

TEST(ThreadPool, TasksRunConcurrently) {
    thread_pool pool{2};
    std::atomic<bool> first_running{false};
    std::atomic<bool> second_observed_first{false};
    auto f1 = pool.submit([&] {
        first_running = true;
        // Hold the thread until the other task observes us (bounded wait).
        for (int i = 0; i < 10000 && !second_observed_first; ++i) {
            std::this_thread::sleep_for(std::chrono::microseconds{50});
        }
    });
    auto f2 = pool.submit([&] {
        for (int i = 0; i < 10000 && !first_running; ++i) {
            std::this_thread::sleep_for(std::chrono::microseconds{50});
        }
        second_observed_first = first_running.load();
    });
    f1.get();
    f2.get();
    EXPECT_TRUE(second_observed_first);
}

}  // namespace
}  // namespace recloud
