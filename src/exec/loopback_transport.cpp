// In-process transport backend: each worker "node" is one thread sampling
// and judging through worker_context — the engine's execution path behind
// the transport seam (same serialization, same byte accounting, same chaos
// semantics), so the whole recovery test matrix keeps proving the same
// machine. Like a socket worker process, a node runs its batches one at a
// time in dispatch order, so its oracle and cache see the same round
// sequence (and count the same sample.* and route.* telemetry) on either
// transport.
#include "exec/transport.hpp"

#include <string>
#include <utility>

#include "exec/worker_context.hpp"
#include "obs/metrics.hpp"
#include "util/thread_pool.hpp"

namespace recloud {

const char* to_string(transport_kind kind) noexcept {
    switch (kind) {
        case transport_kind::loopback: return "loopback";
        case transport_kind::socket: return "socket";
    }
    return "unknown";
}

namespace {

class loopback_transport final : public engine_transport {
public:
    loopback_transport(std::size_t workers, transport_env env)
        : env_(std::move(env)) {
        nodes_.reserve(workers);
        for (std::size_t w = 0; w < workers; ++w) {
            const std::string name = "recloud-node" + std::to_string(w);
            nodes_.push_back(std::make_unique<thread_pool>(1, name.c_str()));
        }
        contexts_.resize(workers);
    }

    [[nodiscard]] const char* name() const noexcept override {
        return "loopback";
    }
    [[nodiscard]] std::size_t workers() const noexcept override {
        return nodes_.size();
    }

    std::uint64_t begin_assessment(
        std::span<const std::byte> framed_setup) override {
        // Every node sets up (or rebinds) its own context on its own thread,
        // from its own setup copy — what shipping the job to a remote node
        // would cost (Figure 12's fixed costs). Built there, a context's
        // memory also comes from its node's allocator arena instead of
        // sitting next to a sibling's hot state. Contexts persist across
        // assessments, so each worker's verdict cache rebinds in place and
        // keeps the entries the plan swap cannot affect.
        on_every_node([&](std::size_t w) {
            if (contexts_[w] != nullptr) {
                contexts_[w]->rebind(framed_setup);
            } else {
                contexts_[w] = std::make_unique<worker_context>(
                    framed_setup, *env_.sampler, env_.component_count,
                    env_.forest, env_.make_oracle, env_.verdict_cache);
            }
        });
        return static_cast<std::uint64_t>(framed_setup.size()) * nodes_.size();
    }

    [[nodiscard]] std::future<std::vector<std::byte>> dispatch(
        std::size_t worker, std::span<const std::byte> framed_task,
        std::uint64_t /*batch: the descriptor names it*/,
        std::uint64_t attempt) override {
        RECLOUD_COUNTER_INC("engine.transport.dispatches");
        RECLOUD_COUNTER_ADD("engine.transport.bytes_sent", framed_task.size());
        worker_context* context = contexts_[worker].get();
        return nodes_[worker]->submit([context, framed_task,
                                       chaos = env_.chaos, attempt, worker] {
            return context->run_batch(framed_task, chaos, attempt, worker);
        });
    }

    /// Sums the live contexts' caches. Only read between assessments
    /// (engine contract).
    [[nodiscard]] const verdict_cache_stats* cache_stats()
        const noexcept override {
        cache_stats_ = {};
        bool have = false;
        for (const auto& context : contexts_) {
            if (const verdict_cache_stats* stats =
                    context != nullptr ? context->cache_stats() : nullptr) {
                cache_stats_.accumulate(*stats);
                have = true;
            }
        }
        return have ? &cache_stats_ : nullptr;
    }

private:
    /// Runs fn(w) on every node's thread and waits for all of them.
    template <typename F>
    void on_every_node(const F& fn) {
        std::vector<std::future<void>> done;
        done.reserve(nodes_.size());
        for (std::size_t w = 0; w < nodes_.size(); ++w) {
            done.push_back(nodes_[w]->submit([&fn, w] { fn(w); }));
        }
        for (auto& f : done) {
            f.wait();
        }
        for (auto& f : done) {
            f.get();
        }
    }

    transport_env env_;
    std::vector<std::unique_ptr<thread_pool>> nodes_;  ///< one thread each
    /// One per node, built by the first assessment and rebound by later
    /// ones (null until its node's first setup succeeds).
    std::vector<std::unique_ptr<worker_context>> contexts_;
    mutable verdict_cache_stats cache_stats_;  ///< scratch for cache_stats()
};

}  // namespace

std::unique_ptr<engine_transport> make_loopback_transport(
    std::size_t workers, const transport_env& env) {
    return std::make_unique<loopback_transport>(workers, env);
}

}  // namespace recloud
