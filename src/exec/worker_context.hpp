// A worker node's route-and-check context: the deserialized setup, the
// sampler description its batches fork from, and a judge_context. Built at
// a worker's first assessment and rebound by every later one; decoding and
// binding the setup is the per-assessment fixed cost the paper identifies
// (§3.2.1 / Figure 12).
//
// The same type backs every place the engine judges a batch: the loopback
// transport's in-process workers, the master's degraded-local fallback, and
// the recloud_worker executable on the far side of a socket — all through
// judge_batch, the parallel backend's loop, so every path samples and
// judges the same rounds.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "app/application.hpp"
#include "app/deployment.hpp"
#include "app/requirement_eval.hpp"
#include "assess/backend.hpp"
#include "exec/chaos.hpp"
#include "faults/fault_tree.hpp"
#include "routing/oracle.hpp"
#include "sampling/sampler.hpp"
#include "util/serialize.hpp"

namespace recloud {

class worker_context {
public:
    /// `framed_setup` is the framed wire::encode_setup message; the setup's
    /// seed replaces `sampler`'s. Throws serialize_error when the setup is
    /// malformed or its plan does not place every application instance.
    worker_context(std::span<const std::byte> framed_setup,
                   sampler_description sampler, std::size_t component_count,
                   const fault_tree_forest* forest,
                   const oracle_factory& make_oracle,
                   const verdict_cache_options& cache_options);

    /// Map step: sample and judge the batch a framed descriptor names;
    /// returns the framed serialized result record. `chaos` (optional)
    /// injects the scheduled fault for this (batch, attempt, worker)
    /// dispatch; a crash throws chaos_crash, which a worker process turns
    /// into a real _exit. Not thread-safe: a worker node judges its batches
    /// one at a time, in dispatch order.
    [[nodiscard]] std::vector<std::byte> run_batch(
        std::span<const std::byte> framed_task, const chaos_schedule* chaos,
        std::uint64_t attempt, std::uint64_t worker_id);

    /// Swaps in the next assessment's setup while KEEPING the round_state,
    /// oracle, and verdict cache — the cache's bind() then retains the
    /// verdicts the swap delta provably cannot affect. Behaviourally
    /// equivalent to constructing a fresh context from the same blob
    /// (bit-identical results either way); only the warm state differs.
    void rebind(std::span<const std::byte> framed_setup);

    [[nodiscard]] const application& app() const noexcept { return app_; }
    [[nodiscard]] const deployment_plan& plan() const noexcept { return plan_; }

    /// Private verdict-cache counters (engaged iff the cache is on).
    [[nodiscard]] const verdict_cache_stats* cache_stats() const noexcept {
        return judge_.cache ? &judge_.cache->stats() : nullptr;
    }

private:
    application app_;
    deployment_plan plan_;
    sampler_description sampler_;  ///< seeded by the current setup
    std::uint64_t epoch_ = 0;
    judge_context judge_;
    std::optional<requirement_evaluator> evaluator_;
};

}  // namespace recloud
