// A worker node's per-assessment route-and-check context: deserialized
// application and plan, its own round_state and oracle, an optional private
// verdict cache. Setting this up is the context setup the paper identifies
// as the per-assessment fixed cost (§3.2.1 / Figure 12).
//
// The same type backs every place a batch is judged: the loopback
// transport's in-process workers, the master's degraded-local fallback, and
// the recloud_worker executable on the far side of a socket — so every
// execution path runs byte-for-byte the same judge.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "app/application.hpp"
#include "app/deployment.hpp"
#include "app/requirement_eval.hpp"
#include "assess/verdict_cache.hpp"
#include "exec/chaos.hpp"
#include "faults/fault_tree.hpp"
#include "faults/round_state.hpp"
#include "routing/oracle.hpp"
#include "util/serialize.hpp"

namespace recloud {

class worker_context {
public:
    /// `framed_setup` is the framed wire::encode_application +
    /// wire::encode_plan message the master ships once per assessment.
    worker_context(std::span<const std::byte> framed_setup,
                   std::size_t component_count, const fault_tree_forest* forest,
                   const oracle_factory& make_oracle,
                   const verdict_cache_options& cache_options);

    /// Map step: judge every round in a framed serialized batch; returns
    /// the framed serialized result record. `chaos` (optional) injects the
    /// scheduled fault for this (batch, attempt, worker) dispatch — the
    /// in-process path; process-backed workers apply chaos themselves
    /// (a crash there is a real _exit). Not thread-safe: a worker node
    /// judges its batches one at a time, in dispatch order.
    [[nodiscard]] std::vector<std::byte> run_batch(
        std::span<const std::byte> framed_task, const chaos_schedule* chaos,
        std::uint64_t batch_id, std::uint64_t attempt, std::uint64_t worker_id);

    /// Cross-plan rebind: swaps in the next assessment's (application, plan)
    /// while KEEPING the round_state, oracle, and verdict cache — the
    /// cache's bind() then retains the verdicts the swap delta provably
    /// cannot affect. Behaviourally equivalent to destroying this context
    /// and constructing a fresh one from the same blob (bit-identical
    /// results either way); only the warm state differs.
    void rebind(std::span<const std::byte> framed_setup);

    /// Private verdict-cache counters (engaged iff the cache is on).
    [[nodiscard]] const verdict_cache_stats* cache_stats() const noexcept {
        return cache_ ? &cache_->stats() : nullptr;
    }

private:
    [[nodiscard]] static application make_app(
        std::span<const std::byte> framed_setup);
    [[nodiscard]] static deployment_plan make_plan(
        std::span<const std::byte> framed_setup);

    application app_;
    deployment_plan plan_;
    round_state rs_;
    std::unique_ptr<reachability_oracle> oracle_;
    requirement_evaluator evaluator_;
    /// Private per-context verdict memoization; bound once at construction
    /// (the context lives for exactly one (app, plan) assessment).
    std::optional<verdict_cache> cache_;
};

}  // namespace recloud
