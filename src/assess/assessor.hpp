// Reliability assessment of a deployment plan (paper §3.2): sample failure
// states for X rounds, run route-and-check per round, and aggregate the
// result list into R, V and CIW95 (Eqs. 1-3).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "app/application.hpp"
#include "app/deployment.hpp"
#include "app/requirement_eval.hpp"
#include "assess/round_journal.hpp"
#include "assess/verdict_cache.hpp"
#include "core/run_budget.hpp"
#include "faults/round_state.hpp"
#include "routing/oracle.hpp"
#include "sampling/result_stats.hpp"
#include "sampling/sampler.hpp"

namespace recloud {

/// Runs `rounds` sampling + route-and-check rounds for one plan.
/// `rs` carries the fault-tree forest; `oracle` must match the topology the
/// plan deploys into. The sampler continues its stream (it is NOT reset), so
/// consecutive assessments use fresh randomness. `cache` may be nullptr;
/// when given it is bound to (app, plan) here and memoizes round verdicts —
/// the returned stats are bit-identical either way. `budget` (nullable) is
/// polled every few hundred rounds; when it fires the partial tally is
/// discarded and search_preempted thrown (core/run_budget.hpp).
[[nodiscard]] assessment_stats assess_deployment(failure_sampler& sampler,
                                                 round_state& rs,
                                                 reachability_oracle& oracle,
                                                 const application& app,
                                                 const deployment_plan& plan,
                                                 std::size_t rounds,
                                                 verdict_cache* cache = nullptr,
                                                 const run_budget* budget = nullptr);

/// Adaptive-precision assessment: keeps sampling until the 95% confidence
/// interval width (Eq. 3) drops to `target_ciw` or `max_rounds` is reached.
/// Useful when a developer wants a guaranteed error bound rather than a
/// fixed round budget (§4.2.4 motivates exactly this: "some application
/// developers may want even higher accuracy").
struct adaptive_assess_options {
    double target_ciw = 1e-3;
    std::size_t initial_rounds = 1000;
    std::size_t max_rounds = 1'000'000;
};

[[nodiscard]] assessment_stats assess_until_ciw(failure_sampler& sampler,
                                                round_state& rs,
                                                reachability_oracle& oracle,
                                                const application& app,
                                                const deployment_plan& plan,
                                                const adaptive_assess_options& options,
                                                verdict_cache* cache = nullptr,
                                                const run_budget* budget = nullptr);

/// Reusable assessment context: owns the scratch state (round_state,
/// evaluator caches, optional verdict cache) so the annealing search can
/// assess hundreds of plans without reallocating. Not thread-safe; create
/// one per thread.
class reliability_assessor {
public:
    /// `forest` may be nullptr (no dependency information, §3.4).
    /// When `cache_options.enabled` and `cache_options.support` are set, a
    /// private verdict cache memoizes round verdicts across the assessor's
    /// lifetime (it survives plan changes via epoch reset, so annealing
    /// re-visits of a plan stay cold but correctness never depends on it).
    reliability_assessor(std::size_t component_count,
                         const fault_tree_forest* forest,
                         reachability_oracle& oracle, failure_sampler& sampler,
                         const verdict_cache_options& cache_options = {});

    /// `budget` (nullable) is polled every few hundred rounds of the main
    /// loop and of a journal replay; when it fires, search_preempted
    /// propagates with all internal state safe: a partially-recorded
    /// journal stays invalid, a partially-replayed one stays valid and
    /// unconsumed (no debt was added), and the partial tally is discarded.
    [[nodiscard]] assessment_stats assess(const application& app,
                                          const deployment_plan& plan,
                                          std::size_t rounds,
                                          const run_budget* budget = nullptr);

    /// CRN notification: the owning backend's reset_stream(seed) calls this
    /// right after resetting the sampler. The NEXT assess() then knows it
    /// replays a deterministic stream identified by `seed` and may (a)
    /// record a round journal of that stream or (b) replay a previously
    /// recorded one without touching the sampler at all — the core of
    /// cross-plan incremental assessment. The flag is consumed by one
    /// assess(); un-reset streams never record or replay.
    void note_stream_reset(std::uint64_t seed) noexcept {
        pending_reset_seed_ = seed;
        replay_debt_rounds_ = 0;  // the reset realigned the stream
    }

    /// Drops a pending reset notification — called by any stream consumer
    /// that advances the sampler outside assess() (assess_until_ciw), so a
    /// later assess() cannot mistake the advanced stream for a fresh one.
    void invalidate_stream_reset() noexcept { pending_reset_seed_.reset(); }

    /// A journal replay answers without consuming the sampler stream; the
    /// skipped rounds are tracked as a debt here. Any consumer about to
    /// advance the stream WITHOUT a preceding reset must settle the debt
    /// first (fast-forward the sampler), so stream positions stay
    /// bit-identical to incremental-off no matter how assessments and
    /// resets interleave. A reset clears the debt — it realigns the stream.
    void settle_stream_debt();

    [[nodiscard]] round_state& state() noexcept { return rs_; }

    /// Cumulative cache counters; nullptr when the cache is disabled.
    [[nodiscard]] const verdict_cache_stats* cache_stats() const noexcept {
        return cache_ ? &cache_->stats() : nullptr;
    }

    /// The owned verdict cache, or nullptr when disabled — for callers that
    /// drive the round loop themselves (serial assess_until_ciw).
    [[nodiscard]] verdict_cache* cache() noexcept {
        return cache_ ? &*cache_ : nullptr;
    }

private:
    round_state rs_;
    reachability_oracle* oracle_;
    failure_sampler* sampler_;
    std::optional<verdict_cache> cache_;
    std::vector<component_id> failed_scratch_;

    std::optional<std::uint64_t> pending_reset_seed_;
    std::uint64_t replay_debt_rounds_ = 0;
    round_journal journal_;  ///< of the master stream (DESIGN.md §11)
};

}  // namespace recloud
