// Pluggable assessment backends — one seam for every way reCloud can turn
// (application, plan, rounds) into assessment_stats.
//
// The paper notes route-and-check "can be performed in parallel via
// MapReduce" (§3.2.1, Figure 12). Every backend follows the same batch
// scheme: an assessment's rounds are cut into batches of `batch_rounds`,
// and batch b of assessment epoch e (1-based, counted since construction
// or the last reset_stream()) is always sampled from
// base_sampler.fork(substream_id(e, b)). Each batch's (reliable, rounds)
// tally is merged as one replicate into a result_accumulator — integer
// sums, and addition commutes, so
//
//   stats are a pure function of (seed, batch_rounds, sampler) and the
//   sequence of assess()/reset_stream() calls — never of the backend, the
//   worker count, the schedule or the transport (DESIGN.md §6).
//
// Forked batches are independent by construction, so they are the
// replicates V is estimated from (Eqs. 1-3 assume iid rounds, which
// dagger's cycles are not): with at least min_replicates batches stats
// report the ratio-estimator variance over batch tallies, below that the
// binomial Eq. 2.
//
// Two executors implement it, both through judge_batch:
//
//   * parallel_backend  — the caller and W - 1 pool threads claim batches
//     from one counter; with one worker (assessment_backend_kind::serial)
//     the caller claims them all;
//   * assessment_engine — the master ships batch descriptors over the
//     MapReduce-style wire-format engine and its workers judge them
//     (declared in exec/engine.hpp to keep assess/ independent of exec/).
//
// So serial, parallel(any W) and engine(any transport) agree bit for bit,
// which keeps the common-random-numbers guarantee of
// recloud_options::common_random_numbers whatever executes the rounds.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "assess/assessor.hpp"
#include "assess/round_journal.hpp"
#include "routing/oracle.hpp"
#include "sampling/sampler.hpp"
#include "util/thread_pool.hpp"

namespace recloud {

/// Rounds per batch unless configured otherwise — shared by every backend so
/// default-constructed ones obey the same contract.
inline constexpr std::size_t default_batch_rounds = 1024;

/// The substream id of batch `batch` within assessment `epoch`.
[[nodiscard]] constexpr std::uint64_t substream_id(
    std::uint64_t epoch, std::uint64_t batch) noexcept {
    return (epoch << 32) + batch;
}

/// One executor's route-and-check state, owned by every place that judges
/// batches (parallel_backend workers, engine worker contexts).
struct judge_context {
    round_state rs;
    std::unique_ptr<reachability_oracle> oracle;
    std::optional<verdict_cache> cache;

    /// Throws std::invalid_argument when `oracle` is nullptr. The cache is
    /// engaged iff enabled with a support set, and always retains verdicts
    /// across plans (verdict_cache::bind).
    judge_context(std::size_t component_count, const fault_tree_forest* forest,
                  std::unique_ptr<reachability_oracle> oracle,
                  const verdict_cache_options& cache_options);

    /// The judge of (plan, evaluator) over this context; binds nothing.
    [[nodiscard]] round_judge judge(const deployment_plan& plan,
                                    requirement_evaluator& evaluator) {
        return {rs, *oracle, plan, evaluator, cache ? &*cache : nullptr};
    }
};

/// Judges batch `batch` of assessment `epoch`: the `rounds` rounds of
/// sampler.fork(substream_id(epoch, batch)), judged through judge_rounds
/// and merged into `results` as one replicate. The one way every executor
/// turns a batch into counts. `journal` (nullable; it needs `judge.cache`)
/// is the batch's CRN journal, keyed by (sampler.seed, epoch, rounds,
/// `app_fingerprint`): it replays a complete pass held under that key
/// instead of sampling, and otherwise records the batch as it is judged.
/// `budget` (nullable) is polled as judge_rounds and the replay do.
void judge_batch(const sampler_description& sampler, std::uint64_t epoch,
                 std::uint64_t batch, std::size_t rounds,
                 const round_judge& judge, result_accumulator& results,
                 const run_budget* budget = nullptr,
                 round_journal* journal = nullptr,
                 std::uint64_t app_fingerprint = 0);

class assessment_backend {
public:
    virtual ~assessment_backend() = default;

    /// Runs `rounds` sampling + route-and-check rounds for one plan as the
    /// next epoch: every call samples fresh batches until reset_stream()
    /// rewinds the epoch count.
    [[nodiscard]] assessment_stats assess(const application& app,
                                          const deployment_plan& plan,
                                          std::size_t rounds) {
        return run_epoch(app, plan, rounds).stats();
    }

    /// Adaptive-precision assessment: keeps adding epochs until CIW95 drops
    /// to the target or max_rounds is reached (§4.2.4), merging their
    /// batches as replicates. Below min_replicates the rounds double per
    /// epoch; from there on the total is planned from the replicate bound,
    /// which stops the loop only from twice min_replicates on. Built on
    /// run_epoch(), so every backend runs the same loop.
    [[nodiscard]] assessment_stats assess_until_ciw(
        const application& app, const deployment_plan& plan,
        const adaptive_assess_options& options);

    /// Rewinds the backend's failure stream to a deterministic point — the
    /// common-random-numbers hook: resetting before each candidate
    /// assessment makes plan comparisons noise-free.
    virtual void reset_stream(std::uint64_t seed) = 0;

    [[nodiscard]] virtual const char* name() const noexcept = 0;

    /// Cumulative verdict-cache counters across every assessment this
    /// backend has run, or nullptr when the backend runs without a cache.
    /// Counters are observability only — they never influence stats.
    [[nodiscard]] virtual const verdict_cache_stats* cache_stats()
        const noexcept {
        return nullptr;
    }

    /// Arms (or, with nullptr, disarms) the request-lifecycle token
    /// (core/run_budget.hpp) every subsequent assessment polls. The token is
    /// borrowed — the caller keeps it alive and disarms before it dies.
    /// When an armed token's wall trigger fires mid-assessment the backend
    /// throws search_preempted with the partial tally discarded; an armed
    /// but never-firing token leaves stats bit-identical to an un-armed run.
    /// Not thread-safe against a concurrent assess() on the SAME backend
    /// (arm between assessments; cancel()/deadlines on the token itself may
    /// fire from any thread).
    void set_budget(const run_budget* budget) noexcept { budget_ = budget; }
    [[nodiscard]] const run_budget* budget() const noexcept { return budget_; }

protected:
    /// One assess() epoch as its tally, one replicate per batch.
    [[nodiscard]] virtual result_accumulator run_epoch(
        const application& app, const deployment_plan& plan,
        std::size_t rounds) = 0;

    const run_budget* budget_ = nullptr;
};

struct parallel_backend_options {
    /// Workers, the caller included; 0 = std::thread::hardware_concurrency().
    /// One worker is the caller alone (the serial backend).
    std::size_t threads = 0;
    /// Rounds per substream batch — the deterministic work unit. Part of the
    /// determinism contract: changing it changes which substream samples
    /// which round, so it must be held fixed when comparing runs.
    std::size_t batch_rounds = default_batch_rounds;
    /// Per-worker verdict memoization. Each worker owns a PRIVATE cache —
    /// no shared mutable state, so the determinism contract is untouched
    /// (verdicts are pure functions of the sampled failed set; a cache hit
    /// returns the same bit the re-computation would).
    verdict_cache_options verdict_cache{};
};

/// The in-process executor of the batch scheme. The caller and W - 1 pool
/// threads claim batches from one counter; each claimer judges on its own
/// route-and-check context (round_state, oracle from the factory, private
/// verdict cache).
///
/// After a reset_stream(seed), when the verdict cache is on, every batch
/// has ONE CRN round journal (DESIGN.md §11), kept by batch id and keyed by
/// (seed, epoch, the batch's rounds, application shape): a later
/// assessment of the same batch replays it through the claiming worker's
/// cache instead of forking and sampling the batch.
class parallel_backend final : public assessment_backend {
public:
    /// `forest` may be nullptr; the sampler must outlive the backend and
    /// have a description, i.e. fork (throws std::invalid_argument
    /// otherwise). The factory is invoked once per worker at construction.
    parallel_backend(std::size_t component_count, const fault_tree_forest* forest,
                     oracle_factory make_oracle, failure_sampler& sampler,
                     const parallel_backend_options& options = {});

    void reset_stream(std::uint64_t seed) override;
    /// "serial" with one worker, "parallel" otherwise.
    [[nodiscard]] const char* name() const noexcept override {
        return workers() == 1 ? "serial" : "parallel";
    }
    /// Sums the per-worker cache counters on demand (the caches are private
    /// to their workers; only read this between assess() calls).
    [[nodiscard]] const verdict_cache_stats* cache_stats()
        const noexcept override;

    [[nodiscard]] std::size_t workers() const noexcept {
        return contexts_.size();
    }
    [[nodiscard]] std::size_t batch_rounds() const noexcept {
        return options_.batch_rounds;
    }

private:
    [[nodiscard]] result_accumulator run_epoch(const application& app,
                                               const deployment_plan& plan,
                                               std::size_t rounds) override;

    failure_sampler* sampler_;
    parallel_backend_options options_;
    /// One per worker; the caller claims on the first.
    std::vector<std::unique_ptr<judge_context>> contexts_;
    std::vector<round_journal> journals_;  ///< by batch id
    std::optional<thread_pool> pool_;  ///< the W - 1 claimers beside the caller
    std::uint64_t epoch_ = 0;  ///< assessments since construction/reset
    bool stream_reset_ = false;  ///< whether reset_stream() named the stream
    mutable verdict_cache_stats cache_stats_{};  ///< scratch for cache_stats()
};

}  // namespace recloud
