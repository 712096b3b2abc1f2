// Pluggable assessment backends — one seam for every way reCloud can turn
// (application, plan, rounds) into assessment_stats.
//
// The paper notes route-and-check "can be performed in parallel via
// MapReduce" (§3.2.1, Figure 12); historically that parallelism lived only
// in the wire-format execution engine (src/exec), while the product path
// (re_cloud::find_deployment -> reliability_assessor) was single-threaded.
// This layer makes assessment a first-class, swappable component:
//
//   * serial_backend   — today's in-process single-threaded assessor;
//   * parallel_backend — partitions rounds into fixed-size batches across a
//     thread pool; every batch samples its OWN forked substream keyed by
//     batch index, so results are bit-identical for any worker count;
//   * engine_backend   — wraps the MapReduce-style assessment_engine
//     (declared in exec/engine.hpp to keep assess/ independent of exec/).
//
// Determinism contract (parallel_backend): stats depend only on the base
// sampler's seed, the backend's batch_rounds, and the sequence of
// assess()/reset_stream() calls — never on the worker count or scheduling.
// This preserves the common-random-numbers guarantee of
// recloud_options::common_random_numbers under parallel assessment.
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

class assessment_backend {
public:
    virtual ~assessment_backend() = default;

    /// Runs `rounds` sampling + route-and-check rounds for one plan. The
    /// backend's failure stream(s) continue across calls (fresh randomness
    /// per assessment) until reset_stream() rewinds them.
    [[nodiscard]] virtual assessment_stats assess(const application& app,
                                                  const deployment_plan& plan,
                                                  std::size_t rounds) = 0;

    /// Adaptive-precision assessment: keeps adding rounds until CIW95 drops
    /// to the target or max_rounds is reached (§4.2.4). The default
    /// implementation layers the prediction loop of assess_until_ciw() on
    /// top of assess(), so every backend gets it for free.
    [[nodiscard]] virtual assessment_stats assess_until_ciw(
        const application& app, const deployment_plan& plan,
        const adaptive_assess_options& options);

    /// Rewinds the backend's failure stream(s) to a deterministic point —
    /// the common-random-numbers hook: resetting before each candidate
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
    const run_budget* budget_ = nullptr;
};

/// Today's single-threaded path: one sampler stream, one round_state, one
/// oracle, rounds judged in order.
class serial_backend final : public assessment_backend {
public:
    /// `forest` may be nullptr. The oracle and sampler must outlive the
    /// backend; so must `cache_options.support` when the cache is enabled.
    serial_backend(std::size_t component_count, const fault_tree_forest* forest,
                   reachability_oracle& oracle, failure_sampler& sampler,
                   const verdict_cache_options& cache_options = {});

    [[nodiscard]] assessment_stats assess(const application& app,
                                          const deployment_plan& plan,
                                          std::size_t rounds) override;
    [[nodiscard]] assessment_stats assess_until_ciw(
        const application& app, const deployment_plan& plan,
        const adaptive_assess_options& options) override;
    void reset_stream(std::uint64_t seed) override;
    [[nodiscard]] const char* name() const noexcept override { return "serial"; }
    [[nodiscard]] const verdict_cache_stats* cache_stats()
        const noexcept override {
        return assessor_.cache_stats();
    }

private:
    reliability_assessor assessor_;
    failure_sampler* sampler_;
    reachability_oracle* oracle_;
};

struct parallel_backend_options {
    /// Worker threads; 0 = std::thread::hardware_concurrency().
    std::size_t threads = 0;
    /// Rounds per substream batch — the deterministic work unit. Part of the
    /// determinism contract: changing it changes which substream samples
    /// which round, so it must be held fixed when comparing runs.
    std::size_t batch_rounds = 1024;
    /// Per-worker verdict memoization. Each worker owns a PRIVATE cache —
    /// no shared mutable state, so the determinism contract is untouched
    /// (verdicts are pure functions of the sampled failed set; a cache hit
    /// returns the same bit the re-computation would).
    verdict_cache_options verdict_cache{};
};

/// Deterministic multi-threaded backend. Rounds are partitioned into
/// fixed-size batches; batch b of assessment epoch e is sampled from
/// base_sampler.fork(substream_id(e, b)) regardless of which worker runs it,
/// and per-batch (reliable, rounds) counts are summed — so any worker count
/// produces bit-identical stats. Each worker owns its route-and-check
/// context (round_state + oracle from the factory + evaluator).
///
/// Batch b always runs on worker b mod W. After a reset_stream(seed), in
/// cross-plan incremental mode, that worker keeps one CRN round journal per
/// batch it runs (DESIGN.md §11), keyed by (seed, epoch, batch rounds,
/// application shape): a later assessment of the same substream replays the
/// journal through the worker's private cache instead of forking and
/// sampling it.
class parallel_backend final : public assessment_backend {
public:
    /// `forest` may be nullptr; the sampler must outlive the backend and
    /// support fork() (throws std::invalid_argument otherwise). The factory
    /// is invoked once per worker at construction.
    parallel_backend(std::size_t component_count, const fault_tree_forest* forest,
                     oracle_factory make_oracle, failure_sampler& sampler,
                     const parallel_backend_options& options = {});

    [[nodiscard]] assessment_stats assess(const application& app,
                                          const deployment_plan& plan,
                                          std::size_t rounds) override;
    void reset_stream(std::uint64_t seed) override;
    [[nodiscard]] const char* name() const noexcept override { return "parallel"; }
    /// Sums the per-worker cache counters on demand (the caches are private
    /// to their workers; only read this between assess() calls).
    [[nodiscard]] const verdict_cache_stats* cache_stats()
        const noexcept override;

    [[nodiscard]] std::size_t workers() const noexcept { return pool_.size(); }
    [[nodiscard]] std::size_t batch_rounds() const noexcept {
        return options_.batch_rounds;
    }

    /// The substream id of batch `batch` within assessment `epoch` (1-based;
    /// the first assess() after construction or reset_stream() is epoch 1).
    /// Exposed so tests can reproduce the exact streams serially.
    [[nodiscard]] static constexpr std::uint64_t substream_id(
        std::uint64_t epoch, std::uint64_t batch) noexcept {
        return (epoch << 32) + batch;
    }

private:
    struct worker_context {
        round_state rs;
        std::unique_ptr<reachability_oracle> oracle;
        std::optional<verdict_cache> cache;  ///< private to this worker
        /// Journal of batch w + i * W (w this worker, W the worker count).
        std::vector<round_journal> journals;

        worker_context(std::size_t component_count,
                       const fault_tree_forest* forest,
                       std::unique_ptr<reachability_oracle> o,
                       const verdict_cache_options& cache_options)
            : rs(component_count, forest), oracle(std::move(o)) {
            if (cache_options.enabled && cache_options.support != nullptr) {
                cache.emplace(*cache_options.support, cache_options.max_entries,
                              cache_options.cross_plan);
            }
        }
    };

    failure_sampler* sampler_;
    parallel_backend_options options_;
    thread_pool pool_;
    std::vector<std::unique_ptr<worker_context>> contexts_;
    std::uint64_t epoch_ = 0;  ///< assessments since construction/reset
    std::optional<std::uint64_t> reset_seed_;  ///< of the last reset_stream()
    mutable verdict_cache_stats cache_stats_{};  ///< scratch for cache_stats()
};

}  // namespace recloud
