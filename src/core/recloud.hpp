// reCloud public facade — the paper's workflow (§2.2):
//
//   1. the developer states requirements: the application structure (N, K
//      per component), a desired reliability score R_desired, and a search
//      budget Tmax;
//   2. the cloud provider searches for a deployment plan (§3.3) whose
//      quantitatively assessed reliability (§3.2) satisfies R_desired;
//   3. the provider returns the plan, or reports that the requirements
//      cannot be fulfilled within Tmax (the best plan found is still
//      returned for inspection).
//
// The provider-side model is an immutable `scenario` snapshot
// (core/scenario.hpp): re_cloud holds a scenario_ptr and reaches routing
// only through per-consumer oracle clones, so any number of re_cloud
// instances (and deployment_service requests) can share one snapshot. For
// the fat-tree setting use make_fat_tree_scenario(); for other
// architectures assemble a scenario_builder around a built_topology +
// bfs_reachability prototype.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "app/application.hpp"
#include "app/deployment.hpp"
#include "assess/assessor.hpp"
#include "assess/backend.hpp"
#include "core/run_budget.hpp"
#include "core/scenario.hpp"
#include "obs/metrics.hpp"
#include "faults/component_registry.hpp"
#include "faults/fault_tree.hpp"
#include "routing/oracle.hpp"
#include "sampling/sampler.hpp"
#include "search/annealing.hpp"
#include "search/neighbor.hpp"
#include "search/objective.hpp"
#include "search/symmetry.hpp"
#include "search/workload.hpp"

namespace recloud {

class assessment_engine;  // exec/engine.hpp
struct engine_stats;   // exec/engine.hpp

enum class assessment_backend_kind : std::uint8_t {
    serial,    ///< the parallel backend with the caller alone (the default)
    parallel,  ///< thread pool; the same stats as serial at any thread count
    engine,    ///< MapReduce-style wire-format engine (§3.2.1, Figure 12)
};

/// Where the engine backend's workers live (exec/transport.hpp). Facade
/// mirror of exec's transport_kind so configuring the transport does not
/// pull the transport headers into every recloud.hpp consumer.
enum class engine_transport_kind : std::uint8_t {
    loopback,  ///< in-process thread-pool worker nodes (the historic engine)
    socket,    ///< real recloud_worker processes over Unix-domain sockets
};

struct recloud_options {
    /// X: route-and-check rounds per assessment (§4.1 default 10^4).
    std::size_t assessment_rounds = 10'000;
    sampler_kind sampler = sampler_kind::extended_dagger;
    /// Which assessment backend executes route-and-check (assess/backend.hpp).
    assessment_backend_kind backend = assessment_backend_kind::serial;
    /// Worker threads for the parallel/engine backends; 0 = one per
    /// hardware thread. Ignored by the serial backend.
    std::size_t assessment_threads = 0;
    /// Rounds per batch, the work unit of every backend (DESIGN.md §6). Part
    /// of the determinism contract: stats depend on it, not on the backend.
    std::size_t assessment_batch_rounds = default_batch_rounds;
    /// Engine backend recovery: dispatch attempts per batch before the
    /// master degrades to local route-and-check (exec/engine.hpp). Ignored
    /// by the serial/parallel backends.
    std::size_t engine_max_attempts = 3;
    /// Engine backend recovery: per-attempt result deadline; a worker
    /// missing it is treated as a straggler and the batch re-dispatched.
    /// zero = wait forever. Ignored by the serial/parallel backends.
    std::chrono::milliseconds engine_batch_deadline{0};
    /// Engine backend transport: loopback (in-process, the default) or real
    /// worker processes over Unix-domain sockets. assessment_stats are
    /// bit-identical across transports; socket adds process isolation and
    /// master-side respawn of crashed workers. Ignored by serial/parallel.
    engine_transport_kind engine_transport = engine_transport_kind::loopback;
    /// Worker executable for the socket transport; empty = auto-resolve
    /// ($RECLOUD_WORKER_BIN, then a recloud_worker next to this binary,
    /// then PATH). Ignored unless engine_transport is socket.
    std::string engine_worker_binary{};
    /// Socket transport: respawn budget per worker slot before the slot is
    /// retired and its batches re-dispatch elsewhere (or degrade to the
    /// master). Ignored by loopback.
    std::size_t engine_max_respawns = 16;
    /// Round-verdict memoization (assess/verdict_cache.hpp): cache the
    /// verdict per support-filtered failed signature so repeated and
    /// support-disjoint failure patterns skip route-and-check entirely. On
    /// every plan change the cache keeps the verdicts the swap delta cannot
    /// affect, and the serial and parallel backends replay their CRN round
    /// journals (DESIGN.md §11). Results are bit-identical with the cache on
    /// or off — this is purely a speed knob.
    bool verdict_cache = true;
    /// Step 3's network-transformation equivalence check.
    bool use_symmetry = true;
    /// §3.3.3: score plans by M = a*reliability + b*utility instead of
    /// reliability alone. Requires workloads in the scenario.
    bool multi_objective = false;
    objective_weights weights{};
    anti_affinity affinity = anti_affinity::none;
    delta_mode delta = delta_mode::log_ratio;
    /// During the search, assess every candidate plan on the SAME sampled
    /// failure sequences (common random numbers). Plan *comparisons* then
    /// reflect genuine placement differences instead of sampling noise —
    /// essential because true reliability gaps between good plans are often
    /// smaller than a 10^4-round confidence interval. The final plan is
    /// re-assessed on a fresh stream so the reported score carries no
    /// optimization bias. With multiple chains CRN also makes the
    /// inter-chain best-plan comparison noise-free (all chains share the
    /// same failure sequences).
    bool common_random_numbers = true;
    /// §3.3.3 resource constraints: each deployed instance adds this much
    /// load to its host; candidate plans where any host would exceed a
    /// load of 1.0 are discarded before assessment. 0 disables the check.
    /// Requires workloads in the scenario when > 0.
    double instance_workload_demand = 0.0;
    std::uint64_t seed = 1;
    /// Deterministic iteration cap for tests (the paper's flow is
    /// time-driven only).
    std::size_t max_iterations = static_cast<std::size_t>(-1);
    /// K: independent annealing trajectories per search (§3.3 restarts).
    /// Chain 0 reproduces the single-chain trajectory exactly; chains
    /// 1..K-1 start from forked RNG substreams, so growing K only ADDS
    /// trajectories. The best plan across chains wins (ties: lowest chain).
    std::size_t search_chains = 1;
    /// Threads running chains concurrently; 0 = one per hardware thread
    /// (capped at the chain count). The result is bit-identical for any
    /// value — threads only affect wall-clock.
    std::size_t search_threads = 0;
    /// Drive the annealing temperature and budget from the iteration
    /// counter instead of the wall clock (requires a finite
    /// max_iterations). Trajectories become pure functions of the seed —
    /// the determinism mode the multi-chain tests and the deployment
    /// service's reproducible mode rely on. Off = the paper's Eq. 6
    /// wall-clock schedule.
    bool deterministic_schedule = false;
    /// Record the best-score trace during the search (Figure 9 series).
    bool record_trace = false;
    /// Per-iteration telemetry hook (obs/timeline.hpp). re_cloud enriches
    /// each event with the verdict-cache hit rate before forwarding it.
    /// Observability only — it cannot perturb the search (see
    /// annealing_options::observer). With multiple chains events carry the
    /// chain index and the hook may fire from several threads; delivery is
    /// serialized by an internal mutex.
    obs::search_observer observer{};
};

/// The developer's reliability requirements (§2.2).
struct deployment_request {
    application app;
    double desired_reliability = 1.0;  ///< R_desired
    std::chrono::nanoseconds max_search_time = std::chrono::seconds{30};  ///< Tmax
    /// Optional request-lifecycle token (core/run_budget.hpp). When set,
    /// every layer of this search polls it: the SA loops stop between
    /// iterations, the assessment backends abort mid-assessment, and the
    /// search returns its best-so-far plan with
    /// response.outcome == search_outcome::deadline_exceeded. The final
    /// unbiased CRN re-assessment runs UN-armed, so even a preempted
    /// response reports noise-free stats (one bounded assessment of
    /// overshoot past the deadline). Unset = the exact historic behavior.
    run_budget_ptr budget{};
};

struct deployment_response {
    /// Whether R_desired was reached within Tmax. If false the developer's
    /// "requirements cannot be fulfilled" — `plan` still carries the best
    /// plan found.
    bool fulfilled = false;
    /// Three-way lifecycle verdict of the winning chain: fulfilled,
    /// exhausted (budget ran out), or deadline_exceeded (cut short by
    /// request.budget — `plan` is the anytime best-so-far).
    /// fulfilled == (outcome == search_outcome::fulfilled).
    search_outcome outcome = search_outcome::exhausted;
    deployment_plan plan;
    assessment_stats stats;  ///< reliability R, variance V, CIW95 of `plan`
    double utility = 0.0;
    double score = 0.0;
    annealing_result search;  ///< search telemetry of the winning chain
    std::uint32_t winning_chain = 0;  ///< which chain produced `plan`
};

class re_cloud {
public:
    explicit re_cloud(scenario_ptr scenario, const recloud_options& options = {});

    /// Convenience: snapshot a caller-owned fat-tree infrastructure (which
    /// must outlive re_cloud) with the specialized fat-tree routing oracle.
    explicit re_cloud(const fat_tree_infrastructure& infra,
                      const recloud_options& options = {});

    ~re_cloud();  ///< out of line: engine_stats is incomplete here

    /// The §2.2 workflow: search for a plan fulfilling the request.
    [[nodiscard]] deployment_response find_deployment(const deployment_request& request);

    /// Quantitative assessment of a given plan (§3.2). `rounds == 0` uses
    /// the configured default.
    [[nodiscard]] assessment_stats assess(const application& app,
                                          const deployment_plan& plan,
                                          std::size_t rounds = 0);

    /// Evaluates one plan the way the search does (reliability + utility +
    /// score). Exposed for benches that time single evolve-and-assess steps.
    [[nodiscard]] plan_evaluation evaluate(const application& app,
                                           const deployment_plan& plan);

    [[nodiscard]] const recloud_options& options() const noexcept { return options_; }

    /// The snapshot this instance searches against.
    [[nodiscard]] const scenario_ptr& snapshot() const noexcept { return scenario_; }

    /// The main assessment backend executing route-and-check (chain 0 and
    /// every non-search assess()).
    [[nodiscard]] const assessment_backend& backend() const noexcept {
        return *backend_;
    }

    /// Engine-backend observability (dispatches, retries, re-dispatches,
    /// degradations, bytes moved, per-worker failures), cumulative for this
    /// instance and summed across chains. Null when the backend is serial
    /// or parallel. Only read between searches (it sums live counters).
    [[nodiscard]] const engine_stats* execution_stats() const;

    /// Verdict-cache observability (rounds, empty-round hits, signature
    /// hits/misses, evictions, support size), cumulative for this instance
    /// and summed across workers and chains. Null when the cache is
    /// disabled. Only read between searches (it sums live counters).
    [[nodiscard]] const verdict_cache_stats* cache_stats() const;

    /// One immutable view over everything observable: harvests worker
    /// processes first (socket transports ship their registry deltas, cache
    /// counters and trace spans back; loopback no-ops), publishes this
    /// instance's engine and verdict-cache counters into the global metrics
    /// registry as gauges ("engine.stats.*", "cache.stats.*") and returns
    /// the aggregated snapshot — live counters, gauges and histograms from
    /// every instrumented layer plus per-worker provenance entries
    /// ("worker.N.cache.stats.*", "worker.N.trace.dropped"), sorted by
    /// name. Fleet sums match a loopback run of the same seed (DESIGN.md
    /// §12). Feed it to to_json(const obs::telemetry_snapshot&) for export.
    [[nodiscard]] obs::telemetry_snapshot telemetry() const;

private:
    /// Per-chain assessment stack for chains 1..K-1 (chain 0 uses the main
    /// sampler_/backend_ so K=1 is byte-for-byte the single-chain path).
    /// Declaration order inside is the same lifetime contract as the main
    /// members: the backend points into the sampler.
    struct chain_stack {
        std::unique_ptr<failure_sampler> sampler;
        std::unique_ptr<assessment_backend> backend;
    };

    [[nodiscard]] chain_stack make_chain_stack(std::uint64_t stream_id) const;
    [[nodiscard]] plan_evaluation evaluate_on(assessment_backend& backend,
                                              const application& app,
                                              const deployment_plan& plan) const;

    scenario_ptr scenario_;
    recloud_options options_;
    /// Static support set shared by every backend verdict cache; part of the
    /// same lifetime contract as sampler_ (backends point into it, so it
    /// must be declared before backend_). Engaged iff the cache is on.
    std::optional<verdict_support> support_;
    /// The resolved cache configuration every backend (main and chain) is
    /// built with; points into support_.
    verdict_cache_options cache_options_{};
    /// Declaration order is a lifetime contract: every backend keeps a raw
    /// pointer to the sampler, so sampler_ must precede backend_ (members
    /// are destroyed in reverse order — the backend goes first).
    std::unique_ptr<failure_sampler> sampler_;
    std::unique_ptr<assessment_backend> backend_;
    /// Chains 1..K-1 (lazily built on the first multi-chain search).
    std::vector<chain_stack> chains_;
    assessment_engine* engine_view_ = nullptr;  ///< set iff backend is the engine
    std::optional<symmetry_checker> symmetry_;
    std::optional<workload_utility> utility_;
    /// Aggregation scratch for cache_stats()/execution_stats() across the
    /// main backend and every chain stack.
    mutable verdict_cache_stats aggregated_cache_stats_{};
    mutable std::unique_ptr<engine_stats> aggregated_engine_stats_;
};

}  // namespace recloud
