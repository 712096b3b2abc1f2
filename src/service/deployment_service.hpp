// Concurrent deployment service — the provider's front door for the
// paper's workflow (§2.2): many developers submit reliability requirements
// at once, each against a shared immutable scenario snapshot
// (core/scenario.hpp), and each gets back a plan or a "cannot be
// fulfilled" verdict.
//
// The service owns a registry of named scenarios and a fixed fleet of
// SHARDS: each shard has its own bounded pending queue and its own pool of
// search workers, and a request is routed to the shard owning its scenario
// (hash of the scenario name), so one hot scenario saturating its shard's
// queue sheds load for that scenario only — requests against other
// scenarios keep flowing through their own shards. Every request runs in
// its own re_cloud instance (own backends, own RNG substreams derived from
// the request seed), so requests share nothing mutable — the scenario
// layer guarantees the model they read is frozen.
//
// Admission control is part of the response, not an exception, because
// callers race each other for the slots. A submission is SHED — resolved
// immediately as `rejected` — when its shard's queue is full
// (stats.shed_queue_full, "service.shed.queue_full") or when its tenant
// already has `tenant_quota` requests in flight (stats.shed_quota,
// "service.shed.quota").
//
// Telemetry: every observer event a request's search emits is stamped with
// the service-assigned request id (obs::search_iteration_event::request_id,
// ids start at 1), and the service counts submissions/rejections/
// completions/failures both in service_stats and in the global metrics
// registry ("service.*" counters).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <condition_variable>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/recloud.hpp"
#include "obs/metrics.hpp"

namespace recloud {

namespace obs {
class admin_server;
}

/// How a shard orders its pending queue (DESIGN.md §13).
enum class scheduling_policy : std::uint8_t {
    /// Strict admission order; slo_deadline is never ENFORCED (no EDF pop,
    /// no shedding, no preemption) but deadline met/missed is still
    /// MEASURED — the baseline the EDF-vs-FIFO service test runs against.
    fifo,
    /// Earliest-deadline-first: the pop takes the smallest (deadline, id)
    /// key, requests whose deadline already passed are shed without
    /// running, provably-unmeetable submissions are shed at admission
    /// (min_service_grant), and a running search is cooperatively
    /// preempted at its deadline, returning its anytime best-so-far plan.
    /// With NO deadlines configured every key is (+inf, id), so the pop
    /// degenerates to admission order — bit-identical to fifo.
    edf,
};

[[nodiscard]] const char* to_string(scheduling_policy policy) noexcept;

struct service_options {
    /// Concurrent searches PER SHARD (each worker runs one request at a
    /// time).
    std::size_t workers = 2;
    /// Pending (admitted but not yet running) requests PER SHARD;
    /// submissions beyond it are shed as request_status::rejected.
    std::size_t queue_capacity = 64;
    /// Independent engine shards. A request is routed to the shard owning
    /// its scenario — std::hash of the scenario name modulo `shards` — so
    /// all requests for one scenario are serviced (and shed) by one shard's
    /// queue while other scenarios ride other shards.
    std::size_t shards = 1;
    /// Per-tenant admission quota: max requests a tenant may have in
    /// flight (queued or running) across all shards; submissions beyond it
    /// are shed as rejected. 0 = unlimited. The empty tenant name is a
    /// tenant like any other.
    std::size_t tenant_quota = 0;
    /// Queue ordering + deadline enforcement (see scheduling_policy).
    scheduling_policy scheduling = scheduling_policy::edf;
    /// Admission-time feasibility floor: the minimum wall time the service
    /// commits to grant any admitted search. A deadline submission whose
    /// earliest possible start — now + min_service_grant x
    /// (requests ahead of it / workers) — leaves less than this grant
    /// before its deadline is PROVABLY UNMEETABLE and shed at submit()
    /// (stats.shed_unmeetable, "service.deadline.shed_unmeetable").
    /// 0 disables admission shedding (expired requests are still shed at
    /// dequeue under edf).
    std::chrono::nanoseconds min_service_grant{0};
    /// Safety margin subtracted from a request's remaining time when arming
    /// its search run_budget, reserving room for response assembly and the
    /// final unbiased re-assessment so the RESPONSE (not just the search)
    /// meets the deadline.
    std::chrono::nanoseconds deadline_headroom{0};
    /// Base search configuration for every request; per-request fields
    /// (seed, chains, iteration budget) override it. The observer (if any)
    /// receives events from ALL requests, stamped with their request id,
    /// possibly from several worker threads at once — it must be
    /// thread-safe or wrapped appropriately by the caller.
    recloud_options defaults{};
    /// Unix-domain socket path of the live introspection endpoint
    /// (obs::admin_server): GET /metrics serves a Prometheus text
    /// exposition of the global registry (per-shard queue gauges and, after
    /// a telemetry harvest, socket-worker counters included), /status the
    /// service health JSON (status_json()), /healthz a liveness probe, and
    /// /trace an on-demand Chrome trace dump. Empty = no endpoint. The
    /// socket file is bound at construction (construction throws if it
    /// cannot be) and unlinked at shutdown.
    std::string admin_socket;
};

enum class request_status : std::uint8_t {
    completed,  ///< the search ran; see result.fulfilled for R_desired
    rejected,   ///< refused at admission (queue full or shutting down)
    failed,     ///< admitted but errored (unknown scenario, invalid app, ...)
};

[[nodiscard]] const char* to_string(request_status status) noexcept;

/// One developer request (§2.2): application structure + R_desired + Tmax,
/// bound to a named scenario.
struct service_request {
    std::string scenario;  ///< name registered via add_scenario()
    /// Tenant identity for admission quotas (empty = the anonymous tenant).
    std::string tenant;
    application app;
    double desired_reliability = 1.0;  ///< R_desired
    std::chrono::nanoseconds max_search_time = std::chrono::seconds{30};  ///< Tmax
    std::uint64_t seed = 1;
    /// SLO deadline for the whole request lifecycle (queue wait + search +
    /// response assembly), measured from submit(). 0 = no deadline: the
    /// request is never shed, never preempted, and its search runs exactly
    /// the historic trajectory. Distinct from max_search_time (Tmax, the
    /// search's own annealing budget): slo_deadline is the caller's
    /// patience, Tmax the paper's Eq. 6 cooling horizon.
    std::chrono::nanoseconds slo_deadline{0};
    /// Per-request overrides of the service defaults (unset = inherit).
    std::optional<std::size_t> search_chains;
    std::optional<std::size_t> max_iterations;
};

struct service_response {
    request_status status = request_status::failed;
    std::uint64_t request_id = 0;
    std::string scenario;
    std::string error;          ///< set for rejected/failed
    deployment_response result; ///< meaningful iff status == completed
    /// Time the request sat admitted-but-not-running (submit → dequeue).
    /// Also observed into the "service.latency.queue_wait_ns" histogram.
    std::chrono::nanoseconds queue_wait_ns{0};
    /// Time the search ran (dequeue → response ready), histogram
    /// "service.latency.search_ns". Both are 0 for admission-shed requests.
    std::chrono::nanoseconds search_ns{0};
    /// Whether a deadline request's response was ready by its deadline.
    /// Meaningful only when the request carried an slo_deadline; a
    /// preempted-but-on-time request still reads true here (its result is
    /// the anytime plan, see result.outcome).
    bool deadline_met = false;
};

/// Cumulative service counters (also exported as "service.*" metrics).
struct service_stats {
    std::uint64_t submitted = 0;  ///< admitted into a shard queue
    std::uint64_t rejected = 0;   ///< refused at admission (all causes)
    std::uint64_t completed = 0;
    std::uint64_t failed = 0;
    /// Load shed because the target shard's queue was full
    /// ("service.shed.queue_full"). Counted inside `rejected` too.
    std::uint64_t shed_queue_full = 0;
    /// Load shed because the tenant hit its in-flight quota
    /// ("service.shed.quota"). Counted inside `rejected` too.
    std::uint64_t shed_quota = 0;
    /// Deadline requests shed as provably unmeetable — at admission by the
    /// min_service_grant bound, or at dequeue because the deadline had
    /// already passed ("service.deadline.shed_unmeetable"). Counted inside
    /// `rejected` too.
    std::uint64_t shed_unmeetable = 0;
    /// Deadline requests whose response was ready by the deadline
    /// ("service.deadline.met"). met + missed + shed_unmeetable covers
    /// every resolved deadline request.
    std::uint64_t deadline_met = 0;
    /// Deadline requests that ran but resolved late ("service.deadline.missed").
    std::uint64_t deadline_missed = 0;
    /// Searches cooperatively preempted by their run_budget — the response
    /// carries the anytime best-so-far plan with
    /// search_outcome::deadline_exceeded ("service.deadline.preempted").
    /// Orthogonal to met/missed: a preempted search usually still meets its
    /// deadline (that is the point).
    std::uint64_t preempted = 0;
    /// Worker-process respawns summed over finished requests
    /// (re_cloud::execution_stats; 0 unless requests run engine workers).
    std::uint64_t worker_respawns = 0;
    /// Deepest any single shard queue ever got.
    std::size_t peak_queue_depth = 0;
    /// Live queue depth per shard (index = shard id) at the stats() call.
    /// Also exported live as "service.shard.N.queue_depth" gauges.
    std::vector<std::size_t> shard_queue_depth;
    /// Per-shard queue high-water marks ("service.shard.N.queue_peak"
    /// gauges); peak_queue_depth is their maximum.
    std::vector<std::size_t> shard_queue_peak;
};

class deployment_service {
public:
    explicit deployment_service(const service_options& options = {});
    /// Drains the queue (every admitted request still completes), then
    /// joins the workers.
    ~deployment_service();
    deployment_service(const deployment_service&) = delete;
    deployment_service& operator=(const deployment_service&) = delete;

    /// Registers (or replaces) a named snapshot. Requests capture the
    /// scenario_ptr at submission, so replacing a name never affects
    /// already-admitted requests.
    void add_scenario(std::string name, scenario_ptr scenario);
    [[nodiscard]] scenario_ptr find_scenario(const std::string& name) const;

    /// Admits a request. The future resolves when the search completes —
    /// or immediately with `rejected` (shard queue full / tenant over quota
    /// / shutting down) or `failed` (unknown scenario). Never throws on
    /// overload.
    [[nodiscard]] std::future<service_response> submit(service_request request);

    /// Stops admitting, drains every queued request, joins every shard's
    /// workers. Each request's re_cloud (and with it any socket-transport
    /// worker fleet of child recloud_worker processes) is destroyed when
    /// its search finishes, so after shutdown() returns the service has no
    /// live child processes. Idempotent; the destructor calls it.
    void shutdown();

    [[nodiscard]] service_stats stats() const;
    /// Health/status JSON served at the admin endpoint's /status route:
    /// admission configuration, cumulative stats() (per-shard queue depth
    /// and high-water mark included), per-tenant in-flight counts, and the
    /// fleet's liveness: stats().worker_respawns and the process tracer's
    /// dropped spans. Callable without an admin endpoint.
    [[nodiscard]] std::string status_json() const;
    /// Pending requests across all shards.
    [[nodiscard]] std::size_t queue_depth() const;
    /// Which shard services a scenario name (stable across the lifetime).
    [[nodiscard]] std::size_t shard_of(const std::string& scenario) const noexcept;
    [[nodiscard]] std::size_t shard_count() const noexcept { return shards_.size(); }
    /// In-flight (queued or running) requests for one tenant.
    [[nodiscard]] std::size_t tenant_in_flight(const std::string& tenant) const;

private:
    struct pending_request {
        std::uint64_t id = 0;
        service_request request;
        scenario_ptr scenario;
        std::promise<service_response> promise;
        /// submit() wall-clock instant (queue_wait starts here).
        monotonic_clock::time_point admitted_at{};
        /// Absolute deadline (admitted_at + slo_deadline); the EDF sort key.
        monotonic_clock::time_point deadline_at{};
        bool has_deadline = false;
    };

    /// One shard: a bounded queue plus the workers draining it. Requests
    /// for a scenario always land on the same shard, so shedding is scoped
    /// to the overloaded scenario's shard.
    struct shard {
        mutable std::mutex mutex;
        std::condition_variable work_available;
        std::deque<pending_request> queue;
        std::vector<std::thread> workers;
        std::size_t peak = 0;  ///< queue high-water mark (under `mutex`)
        /// "service.shard.N.queue_depth"/".queue_peak" gauges, registered
        /// at construction so the queue hot path never allocates a name.
        obs::metric_id depth_gauge{};
        obs::metric_id peak_gauge{};
        bool gauges_registered = false;  ///< false once gauge capacity ran out
    };

    /// EDF total order: (deadline or +inf, admission id). Deadline-free
    /// requests compare by id alone, so an all-FIFO workload pops in
    /// admission order under edf too — the PR 9 bit-identity hinge.
    [[nodiscard]] static bool edf_before(const pending_request& a,
                                         const pending_request& b) noexcept;

    void worker_loop(shard& sh);
    /// Runs one request and reports its engine's worker respawns in
    /// `worker_respawns` (left untouched without an engine).
    [[nodiscard]] service_response run(pending_request& pending,
                                       const run_budget_ptr& budget,
                                       std::uint64_t& worker_respawns) const;

    service_options options_;
    /// Registry + stats + tenant bookkeeping; never held while a shard
    /// mutex is held (lock order: service mutex_ before shard.mutex).
    mutable std::mutex mutex_;
    std::unordered_map<std::string, scenario_ptr> scenarios_;
    std::unordered_map<std::string, std::size_t> tenant_in_flight_;
    service_stats stats_{};
    std::uint64_t next_request_id_ = 1;
    /// Atomic because shard workers read it in their wait predicate under
    /// the SHARD mutex, while admission flips it under the service mutex.
    std::atomic<bool> shutting_down_{false};
    /// unique_ptr: shards are address-stable for the worker threads.
    std::vector<std::unique_ptr<shard>> shards_;
    /// Live introspection endpoint (engaged iff options.admin_socket is
    /// set). Declared after shards_ so it is destroyed — its server thread
    /// joined — before the shards its /status handler reads.
    std::unique_ptr<obs::admin_server> admin_;
};

}  // namespace recloud
