// MapReduce-style parallel route-and-check (paper §3.2.1 "Note that, the
// route-and-check process can be performed in parallel via MapReduce",
// evaluated in §4.2.4 / Figure 12).
//
// The master SERIALIZES the assessment setup (application, plan, base seed,
// epoch) once per assessment and hands workers batch DESCRIPTORS (batch id,
// rounds). A worker builds its route-and-check context from the setup and
// runs each batch through judge_batch — fork(substream_id(epoch, b)),
// sample, judge — the batch scheme every backend shares
// (assess/backend.hpp); the master aggregates the result records. The
// serialization is real even for in-process loopback workers, so Figure
// 12's fixed costs (setup shipping, context setup) are always paid.
//
// Fault tolerance: the master treats workers as unreliable. Every task and
// result message is framed (magic/version/length/checksum — see
// util/serialize.hpp); on a worker crash, a missed deadline, or a corrupt
// frame the master retries with exponential backoff, re-dispatching to
// workers that have not yet failed that batch. When every worker has been
// exhausted for a batch the master degrades gracefully and runs the batch
// locally. A batch is a pure function of its descriptor and the setup, so
// every recovery path derives the identical rounds again and recomputes the
// identical per-batch counts — assessment_stats are bit-identical to the
// fault-free run for any worker count. exec/chaos.hpp injects the faults
// deterministically for tests and benches.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "app/application.hpp"
#include "app/deployment.hpp"
#include "assess/backend.hpp"
#include "exec/chaos.hpp"
#include "exec/transport.hpp"
#include "faults/fault_tree.hpp"
#include "routing/oracle.hpp"
#include "sampling/sampler.hpp"
#include "util/serialize.hpp"
#include "util/stats.hpp"

namespace recloud {

// ---- wire format (exposed for tests) ----------------------------------
namespace wire {

void encode_application(byte_writer& out, const application& app);
[[nodiscard]] application decode_application(byte_reader& in);

void encode_plan(byte_writer& out, const deployment_plan& plan);
[[nodiscard]] deployment_plan decode_plan(byte_reader& in);

/// One assessment's setup message: what every worker judges against, and
/// the (base seed, epoch) its batches fork from.
struct assessment_setup {
    application app;
    deployment_plan plan;
    std::uint64_t seed = 0;
    std::uint64_t epoch = 0;
};

void encode_setup(byte_writer& out, const application& app,
                  const deployment_plan& plan, std::uint64_t seed,
                  std::uint64_t epoch);
/// Throws serialize_error on malformed input or trailing bytes.
[[nodiscard]] assessment_setup decode_setup(byte_reader& in);

/// A task: batch `batch` of the current assessment, `rounds` rounds long.
struct batch_descriptor {
    std::uint64_t batch = 0;
    std::uint64_t rounds = 0;
};

void encode_batch(byte_writer& out, const batch_descriptor& batch);
/// Throws serialize_error on malformed input, a batch id outside the
/// substream range (>= 2^32) or zero rounds.
[[nodiscard]] batch_descriptor decode_batch(byte_reader& in);

struct batch_result {
    std::uint64_t rounds = 0;
    std::uint64_t reliable = 0;
};

void encode_batch_result(byte_writer& out, const batch_result& result);
[[nodiscard]] batch_result decode_batch_result(byte_reader& in);

}  // namespace wire

struct engine_options {
    std::size_t workers = 1;
    /// Rounds per serialized batch ("portions of rounds" the master
    /// distributes) — the batch of the shared batch scheme, so part of the
    /// determinism contract.
    std::size_t batch_rounds = default_batch_rounds;
    /// Dispatch attempts per batch before the master gives up on workers
    /// and runs the batch locally. 0 skips workers entirely (every batch
    /// degrades to master-local route-and-check).
    std::size_t max_attempts = 3;
    /// Master-side deadline for one dispatch attempt's result; an attempt
    /// missing it counts as failed (straggler) and the batch is
    /// re-dispatched. zero = wait forever (no straggler detection).
    std::chrono::milliseconds batch_deadline{0};
    /// Backoff before retry attempt k (1-based): retry_backoff << (k-1).
    /// zero = retry immediately.
    std::chrono::microseconds retry_backoff{0};
    /// Optional deterministic fault injection (must outlive the engine).
    const chaos_schedule* chaos = nullptr;
    /// Per-worker verdict memoization (each worker context owns a private
    /// cache; `verdict_cache.support` must outlive the engine when enabled).
    /// Counts are summed per batch and addition commutes, so the cache
    /// cannot perturb the engine's bit-identical recovery guarantee.
    verdict_cache_options verdict_cache{};
    /// Where workers live: in-process thread-pool nodes (loopback, the
    /// default — the historic engine) or real recloud_worker processes over
    /// Unix-domain sockets. The recovery state machine and the stats it
    /// produces are transport-independent.
    transport_kind transport = transport_kind::loopback;
    /// Socket transport tuning (worker binary, respawn budget). Ignored by
    /// loopback.
    socket_transport_options socket{};
    /// Structural environment shipped to out-of-process workers so they can
    /// rebuild a route-and-check context (a BFS oracle over this topology).
    /// REQUIRED for the socket transport; ignored by loopback (its workers
    /// use the in-process oracle factory). Borrowed — must outlive the
    /// engine.
    const built_topology* topology = nullptr;
    const link_attachment* links = nullptr;
};

/// Recovery/observability counters for one engine, cumulative across
/// assess() calls. All counting happens on the master thread.
struct engine_stats {
    std::uint64_t batches = 0;          ///< distinct batches produced
    std::uint64_t dispatches = 0;       ///< dispatch attempts sent to workers
    std::uint64_t retries = 0;          ///< attempts beyond a batch's first
    std::uint64_t redispatches = 0;     ///< retries that switched worker
    std::uint64_t degraded = 0;         ///< batches run master-local
    std::uint64_t worker_crashes = 0;   ///< attempts failed by exception
    std::uint64_t deadline_misses = 0;  ///< attempts failed by deadline
    std::uint64_t invalid_frames = 0;   ///< attempts failed by validation
    std::uint64_t bytes_sent = 0;       ///< framed setup + task bytes
    std::uint64_t bytes_received = 0;   ///< framed result bytes
    /// Worker process respawns performed by the transport (0 for loopback
    /// threads, which never die). Snapshotted from the transport after each
    /// assess().
    std::uint64_t worker_respawns = 0;
    std::vector<std::uint64_t> worker_failures;  ///< failed attempts per worker

    /// The field list: calls fn(name, member) for every scalar counter
    /// above, in declaration order. The chain sum and the engine.stats.*
    /// gauges iterate it.
    template <typename Fn>
    static constexpr void for_each_counter(Fn&& fn) {
        fn("batches", &engine_stats::batches);
        fn("dispatches", &engine_stats::dispatches);
        fn("retries", &engine_stats::retries);
        fn("redispatches", &engine_stats::redispatches);
        fn("degraded", &engine_stats::degraded);
        fn("worker_crashes", &engine_stats::worker_crashes);
        fn("deadline_misses", &engine_stats::deadline_misses);
        fn("invalid_frames", &engine_stats::invalid_frames);
        fn("bytes_sent", &engine_stats::bytes_sent);
        fn("bytes_received", &engine_stats::bytes_received);
        fn("worker_respawns", &engine_stats::worker_respawns);
    }

    [[nodiscard]] std::uint64_t failures() const noexcept {
        return worker_crashes + deadline_misses + invalid_frames;
    }

    /// Sums every counter; worker_failures element-wise.
    void accumulate(const engine_stats& other) {
        for_each_counter([&](const char*, auto field) {
            this->*field += other.*field;
        });
        if (worker_failures.size() < other.worker_failures.size()) {
            worker_failures.resize(other.worker_failures.size(), 0);
        }
        for (std::size_t w = 0; w < other.worker_failures.size(); ++w) {
            worker_failures[w] += other.worker_failures[w];
        }
    }
};

/// The engine as an assessment backend: same epochs and substreams as
/// parallel_backend, so the same stats, but setup serialization and the
/// context rebind are paid per assessment (Figure 12's fixed costs).
class assessment_engine final : public assessment_backend {
public:
    /// `forest` may be nullptr. The factory is invoked once per in-process
    /// worker context: at the worker's first assessment (later ones rebind
    /// it) and for a degraded-local context. LIFETIME CONTRACT: the engine
    /// keeps a pointer to `sampler` and dereferences it on every assess()
    /// and reset_stream() — the sampler must strictly outlive the engine.
    /// re_cloud satisfies this by owning the sampler in a member declared
    /// before the backend (destroyed after it). Throws std::invalid_argument
    /// when `options.batch_rounds` is 0 or the sampler cannot fork.
    assessment_engine(std::size_t component_count,
                      const fault_tree_forest* forest,
                      oracle_factory make_oracle, failure_sampler& sampler,
                      const engine_options& options = {});

    void reset_stream(std::uint64_t seed) override;
    [[nodiscard]] const char* name() const noexcept override { return "engine"; }

    /// Verdict-cache counters summed over every worker (and degraded-local)
    /// context of every assess() so far; nullptr when the cache is off.
    /// Socket workers contribute the totals pulled back by the last
    /// telemetry harvest (harvest_telemetry(), or the transport's final
    /// shutdown harvest).
    [[nodiscard]] const verdict_cache_stats* cache_stats()
        const noexcept override;

    [[nodiscard]] std::size_t workers() const noexcept {
        return transport_->workers();
    }

    /// The transport hosting the workers (process pids, respawn counters —
    /// what the socket chaos tests introspect).
    [[nodiscard]] const engine_transport& transport() const noexcept {
        return *transport_;
    }

    /// Recovery counters, cumulative since construction.
    [[nodiscard]] const engine_stats& stats() const noexcept { return stats_; }

    /// Pulls worker-process telemetry (registry deltas, cache-counter
    /// growths, trace spans) into this process. No-op on loopback. Pure
    /// observability — never perturbs assessment state (§6).
    void harvest_telemetry() { transport_->harvest_telemetry(); }

    /// Per-worker totals accumulated by harvests (empty on loopback).
    [[nodiscard]] worker_fleet_telemetry fleet_telemetry() const {
        return transport_->fleet_telemetry();
    }

private:
    /// Assesses one plan over `rounds` rounds as the next epoch, merging
    /// each accepted batch result as one replicate (every batch is its own
    /// replicate). The armed budget (set_budget) is the request lifecycle
    /// token: the master polls it between batches and WHILE waiting on
    /// dispatched results (sliced waits), and when it fires the assessment
    /// aborts cleanly — outstanding dispatches are abandoned, drained, and
    /// their late results dropped; the transport stays reusable (no zombie
    /// workers, no desync) — then search_preempted propagates with the
    /// partial tally discarded.
    [[nodiscard]] result_accumulator run_epoch(const application& app,
                                               const deployment_plan& plan,
                                               std::size_t rounds) override;

    failure_sampler* sampler_;  ///< non-owning; see ctor lifetime contract
    engine_options options_;
    transport_env env_;  ///< every worker context's, the degraded path's too
    std::unique_ptr<engine_transport> transport_;
    std::uint64_t epoch_ = 0;  ///< assessments since construction/reset
    engine_stats stats_;
    /// Master-local (degraded-path) cache counters; worker-context counters
    /// accumulate inside the transport. cache_stats() combines both.
    verdict_cache_stats local_cache_stats_;
    mutable verdict_cache_stats combined_cache_stats_;
};

}  // namespace recloud
