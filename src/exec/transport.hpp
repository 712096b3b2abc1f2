// Pluggable transport under the assessment engine — the seam that turns the
// in-process MapReduce engine into a real fleet.
//
// The engine's recovery state machine (retry, re-dispatch, degrade; see
// exec/engine.hpp) never cared WHERE a batch ran — it only needs framed
// task bytes to go out and framed result bytes (or a failure) to come back.
// This interface makes that explicit:
//
//   * loopback transport — the historic in-process path: worker "nodes" are
//     thread-pool threads judging through worker_context. Behavior,
//     byte accounting, and chaos semantics are unchanged, so every existing
//     engine/recovery test keeps proving the same machine.
//   * socket transport — real worker processes (the recloud_worker
//     executable) on the far side of Unix-domain socket pairs. Workers are
//     RESTARTABLE: a dead process (chaos crash = real _exit, or an external
//     SIGKILL) is respawned and re-fed its environment, while the engine's
//     existing recovery re-dispatches the batch it was holding.
//
// Determinism (§6 contract) survives the process boundary because a worker
// is a pure function (environment, setup, framed task) -> framed result,
// sampling each batch itself from the shipped sampler description. A
// retried, moved or respawned batch is derived again from the same inputs:
// which process judges a batch can change the timing, never the counts.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <future>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "assess/verdict_cache.hpp"
#include "exec/chaos.hpp"
#include "faults/fault_tree.hpp"
#include "routing/oracle.hpp"
#include "sampling/sampler.hpp"
#include "topology/links.hpp"

namespace recloud {

/// Transport-layer failure (spawn failure, dead peer, poisoned stream).
/// Deliberately NOT a serialize_error: the engine counts transport failures
/// as worker crashes, while serialize_error marks invalid frames.
class transport_error : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

enum class transport_kind : std::uint8_t {
    loopback,  ///< in-process thread-pool workers (the default)
    socket,    ///< recloud_worker processes over Unix-domain sockets
};

[[nodiscard]] const char* to_string(transport_kind kind) noexcept;

/// Everything a transport needs to stand up worker route-and-check
/// contexts. The loopback path uses the in-process closures directly; the
/// socket path serializes the structural parts (sampler kind and
/// probabilities, topology, forest, links, chaos schedule, cache
/// configuration) into an environment message the worker process rebuilds
/// its context from. All pointers are borrowed and must outlive the
/// transport.
struct transport_env {
    std::size_t component_count = 0;
    const fault_tree_forest* forest = nullptr;  ///< may be null
    /// The master sampler's description: workers fork every batch from its
    /// kind and probabilities, seeded by each assessment's setup. Required.
    const sampler_description* sampler = nullptr;
    /// In-process context setup (loopback; socket workers build a BFS
    /// oracle over the shipped topology instead).
    oracle_factory make_oracle;
    /// Per-worker private verdict caches. Loopback workers share
    /// `verdict_cache.support`; socket workers derive their own support
    /// from the shipped environment (only enabled/max_entries cross).
    verdict_cache_options verdict_cache{};
    /// Deterministic fault injection, applied per dispatch attempt. The
    /// loopback path injects in-process; the socket path ships the schedule
    /// options so the worker process injects on itself (a chaos crash
    /// becomes a real process death).
    const chaos_schedule* chaos = nullptr;
    /// Structural environment for cross-process transports (required by
    /// socket, ignored by loopback).
    const built_topology* topology = nullptr;
    const link_attachment* links = nullptr;
};

/// Per-worker observability totals accumulated across telemetry harvests
/// (socket transport; loopback workers write into the process registry
/// directly, so their fleet view is empty). Cache counters sum the growths
/// every harvest shipped from the slot, across respawned processes;
/// trace_dropped counts worker-side ring overflows.
struct worker_fleet_telemetry {
    struct worker_entry {
        std::uint64_t worker_id = 0;
        std::uint32_t pid = 0;
        verdict_cache_stats cache;
        std::uint64_t trace_dropped = 0;
        std::uint64_t harvests = 0;  ///< telemetry round-trips answered
    };
    std::vector<worker_entry> workers;  ///< sorted by worker_id
};

/// One assessment fleet: a fixed set of worker endpoints the engine
/// dispatches framed batches to. Lifecycle per assessment:
/// begin_assessment(setup) -> dispatch()* -> (all futures settled). Worker
/// contexts persist across assessments: the next setup rebinds them in
/// place. The framed task span passed to dispatch() must stay valid until
/// its future is ready — the engine guarantees this by keeping every
/// batch's descriptor until the assessment drains.
class engine_transport {
public:
    virtual ~engine_transport() = default;

    [[nodiscard]] virtual const char* name() const noexcept = 0;
    [[nodiscard]] virtual std::size_t workers() const noexcept = 0;

    /// Ships the framed setup message (application, plan, base seed,
    /// epoch) to every worker, which builds its context or rebinds the one
    /// it holds; returns the setup bytes charged to the wire (engine
    /// accounting).
    virtual std::uint64_t begin_assessment(
        std::span<const std::byte> framed_setup) = 0;

    /// Sends a framed task to `worker`. The future yields the framed result
    /// bytes — possibly mangled (the engine validates) — or throws:
    /// serialize_error counts as an invalid frame, anything else as a
    /// worker crash.
    [[nodiscard]] virtual std::future<std::vector<std::byte>> dispatch(
        std::size_t worker, std::span<const std::byte> framed_task,
        std::uint64_t batch, std::uint64_t attempt) = 0;

    /// Cumulative verdict-cache counters over every worker context this
    /// transport has hosted, or nullptr when workers run uncached (or their
    /// counters stay remote, as with socket workers).
    [[nodiscard]] virtual const verdict_cache_stats* cache_stats()
        const noexcept {
        return nullptr;
    }

    /// Pulls telemetry from every live worker process — registry deltas,
    /// verdict-cache counter growths, drained trace spans — and folds
    /// it into this process's registry/tracer, so loopback and socket runs
    /// report equivalent counters. No-op for in-process transports (their
    /// writes land in the shared registry directly). Pure observability:
    /// touches no RNG, sampler or verdict state (§6 contract), and worker
    /// failures during harvest are swallowed (the respawn machinery owns
    /// those).
    virtual void harvest_telemetry() {}

    /// Per-worker totals accumulated by harvest_telemetry(); empty for
    /// in-process transports.
    [[nodiscard]] virtual worker_fleet_telemetry fleet_telemetry() const {
        return {};
    }

    // ---- process-backed introspection (0 / empty for in-process) --------
    [[nodiscard]] virtual std::uint64_t respawns() const noexcept { return 0; }
    [[nodiscard]] virtual std::size_t live_worker_processes() const noexcept {
        return 0;
    }
    [[nodiscard]] virtual std::vector<int> worker_pids() const { return {}; }
};

struct socket_transport_options {
    /// Path to the recloud_worker executable; empty resolves through
    /// default_worker_binary().
    std::string worker_binary;
    /// Process respawns per worker slot before the slot is declared dead
    /// for good (the engine then degrades around it).
    std::size_t max_respawns = 16;
    /// How long to wait for a freshly spawned worker's hello (it is sent
    /// after the environment decoded, so it also proves the env round-trip).
    std::chrono::milliseconds spawn_timeout{10'000};
    /// Frames claiming payloads beyond this poison the connection.
    std::size_t max_frame_payload = std::size_t{1} << 30;
};

/// In-process transport: `workers` thread-pool workers, each judging
/// through its own worker_context. Throws std::invalid_argument when
/// workers == 0 (the historic thread_pool contract).
[[nodiscard]] std::unique_ptr<engine_transport> make_loopback_transport(
    std::size_t workers, const transport_env& env);

/// Process fleet: spawns `workers` recloud_worker processes over Unix
/// socket pairs. Requires env.topology. Throws transport_error when a
/// worker fails to start (bad binary path, env rejected).
[[nodiscard]] std::unique_ptr<engine_transport> make_socket_transport(
    std::size_t workers, const transport_env& env,
    const socket_transport_options& options = {});

/// Resolves the worker executable: $RECLOUD_WORKER_BIN if set, else
/// "recloud_worker" next to the current executable, else the bare name
/// (PATH lookup by execvp).
[[nodiscard]] std::string default_worker_binary();

}  // namespace recloud
