// Master <-> recloud_worker wire protocol (the socket transport's frames).
//
// Everything on the socket is an OUTER ENVELOPE: a frame_message-framed
// payload `[u8 kind][u64 batch][u64 attempt][blob...]`. The envelope is the
// transport's integrity layer — its header makes the stream self-delimiting
// (frame_assembler) and its checksum covers whatever blob the worker chose
// to send. Task and result blobs are themselves framed engine messages
// (the INNER frame the engine validates end-to-end); chaos corruption
// mangles the inner frame only, so a poisoned result still travels inside a
// valid envelope and surfaces as the engine's invalid_frames path instead
// of desynchronizing the stream.
//
// Handshake: master sends `env` right after spawning; the worker answers
// `hello` only after the environment decoded and its route-and-check
// support is built — so a completed handshake proves the whole environment
// round-trip, not just liveness.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "assess/verdict_cache.hpp"
#include "exec/chaos.hpp"
#include "exec/transport.hpp"
#include "faults/fault_tree.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sampling/sampler.hpp"
#include "topology/graph.hpp"
#include "topology/links.hpp"

namespace recloud {

enum class worker_msg : std::uint8_t {
    hello = 1,     ///< worker -> master: environment accepted, ready
    env = 2,       ///< master -> worker: serialized worker_environment
    setup = 3,     ///< master -> worker: framed setup (app, plan, seed,
                   ///< epoch); builds the worker's context or rebinds the
                   ///< one it holds
    task = 4,      ///< master -> worker: framed batch descriptor
    result = 5,    ///< worker -> master: framed batch result (batch, attempt)
    // 6 and 8 are retired kinds; unpack_envelope rejects them.
    shutdown = 7,  ///< master -> worker: exit cleanly
    telemetry = 9,  ///< master -> worker: empty-blob harvest request;
                    ///< worker -> master: encoded worker_telemetry reply
                    ///< (registry delta + cache-counter growth + drained
                    ///< trace spans). Pure observability: touches no RNG,
                    ///< sampler or verdict state (§6 contract).
};

struct envelope {
    worker_msg kind = worker_msg::hello;
    std::uint64_t batch = 0;
    std::uint64_t attempt = 0;
    /// Distributed-trace propagation (task envelopes): the master's capture
    /// id and the dispatching span's flow id. Workers tag their batch spans
    /// with the same flow id so the merged export stitches dispatch ->
    /// execute across the process boundary. Zero = no active capture.
    std::uint64_t trace_id = 0;
    std::uint64_t span_id = 0;
    std::vector<std::byte> blob;
};

/// Builds the framed outer envelope ready for the socket.
[[nodiscard]] std::vector<std::byte> pack_envelope(
    worker_msg kind, std::uint64_t batch, std::uint64_t attempt,
    std::span<const std::byte> blob, std::uint64_t trace_id = 0,
    std::uint64_t span_id = 0);

/// Parses a complete outer frame (as popped from a frame_assembler).
/// Throws serialize_error on a malformed envelope, including one whose kind
/// is not a worker_msg enumerator.
[[nodiscard]] envelope unpack_envelope(std::span<const std::byte> framed);

/// The structural environment a worker process rebuilds its route-and-check
/// context from: sampler kind and probabilities, decoded
/// topology/forest/links, chaos schedule and verdict-cache configuration.
/// The decoded forest reproduces the master's tree node ids 1:1 (children
/// always have smaller ids, so re-adding in id order is an identity).
struct worker_environment {
    std::uint64_t worker_id = 0;
    std::size_t component_count = 0;
    sampler_description sampler;  ///< kind and probabilities (seed 0)
    built_topology topology;
    std::optional<fault_tree_forest> forest;
    std::optional<link_attachment> links;
    bool chaos_enabled = false;
    chaos_options chaos{};
    bool cache_enabled = false;
    std::size_t cache_max_entries = 0;
    /// Observability enablement mirrored from the master's process-wide
    /// registry/tracer state at encode time, so workers count and trace
    /// exactly when the master does. Respawned workers receive the same
    /// cached env blob (mid-run toggles do not propagate — documented in
    /// DESIGN.md §12).
    bool metrics_enabled = false;
    bool trace_enabled = false;
};

/// Serializes the master-side transport_env (requires env.topology).
[[nodiscard]] std::vector<std::byte> encode_worker_environment(
    const transport_env& env, std::uint64_t worker_id);

/// Decodes an `env` blob. Throws serialize_error on malformed input.
[[nodiscard]] worker_environment decode_worker_environment(
    std::span<const std::byte> blob);

/// One worker process's observability payload for a telemetry harvest
/// round-trip. Metrics are the registry DELTA since the previous harvest
/// (the worker snapshots then resets its registry), and so are the cache
/// counters (verdict_cache_stats::growth_since); the trace capture is MOVED
/// out of the worker's rings (spans ship exactly once).
struct worker_telemetry {
    std::uint64_t worker_id = 0;
    std::uint32_t pid = 0;
    verdict_cache_stats cache;             ///< growth since last harvest
    std::vector<obs::metric_entry> metrics;  ///< registry delta since last harvest
    obs::process_capture trace;            ///< drained spans + ring-overflow drops
};

[[nodiscard]] std::vector<std::byte> encode_worker_telemetry(
    const worker_telemetry& t);

/// Decodes a `telemetry` reply blob. Throws serialize_error on malformed
/// input.
[[nodiscard]] worker_telemetry decode_worker_telemetry(
    std::span<const std::byte> blob);

// ---- fd helpers --------------------------------------------------------

/// Writes the whole buffer to a BLOCKING fd; throws transport_error on any
/// write error (EPIPE = peer died). Retries EINTR.
void fd_write_all(int fd, std::span<const std::byte> bytes);

}  // namespace recloud
