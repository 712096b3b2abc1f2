// Scoped-span tracer (observability tentpole, part 2): RECLOUD_SPAN("name")
// RAII spans recorded into per-thread ring buffers, exported as Chrome
// trace-event JSON (chrome://tracing / https://ui.perfetto.dev) so one
// re_cloud::deploy run — SA iterations, backend batches, engine
// dispatch/retry/degrade, verdict-cache rebinds, route-and-check floods —
// reads as a single timeline.
//
// Hot-path rules (mirrors obs/metrics.hpp):
//   * disabled cost is one relaxed load + branch per span site;
//   * enabled writes touch only the calling thread's ring: a plain slot
//     store + one release store of the count (SPSC: owner writes, exporter
//     reads) — no locks, no allocation after the ring exists;
//   * a full ring DROPS the event and counts the drop; recording never
//     blocks and never perturbs samplers or verdicts (§6 contract).
//
// Span names must be string literals (the ring stores the pointer).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace recloud::obs {

/// Flow binding for cross-process span stitching (Chrome flow events):
/// a master-side dispatch span opens a flow ("s"), the worker-side batch
/// span closes it ("f"), and Perfetto draws the arrow between processes.
inline constexpr std::uint8_t flow_none = 0;
inline constexpr std::uint8_t flow_start = 1;   ///< Chrome phase "s"
inline constexpr std::uint8_t flow_finish = 2;  ///< Chrome phase "f"

/// One exported span: drained out of a local ring (worker harvest) or
/// received from a remote process for the merged export.
struct trace_span {
    std::string name;
    std::uint32_t tid = 0;
    std::uint64_t start_ns = 0;  ///< relative to the owning capture's epoch
    std::uint64_t dur_ns = 0;
    std::uint64_t flow_id = 0;  ///< 0 = not part of a flow
    std::uint8_t flow_phase = flow_none;
};

/// Everything one process captured. Workers build one with drain_capture()
/// and ship it in the telemetry harvest; the master attaches it with
/// add_remote_capture() so export_chrome_trace() renders a single timeline
/// with per-process (pid-tracked) thread metadata.
struct process_capture {
    std::uint32_t pid = 0;
    std::string process_name;
    std::uint64_t epoch_ns = 0;  ///< absolute steady-clock capture origin
    std::uint64_t dropped = 0;   ///< ring-overflow drops in that process
    std::vector<std::pair<std::uint32_t, std::string>> thread_names;
    std::vector<trace_span> spans;
};

class tracer {
public:
    /// The process-wide tracer all RECLOUD_SPAN sites record into.
    [[nodiscard]] static tracer& global();

    [[nodiscard]] bool enabled() const noexcept;
    /// Starts a capture: re-anchors the timestamp origin and enables
    /// recording (rings keep their events until reset()).
    void start() noexcept;
    void stop() noexcept;
    /// Discards captured events and drop counts. Rings stay allocated (live
    /// threads keep writing into them on the next start()).
    void reset() noexcept;

    /// Events each NEW per-thread ring can hold (existing rings keep their
    /// capacity). Default 1 << 15.
    void set_ring_capacity(std::size_t events) noexcept;

    /// Names the calling thread in exported traces (and creates its ring).
    void set_current_thread_name(const std::string& name);

    /// Nanoseconds since the capture started (steady clock).
    [[nodiscard]] std::uint64_t now_ns() const noexcept;

    /// Absolute steady-clock origin of the current capture (the start()
    /// anchor). All processes on one machine share the monotonic clock, so
    /// remote spans re-base by the epoch difference.
    [[nodiscard]] std::uint64_t epoch_ns() const noexcept;

    /// Records one completed span on the calling thread's ring.
    void record(const char* name, std::uint64_t start_ns,
                std::uint64_t dur_ns) noexcept;

    /// Records a flow-bound span: the exporter additionally emits a Chrome
    /// flow event ("s"/"f" with the given id) at the span start so
    /// cross-process dispatch -> execute pairs stitch into one arrow.
    void record_flow(const char* name, std::uint64_t start_ns,
                     std::uint64_t dur_ns, std::uint64_t flow_id,
                     std::uint8_t flow_phase) noexcept;

    /// Moves every captured event (and the drop counts) out of the rings
    /// into a process_capture stamped with this process's pid and capture
    /// epoch; rings stay allocated and recording continues. Caller must be
    /// at a quiescent point for span-recording threads (the worker drains
    /// between protocol envelopes, where that holds by construction).
    [[nodiscard]] process_capture drain_capture(std::string process_name);

    /// Attaches a remote process's capture for the merged export; span
    /// timestamps are re-based from its epoch to ours at export time.
    /// reset() discards attached captures.
    void add_remote_capture(process_capture capture);

    /// Events dropped to full rings since the last reset(), in this process
    /// and in the attached remote captures: the export's dropped_events.
    [[nodiscard]] std::uint64_t dropped() const noexcept;
    /// Events currently captured across all rings and attached remote
    /// captures: the spans the export holds.
    [[nodiscard]] std::uint64_t captured() const noexcept;

    /// Chrome trace-event JSON ({"traceEvents":[...]}) with per-process /
    /// per-thread metadata (real pids, attached remote captures merged in),
    /// flow events, build provenance and the total drop count.
    [[nodiscard]] std::string export_chrome_trace() const;
    /// Writes export_chrome_trace() to `path`; false when unwritable.
    bool export_to_file(const std::string& path) const;

private:
    tracer();
    struct impl;
    impl* impl_;
};

/// RAII span: measures construction-to-destruction and records it when the
/// tracer was enabled at construction.
class scoped_span {
public:
    explicit scoped_span(const char* name) noexcept {
        tracer& t = tracer::global();
        if (t.enabled()) {
            name_ = name;
            start_ = t.now_ns();
        }
    }
    ~scoped_span() {
        if (name_ != nullptr) {
            tracer& t = tracer::global();
            t.record(name_, start_, t.now_ns() - start_);
        }
    }
    scoped_span(const scoped_span&) = delete;
    scoped_span& operator=(const scoped_span&) = delete;

private:
    const char* name_ = nullptr;
    std::uint64_t start_ = 0;
};

/// RECLOUD_TRACE env override: unset/""/"0"/"off"/"false" leave the
/// configured choice ("0"-family forces OFF); anything else forces ON.
/// Returns -1 (unset), 0 (forced off) or 1 (forced on).
[[nodiscard]] int trace_env_override() noexcept;

/// RECLOUD_TRACE_PATH, or `fallback` when unset/empty.
[[nodiscard]] std::string trace_env_path(const std::string& fallback);

}  // namespace recloud::obs

#define RECLOUD_SPAN_CAT2(a, b) a##b
#define RECLOUD_SPAN_CAT(a, b) RECLOUD_SPAN_CAT2(a, b)
/// Opens a scope-long span. `name` must be a string literal.
#define RECLOUD_SPAN(name)                                     \
    ::recloud::obs::scoped_span RECLOUD_SPAN_CAT(recloud_span_, \
                                                 __LINE__){name}
