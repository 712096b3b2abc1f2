#include "obs/trace.hpp"

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <vector>

#include "obs/build_info.hpp"

namespace recloud::obs {
namespace {

struct trace_event {
    const char* name;
    std::uint64_t start_ns;
    std::uint64_t dur_ns;
    std::uint64_t flow_id;
    std::uint8_t flow_phase;
};

std::uint64_t steady_ns() noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/// Microseconds with ns precision for Chrome's "ts"/"dur" fields.
void append_us(std::string& out, std::uint64_t ns) {
    char buffer[40];
    std::snprintf(buffer, sizeof(buffer), "%llu.%03llu",
                  static_cast<unsigned long long>(ns / 1000),
                  static_cast<unsigned long long>(ns % 1000));
    out += buffer;
}

}  // namespace

/// SPSC ring: the owning thread writes events[count] then publishes with a
/// release store; the exporter acquires count and reads the prefix. Full
/// rings drop (drop-newest) and count the drop.
struct ring {
    explicit ring(std::uint32_t id, std::size_t capacity)
        : tid(id), events(capacity) {}

    std::uint32_t tid;
    std::string thread_name;
    std::vector<trace_event> events;
    std::atomic<std::size_t> count{0};
    std::atomic<std::uint64_t> dropped{0};

    void push(const char* name, std::uint64_t start_ns, std::uint64_t dur_ns,
              std::uint64_t flow_id = 0, std::uint8_t flow_phase = 0) noexcept {
        const std::size_t n = count.load(std::memory_order_relaxed);
        if (n >= events.size()) {
            dropped.fetch_add(1, std::memory_order_relaxed);
            return;
        }
        events[n] = trace_event{name, start_ns, dur_ns, flow_id, flow_phase};
        count.store(n + 1, std::memory_order_release);
    }
};

namespace {

/// This thread's ring (created on first recorded event) and its label.
/// Naming a thread before any event only sets the label — no ring (and no
/// slot storage) is allocated while tracing stays disabled.
thread_local ring* t_ring = nullptr;
thread_local std::string t_label;

}  // namespace

struct tracer::impl {
    std::atomic<bool> enabled{false};
    std::atomic<std::uint64_t> epoch_ns{0};
    std::atomic<std::size_t> ring_capacity{std::size_t{1} << 15};
    mutable std::mutex mutex;  ///< guards rings (list), thread names, remote
    std::vector<std::unique_ptr<ring>> rings;
    std::vector<process_capture> remote;  ///< harvested worker captures
    std::uint32_t next_tid = 1;

    ring& local_ring() {
        // The tracer is a leaked process singleton, so a cached ring pointer
        // can never dangle (reset() zeroes rings, never frees them).
        if (t_ring == nullptr) {
            const std::lock_guard lock{mutex};
            rings.push_back(std::make_unique<ring>(
                next_tid++, ring_capacity.load(std::memory_order_relaxed)));
            t_ring = rings.back().get();
            t_ring->thread_name = t_label;
        }
        return *t_ring;
    }

    // The totals of the merged export: the local rings plus the attached
    // remote captures. Callers hold `mutex`.
    [[nodiscard]] std::uint64_t captured_total() const {
        std::uint64_t total = 0;
        for (const auto& r : rings) {
            total += r->count.load(std::memory_order_acquire);
        }
        for (const process_capture& capture : remote) {
            total += capture.spans.size();
        }
        return total;
    }
    [[nodiscard]] std::uint64_t dropped_total() const {
        std::uint64_t total = 0;
        for (const auto& r : rings) {
            total += r->dropped.load(std::memory_order_relaxed);
        }
        for (const process_capture& capture : remote) {
            total += capture.dropped;
        }
        return total;
    }
};

tracer::tracer() : impl_(new impl()) {}

tracer& tracer::global() {
    // Leaked on purpose: spans may still close during static destruction.
    static tracer* instance = new tracer();
    return *instance;
}

bool tracer::enabled() const noexcept {
    return impl_->enabled.load(std::memory_order_relaxed);
}

void tracer::start() noexcept {
    impl_->epoch_ns.store(steady_ns(), std::memory_order_relaxed);
    impl_->enabled.store(true, std::memory_order_relaxed);
}

void tracer::stop() noexcept {
    impl_->enabled.store(false, std::memory_order_relaxed);
}

void tracer::reset() noexcept {
    const std::lock_guard lock{impl_->mutex};
    for (const auto& r : impl_->rings) {
        r->count.store(0, std::memory_order_relaxed);
        r->dropped.store(0, std::memory_order_relaxed);
    }
    impl_->remote.clear();
}

void tracer::set_ring_capacity(std::size_t events) noexcept {
    impl_->ring_capacity.store(events == 0 ? 1 : events,
                               std::memory_order_relaxed);
}

void tracer::set_current_thread_name(const std::string& name) {
    t_label = name;
    if (t_ring != nullptr) {
        const std::lock_guard lock{impl_->mutex};
        t_ring->thread_name = name;
    }
}

std::uint64_t tracer::now_ns() const noexcept {
    return steady_ns() - impl_->epoch_ns.load(std::memory_order_relaxed);
}

std::uint64_t tracer::epoch_ns() const noexcept {
    return impl_->epoch_ns.load(std::memory_order_relaxed);
}

void tracer::record(const char* name, std::uint64_t start_ns,
                    std::uint64_t dur_ns) noexcept {
    if (!enabled()) {
        return;  // capture stopped between span open and close
    }
    impl_->local_ring().push(name, start_ns, dur_ns);
}

void tracer::record_flow(const char* name, std::uint64_t start_ns,
                         std::uint64_t dur_ns, std::uint64_t flow_id,
                         std::uint8_t flow_phase) noexcept {
    if (!enabled()) {
        return;
    }
    impl_->local_ring().push(name, start_ns, dur_ns, flow_id, flow_phase);
}

process_capture tracer::drain_capture(std::string process_name) {
    const std::lock_guard lock{impl_->mutex};
    process_capture capture;
    capture.pid = static_cast<std::uint32_t>(::getpid());
    capture.process_name = std::move(process_name);
    capture.epoch_ns = impl_->epoch_ns.load(std::memory_order_relaxed);
    for (const auto& r : impl_->rings) {
        if (!r->thread_name.empty()) {
            capture.thread_names.emplace_back(r->tid, r->thread_name);
        }
        capture.dropped += r->dropped.exchange(0, std::memory_order_relaxed);
        const std::size_t n = r->count.load(std::memory_order_acquire);
        for (std::size_t i = 0; i < n; ++i) {
            const trace_event& e = r->events[i];
            capture.spans.push_back(trace_span{e.name, r->tid, e.start_ns,
                                               e.dur_ns, e.flow_id,
                                               e.flow_phase});
        }
        r->count.store(0, std::memory_order_relaxed);
    }
    return capture;
}

void tracer::add_remote_capture(process_capture capture) {
    const std::lock_guard lock{impl_->mutex};
    impl_->remote.push_back(std::move(capture));
}

std::uint64_t tracer::dropped() const noexcept {
    const std::lock_guard lock{impl_->mutex};
    return impl_->dropped_total();
}

std::uint64_t tracer::captured() const noexcept {
    const std::lock_guard lock{impl_->mutex};
    return impl_->captured_total();
}

namespace {

void append_meta(std::string& out, bool& first, std::uint32_t pid,
                 std::uint32_t tid, const char* what, const std::string& name) {
    if (!first) {
        out += ",";
    }
    first = false;
    out += "{\"ph\":\"M\",\"pid\":";
    out += std::to_string(pid);
    out += ",\"tid\":";
    out += std::to_string(tid);
    out += ",\"name\":\"";
    out += what;
    out += "\",\"args\":{\"name\":\"";
    out += name;  // pool/caller-chosen names: no escapes needed
    out += "\"}}";
}

void append_span(std::string& out, bool& first, std::uint32_t pid,
                 std::uint32_t tid, const char* name, std::uint64_t start_ns,
                 std::uint64_t dur_ns, std::uint64_t flow_id,
                 std::uint8_t flow_phase) {
    if (!first) {
        out += ",";
    }
    first = false;
    out += "{\"ph\":\"X\",\"pid\":";
    out += std::to_string(pid);
    out += ",\"tid\":";
    out += std::to_string(tid);
    out += ",\"ts\":";
    append_us(out, start_ns);
    out += ",\"dur\":";
    append_us(out, dur_ns);
    out += ",\"name\":\"";
    out += name;  // literals chosen by this codebase: no escapes
    out += "\",\"cat\":\"recloud\"}";
    if (flow_id == 0 || flow_phase == flow_none) {
        return;
    }
    // The flow event shares the slice's start timestamp so viewers bind it
    // to that slice; "f" uses bp:"e" (bind to enclosing slice).
    out += ",{\"ph\":\"";
    out += flow_phase == flow_start ? "s" : "f";
    out += "\"";
    if (flow_phase != flow_start) {
        out += ",\"bp\":\"e\"";
    }
    out += ",\"id\":";
    out += std::to_string(flow_id);
    out += ",\"pid\":";
    out += std::to_string(pid);
    out += ",\"tid\":";
    out += std::to_string(tid);
    out += ",\"ts\":";
    append_us(out, start_ns);
    out += ",\"name\":\"";
    out += name;
    out += "\",\"cat\":\"recloud.flow\"}";
}

}  // namespace

std::string tracer::export_chrome_trace() const {
    const std::lock_guard lock{impl_->mutex};
    const auto local_pid = static_cast<std::uint32_t>(::getpid());
    const std::uint64_t local_epoch =
        impl_->epoch_ns.load(std::memory_order_relaxed);
    std::string out = "{\"traceEvents\":[";
    bool first = true;
    append_meta(out, first, local_pid, 0, "process_name", "recloud");
    for (const auto& r : impl_->rings) {
        if (!r->thread_name.empty()) {
            append_meta(out, first, local_pid, r->tid, "thread_name",
                        r->thread_name);
        }
        const std::size_t n = r->count.load(std::memory_order_acquire);
        for (std::size_t i = 0; i < n; ++i) {
            const trace_event& e = r->events[i];
            append_span(out, first, local_pid, r->tid, e.name, e.start_ns,
                        e.dur_ns, e.flow_id, e.flow_phase);
        }
    }
    for (const auto& capture : impl_->remote) {
        append_meta(out, first, capture.pid, 0, "process_name",
                    capture.process_name);
        for (const auto& [tid, name] : capture.thread_names) {
            append_meta(out, first, capture.pid, tid, "thread_name", name);
        }
        // Same machine, same monotonic clock: re-base the remote capture's
        // epoch-relative timestamps onto our epoch (clamp a worker span that
        // started before our capture origin to ts 0 rather than going
        // negative, which trace viewers reject).
        const auto delta = static_cast<std::int64_t>(capture.epoch_ns) -
                           static_cast<std::int64_t>(local_epoch);
        for (const trace_span& s : capture.spans) {
            const auto shifted =
                static_cast<std::int64_t>(s.start_ns) + delta;
            const std::uint64_t ts =
                shifted < 0 ? 0 : static_cast<std::uint64_t>(shifted);
            append_span(out, first, capture.pid, s.tid, s.name.c_str(), ts,
                        s.dur_ns, s.flow_id, s.flow_phase);
        }
    }
    out += "],\"displayTimeUnit\":\"ms\",\"otherData\":{\"build\":";
    out += build_info_json();
    out += ",\"dropped_events\":";
    out += std::to_string(impl_->dropped_total());
    out += "}}";
    return out;
}

bool tracer::export_to_file(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) {
        return false;
    }
    const std::string json = export_chrome_trace();
    const std::size_t written = std::fwrite(json.data(), 1, json.size(), out);
    const bool ok = written == json.size() && std::fputc('\n', out) != EOF;
    return std::fclose(out) == 0 && ok;
}

int trace_env_override() noexcept {
    const char* env = std::getenv("RECLOUD_TRACE");
    if (env == nullptr || *env == '\0') {
        return -1;
    }
    if (std::strcmp(env, "0") == 0 || std::strcmp(env, "off") == 0 ||
        std::strcmp(env, "false") == 0) {
        return 0;
    }
    return 1;
}

std::string trace_env_path(const std::string& fallback) {
    const char* env = std::getenv("RECLOUD_TRACE_PATH");
    return env != nullptr && *env != '\0' ? std::string{env} : fallback;
}

}  // namespace recloud::obs
