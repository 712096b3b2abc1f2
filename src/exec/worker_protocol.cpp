#include "exec/worker_protocol.hpp"

#include <cerrno>
#include <cstring>
#include <sys/socket.h>
#include <unistd.h>

#include "util/serialize.hpp"

namespace recloud {

namespace {

/// Envelope prefix: kind (u8) + batch (u64) + attempt (u64) +
/// trace_id (u64) + span_id (u64).
constexpr std::size_t envelope_prefix_bytes = 1 + 8 + 8 + 8 + 8;

}  // namespace

std::vector<std::byte> pack_envelope(worker_msg kind, std::uint64_t batch,
                                     std::uint64_t attempt,
                                     std::span<const std::byte> blob,
                                     std::uint64_t trace_id,
                                     std::uint64_t span_id) {
    byte_writer writer;
    writer.reserve(envelope_prefix_bytes + blob.size());
    writer.write_u8(static_cast<std::uint8_t>(kind));
    writer.write_u64(batch);
    writer.write_u64(attempt);
    writer.write_u64(trace_id);
    writer.write_u64(span_id);
    std::vector<std::byte> payload = writer.take();
    payload.insert(payload.end(), blob.begin(), blob.end());
    return frame_message(payload);
}

envelope unpack_envelope(std::span<const std::byte> framed) {
    const std::span<const std::byte> payload = unframe_message(framed);
    byte_reader reader{payload};
    envelope msg;
    msg.kind = static_cast<worker_msg>(reader.read_u8());
    switch (msg.kind) {
        case worker_msg::hello:
        case worker_msg::env:
        case worker_msg::setup:
        case worker_msg::task:
        case worker_msg::result:
        case worker_msg::shutdown:
        case worker_msg::telemetry:
            break;
        default:
            throw serialize_error{"envelope: unknown message kind"};
    }
    msg.batch = reader.read_u64();
    msg.attempt = reader.read_u64();
    msg.trace_id = reader.read_u64();
    msg.span_id = reader.read_u64();
    msg.blob.assign(payload.begin() + envelope_prefix_bytes, payload.end());
    return msg;
}

namespace {

void encode_topology(byte_writer& out, const built_topology& topo) {
    const network_graph& g = topo.graph;
    out.write_varint(g.node_count());
    for (node_id n = 0; n < g.node_count(); ++n) {
        out.write_u8(static_cast<std::uint8_t>(g.kind(n)));
    }
    // Edges in edge-id order: re-adding them in this order reproduces the
    // master's edge ids (they are assigned by insertion).
    out.write_varint(g.edge_count());
    for (std::uint32_t e = 0; e < g.edge_count(); ++e) {
        const auto [a, b] = g.edge_endpoints(e);
        out.write_varint(a);
        out.write_varint(b);
    }
    out.write_uint_vector(std::span<const node_id>{topo.hosts});
    out.write_uint_vector(std::span<const node_id>{topo.border_switches});
    // +1 sentinel: 0 encodes "no external node".
    out.write_varint(topo.external == invalid_node
                         ? 0
                         : std::uint64_t{topo.external} + 1);
    out.write_string(topo.name);
}

built_topology decode_topology(byte_reader& in) {
    built_topology topo;
    const std::uint64_t nodes = in.read_length_prefix();
    for (std::uint64_t n = 0; n < nodes; ++n) {
        const std::uint8_t kind = in.read_u8();
        if (kind > static_cast<std::uint8_t>(node_kind::external)) {
            throw serialize_error{"topology: unknown node kind"};
        }
        (void)topo.graph.add_node(static_cast<node_kind>(kind));
    }
    const std::uint64_t edges = in.read_length_prefix(2);
    for (std::uint64_t e = 0; e < edges; ++e) {
        const auto a = static_cast<node_id>(in.read_varint());
        const auto b = static_cast<node_id>(in.read_varint());
        if (a >= nodes || b >= nodes) {
            throw serialize_error{"topology: edge endpoint out of range"};
        }
        topo.graph.add_edge(a, b);
    }
    topo.graph.freeze();
    topo.hosts = in.read_uint_vector<node_id>();
    topo.border_switches = in.read_uint_vector<node_id>();
    const std::uint64_t external = in.read_varint();
    topo.external =
        external == 0 ? invalid_node : static_cast<node_id>(external - 1);
    topo.name = in.read_string();
    return topo;
}

void encode_forest(byte_writer& out, const fault_tree_forest& forest) {
    out.write_varint(forest.tree_node_count());
    for (tree_node_id id = 0; id < forest.tree_node_count(); ++id) {
        const fault_tree_forest::node_view n = forest.node(id);
        out.write_u8(static_cast<std::uint8_t>(n.kind));
        if (n.kind == gate_kind::leaf) {
            out.write_varint(n.leaf);
        } else {
            out.write_varint(n.k);
            out.write_uint_vector(n.children);
        }
    }
    out.write_varint(forest.component_count());
    for (component_id c = 0; c < forest.component_count(); ++c) {
        const tree_node_id root = forest.root_of(c);
        // +1 sentinel: 0 encodes "no tree".
        out.write_varint(root == invalid_tree_node ? 0
                                                   : std::uint64_t{root} + 1);
    }
}

fault_tree_forest decode_forest(byte_reader& in) {
    const std::uint64_t nodes = in.read_length_prefix(2);
    // Deferred construction: component count trails the node pool on the
    // wire, so stage nodes first.
    struct staged_node {
        gate_kind kind;
        std::uint32_t k = 0;
        component_id leaf = invalid_node;
        std::vector<tree_node_id> children;
    };
    std::vector<staged_node> staged;
    staged.reserve(nodes);
    for (std::uint64_t id = 0; id < nodes; ++id) {
        staged_node n{};
        const std::uint8_t kind = in.read_u8();
        if (kind > static_cast<std::uint8_t>(gate_kind::k_of_n_gate)) {
            throw serialize_error{"forest: unknown gate kind"};
        }
        n.kind = static_cast<gate_kind>(kind);
        if (n.kind == gate_kind::leaf) {
            n.leaf = static_cast<component_id>(in.read_varint());
        } else {
            n.k = static_cast<std::uint32_t>(in.read_varint());
            n.children = in.read_uint_vector<tree_node_id>();
            for (const tree_node_id child : n.children) {
                if (child >= id) {
                    throw serialize_error{
                        "forest: child id not smaller than gate id"};
                }
            }
        }
        staged.push_back(std::move(n));
    }
    const std::uint64_t components = in.read_length_prefix();
    fault_tree_forest forest{components};
    for (std::uint64_t id = 0; id < nodes; ++id) {
        staged_node& n = staged[id];
        tree_node_id rebuilt = invalid_tree_node;
        switch (n.kind) {
            case gate_kind::leaf:
                rebuilt = forest.add_leaf(n.leaf);
                break;
            case gate_kind::or_gate:
                rebuilt = forest.add_or(std::move(n.children));
                break;
            case gate_kind::and_gate:
                rebuilt = forest.add_and(std::move(n.children));
                break;
            case gate_kind::k_of_n_gate:
                rebuilt = forest.add_k_of_n(n.k, std::move(n.children));
                break;
        }
        if (rebuilt != id) {
            throw serialize_error{"forest: rebuilt node id diverged"};
        }
    }
    for (component_id c = 0; c < components; ++c) {
        const std::uint64_t root = in.read_varint();
        if (root != 0) {
            if (root - 1 >= nodes) {
                throw serialize_error{"forest: root out of range"};
            }
            forest.attach(c, static_cast<tree_node_id>(root - 1));
        }
    }
    return forest;
}

}  // namespace

std::vector<std::byte> encode_worker_environment(const transport_env& env,
                                                 std::uint64_t worker_id) {
    if (env.topology == nullptr) {
        throw transport_error{
            "socket transport requires engine_options.topology"};
    }
    byte_writer out;
    out.write_u64(worker_id);
    out.write_varint(env.component_count);
    encode_sampler(out, *env.sampler);
    encode_topology(out, *env.topology);
    out.write_bool(env.forest != nullptr);
    if (env.forest != nullptr) {
        encode_forest(out, *env.forest);
    }
    out.write_bool(env.links != nullptr);
    if (env.links != nullptr) {
        out.write_uint_vector(
            std::span<const component_id>{env.links->component_of_edge});
    }
    out.write_bool(env.chaos != nullptr);
    if (env.chaos != nullptr) {
        const chaos_options& c = env.chaos->options();
        out.write_u64(c.seed);
        out.write_f64(c.crash_rate);
        out.write_f64(c.stall_rate);
        out.write_f64(c.corrupt_rate);
        out.write_f64(c.truncate_rate);
        out.write_varint(static_cast<std::uint64_t>(c.stall_duration.count()));
    }
    out.write_bool(env.verdict_cache.enabled);
    if (env.verdict_cache.enabled) {
        out.write_varint(env.verdict_cache.max_entries);
    }
    // Observability enablement is sampled from the process-wide registry /
    // tracer at encode time (the blob is built once per fleet and reused
    // for respawns, so workers inherit the state the fleet started with).
    out.write_bool(obs::metrics_registry::global().enabled());
    out.write_bool(obs::tracer::global().enabled());
    return out.take();
}

worker_environment decode_worker_environment(std::span<const std::byte> blob) {
    byte_reader in{blob};
    worker_environment env;
    env.worker_id = in.read_u64();
    env.component_count = static_cast<std::size_t>(in.read_varint());
    env.sampler = decode_sampler(in, env.component_count);
    env.topology = decode_topology(in);
    if (in.read_bool()) {
        env.forest.emplace(decode_forest(in));
    }
    if (in.read_bool()) {
        link_attachment links;
        links.component_of_edge = in.read_uint_vector<component_id>();
        if (links.component_of_edge.size() != env.topology.graph.edge_count()) {
            throw serialize_error{"links: per-edge table size mismatch"};
        }
        env.links.emplace(std::move(links));
    }
    env.chaos_enabled = in.read_bool();
    if (env.chaos_enabled) {
        env.chaos.seed = in.read_u64();
        env.chaos.crash_rate = in.read_f64();
        env.chaos.stall_rate = in.read_f64();
        env.chaos.corrupt_rate = in.read_f64();
        env.chaos.truncate_rate = in.read_f64();
        env.chaos.stall_duration =
            std::chrono::milliseconds{static_cast<std::int64_t>(in.read_varint())};
    }
    env.cache_enabled = in.read_bool();
    if (env.cache_enabled) {
        env.cache_max_entries = static_cast<std::size_t>(in.read_varint());
    }
    env.metrics_enabled = in.read_bool();
    env.trace_enabled = in.read_bool();
    if (!in.at_end()) {
        throw serialize_error{"worker environment: trailing bytes"};
    }
    return env;
}

namespace {

void encode_cache_stats(byte_writer& out, const verdict_cache_stats& s) {
    verdict_cache_stats::for_each_counter(
        [&](const char*, auto field) { out.write_u64(s.*field); });
}

verdict_cache_stats decode_cache_stats(byte_reader& in) {
    verdict_cache_stats s;
    verdict_cache_stats::for_each_counter(
        [&](const char*, auto field) { s.*field = in.read_u64(); });
    return s;
}

void encode_metric_entries(byte_writer& out,
                           const std::vector<obs::metric_entry>& metrics) {
    out.write_varint(metrics.size());
    for (const obs::metric_entry& e : metrics) {
        out.write_string(e.name);
        out.write_u8(static_cast<std::uint8_t>(e.kind));
        if (e.kind != obs::metric_kind::histogram) {
            out.write_varint(e.value);
            continue;
        }
        const obs::histogram_snapshot& h = e.histogram;
        out.write_varint(h.count);
        out.write_varint(h.sum);
        out.write_varint(h.min);
        out.write_varint(h.max);
        // Sparse buckets: log2 histograms of durations touch a handful of
        // the 64 buckets.
        std::uint64_t nonzero = 0;
        for (const std::uint64_t b : h.buckets) {
            nonzero += b != 0 ? 1 : 0;
        }
        out.write_varint(nonzero);
        for (std::size_t b = 0; b < h.buckets.size(); ++b) {
            if (h.buckets[b] != 0) {
                out.write_u8(static_cast<std::uint8_t>(b));
                out.write_varint(h.buckets[b]);
            }
        }
    }
}

std::vector<obs::metric_entry> decode_metric_entries(byte_reader& in) {
    const std::uint64_t count = in.read_length_prefix(2);
    std::vector<obs::metric_entry> metrics;
    metrics.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
        obs::metric_entry e;
        e.name = in.read_string();
        const std::uint8_t kind = in.read_u8();
        if (kind > static_cast<std::uint8_t>(obs::metric_kind::histogram)) {
            throw serialize_error{"telemetry: unknown metric kind"};
        }
        e.kind = static_cast<obs::metric_kind>(kind);
        if (e.kind != obs::metric_kind::histogram) {
            e.value = in.read_varint();
        } else {
            obs::histogram_snapshot& h = e.histogram;
            h.count = in.read_varint();
            h.sum = in.read_varint();
            h.min = in.read_varint();
            h.max = in.read_varint();
            const std::uint64_t nonzero = in.read_length_prefix(2);
            for (std::uint64_t b = 0; b < nonzero; ++b) {
                const std::uint8_t bucket = in.read_u8();
                if (bucket >= h.buckets.size()) {
                    throw serialize_error{"telemetry: bucket out of range"};
                }
                h.buckets[bucket] = in.read_varint();
            }
        }
        metrics.push_back(std::move(e));
    }
    return metrics;
}

void encode_trace_capture(byte_writer& out, const obs::process_capture& c) {
    out.write_u32(c.pid);
    out.write_string(c.process_name);
    out.write_u64(c.epoch_ns);
    out.write_varint(c.dropped);
    out.write_varint(c.thread_names.size());
    for (const auto& [tid, name] : c.thread_names) {
        out.write_varint(tid);
        out.write_string(name);
    }
    out.write_varint(c.spans.size());
    for (const obs::trace_span& s : c.spans) {
        out.write_string(s.name);
        out.write_varint(s.tid);
        out.write_u64(s.start_ns);
        out.write_u64(s.dur_ns);
        out.write_u64(s.flow_id);
        out.write_u8(s.flow_phase);
    }
}

obs::process_capture decode_trace_capture(byte_reader& in) {
    obs::process_capture c;
    c.pid = in.read_u32();
    c.process_name = in.read_string();
    c.epoch_ns = in.read_u64();
    c.dropped = in.read_varint();
    const std::uint64_t names = in.read_length_prefix(2);
    c.thread_names.reserve(names);
    for (std::uint64_t i = 0; i < names; ++i) {
        const auto tid = static_cast<std::uint32_t>(in.read_varint());
        c.thread_names.emplace_back(tid, in.read_string());
    }
    const std::uint64_t spans = in.read_length_prefix(2);
    c.spans.reserve(spans);
    for (std::uint64_t i = 0; i < spans; ++i) {
        obs::trace_span s;
        s.name = in.read_string();
        s.tid = static_cast<std::uint32_t>(in.read_varint());
        s.start_ns = in.read_u64();
        s.dur_ns = in.read_u64();
        s.flow_id = in.read_u64();
        s.flow_phase = in.read_u8();
        if (s.flow_phase > obs::flow_finish) {
            throw serialize_error{"telemetry: unknown flow phase"};
        }
        c.spans.push_back(std::move(s));
    }
    return c;
}

}  // namespace

std::vector<std::byte> encode_worker_telemetry(const worker_telemetry& t) {
    byte_writer out;
    out.write_u64(t.worker_id);
    out.write_u32(t.pid);
    encode_cache_stats(out, t.cache);
    encode_metric_entries(out, t.metrics);
    encode_trace_capture(out, t.trace);
    return out.take();
}

worker_telemetry decode_worker_telemetry(std::span<const std::byte> blob) {
    byte_reader in{blob};
    worker_telemetry t;
    t.worker_id = in.read_u64();
    t.pid = in.read_u32();
    t.cache = decode_cache_stats(in);
    t.metrics = decode_metric_entries(in);
    t.trace = decode_trace_capture(in);
    if (!in.at_end()) {
        throw serialize_error{"worker telemetry: trailing bytes"};
    }
    return t;
}

void fd_write_all(int fd, std::span<const std::byte> bytes) {
    std::size_t written = 0;
    while (written < bytes.size()) {
        // send + MSG_NOSIGNAL, not write: the peer may die at any moment
        // (that is the chaos contract) and a dead peer must surface as
        // EPIPE -> transport_error, never as a process-killing SIGPIPE.
        const ssize_t n = ::send(fd, bytes.data() + written,
                                 bytes.size() - written, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR) {
                continue;
            }
            throw transport_error{std::string{"socket write failed: "} +
                                  std::strerror(errno)};
        }
        written += static_cast<std::size_t>(n);
    }
}

}  // namespace recloud
