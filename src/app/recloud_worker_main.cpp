// recloud_worker: the process on the far side of the socket transport.
//
// Speaks the outer-envelope protocol (exec/worker_protocol.hpp) over a
// single inherited socket fd: receives its structural environment once,
// then per assessment a framed setup followed by framed batch descriptors,
// sampling and judging each batch through the SAME worker_context the
// in-process engine uses — so a batch's verdict is bit-identical whichever
// side of the process boundary computes it.
//
// Chaos is applied HERE, by the worker on itself: an injected crash is a
// real _exit (the master observes EOF, fails the in-flight batch, and
// respawns the process), a stall is a real sleep, and corrupt/truncate
// mangle the inner framed result before it is sealed into a (valid) outer
// envelope — exercising the engine's invalid-frame path without
// desynchronizing the stream. A respawned worker samples its batches again
// from their descriptors.
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include <unistd.h>

#include "app/deployment.hpp"
#include "exec/worker_context.hpp"
#include "exec/worker_protocol.hpp"
#include "routing/bfs_reachability.hpp"
#include "util/serialize.hpp"

namespace {

using namespace recloud;

struct worker_state {
    int fd = -1;
    std::uint64_t worker_id = 0;
    std::optional<worker_environment> env;
    std::optional<chaos_schedule> chaos;
    std::unique_ptr<verdict_support> support;
    verdict_cache_options cache_options;
    /// Built by the first setup and rebound by every later one, so its
    /// cache counters are the process's cumulative totals.
    std::unique_ptr<worker_context> context;
    /// The context's cache counters as of the last harvest reply.
    verdict_cache_stats harvested_cache;
};

void handle_env(worker_state& state, const envelope& msg) {
    state.env.emplace(decode_worker_environment(msg.blob));
    worker_environment& env = *state.env;
    state.worker_id = env.worker_id;
    state.context.reset();
    state.harvested_cache = {};
    // Mirror the master's observability state so both sides of the wire
    // count and trace the same runs. Pure telemetry: no RNG, sampler or
    // verdict state is touched (§6 contract).
    obs::metrics_registry::global().set_enabled(env.metrics_enabled);
    if (env.trace_enabled) {
        obs::tracer& tracer = obs::tracer::global();
        tracer.set_current_thread_name("worker-" +
                                       std::to_string(env.worker_id));
        tracer.start();
    }
    if (env.chaos_enabled) {
        state.chaos.emplace(env.chaos);
    } else {
        state.chaos.reset();
    }
    state.cache_options = {};
    if (env.cache_enabled) {
        // The worker derives its own support set from the shipped
        // environment — semantically the same set the master computes,
        // since both are pure functions of (topology, forest, links).
        state.support = std::make_unique<verdict_support>(
            env.topology, env.component_count,
            env.forest ? &*env.forest : nullptr,
            env.links ? &*env.links : nullptr);
        state.cache_options.enabled = true;
        state.cache_options.max_entries = env.cache_max_entries;
        state.cache_options.support = state.support.get();
    } else {
        state.support.reset();
    }
    // hello AFTER the environment is rebuilt: the handshake proves the
    // whole env round-trip, not just process liveness.
    fd_write_all(state.fd, pack_envelope(worker_msg::hello, 0, 0, {}));
}

/// `setup` builds a context when the worker holds none (a fresh or
/// respawned process) and otherwise rebinds it in place, so its verdict
/// cache keeps the entries the plan swap cannot affect (bit-identical
/// either way). A plan naming a node that is not a host of the shipped
/// topology is rejected: routing would read it out of bounds.
void handle_setup(worker_state& state, const envelope& msg) {
    if (!state.env) {
        throw transport_error{"setup before environment"};
    }
    const worker_environment& env = *state.env;
    const std::span<const std::byte> setup{msg.blob};
    if (state.context) {
        state.context->rebind(setup);
    } else {
        const oracle_factory make_oracle = [&env] {
            return std::unique_ptr<reachability_oracle>{
                std::make_unique<bfs_reachability>(
                    env.topology, env.links ? &*env.links : nullptr)};
        };
        state.context = std::make_unique<worker_context>(
            setup, env.sampler, env.component_count,
            env.forest ? &*env.forest : nullptr, make_oracle,
            state.cache_options);
    }
    try {
        validate_plan(state.context->plan(), state.context->app(),
                      env.topology);
    } catch (const std::invalid_argument& e) {
        throw serialize_error{e.what()};
    }
}

void handle_task(worker_state& state, const envelope& msg) {
    if (!state.context) {
        throw transport_error{"task before setup"};
    }
    // The same chaos path as an in-process node, except that a crash out
    // here is a REAL process death. The batch span carries the master's
    // flow id (envelope span_id) so the merged trace stitches dispatch ->
    // execute across processes.
    obs::tracer& tracer = obs::tracer::global();
    const bool traced = tracer.enabled();
    const std::uint64_t span_start = traced ? tracer.now_ns() : 0;
    std::vector<std::byte> framed;
    try {
        framed = state.context->run_batch(
            std::span<const std::byte>{msg.blob},
            state.chaos ? &*state.chaos : nullptr, msg.attempt,
            state.worker_id);
    } catch (const chaos_crash&) {
        ::_exit(13);
    }
    if (traced) {
        tracer.record_flow("worker.batch", span_start,
                           tracer.now_ns() - span_start, msg.span_id,
                           msg.span_id != 0 ? obs::flow_finish
                                            : obs::flow_none);
    }
    fd_write_all(state.fd,
                 pack_envelope(worker_msg::result, msg.batch, msg.attempt,
                               framed));
}

/// Telemetry harvest: ship the registry delta (snapshot-then-reset), the
/// verdict-cache counters' growth since the previous harvest and the
/// drained trace capture. Runs between envelopes on the only span-recording
/// thread, so the drain's quiescence requirement holds by construction.
void handle_telemetry(worker_state& state, const envelope& msg) {
    worker_telemetry t;
    t.worker_id = state.worker_id;
    t.pid = static_cast<std::uint32_t>(::getpid());
    if (state.context != nullptr) {
        if (const verdict_cache_stats* live = state.context->cache_stats()) {
            t.cache = live->growth_since(state.harvested_cache);
            state.harvested_cache = *live;
        }
    }
    obs::metrics_registry& registry = obs::metrics_registry::global();
    t.metrics = registry.snapshot().metrics;
    registry.reset();
    t.trace = obs::tracer::global().drain_capture(
        "recloud_worker " + std::to_string(state.worker_id));
    fd_write_all(state.fd,
                 pack_envelope(worker_msg::telemetry, msg.batch, msg.attempt,
                               encode_worker_telemetry(t)));
}

int run(int fd) {
    worker_state state;
    state.fd = fd;
    frame_assembler assembler;
    std::byte buf[65536];
    for (;;) {
        const ssize_t n = ::read(fd, buf, sizeof(buf));
        if (n == 0) {
            return 0;  // master gone: clean exit
        }
        if (n < 0) {
            if (errno == EINTR) {
                continue;
            }
            return 3;
        }
        assembler.feed(
            std::span<const std::byte>{buf, static_cast<std::size_t>(n)});
        while (auto frame = assembler.next_frame()) {
            const envelope msg = unpack_envelope(*frame);
            switch (msg.kind) {
                case worker_msg::env:
                    handle_env(state, msg);
                    break;
                case worker_msg::setup:
                    handle_setup(state, msg);
                    break;
                case worker_msg::task:
                    handle_task(state, msg);
                    break;
                case worker_msg::telemetry:
                    handle_telemetry(state, msg);
                    break;
                case worker_msg::shutdown:
                    return 0;
                case worker_msg::hello:
                case worker_msg::result:
                    throw transport_error{"unexpected message from master"};
            }
        }
    }
}

}  // namespace

int main(int argc, char** argv) {
    int fd = -1;
    for (int i = 1; i + 1 < argc; ++i) {
        if (std::strcmp(argv[i], "--fd") == 0) {
            fd = std::atoi(argv[i + 1]);
        }
        // --worker <k> is accepted for ps(1) readability; the authoritative
        // worker id arrives inside the env message.
    }
    if (fd < 0) {
        return 2;
    }
    try {
        return run(fd);
    } catch (const std::exception&) {
        // Any protocol/serialization failure: die loudly; the master sees
        // EOF, charges a worker crash, and respawns this slot.
        return 4;
    }
}
