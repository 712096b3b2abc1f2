// The assessment engine over REAL transport: recloud_worker processes on
// Unix-domain sockets. The §6 contract must survive the process boundary —
// assessment_stats bit-identical to the serial route-and-check for any
// worker count — under the full chaos matrix (crash/stall/corrupt/
// truncate), external SIGKILLs of worker processes, and exhausted respawn
// budgets. Plus wire-protocol round-trips and the no-zombie guarantee.
//
// RECLOUD_WORKER_BIN is injected by CMake as the absolute path of the
// freshly built worker executable.
#include "exec/transport.hpp"
#include "exec/worker_protocol.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <utility>

#include <signal.h>
#include <sys/wait.h>

#include "batch_reference.hpp"
#include "exec/engine.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "routing/bfs_reachability.hpp"
#include "sampling/extended_dagger.hpp"
#include "topology/fat_tree.hpp"
#include "topology/leaf_spine.hpp"

namespace recloud {
namespace {

constexpr std::size_t k_rounds = 2000;
constexpr std::uint64_t k_seed = 404;

socket_transport_options worker_bin_options() {
    socket_transport_options options;
    options.worker_binary = RECLOUD_WORKER_BIN;
    return options;
}

/// Same shape as the loopback recovery fixture (tests/test_engine_recovery),
/// with the structural environment the socket transport ships.
struct socket_fixture {
    built_topology topo = build_leaf_spine(
        {.spines = 2, .leaves = 4, .hosts_per_leaf = 4, .border_leaves = 1});
    component_registry registry{topo.graph};
    fault_tree_forest forest{topo.graph.node_count()};
    application app = application::k_of_n(2, 3);
    deployment_plan plan;

    socket_fixture() {
        for (component_id id = 0; id < registry.size(); ++id) {
            if (registry.kind(id) != component_kind::external) {
                registry.set_probability(id, 0.03);
            }
        }
        plan.hosts = {topo.hosts[0], topo.hosts[5], topo.hosts[10]};
    }

    oracle_factory factory() {
        return [this] { return std::make_unique<bfs_reachability>(topo); };
    }

    engine_options socket_options(std::size_t workers) {
        engine_options options;
        options.workers = workers;
        options.batch_rounds = 100;
        options.transport = transport_kind::socket;
        options.socket = worker_bin_options();
        options.topology = &topo;
        return options;
    }

    /// The serial route-and-check of the batches socket_options() samples.
    assessment_stats serial_reference() {
        extended_dagger_sampler sampler{registry.probabilities(), k_seed};
        round_state rs{registry.size(), &forest};
        bfs_reachability oracle{topo};
        return forked_batch_reference(sampler, 1, rs, oracle, app, plan,
                                      k_rounds, 100);
    }

    assessment_stats run_engine(const engine_options& options,
                                engine_stats* stats_out = nullptr,
                                assessment_engine** engine_out = nullptr) {
        extended_dagger_sampler sampler{registry.probabilities(), k_seed};
        assessment_engine engine{registry.size(), &forest, factory(), sampler,
                                 options};
        if (engine_out != nullptr) {
            *engine_out = &engine;
        }
        const assessment_stats stats = engine.assess(app, plan, k_rounds);
        if (stats_out != nullptr) {
            *stats_out = engine.stats();
        }
        return stats;
    }
};

void expect_identical(const assessment_stats& got,
                      const assessment_stats& want) {
    EXPECT_EQ(got.rounds, want.rounds);
    EXPECT_EQ(got.reliable, want.reliable);
}

// ---- wire protocol --------------------------------------------------------

TEST(WorkerProtocol, EnvelopeRoundTrip) {
    const std::vector<std::byte> blob = {std::byte{1}, std::byte{2},
                                         std::byte{0xff}};
    const std::vector<std::byte> framed =
        pack_envelope(worker_msg::result, 42, 7, blob);
    const envelope msg = unpack_envelope(framed);
    EXPECT_EQ(msg.kind, worker_msg::result);
    EXPECT_EQ(msg.batch, 42u);
    EXPECT_EQ(msg.attempt, 7u);
    EXPECT_EQ(msg.blob, blob);
}

TEST(WorkerProtocol, EnvelopeRejectsUnknownKind) {
    std::vector<std::byte> framed = pack_envelope(worker_msg::hello, 0, 0, {});
    // The kind byte sits right after the frame header; 0 is not a message.
    framed[frame_header_bytes] = std::byte{0};
    // Fix the checksum? No — a mangled payload already fails the checksum,
    // which is the outer integrity layer doing its job.
    EXPECT_THROW((void)unpack_envelope(framed), serialize_error);
}

TEST(WorkerProtocol, EnvelopeRejectsRetiredKinds) {
    // 6 and 8 (the retired teardown and rebind) and 10 (past the last kind)
    // arrive in well-formed frames with valid checksums; only the kind
    // check can reject them, before a worker's switch silently skips one.
    for (const std::uint8_t kind : {6, 8, 10}) {
        SCOPED_TRACE(static_cast<int>(kind));
        const std::vector<std::byte> framed =
            pack_envelope(static_cast<worker_msg>(kind), 0, 0, {});
        EXPECT_THROW((void)unpack_envelope(framed), serialize_error);
    }
}

TEST(WorkerProtocol, EnvironmentRoundTripsBitExactly) {
    socket_fixture f;
    // A forest with every gate kind, plus link components, so the codec's
    // whole surface is exercised.
    const tree_node_id l0 = f.forest.add_leaf(3);
    const tree_node_id l1 = f.forest.add_leaf(4);
    const tree_node_id l2 = f.forest.add_leaf(5);
    const tree_node_id a = f.forest.add_and({l0, l1});
    const tree_node_id k = f.forest.add_k_of_n(2, {l0, l1, l2});
    const tree_node_id o = f.forest.add_or({a, k});
    f.forest.attach(0, o);
    f.forest.attach(7, l2);

    link_attachment links;
    links.component_of_edge.assign(f.topo.graph.edge_count(), invalid_node);
    links.component_of_edge[0] = 11;

    const chaos_schedule chaos{{.seed = 99,
                                .crash_rate = 0.125,
                                .stall_rate = 0.0625,
                                .corrupt_rate = 0.25,
                                .truncate_rate = 0.03125,
                                .stall_duration = std::chrono::milliseconds{7}}};

    const std::span<const double> probabilities = f.registry.probabilities();
    sampler_description sampler{
        .kind = sampler_kind::monte_carlo,
        .probabilities = {probabilities.begin(), probabilities.end()}};
    sampler.probabilities[1] = 0.0;
    sampler.probabilities[2] = 1.0;
    sampler.probabilities[3] = 1.0 / 3.0;

    transport_env env;
    env.component_count = f.registry.size();
    env.sampler = &sampler;
    env.forest = &f.forest;
    env.topology = &f.topo;
    env.links = &links;
    env.chaos = &chaos;
    env.verdict_cache.enabled = true;
    env.verdict_cache.max_entries = 4096;

    const std::vector<std::byte> blob = encode_worker_environment(env, 5);
    const worker_environment decoded = decode_worker_environment(blob);
    EXPECT_EQ(decoded.worker_id, 5u);
    EXPECT_EQ(decoded.component_count, f.registry.size());
    EXPECT_EQ(decoded.sampler.kind, sampler_kind::monte_carlo);
    EXPECT_EQ(decoded.sampler.probabilities, sampler.probabilities);
    EXPECT_EQ(decoded.topology.graph.node_count(), f.topo.graph.node_count());
    EXPECT_EQ(decoded.topology.graph.edge_count(), f.topo.graph.edge_count());
    EXPECT_EQ(decoded.topology.hosts, f.topo.hosts);
    EXPECT_EQ(decoded.topology.external, f.topo.external);
    ASSERT_TRUE(decoded.forest.has_value());
    EXPECT_EQ(decoded.forest->tree_node_count(), f.forest.tree_node_count());
    ASSERT_TRUE(decoded.links.has_value());
    EXPECT_EQ(decoded.links->component_of_edge, links.component_of_edge);
    EXPECT_TRUE(decoded.chaos_enabled);
    EXPECT_EQ(decoded.chaos.seed, 99u);
    EXPECT_TRUE(decoded.cache_enabled);
    EXPECT_EQ(decoded.cache_max_entries, 4096u);

    // Re-encoding the decoded environment reproduces the exact bytes: the
    // rebuild is an identity, including every tree node id.
    const chaos_schedule chaos2{decoded.chaos};
    transport_env env2;
    env2.component_count = decoded.component_count;
    env2.sampler = &decoded.sampler;
    env2.forest = &*decoded.forest;
    env2.topology = &decoded.topology;
    env2.links = &*decoded.links;
    env2.chaos = &chaos2;
    env2.verdict_cache.enabled = true;
    env2.verdict_cache.max_entries = decoded.cache_max_entries;
    EXPECT_EQ(encode_worker_environment(env2, 5), blob);
}

TEST(WorkerProtocol, EnvironmentRequiresTopology) {
    transport_env env;
    env.component_count = 3;
    EXPECT_THROW((void)encode_worker_environment(env, 0), transport_error);
}

// ---- socket transport: determinism ---------------------------------------

TEST(SocketTransport, FaultFreeBitIdenticalToSerial) {
    socket_fixture f;
    const assessment_stats want = f.serial_reference();
    engine_stats stats;
    expect_identical(f.run_engine(f.socket_options(4), &stats), want);
    EXPECT_EQ(stats.worker_respawns, 0u);
    EXPECT_EQ(stats.failures(), 0u);
}

TEST(SocketTransport, OneWorkerMatchesFour) {
    socket_fixture f;
    expect_identical(f.run_engine(f.socket_options(1)),
                     f.run_engine(f.socket_options(4)));
}

TEST(SocketTransport, BadWorkerBinaryThrows) {
    socket_fixture f;
    engine_options options = f.socket_options(1);
    options.socket.worker_binary = "/nonexistent/recloud_worker";
    options.socket.spawn_timeout = std::chrono::milliseconds{2000};
    extended_dagger_sampler sampler{f.registry.probabilities(), k_seed};
    EXPECT_THROW(assessment_engine(f.registry.size(), &f.forest, f.factory(),
                                   sampler, options),
                 transport_error);
}

TEST(SocketTransport, MissingTopologyThrows) {
    socket_fixture f;
    engine_options options = f.socket_options(1);
    options.topology = nullptr;
    extended_dagger_sampler sampler{f.registry.probabilities(), k_seed};
    EXPECT_THROW(assessment_engine(f.registry.size(), &f.forest, f.factory(),
                                   sampler, options),
                 transport_error);
}

// ---- socket transport: chaos matrix --------------------------------------

TEST(SocketTransport, CrashChaosKillsRealProcessesAndRecovers) {
    socket_fixture f;
    const chaos_schedule chaos{{.seed = 11, .crash_rate = 0.12}};
    engine_options options = f.socket_options(4);
    options.max_attempts = 6;
    options.chaos = &chaos;
    options.socket.max_respawns = 64;
    engine_stats stats;
    expect_identical(f.run_engine(options, &stats), f.serial_reference());
    // A chaos crash over sockets is a real _exit: the transport must have
    // respawned processes and the engine must have charged crashes.
    EXPECT_GT(stats.worker_respawns, 0u);
    EXPECT_GT(stats.worker_crashes, 0u);
}

TEST(SocketTransport, StallChaosTripsDeadlineAndRedispatches) {
    socket_fixture f;
    const chaos_schedule chaos{{.seed = 12, .stall_rate = 0.2}};
    engine_options options = f.socket_options(4);
    options.max_attempts = 6;
    options.batch_deadline = std::chrono::milliseconds{10};
    options.chaos = &chaos;
    engine_stats stats;
    expect_identical(f.run_engine(options, &stats), f.serial_reference());
    EXPECT_GT(stats.deadline_misses, 0u);
}

TEST(SocketTransport, CorruptChaosSurfacesAsInvalidFrames) {
    socket_fixture f;
    const chaos_schedule chaos{{.seed = 13, .corrupt_rate = 0.25}};
    engine_options options = f.socket_options(4);
    options.max_attempts = 6;
    options.chaos = &chaos;
    engine_stats stats;
    expect_identical(f.run_engine(options, &stats), f.serial_reference());
    // The mangled INNER frame rides a valid outer envelope: the stream never
    // desyncs and the engine sees its historic invalid-frame path.
    EXPECT_GT(stats.invalid_frames, 0u);
    EXPECT_EQ(stats.worker_respawns, 0u);
}

TEST(SocketTransport, TruncateChaosSurfacesAsInvalidFrames) {
    socket_fixture f;
    const chaos_schedule chaos{{.seed = 14, .truncate_rate = 0.25}};
    engine_options options = f.socket_options(4);
    options.max_attempts = 6;
    options.chaos = &chaos;
    engine_stats stats;
    expect_identical(f.run_engine(options, &stats), f.serial_reference());
    EXPECT_GT(stats.invalid_frames, 0u);
}

TEST(SocketTransport, FullChaosMatrixStaysBitIdentical) {
    socket_fixture f;
    const chaos_schedule chaos{{.seed = 15,
                                .crash_rate = 0.06,
                                .stall_rate = 0.06,
                                .corrupt_rate = 0.06,
                                .truncate_rate = 0.06}};
    engine_options options = f.socket_options(4);
    options.max_attempts = 8;
    options.batch_deadline = std::chrono::milliseconds{10};
    options.chaos = &chaos;
    options.socket.max_respawns = 64;
    engine_stats stats;
    expect_identical(f.run_engine(options, &stats), f.serial_reference());
    EXPECT_GT(stats.failures(), 0u);
}

TEST(SocketTransport, RespawnBudgetExhaustedDegradesGracefully) {
    socket_fixture f;
    // Every attempt crashes its worker and respawning is forbidden: the
    // whole fleet dies for good and the master must degrade every batch.
    const chaos_schedule chaos{{.seed = 16, .crash_rate = 1.0}};
    engine_options options = f.socket_options(2);
    options.max_attempts = 4;
    options.chaos = &chaos;
    options.socket.max_respawns = 0;
    engine_stats stats;
    assessment_engine* engine = nullptr;
    extended_dagger_sampler sampler{f.registry.probabilities(), k_seed};
    assessment_engine e{f.registry.size(), &f.forest, f.factory(), sampler,
                        options};
    engine = &e;
    const assessment_stats got = e.assess(f.app, f.plan, k_rounds);
    stats = e.stats();
    expect_identical(got, f.serial_reference());
    EXPECT_GT(stats.degraded, 0u);
    EXPECT_EQ(engine->transport().live_worker_processes(), 0u);
}

TEST(SocketTransport, VerdictCacheOverSocketsStaysBitIdentical) {
    socket_fixture f;
    // Socket workers derive their own support set from the shipped
    // environment; verdicts must be unchanged.
    engine_options options = f.socket_options(4);
    options.verdict_cache.enabled = true;
    options.verdict_cache.max_entries = 1 << 12;
    expect_identical(f.run_engine(options), f.serial_reference());
}

// CI hook: RECLOUD_CHAOS_SEED reseeds the schedule (as for the loopback
// EngineRecovery twin) so CI runs sweep fresh fault patterns across real
// processes, where a respawned worker samples its batch again from the
// descriptor. Unset, a fixed default keeps the test reproducible.
TEST(SocketTransport, HoldsForEnvironmentChosenSeed) {
    std::uint64_t seed = 0x50c4e7;
    const char* env = std::getenv("RECLOUD_CHAOS_SEED");
    if (env != nullptr && env[0] != '\0') {
        seed = std::strtoull(env, nullptr, 0);
    }
    SCOPED_TRACE("chaos seed " + std::to_string(seed));
    socket_fixture f;
    const chaos_schedule chaos{{.seed = seed,
                                .crash_rate = 0.08,
                                .corrupt_rate = 0.08,
                                .truncate_rate = 0.05}};
    engine_options options = f.socket_options(4);
    options.max_attempts = 8;
    options.chaos = &chaos;
    options.socket.max_respawns = 64;
    expect_identical(f.run_engine(options), f.serial_reference());
}

// ---- socket transport: real SIGKILL ---------------------------------------

TEST(SocketTransport, SigkilledWorkerIsRespawnedBitIdentical) {
    socket_fixture f;
    engine_options options = f.socket_options(4);
    options.max_attempts = 6;
    options.socket.max_respawns = 16;
    extended_dagger_sampler sampler{f.registry.probabilities(), k_seed};
    assessment_engine engine{f.registry.size(), &f.forest, f.factory(),
                             sampler, options};
    // Kill worker 0's PROCESS before the assessment: its first batch fails
    // at the transport layer and the slot respawns.
    const std::vector<int> pids = engine.transport().worker_pids();
    ASSERT_EQ(pids.size(), 4u);
    ASSERT_GT(pids[0], 0);
    ASSERT_EQ(::kill(pids[0], SIGKILL), 0);
    const assessment_stats got = engine.assess(f.app, f.plan, k_rounds);
    expect_identical(got, f.serial_reference());
    EXPECT_GE(engine.stats().worker_respawns, 1u);
    // The respawned fleet becomes whole again. The respawn runs in the
    // slot's I/O thread while assess() can complete via re-dispatch to the
    // survivors, so poll rather than assert the instant after assess().
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (engine.transport().live_worker_processes() < 4 &&
           std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    EXPECT_EQ(engine.transport().live_worker_processes(), 4u);
}

TEST(SocketTransport, SigkillStormKeepsBitIdentity) {
    socket_fixture f;
    engine_options options = f.socket_options(3);
    options.max_attempts = 8;
    options.socket.max_respawns = 1000;
    extended_dagger_sampler sampler{f.registry.probabilities(), k_seed};
    assessment_engine engine{f.registry.size(), &f.forest, f.factory(),
                             sampler, options};
    std::atomic<bool> done{false};
    std::thread killer{[&] {
        std::size_t next = 0;
        while (!done.load(std::memory_order_acquire)) {
            const std::vector<int> pids = engine.transport().worker_pids();
            if (!pids.empty()) {
                const int pid = pids[next++ % pids.size()];
                if (pid > 0) {
                    (void)::kill(pid, SIGKILL);
                }
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
    }};
    const assessment_stats got = engine.assess(f.app, f.plan, k_rounds);
    done.store(true, std::memory_order_release);
    killer.join();
    // Timing decides WHICH batches die with their worker, never the counts.
    expect_identical(got, f.serial_reference());
}

// ---- socket transport: lifecycle ------------------------------------------

TEST(SocketTransport, NoZombieWorkersAfterDestruction) {
    socket_fixture f;
    {
        engine_options options = f.socket_options(3);
        engine_stats stats;
        expect_identical(f.run_engine(options, &stats), f.serial_reference());
    }
    // Every worker process was terminated AND reaped: no children remain,
    // zombie or otherwise.
    errno = 0;
    const pid_t r = ::waitpid(-1, nullptr, WNOHANG);
    EXPECT_EQ(r, -1);
    EXPECT_EQ(errno, ECHILD);
}

TEST(SocketTransport, DestructionIsIdempotentUnderRepeatedUse) {
    socket_fixture f;
    // Two assessments through one engine, then destruction: the setup and
    // in-place rebind sequencing and the final shutdown must all be clean.
    engine_options options = f.socket_options(2);
    extended_dagger_sampler sampler{f.registry.probabilities(), k_seed};
    assessment_engine engine{f.registry.size(), &f.forest, f.factory(),
                             sampler, options};
    const assessment_stats first = engine.assess(f.app, f.plan, k_rounds);
    engine.reset_stream(k_seed);
    const assessment_stats second = engine.assess(f.app, f.plan, k_rounds);
    expect_identical(first, second);
}

// ---- acceptance: medium fat-tree, 8 workers -------------------------------

TEST(SocketTransport, MediumFatTreeEightWorkersBitIdenticalToSerial) {
    const fat_tree tree = fat_tree::build(data_center_scale::medium);
    const built_topology& topo = tree.topology();
    component_registry registry{topo.graph};
    fault_tree_forest forest{topo.graph.node_count()};
    for (component_id id = 0; id < registry.size(); ++id) {
        if (registry.kind(id) != component_kind::external) {
            registry.set_probability(id, 0.002);
        }
    }
    application app = application::k_of_n(2, 4);
    deployment_plan plan;
    plan.hosts = {topo.hosts[0], topo.hosts[700], topo.hosts[1500],
                  topo.hosts[3000]};
    constexpr std::size_t rounds = 1500;
    constexpr std::uint64_t seed = 777;

    assessment_stats serial;
    {
        extended_dagger_sampler sampler{registry.probabilities(), seed};
        round_state rs{registry.size(), &forest};
        bfs_reachability oracle{topo};
        serial = forked_batch_reference(sampler, 1, rs, oracle, app, plan,
                                        rounds, 128);
    }

    const auto run = [&](std::size_t workers) {
        engine_options options;
        options.workers = workers;
        options.batch_rounds = 128;
        options.transport = transport_kind::socket;
        options.socket = worker_bin_options();
        options.topology = &topo;
        extended_dagger_sampler sampler{registry.probabilities(), seed};
        assessment_engine engine{
            registry.size(), &forest,
            [&topo] { return std::make_unique<bfs_reachability>(topo); },
            sampler, options};
        return engine.assess(app, plan, rounds);
    };

    const assessment_stats solo = run(1);
    const assessment_stats fleet = run(8);
    expect_identical(solo, serial);
    expect_identical(fleet, serial);
}

// ---- telemetry harvest (DESIGN §12) ---------------------------------------

/// Restores the process-wide obs surfaces a harvest test mutates. Worker
/// obs enablement ships in the environment blob at transport construction,
/// so tests flip the registry BEFORE building the engine.
struct obs_state_guard {
    ~obs_state_guard() {
        obs::metrics_registry::global().set_enabled(false);
        obs::metrics_registry::global().reset();
        obs::tracer::global().stop();
        obs::tracer::global().reset();
    }
};

TEST(TelemetryHarvest, HarvestedWorkerCountersMatchLoopbackFleet) {
    // The §11->§12 equivalence claim: the counters a loopback fleet writes
    // into the shared registry directly must equal what a socket fleet's
    // harvest pulls back across the process boundary — same seed, same
    // batch assignment, same per-worker contexts.
    socket_fixture f;
    obs_state_guard guard;
    auto& registry = obs::metrics_registry::global();
    registry.reset();
    registry.set_enabled(true);

    engine_options loopback;
    loopback.workers = 2;
    loopback.batch_rounds = 100;
    f.run_engine(loopback);
    const obs::telemetry_snapshot after_loopback = registry.snapshot();
    // assess.rounds is counted once at the engine layer (master side);
    // route.floods / route.flood_reuse happen inside the worker contexts —
    // in-process for loopback, across the pid boundary for sockets.
    EXPECT_EQ(after_loopback.value("assess.rounds"), k_rounds);
    const std::uint64_t loop_floods = after_loopback.value("route.floods");
    const std::uint64_t loop_reuse = after_loopback.value("route.flood_reuse");
    EXPECT_GT(loop_floods, 0u);
    // Sampling is part of the map step: the workers draw every round.
    const std::uint64_t loop_sampled = after_loopback.value("sample.rounds");
    EXPECT_EQ(loop_sampled, k_rounds);
    registry.reset();

    // Socket fleet: worker-side counters accrue inside the worker
    // processes; nothing reaches this registry until the harvest folds the
    // deltas in.
    extended_dagger_sampler sampler{f.registry.probabilities(), k_seed};
    assessment_engine engine{f.registry.size(), &f.forest, f.factory(),
                             sampler, f.socket_options(2)};
    const assessment_stats stats = engine.assess(f.app, f.plan, k_rounds);
    EXPECT_EQ(stats.rounds, k_rounds);
    EXPECT_EQ(registry.snapshot().value("route.floods"), 0u);
    EXPECT_EQ(registry.snapshot().value("sample.rounds"), 0u);
    engine.harvest_telemetry();
    const obs::telemetry_snapshot harvested = registry.snapshot();
    EXPECT_EQ(harvested.value("assess.rounds"), k_rounds);
    EXPECT_EQ(harvested.value("route.floods"), loop_floods);
    EXPECT_EQ(harvested.value("route.flood_reuse"), loop_reuse);
    EXPECT_EQ(harvested.value("sample.rounds"), loop_sampled);
}

TEST(TelemetryHarvest, RepeatedHarvestDoesNotDoubleCount) {
    // Workers ship registry DELTAS (snapshot-then-reset); pulling twice in
    // a row must leave the merged totals unchanged.
    socket_fixture f;
    obs_state_guard guard;
    auto& registry = obs::metrics_registry::global();
    registry.reset();
    registry.set_enabled(true);

    extended_dagger_sampler sampler{f.registry.probabilities(), k_seed};
    assessment_engine engine{f.registry.size(), &f.forest, f.factory(),
                             sampler, f.socket_options(2)};
    (void)engine.assess(f.app, f.plan, k_rounds);
    engine.harvest_telemetry();
    const std::uint64_t floods = registry.snapshot().value("route.floods");
    EXPECT_GT(floods, 0u);
    engine.harvest_telemetry();
    EXPECT_EQ(registry.snapshot().value("route.floods"), floods);

    const worker_fleet_telemetry fleet = engine.fleet_telemetry();
    ASSERT_EQ(fleet.workers.size(), 2u);
    for (const auto& w : fleet.workers) {
        EXPECT_GE(w.harvests, 2u);
    }
}

TEST(TelemetryHarvest, FleetTelemetryReportsEveryWorkerSortedByIdWithPid) {
    socket_fixture f;
    obs_state_guard guard;
    obs::metrics_registry::global().reset();
    obs::metrics_registry::global().set_enabled(true);

    extended_dagger_sampler sampler{f.registry.probabilities(), k_seed};
    assessment_engine engine{f.registry.size(), &f.forest, f.factory(),
                             sampler, f.socket_options(8)};
    (void)engine.assess(f.app, f.plan, k_rounds);
    engine.harvest_telemetry();

    const std::vector<int> pids = engine.transport().worker_pids();
    const worker_fleet_telemetry fleet = engine.fleet_telemetry();
    ASSERT_EQ(fleet.workers.size(), 8u);
    for (std::size_t w = 0; w < fleet.workers.size(); ++w) {
        const auto& entry = fleet.workers[w];
        EXPECT_EQ(entry.worker_id, w);  // sorted, one entry per slot
        EXPECT_NE(entry.pid, 0u);
        EXPECT_NE(std::find(pids.begin(), pids.end(),
                            static_cast<int>(entry.pid)),
                  pids.end());
        EXPECT_GE(entry.harvests, 1u);
        // No tracing in this test, so worker rings cannot have overflowed;
        // the field itself is the satellite contract (per-worker drops).
        EXPECT_EQ(entry.trace_dropped, 0u);
    }
}

TEST(TelemetryHarvest, ShutdownHarvestFoldsCountersWithoutExplicitCall) {
    // Destroying the engine (fleet shutdown) runs a final harvest when obs
    // was on at spawn — counters survive without anyone calling
    // harvest_telemetry().
    socket_fixture f;
    obs_state_guard guard;
    auto& registry = obs::metrics_registry::global();
    registry.reset();
    registry.set_enabled(true);

    {
        extended_dagger_sampler sampler{f.registry.probabilities(), k_seed};
        assessment_engine engine{f.registry.size(), &f.forest, f.factory(),
                                 sampler, f.socket_options(2)};
        (void)engine.assess(f.app, f.plan, k_rounds);
        EXPECT_EQ(registry.snapshot().value("route.floods"), 0u);
    }
    EXPECT_GT(registry.snapshot().value("route.floods"), 0u);
}

TEST(TelemetryHarvest, CacheCountersOverSocketsMatchLoopbackPrivateCaches) {
    // Socket workers derive their verdict-cache support from the shipped
    // environment; with the master building the identical support for its
    // loopback threads, the harvested cumulative cache counters must match
    // the in-process fleet bit-for-bit at every worker count.
    socket_fixture f;
    const verdict_support support{f.topo, f.registry.size(), &f.forest,
                                  nullptr};
    const auto run = [&](bool over_sockets, std::size_t workers) {
        engine_options options;
        if (over_sockets) {
            options = f.socket_options(workers);
        } else {
            options.workers = workers;
            options.batch_rounds = 100;
            options.verdict_cache.support = &support;
        }
        options.verdict_cache.enabled = true;
        options.verdict_cache.max_entries = 1 << 12;
        extended_dagger_sampler sampler{f.registry.probabilities(), k_seed};
        assessment_engine engine{f.registry.size(), &f.forest, f.factory(),
                                 sampler, options};
        const assessment_stats stats = engine.assess(f.app, f.plan, k_rounds);
        engine.harvest_telemetry();
        const verdict_cache_stats* cache = engine.cache_stats();
        EXPECT_NE(cache, nullptr);
        verdict_cache_stats fleet_sum{};
        for (const auto& w : engine.fleet_telemetry().workers) {
            fleet_sum.accumulate(w.cache);
        }
        return std::tuple{stats, cache != nullptr ? *cache
                                                  : verdict_cache_stats{},
                          fleet_sum, over_sockets};
    };
    for (const std::size_t workers : {1u, 2u, 8u}) {
        const auto [sock_stats, sock_cache, sock_fleet, dummy1] =
            run(true, workers);
        const auto [loop_stats, loop_cache, loop_fleet, dummy2] =
            run(false, workers);
        expect_identical(sock_stats, loop_stats);
        EXPECT_EQ(sock_cache.rounds, loop_cache.rounds);
        EXPECT_EQ(sock_cache.empty_hits, loop_cache.empty_hits);
        EXPECT_EQ(sock_cache.hits, loop_cache.hits);
        EXPECT_EQ(sock_cache.misses, loop_cache.misses);
        EXPECT_EQ(sock_cache.insertions, loop_cache.insertions);
        EXPECT_EQ(sock_cache.evictions, loop_cache.evictions);
        EXPECT_EQ(sock_cache.rebinds, loop_cache.rebinds);
        // The harvested per-worker provenance sums back to the engine's
        // combined totals (no degraded-local contribution here).
        EXPECT_EQ(sock_fleet.rounds, sock_cache.rounds);
        EXPECT_EQ(sock_fleet.hits, sock_cache.hits);
        EXPECT_EQ(sock_fleet.misses, sock_cache.misses);
    }
}

TEST(TelemetryHarvest, CacheCountersSurviveARespawn) {
    // Each harvest ships the growth since the worker's previous one, so a
    // killed worker's harvested rounds stay in the fleet sum and its
    // replacement's rounds add to them.
    socket_fixture f;
    engine_options options = f.socket_options(2);
    options.max_attempts = 6;
    options.verdict_cache.enabled = true;
    extended_dagger_sampler sampler{f.registry.probabilities(), k_seed};
    assessment_engine engine{f.registry.size(), &f.forest, f.factory(),
                             sampler, options};
    (void)engine.assess(f.app, f.plan, k_rounds);
    engine.harvest_telemetry();
    ASSERT_NE(engine.cache_stats(), nullptr);
    EXPECT_EQ(engine.cache_stats()->rounds, k_rounds);

    const std::vector<int> pids = engine.transport().worker_pids();
    ASSERT_EQ(pids.size(), 2u);
    ASSERT_EQ(::kill(pids[0], SIGKILL), 0);
    (void)engine.assess(f.app, f.plan, k_rounds);
    EXPECT_GE(engine.stats().worker_respawns, 1u);
    EXPECT_EQ(engine.stats().degraded, 0u);  // the workers judged every round
    // The replacement may still be starting; wait until it can answer.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (engine.transport().live_worker_processes() < 2 &&
           std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    engine.harvest_telemetry();
    EXPECT_EQ(engine.cache_stats()->rounds, 2 * k_rounds);
    std::uint64_t slot_sum = 0;
    for (const auto& w : engine.fleet_telemetry().workers) {
        slot_sum += w.cache.rounds;
    }
    EXPECT_EQ(slot_sum, 2 * k_rounds);
}

TEST(TelemetryHarvest, HarvestBetweenAssessmentsIsPureObservability) {
    // §6: interleaving a harvest (and full obs) between assessments must
    // not move a single bit of either assessment's result.
    socket_fixture f;
    const auto run = [&](bool obs_on) {
        obs_state_guard guard;
        obs::metrics_registry::global().reset();
        obs::metrics_registry::global().set_enabled(obs_on);
        if (obs_on) {
            obs::tracer::global().start();
        }
        extended_dagger_sampler sampler{f.registry.probabilities(), k_seed};
        assessment_engine engine{f.registry.size(), &f.forest, f.factory(),
                                 sampler, f.socket_options(2)};
        const assessment_stats first = engine.assess(f.app, f.plan, k_rounds);
        if (obs_on) {
            engine.harvest_telemetry();
        }
        const assessment_stats second = engine.assess(f.app, f.plan, k_rounds);
        return std::pair{first, second};
    };
    const auto [on_first, on_second] = run(true);
    const auto [off_first, off_second] = run(false);
    expect_identical(on_first, off_first);
    expect_identical(on_second, off_second);
}

}  // namespace
}  // namespace recloud
