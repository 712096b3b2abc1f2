// Recovery tests for the fault-tolerant execution engine (exec/engine.cpp):
// under injected worker crashes, stalls past the batch deadline, corrupted
// and truncated result frames — up to every worker dead — the engine must
// return assessment_stats bit-identical to the serial route-and-check of the
// same forked batches and to its own fault-free run, at any worker count.
// exec/chaos.hpp supplies the seeded, scheduling-independent fault schedule.
#include "exec/chaos.hpp"
#include "exec/engine.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <memory>

#include "batch_reference.hpp"
#include "routing/bfs_reachability.hpp"
#include "sampling/extended_dagger.hpp"
#include "topology/leaf_spine.hpp"

namespace recloud {
namespace {

constexpr std::size_t k_rounds = 2000;
constexpr std::uint64_t k_seed = 404;

struct recovery_fixture {
    built_topology topo = build_leaf_spine(
        {.spines = 2, .leaves = 4, .hosts_per_leaf = 4, .border_leaves = 1});
    component_registry registry{topo.graph};
    fault_tree_forest forest{topo.graph.node_count()};
    application app = application::k_of_n(2, 3);
    deployment_plan plan;

    recovery_fixture() {
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

    /// Ground truth: the single-threaded route-and-check of the batches an
    /// engine with `batch_rounds` samples (epoch 1 of seed k_seed).
    assessment_stats serial_reference(std::size_t batch_rounds) {
        extended_dagger_sampler sampler{registry.probabilities(), k_seed};
        round_state rs{registry.size(), &forest};
        bfs_reachability oracle{topo};
        return forked_batch_reference(sampler, 1, rs, oracle, app, plan,
                                      k_rounds, batch_rounds);
    }

    /// One engine assessment under `options`; exposes the engine's recovery
    /// counters through `stats_out`.
    assessment_stats run_engine(engine_options options,
                                engine_stats* stats_out = nullptr) {
        extended_dagger_sampler sampler{registry.probabilities(), k_seed};
        assessment_engine engine{registry.size(), &forest, factory(), sampler,
                                 options};
        const assessment_stats stats = engine.assess(app, plan, k_rounds);
        if (stats_out != nullptr) {
            *stats_out = engine.stats();
        }
        return stats;
    }
};

void expect_identical(const assessment_stats& got, const assessment_stats& want) {
    EXPECT_EQ(got.rounds, want.rounds);
    EXPECT_EQ(got.reliable, want.reliable);
}

// ---- chaos schedule -------------------------------------------------------

TEST(ChaosSchedule, IsDeterministicAndScheduleIndependent) {
    const chaos_schedule a{{.seed = 9, .crash_rate = 0.25, .stall_rate = 0.25}};
    const chaos_schedule b{{.seed = 9, .crash_rate = 0.25, .stall_rate = 0.25}};
    for (std::uint64_t batch = 0; batch < 50; ++batch) {
        for (std::uint64_t attempt = 0; attempt < 4; ++attempt) {
            EXPECT_EQ(a.fault_for(batch, attempt, 1),
                      b.fault_for(batch, attempt, 1));
        }
    }
}

TEST(ChaosSchedule, RatesRoughlyMatchRequested) {
    const chaos_schedule chaos{{.seed = 7, .crash_rate = 0.3}};
    std::size_t crashes = 0;
    constexpr std::size_t trials = 4000;
    for (std::uint64_t i = 0; i < trials; ++i) {
        if (chaos.fault_for(i, 0, 0) == chaos_fault::crash) {
            ++crashes;
        }
    }
    const double rate = static_cast<double>(crashes) / trials;
    EXPECT_NEAR(rate, 0.3, 0.05);
}

TEST(ChaosSchedule, RejectsInvalidRates) {
    EXPECT_THROW(chaos_schedule({.crash_rate = -0.1}), std::invalid_argument);
    EXPECT_THROW(chaos_schedule({.crash_rate = 0.6, .corrupt_rate = 0.6}),
                 std::invalid_argument);
}

TEST(ChaosSchedule, CorruptFlipsExactlyOneBit) {
    std::vector<std::byte> buffer(64, std::byte{0});
    chaos_schedule::corrupt(buffer, 1, 2, 3);
    std::size_t set_bits = 0;
    for (const std::byte b : buffer) {
        set_bits += static_cast<std::size_t>(
            __builtin_popcount(static_cast<unsigned>(b)));
    }
    EXPECT_EQ(set_bits, 1u);
}

TEST(ChaosSchedule, TruncateAlwaysShortens) {
    for (std::uint64_t attempt = 0; attempt < 32; ++attempt) {
        std::vector<std::byte> buffer(40, std::byte{0xab});
        chaos_schedule::truncate(buffer, 0, attempt, 0);
        EXPECT_LT(buffer.size(), 40u);
    }
}

// ---- recovery paths -------------------------------------------------------

TEST(EngineRecovery, WorkerCrashMidBatchIsRetried) {
    recovery_fixture f;
    const assessment_stats serial = f.serial_reference(64);
    const chaos_schedule chaos{{.seed = 11, .crash_rate = 0.3}};

    for (const std::size_t workers : {1u, 2u, 8u}) {
        engine_stats es;
        const assessment_stats stats = f.run_engine(
            {.workers = workers, .batch_rounds = 64, .max_attempts = 25,
             .chaos = &chaos},
            &es);
        expect_identical(stats, serial);
        EXPECT_GT(es.worker_crashes, 0u) << workers;
        // Recovery happened one way or the other: a failed worker is
        // excluded for that batch, so a lone worker degrades instead of
        // retrying.
        EXPECT_GT(es.retries + es.degraded, 0u) << workers;
        if (workers > 1) {
            EXPECT_GT(es.retries, 0u) << workers;
        }
    }
}

TEST(EngineRecovery, StalledWorkerPastDeadlineIsRedispatched) {
    recovery_fixture f;
    const assessment_stats serial = f.serial_reference(250);
    const chaos_schedule chaos{{.seed = 21,
                                .stall_rate = 0.25,
                                .stall_duration = std::chrono::milliseconds{50}}};

    engine_stats es;
    const assessment_stats stats = f.run_engine(
        {.workers = 4,
         .batch_rounds = 250,
         .max_attempts = 25,
         .batch_deadline = std::chrono::milliseconds{5},
         .chaos = &chaos},
        &es);
    expect_identical(stats, serial);
    EXPECT_GT(es.deadline_misses, 0u);
    EXPECT_GT(es.retries, 0u);
}

TEST(EngineRecovery, CorruptedResultFrameIsDetectedAndRetried) {
    recovery_fixture f;
    const assessment_stats serial = f.serial_reference(64);
    const chaos_schedule chaos{{.seed = 31, .corrupt_rate = 0.3}};

    for (const std::size_t workers : {1u, 2u, 8u}) {
        engine_stats es;
        const assessment_stats stats = f.run_engine(
            {.workers = workers, .batch_rounds = 64, .max_attempts = 25,
             .chaos = &chaos},
            &es);
        expect_identical(stats, serial);
        EXPECT_GT(es.invalid_frames, 0u) << workers;
    }
}

TEST(EngineRecovery, TruncatedResultFrameIsDetectedAndRetried) {
    recovery_fixture f;
    const assessment_stats serial = f.serial_reference(64);
    const chaos_schedule chaos{{.seed = 41, .truncate_rate = 0.3}};

    for (const std::size_t workers : {1u, 2u, 8u}) {
        engine_stats es;
        const assessment_stats stats = f.run_engine(
            {.workers = workers, .batch_rounds = 64, .max_attempts = 25,
             .chaos = &chaos},
            &es);
        expect_identical(stats, serial);
        EXPECT_GT(es.invalid_frames, 0u) << workers;
    }
}

TEST(EngineRecovery, AllWorkersDeadDegradesToMasterLocal) {
    recovery_fixture f;
    const assessment_stats serial = f.serial_reference(128);
    const chaos_schedule chaos{{.seed = 51, .crash_rate = 1.0}};

    for (const std::size_t workers : {1u, 2u, 8u}) {
        engine_stats es;
        const assessment_stats stats = f.run_engine(
            {.workers = workers, .batch_rounds = 128, .max_attempts = 3,
             .chaos = &chaos},
            &es);
        expect_identical(stats, serial);
        EXPECT_EQ(es.degraded, es.batches) << workers;
        EXPECT_GT(es.worker_crashes, 0u) << workers;
    }
}

TEST(EngineRecovery, ZeroAttemptsRunsEverythingMasterLocal) {
    recovery_fixture f;
    engine_stats es;
    const assessment_stats stats =
        f.run_engine({.workers = 2, .batch_rounds = 128, .max_attempts = 0}, &es);
    expect_identical(stats, f.serial_reference(128));
    EXPECT_EQ(es.dispatches, 0u);
    EXPECT_EQ(es.degraded, es.batches);
}

TEST(EngineRecovery, RedispatchMovesBatchToAnotherWorker) {
    recovery_fixture f;
    // With > 1 worker and per-batch failed-worker exclusion, a failed
    // attempt must land on a different worker.
    const chaos_schedule chaos{{.seed = 61, .crash_rate = 0.4}};
    engine_stats es;
    const assessment_stats stats = f.run_engine(
        {.workers = 4, .batch_rounds = 64, .max_attempts = 25, .chaos = &chaos},
        &es);
    expect_identical(stats, f.serial_reference(64));
    EXPECT_GT(es.redispatches, 0u);
    EXPECT_EQ(es.redispatches, es.retries);  // exclusion => always a new worker
}

// The acceptance criterion: a schedule failing >= 20% of dispatch attempts
// (crash + corrupt + truncate combined) must not change a single count at
// 1, 2, or 8 workers, and the stats must show the recoveries happening.
TEST(EngineRecovery, TwentyPercentFaultScheduleIsBitIdentical) {
    recovery_fixture f;
    const assessment_stats serial = f.serial_reference(64);
    const assessment_stats fault_free =
        f.run_engine({.workers = 2, .batch_rounds = 64, .max_attempts = 3});
    expect_identical(fault_free, serial);

    const chaos_schedule chaos{{.seed = 0xacce97,
                                .crash_rate = 0.10,
                                .corrupt_rate = 0.06,
                                .truncate_rate = 0.06}};
    for (const std::size_t workers : {1u, 2u, 8u}) {
        engine_stats es;
        const assessment_stats stats = f.run_engine(
            {.workers = workers, .batch_rounds = 64, .max_attempts = 25,
             .chaos = &chaos},
            &es);
        expect_identical(stats, fault_free);
        expect_identical(stats, serial);
        EXPECT_GT(es.failures(), 0u) << workers;
        EXPECT_GT(es.retries + es.degraded, 0u) << workers;
        EXPECT_GE(es.dispatches, es.batches) << workers;
    }
}

TEST(EngineRecovery, StatsAccumulateAcrossAssessCalls) {
    recovery_fixture f;
    extended_dagger_sampler sampler{f.registry.probabilities(), k_seed};
    assessment_engine engine{f.registry.size(), &f.forest, f.factory(), sampler,
                             {.workers = 2, .batch_rounds = 64}};
    (void)engine.assess(f.app, f.plan, 500);
    const std::uint64_t after_first = engine.stats().batches;
    (void)engine.assess(f.app, f.plan, 500);
    EXPECT_GT(engine.stats().batches, after_first);
    EXPECT_EQ(engine.stats().worker_failures.size(), 2u);
    EXPECT_GT(engine.stats().bytes_sent, 0u);
    EXPECT_GT(engine.stats().bytes_received, 0u);
}

// CI hook: RECLOUD_CHAOS_SEED reseeds the schedule so nightly runs sweep
// fresh fault patterns; the determinism contract must hold for EVERY seed.
// Unset, a fixed default keeps the test meaningful (and reproducible)
// locally.
TEST(EngineRecovery, HoldsForEnvironmentChosenSeed) {
    std::uint64_t seed = 0xd15ea5e;
    const char* env = std::getenv("RECLOUD_CHAOS_SEED");
    if (env != nullptr && env[0] != '\0') {
        seed = std::strtoull(env, nullptr, 0);
    }
    recovery_fixture f;
    const chaos_schedule chaos{{.seed = seed,
                                .crash_rate = 0.12,
                                .corrupt_rate = 0.08,
                                .truncate_rate = 0.05}};
    engine_stats es;
    const assessment_stats stats = f.run_engine(
        {.workers = 4, .batch_rounds = 64, .max_attempts = 25, .chaos = &chaos},
        &es);
    expect_identical(stats, f.serial_reference(64));
}

// ---- assessment_backend surface ------------------------------------------

TEST(EngineBackendRecovery, ExposesStatsAndSurvivesChaos) {
    recovery_fixture f;
    const chaos_schedule chaos{{.seed = 71, .crash_rate = 0.25}};
    extended_dagger_sampler sampler{f.registry.probabilities(), k_seed};
    assessment_engine backend{f.registry.size(), &f.forest, f.factory(), sampler,
                              {.workers = 2, .batch_rounds = 64,
                               .max_attempts = 25, .chaos = &chaos}};
    const assessment_stats stats = backend.assess(f.app, f.plan, k_rounds);
    expect_identical(stats, f.serial_reference(64));
    EXPECT_GT(backend.stats().retries, 0u);
}

}  // namespace
}  // namespace recloud
