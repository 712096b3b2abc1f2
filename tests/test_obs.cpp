// Observability layer (src/obs): metrics registry exactness under
// concurrency, tracer ring semantics and Chrome-trace export, timeline JSONL
// serialization, and the §6 guarantee that turning telemetry on cannot
// change a single assessment bit on any backend.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "assess/backend.hpp"
#include "exec/engine.hpp"
#include "obs/build_info.hpp"
#include "obs/metrics.hpp"
#include "obs/timeline.hpp"
#include "obs/trace.hpp"
#include "routing/bfs_reachability.hpp"
#include "sampling/extended_dagger.hpp"
#include "topology/leaf_spine.hpp"

namespace recloud {
namespace {

// ---- metrics registry ---------------------------------------------------

TEST(MetricsRegistry, CounterAggregationIsExactAcrossConcurrentWriters) {
    obs::metrics_registry registry;
    registry.set_enabled(true);
    const obs::metric_id hits = registry.counter("test.hits");
    constexpr std::size_t threads = 8;
    constexpr std::uint64_t per_thread = 50'000;
    std::vector<std::thread> writers;
    writers.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t) {
        writers.emplace_back([&registry, hits] {
            for (std::uint64_t i = 0; i < per_thread; ++i) {
                registry.add(hits, 1);
            }
        });
    }
    for (auto& w : writers) {
        w.join();
    }
    // Sharded relaxed slots must still sum exactly: no lost updates, ever.
    EXPECT_EQ(registry.snapshot().value("test.hits"), threads * per_thread);
}

TEST(MetricsRegistry, RetiredThreadShardsKeepTheirCounts) {
    obs::metrics_registry registry;
    registry.set_enabled(true);
    const obs::metric_id id = registry.counter("test.retired");
    std::thread{[&] { registry.add(id, 7); }}.join();
    // The writer thread is gone; its shard's total must survive retirement.
    EXPECT_EQ(registry.snapshot().value("test.retired"), 7u);
}

TEST(MetricsRegistry, DisabledWritesAreDropped) {
    obs::metrics_registry registry;
    const obs::metric_id id = registry.counter("test.off");
    registry.add(id, 5);  // disabled: dropped
    registry.set_enabled(true);
    registry.add(id, 2);
    registry.set_enabled(false);
    registry.add(id, 9);  // dropped again
    EXPECT_EQ(registry.snapshot().value("test.off"), 2u);
}

TEST(MetricsRegistry, GaugesAreLastWriteWinsAndIgnoreEnabled) {
    obs::metrics_registry registry;  // never enabled
    const obs::metric_id gauge = registry.gauge("test.gauge");
    registry.set(gauge, 11);
    registry.set(gauge, 42);  // snapshot-time publishes must not vanish
    EXPECT_EQ(registry.snapshot().value("test.gauge"), 42u);
}

TEST(MetricsRegistry, HistogramBucketsSumMinMaxMean) {
    obs::metrics_registry registry;
    registry.set_enabled(true);
    const obs::metric_id h = registry.histogram("test.hist");
    registry.observe(h, 0);  // bucket 0 = {0}
    registry.observe(h, 1);  // bucket 1 = {1, 2}
    registry.observe(h, 2);
    registry.observe(h, 100);  // bucket floor(log2(101)) = 6
    const obs::telemetry_snapshot snapshot = registry.snapshot();
    const obs::metric_entry* entry = snapshot.find("test.hist");
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(entry->kind, obs::metric_kind::histogram);
    EXPECT_EQ(entry->histogram.count, 4u);
    EXPECT_EQ(entry->histogram.sum, 103u);
    EXPECT_EQ(entry->histogram.min, 0u);
    EXPECT_EQ(entry->histogram.max, 100u);
    EXPECT_EQ(entry->histogram.buckets[0], 1u);
    EXPECT_EQ(entry->histogram.buckets[1], 2u);
    EXPECT_EQ(entry->histogram.buckets[6], 1u);
    EXPECT_DOUBLE_EQ(entry->histogram.mean(), 103.0 / 4.0);
}

TEST(MetricsRegistry, RegistrationIsIdempotentAndKindChecked) {
    obs::metrics_registry registry;
    const obs::metric_id a = registry.counter("test.name");
    const obs::metric_id b = registry.counter("test.name");
    EXPECT_EQ(a.raw, b.raw);
    EXPECT_THROW((void)registry.gauge("test.name"), std::invalid_argument);
    EXPECT_THROW((void)registry.histogram("test.name"), std::invalid_argument);
}

TEST(MetricsRegistry, ResetZeroesValuesButKeepsNames) {
    obs::metrics_registry registry;
    registry.set_enabled(true);
    const obs::metric_id id = registry.counter("test.reset");
    registry.add(id, 3);
    registry.reset();
    const obs::telemetry_snapshot snapshot = registry.snapshot();
    ASSERT_NE(snapshot.find("test.reset"), nullptr);
    EXPECT_EQ(snapshot.value("test.reset"), 0u);
    registry.add(id, 4);  // the handle stays valid across reset
    EXPECT_EQ(registry.snapshot().value("test.reset"), 4u);
}

TEST(MetricsRegistry, SnapshotIsSortedAndMissingNamesReadZero) {
    obs::metrics_registry registry;
    (void)registry.counter("test.b");
    (void)registry.counter("test.a");
    const obs::telemetry_snapshot snapshot = registry.snapshot();
    ASSERT_EQ(snapshot.metrics.size(), 2u);
    EXPECT_EQ(snapshot.metrics[0].name, "test.a");
    EXPECT_EQ(snapshot.metrics[1].name, "test.b");
    EXPECT_EQ(snapshot.find("test.zzz"), nullptr);
    EXPECT_EQ(snapshot.value("test.zzz"), 0u);
}

// ---- tracer -------------------------------------------------------------

TEST(Tracer, NestedSpansExportInCompletionOrder) {
    obs::tracer& tracer = obs::tracer::global();
    tracer.reset();
    tracer.start();
    std::thread{[&tracer] {
        tracer.set_current_thread_name("obs-test");
        obs::scoped_span outer{"outer"};
        { obs::scoped_span inner{"inner"}; }
    }}.join();
    tracer.stop();
    EXPECT_EQ(tracer.captured(), 2u);
    const std::string json = tracer.export_chrome_trace();
    const std::size_t inner_at = json.find("\"name\":\"inner\"");
    const std::size_t outer_at = json.find("\"name\":\"outer\"");
    ASSERT_NE(inner_at, std::string::npos);
    ASSERT_NE(outer_at, std::string::npos);
    // RAII spans close inside-out, and a ring preserves completion order.
    EXPECT_LT(inner_at, outer_at);
    // Thread metadata + build provenance + drop count ride along.
    EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
    EXPECT_NE(json.find("\"obs-test\""), std::string::npos);
    EXPECT_NE(json.find("\"build\":{"), std::string::npos);
    EXPECT_NE(json.find("\"dropped_events\":0"), std::string::npos);
    tracer.reset();
}

TEST(Tracer, FullRingDropsNewestAndCountsIt) {
    obs::tracer& tracer = obs::tracer::global();
    tracer.reset();
    tracer.set_ring_capacity(4);
    tracer.start();
    std::thread{[&tracer] {
        // Fresh thread => fresh ring with the just-set capacity.
        for (int i = 0; i < 10; ++i) {
            tracer.record("tiny", 0, 1);
        }
    }}.join();
    tracer.stop();
    EXPECT_EQ(tracer.captured(), 4u);
    EXPECT_EQ(tracer.dropped(), 6u);
    EXPECT_NE(tracer.export_chrome_trace().find("\"dropped_events\":6"),
              std::string::npos);
    tracer.set_ring_capacity(std::size_t{1} << 15);
    tracer.reset();
}

TEST(Tracer, AccessorsCountRemoteCapturesLikeTheExport) {
    obs::tracer& tracer = obs::tracer::global();
    tracer.reset();
    tracer.set_ring_capacity(4);
    tracer.start();
    std::thread{[&tracer] {
        for (int i = 0; i < 6; ++i) {
            tracer.record("local", 0, 1);
        }
    }}.join();
    tracer.stop();
    obs::process_capture worker;
    worker.pid = 4242;
    worker.process_name = "worker";
    worker.dropped = 7;
    worker.spans.push_back({.name = "remote", .tid = 1, .dur_ns = 1});
    tracer.add_remote_capture(std::move(worker));
    obs::process_capture spanless;  // drops only: its spans were all lost
    spanless.pid = 4343;
    spanless.dropped = 5;
    tracer.add_remote_capture(std::move(spanless));
    EXPECT_EQ(tracer.captured(), 4u + 1u);
    EXPECT_EQ(tracer.dropped(), 2u + 7u + 5u);
    EXPECT_NE(tracer.export_chrome_trace().find("\"dropped_events\":14"),
              std::string::npos);
    tracer.set_ring_capacity(std::size_t{1} << 15);
    tracer.reset();
    EXPECT_EQ(tracer.captured(), 0u);
    EXPECT_EQ(tracer.dropped(), 0u);
}

TEST(Tracer, DisabledSpansRecordNothing) {
    obs::tracer& tracer = obs::tracer::global();
    tracer.reset();
    ASSERT_FALSE(tracer.enabled());
    std::thread{[] { RECLOUD_SPAN("invisible"); }}.join();
    EXPECT_EQ(tracer.captured(), 0u);
}

TEST(Tracer, EnvOverrideParsesTheZeroFamily) {
    ::setenv("RECLOUD_TRACE", "1", 1);
    EXPECT_EQ(obs::trace_env_override(), 1);
    ::setenv("RECLOUD_TRACE", "off", 1);
    EXPECT_EQ(obs::trace_env_override(), 0);
    ::setenv("RECLOUD_TRACE", "0", 1);
    EXPECT_EQ(obs::trace_env_override(), 0);
    ::unsetenv("RECLOUD_TRACE");
    EXPECT_EQ(obs::trace_env_override(), -1);
    ::setenv("RECLOUD_TRACE_PATH", "/tmp/custom.json", 1);
    EXPECT_EQ(obs::trace_env_path("fallback.json"), "/tmp/custom.json");
    ::unsetenv("RECLOUD_TRACE_PATH");
    EXPECT_EQ(obs::trace_env_path("fallback.json"), "fallback.json");
}

// ---- timeline -----------------------------------------------------------

obs::search_iteration_event sample_event(obs::search_event_kind kind) {
    obs::search_iteration_event event;
    event.kind = kind;
    event.iteration = 12;
    event.elapsed_seconds = 0.5;
    event.temperature = 0.9;
    event.candidate_score = 0.93;
    event.candidate_reliability = 0.93;
    event.candidate_ciw = 0.01;
    event.candidate_rounds = 1000;
    event.best_score = 0.95;
    event.plans_evaluated = 9;
    event.cache_hit_rate = 0.75;
    return event;
}

TEST(Timeline, IterationLineCarriesCandidateAndCacheFields) {
    const std::string line = obs::search_timeline::to_json_line(
        sample_event(obs::search_event_kind::accepted));
    EXPECT_NE(line.find("\"type\":\"iteration\""), std::string::npos);
    EXPECT_NE(line.find("\"kind\":\"accepted\""), std::string::npos);
    EXPECT_NE(line.find("\"iteration\":12"), std::string::npos);
    EXPECT_NE(line.find("\"temperature\":0.9"), std::string::npos);
    EXPECT_NE(line.find("\"candidate_reliability\":0.93"), std::string::npos);
    EXPECT_NE(line.find("\"candidate_rounds\":1000"), std::string::npos);
    EXPECT_NE(line.find("\"cache_hit_rate\":0.75"), std::string::npos);
}

TEST(Timeline, SkippedKindsOmitCandidateFields) {
    for (const auto kind : {obs::search_event_kind::symmetric_skip,
                            obs::search_event_kind::filtered,
                            obs::search_event_kind::heartbeat}) {
        const std::string line =
            obs::search_timeline::to_json_line(sample_event(kind));
        EXPECT_EQ(line.find("candidate_"), std::string::npos) << line;
    }
    obs::search_iteration_event unknown_rate =
        sample_event(obs::search_event_kind::rejected);
    unknown_rate.cache_hit_rate = -1.0;
    EXPECT_EQ(obs::search_timeline::to_json_line(unknown_rate)
                  .find("cache_hit_rate"),
              std::string::npos);
}

TEST(Timeline, NonFiniteNumbersBecomeNull) {
    obs::search_iteration_event event =
        sample_event(obs::search_event_kind::rejected);
    event.candidate_ciw = std::numeric_limits<double>::quiet_NaN();
    event.temperature = std::numeric_limits<double>::infinity();
    const std::string line = obs::search_timeline::to_json_line(event);
    EXPECT_NE(line.find("\"candidate_ciw\":null"), std::string::npos);
    EXPECT_NE(line.find("\"temperature\":null"), std::string::npos);
}

TEST(Timeline, SinkWritesBuildLineAndHeartbeats) {
    const std::string path = "obs_timeline_test.jsonl";
    {
        obs::search_timeline timeline{path, std::chrono::milliseconds{1000}};
        obs::search_iteration_event event =
            sample_event(obs::search_event_kind::initial);
        event.elapsed_seconds = 0.2;
        timeline.on_event(event);  // no heartbeat yet
        event.kind = obs::search_event_kind::accepted;
        event.elapsed_seconds = 1.4;  // crosses the 1s heartbeat boundary
        timeline.on_event(event);
        // build + initial + heartbeat + accepted
        EXPECT_EQ(timeline.records(), 4u);
    }
    std::FILE* in = std::fopen(path.c_str(), "r");
    ASSERT_NE(in, nullptr);
    char first_line[512] = {};
    ASSERT_NE(std::fgets(first_line, sizeof(first_line), in), nullptr);
    std::fclose(in);
    std::remove(path.c_str());
    EXPECT_NE(std::string{first_line}.find("\"type\":\"build\""),
              std::string::npos);
    EXPECT_NE(std::string{first_line}.find("\"git\":"), std::string::npos);
}

TEST(Timeline, UnwritablePathThrows) {
    EXPECT_THROW(
        obs::search_timeline("/nonexistent-dir-for-sure/x.jsonl"),
        std::runtime_error);
}

// ---- build info ---------------------------------------------------------

TEST(BuildInfo, JsonAndBannerAreConsistent) {
    const build_info_t& info = build_info();
    ASSERT_NE(info.git_hash, nullptr);
    ASSERT_NE(info.compiler, nullptr);
    const std::string json = build_info_json();
    EXPECT_NE(json.find("\"git\":"), std::string::npos);
    EXPECT_NE(json.find(info.git_hash), std::string::npos);
    EXPECT_NE(build_info_banner().find(info.git_hash), std::string::npos);
}

// ---- §6: telemetry cannot perturb assessments ---------------------------

struct obs_backend_fixture {
    built_topology topo = build_leaf_spine(
        {.spines = 2, .leaves = 4, .hosts_per_leaf = 4, .border_leaves = 1});
    component_registry registry{topo.graph};
    fault_tree_forest forest{topo.graph.node_count()};

    obs_backend_fixture() {
        for (component_id id = 0; id < registry.size(); ++id) {
            if (registry.kind(id) != component_kind::external) {
                registry.set_probability(id, 0.03);
            }
        }
    }

    oracle_factory factory() {
        return [this] { return std::make_unique<bfs_reachability>(topo); };
    }

    deployment_plan plan_for(const application& app) {
        deployment_plan plan;
        for (std::uint32_t i = 0; i < app.total_instances(); ++i) {
            plan.hosts.push_back(topo.hosts[(i * 5) % topo.hosts.size()]);
        }
        return plan;
    }
};

void expect_identical(const assessment_stats& a, const assessment_stats& b) {
    EXPECT_EQ(a.rounds, b.rounds);
    EXPECT_EQ(a.reliable, b.reliable);
    EXPECT_EQ(a.reliability, b.reliability);
    EXPECT_EQ(a.variance, b.variance);
    EXPECT_EQ(a.ciw95, b.ciw95);
}

TEST(TelemetryEquivalence, StatsBitIdenticalWithTracingOnOrOff) {
    // The CacheEquivalence pattern applied to observability: every backend,
    // several worker counts, metrics + tracing fully on vs fully off — the
    // assessment_stats must not differ in a single bit (§6).
    obs_backend_fixture f;
    const application app = application::k_of_n(2, 3);
    const deployment_plan plan = f.plan_for(app);
    constexpr std::size_t rounds = 2000;

    const auto run_all = [&] {
        std::vector<assessment_stats> all;
        {
            extended_dagger_sampler sampler{f.registry.probabilities(), 51};
            parallel_backend backend{
                f.registry.size(), &f.forest, f.factory(), sampler,
                {.threads = 1}};
            all.push_back(backend.assess(app, plan, rounds));
        }
        for (const std::size_t workers : {1u, 2u, 8u}) {
            extended_dagger_sampler sampler{f.registry.probabilities(), 51};
            parallel_backend backend{
                f.registry.size(), &f.forest, f.factory(), sampler,
                {.threads = workers, .batch_rounds = 250}};
            all.push_back(backend.assess(app, plan, rounds));
        }
        {
            extended_dagger_sampler sampler{f.registry.probabilities(), 51};
            assessment_engine backend{f.registry.size(), &f.forest,
                                      f.factory(), sampler,
                                      {.workers = 2, .batch_rounds = 200}};
            all.push_back(backend.assess(app, plan, rounds));
        }
        return all;
    };

    obs::metrics_registry::global().set_enabled(false);
    ASSERT_FALSE(obs::tracer::global().enabled());
    const std::vector<assessment_stats> off = run_all();

    obs::metrics_registry::global().set_enabled(true);
    obs::tracer::global().start();
    const std::vector<assessment_stats> on = run_all();
    obs::tracer::global().stop();
    obs::metrics_registry::global().set_enabled(false);

    ASSERT_EQ(on.size(), off.size());
    for (std::size_t i = 0; i < off.size(); ++i) {
        expect_identical(on[i], off[i]);
    }
    // And telemetry actually captured something while on.
    EXPECT_GT(obs::metrics_registry::global().snapshot().value("assess.rounds"),
              0u);
    obs::tracer::global().reset();
    obs::metrics_registry::global().reset();
}

TEST(TelemetryEquivalence, LoopbackHarvestIsANoOpWithEmptyFleetView) {
    // Loopback worker threads write the shared registry directly, so a
    // harvest has nothing to pull: counters must not move and the
    // per-worker fleet view stays empty (DESIGN §12).
    obs_backend_fixture f;
    const application app = application::k_of_n(2, 3);
    const deployment_plan plan = f.plan_for(app);
    obs::metrics_registry::global().reset();
    obs::metrics_registry::global().set_enabled(true);

    extended_dagger_sampler sampler{f.registry.probabilities(), 51};
    assessment_engine backend{f.registry.size(), &f.forest, f.factory(),
                              sampler, {.workers = 2, .batch_rounds = 200}};
    (void)backend.assess(app, plan, 2000);
    const std::uint64_t before =
        obs::metrics_registry::global().snapshot().value("assess.rounds");
    EXPECT_EQ(before, 2000u);
    backend.harvest_telemetry();
    EXPECT_EQ(obs::metrics_registry::global().snapshot().value("assess.rounds"),
              before);
    EXPECT_TRUE(backend.fleet_telemetry().workers.empty());

    obs::metrics_registry::global().set_enabled(false);
    obs::metrics_registry::global().reset();
}

}  // namespace
}  // namespace recloud
