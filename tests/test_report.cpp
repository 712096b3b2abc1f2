#include "report/report.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <limits>
#include <string>

#include "core/scenario.hpp"
#include "exec/engine.hpp"
#include "obs/admin_server.hpp"
#include "obs/metrics.hpp"

namespace recloud {
namespace {

TEST(JsonEscape, PassesPlainText) {
    EXPECT_EQ(json_escape("host#42"), "\"host#42\"");
}

TEST(JsonEscape, EscapesSpecials) {
    EXPECT_EQ(json_escape("a\"b"), "\"a\\\"b\"");
    EXPECT_EQ(json_escape("a\\b"), "\"a\\\\b\"");
    EXPECT_EQ(json_escape("line\nbreak"), "\"line\\nbreak\"");
    EXPECT_EQ(json_escape(std::string{"\x01"}), "\"\\u0001\"");
}

TEST(Report, AssessmentStatsJson) {
    const assessment_stats stats = make_assessment_stats(900, 1000);
    const std::string json = to_json(stats);
    EXPECT_EQ(json.find("{\"rounds\":1000,\"reliable\":900,"), 0u);
    EXPECT_NE(json.find("\"reliability\":0.9"), std::string::npos);
    EXPECT_NE(json.find("\"ciw95\":"), std::string::npos);
    // 0 replicates: the CIW95 is the binomial Eq. 2.
    EXPECT_NE(json.find("\"replicates\":0}"), std::string::npos);
}

TEST(Report, DeploymentResponseJson) {
    deployment_response response;
    response.fulfilled = true;
    response.plan.hosts = {3, 7};
    response.stats = make_assessment_stats(95, 100);
    response.utility = 0.8;
    response.score = 0.875;
    response.search.plans_generated = 12;
    response.search.plans_evaluated = 10;
    const std::string json = to_json(response);
    EXPECT_NE(json.find("\"fulfilled\":true"), std::string::npos);
    EXPECT_NE(json.find("\"hosts\":[3,7]"), std::string::npos);
    EXPECT_NE(json.find("\"plans_generated\":12"), std::string::npos);
    EXPECT_NE(json.find("\"utility\":0.8"), std::string::npos);
}

TEST(Report, DeploymentResponseJsonWithNames) {
    component_registry registry;
    (void)registry.add(component_kind::host, "alpha");
    (void)registry.add(component_kind::host, "beta");
    deployment_response response;
    response.plan.hosts = {1};
    const std::string json = to_json(response, &registry);
    EXPECT_NE(json.find("{\"id\":1,\"name\":\"beta\"}"), std::string::npos);
}

TEST(Report, CriticalityJson) {
    component_registry registry;
    const component_id supply =
        registry.add(component_kind::power_supply, "ps0");
    criticality_report report;
    report.baseline = make_assessment_stats(99, 100);
    report.entries.push_back(
        criticality_entry{supply, 0.5, 0.49});
    const std::string json = to_json(report, registry);
    EXPECT_NE(json.find("\"name\":\"ps0\""), std::string::npos);
    EXPECT_NE(json.find("\"impact\":0.49"), std::string::npos);
    EXPECT_NE(json.find("\"conditional_reliability\":0.5"), std::string::npos);
}

TEST(Report, NonFiniteDoublesEmitNull) {
    // JSON has no nan/inf literal; %.12g would print "nan"/"inf" and break
    // every strict parser consuming the report (regression guard).
    deployment_response response;
    response.stats.reliability = std::numeric_limits<double>::quiet_NaN();
    response.stats.ciw95 = std::numeric_limits<double>::infinity();
    response.utility = -std::numeric_limits<double>::infinity();
    const std::string json = to_json(response);
    EXPECT_NE(json.find("\"reliability\":null"), std::string::npos);
    EXPECT_NE(json.find("\"ciw95\":null"), std::string::npos);
    EXPECT_NE(json.find("\"utility\":null"), std::string::npos);
    EXPECT_EQ(json.find("nan"), std::string::npos);
    EXPECT_EQ(json.find("inf"), std::string::npos);
}

TEST(Report, TelemetrySnapshotJson) {
    obs::metrics_registry registry;
    registry.set_enabled(true);
    registry.add(registry.counter("assess.rounds"), 123);
    registry.set(registry.gauge("cache.stats.hits"), 9);
    registry.observe(registry.histogram("span.ns"), 5);
    const std::string json = to_json(registry.snapshot());
    EXPECT_EQ(json.find("{\"build\":{"), 0u);
    EXPECT_NE(json.find("\"git\":"), std::string::npos);
    EXPECT_NE(json.find("\"assess.rounds\":123"), std::string::npos);
    EXPECT_NE(json.find("\"cache.stats.hits\":9"), std::string::npos);
    EXPECT_NE(json.find("\"span.ns\":{\"count\":1,\"sum\":5"),
              std::string::npos);
}

TEST(Report, DeploymentResponseJsonWithTelemetry) {
    obs::metrics_registry registry;
    registry.set(registry.gauge("engine.stats.batches"), 4);
    deployment_response response;
    const obs::telemetry_snapshot snapshot = registry.snapshot();
    const std::string json = to_json(response, nullptr, &snapshot);
    EXPECT_NE(json.find("\"telemetry\":{\"build\":"), std::string::npos);
    EXPECT_NE(json.find("\"engine.stats.batches\":4"), std::string::npos);
}

TEST(Report, TraceCsv) {
    annealing_result result;
    result.trace.push_back(annealing_trace_point{0.5, 0.9, 0.9, 3});
    result.trace.push_back(annealing_trace_point{1.25, 0.95, 0.94, 7});
    const std::string csv = trace_to_csv(result);
    EXPECT_EQ(csv,
              "elapsed_seconds,best_score,best_reliability,plans_evaluated\n"
              "0.5,0.9,0.9,3\n"
              "1.25,0.95,0.94,7\n");
}

TEST(Report, EmptyTraceIsHeaderOnly) {
    const annealing_result result;
    EXPECT_EQ(trace_to_csv(result),
              "elapsed_seconds,best_score,best_reliability,plans_evaluated\n");
}

// ---- one field list, every surface ----------------------------------------

/// The Prometheus sample line of an unlabelled scalar metric.
std::string prometheus_line(const std::string& name, std::uint64_t value) {
    std::string family = "recloud_" + name;
    std::replace(family.begin(), family.end(), '.', '_');
    return "\n" + family + " " + std::to_string(value) + "\n";
}

/// True when the JSON holds "name":value as a whole member.
bool json_has(const std::string& json, const std::string& name,
              std::uint64_t value) {
    const std::string member = "\"" + name + "\":" + std::to_string(value);
    for (std::size_t at = json.find(member); at != std::string::npos;
         at = json.find(member, at + 1)) {
        const char next = json[at + member.size()];
        if (next == ',' || next == '}') {
            return true;
        }
    }
    return false;
}

/// Renders one run's telemetry through every export surface and expects
/// each listed counter of both structs to read the struct accessor's value
/// on all of them.
obs::telemetry_snapshot expect_surfaces_agree(
    const re_cloud& system, const deployment_response& response) {
    const obs::telemetry_snapshot snap = system.telemetry();
    const std::string prometheus = obs::prometheus_exposition(snap);
    const std::string json = to_json(response, nullptr, &snap);
    const auto expect_everywhere = [&](const std::string& name,
                                       std::uint64_t want) {
        SCOPED_TRACE(name);
        EXPECT_NE(snap.find(name), nullptr);
        EXPECT_EQ(snap.value(name), want);
        EXPECT_NE(prometheus.find(prometheus_line(name, want)),
                  std::string::npos);
        EXPECT_TRUE(json_has(json, name, want));
    };
    const verdict_cache_stats* cache = system.cache_stats();
    EXPECT_NE(cache, nullptr);
    if (cache != nullptr) {
        EXPECT_GT(cache->rounds, 0u);
        verdict_cache_stats::for_each_counter([&](const char* name, auto field) {
            expect_everywhere(std::string{"cache.stats."} + name, cache->*field);
        });
        expect_everywhere("cache.stats.saved_rounds", cache->saved_rounds());
    }
    if (const engine_stats* engine = system.execution_stats()) {
        EXPECT_GT(engine->dispatches, 0u);
        engine_stats::for_each_counter([&](const char* name, auto field) {
            expect_everywhere(std::string{"engine.stats."} + name,
                              engine->*field);
        });
    }
    return snap;
}

TEST(Report, CountersAgreeOnEverySurface) {
    const scenario_ptr snapshot = make_fat_tree_scenario(4);
    deployment_request request;
    request.app = application::k_of_n(2, 3);
    request.desired_reliability = 2.0;  // unreachable: the whole budget runs
    request.max_search_time = std::chrono::seconds{30};
    recloud_options options;
    options.assessment_rounds = 400;
    options.assessment_batch_rounds = 64;
    options.assessment_threads = 2;
    options.max_iterations = 10;
    options.deterministic_schedule = true;
    {
        SCOPED_TRACE("cached parallel search");
        recloud_options parallel = options;
        parallel.backend = assessment_backend_kind::parallel;
        re_cloud system{snapshot, parallel};
        const deployment_response response = system.find_deployment(request);
        (void)expect_surfaces_agree(system, response);
        // The CRN round journal replays in front of the cache.
        ASSERT_NE(system.cache_stats(), nullptr);
        EXPECT_GT(system.cache_stats()->replay_groups, 0u);
    }
    {
        SCOPED_TRACE("engine search over sockets");
        recloud_options engine = options;
        engine.backend = assessment_backend_kind::engine;
        engine.engine_transport = engine_transport_kind::socket;
        engine.engine_worker_binary = RECLOUD_WORKER_BIN;
        re_cloud system{snapshot, engine};
        const deployment_response response = system.find_deployment(request);
        const obs::telemetry_snapshot snap =
            expect_surfaces_agree(system, response);
        ASSERT_NE(system.execution_stats(), nullptr);
        EXPECT_EQ(system.execution_stats()->degraded, 0u);
        EXPECT_NE(snap.find("worker.1.pid"), nullptr);
        // No batch ran master-local, so the per-worker entries sum to the
        // fleet's (support_size is a level, carried rather than summed).
        verdict_cache_stats::for_each_counter([&](const char* name, auto field) {
            if (field == &verdict_cache_stats::support_size) {
                return;
            }
            const std::string suffix = std::string{".cache.stats."} + name;
            EXPECT_EQ(snap.value("worker.0" + suffix) +
                          snap.value("worker.1" + suffix),
                      snap.value(suffix.substr(1)))
                << name;
        });
    }
}

}  // namespace
}  // namespace recloud
