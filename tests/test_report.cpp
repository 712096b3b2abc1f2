#include "report/report.hpp"

#include <gtest/gtest.h>

#include <limits>

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

}  // namespace
}  // namespace recloud
