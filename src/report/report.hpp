// Machine-readable result exports: JSON for deployment responses and
// criticality reports, CSV for search traces. Deployment pipelines consume
// these instead of scraping log output; the CLI writes them when the
// scenario's [output] section asks for it.
#pragma once

#include <string>

#include "assess/criticality.hpp"
#include "core/recloud.hpp"
#include "obs/metrics.hpp"
#include "search/annealing.hpp"
#include "service/deployment_service.hpp"

namespace recloud {

/// Escapes a string for inclusion in a JSON document (quotes included).
[[nodiscard]] std::string json_escape(const std::string& text);

/// {"rounds":..,"reliable":..,"reliability":..,"variance":..,"ciw95":..,
/// "replicates":..} — replicates 0 means V is the binomial Eq. 2.
[[nodiscard]] std::string to_json(const assessment_stats& stats);

/// Full deployment response: fulfilled flag, plan hosts, assessment, and
/// search telemetry. `registry` (optional) adds component names to hosts;
/// `telemetry` (optional, from re_cloud::telemetry()) appends the unified
/// metrics snapshot — engine and verdict-cache gauges included — as a
/// "telemetry" object.
[[nodiscard]] std::string to_json(
    const deployment_response& response,
    const component_registry* registry = nullptr,
    const obs::telemetry_snapshot* telemetry = nullptr);

/// Deployment-service admission counters (service/deployment_service.hpp):
/// {"submitted":..,"rejected":..,"completed":..,"failed":..,
///  "shed_queue_full":..,"shed_quota":..,"peak_queue_depth":..,
///  "shard_queue_depth":[..],"shard_queue_peak":[..]}
[[nodiscard]] std::string to_json(const service_stats& stats);

/// Unified metrics snapshot (obs/metrics.hpp): {"build":{..},"metrics":{..}}
/// with one key per metric, sorted by name. Counters and gauges export their
/// value; histograms export {"count":..,"sum":..,"min":..,"max":..,"mean":..}.
[[nodiscard]] std::string to_json(const obs::telemetry_snapshot& snapshot);

/// Criticality report, entries in rank order.
[[nodiscard]] std::string to_json(const criticality_report& report,
                                  const component_registry& registry);

/// CSV of the search trace: one row per best-score improvement.
/// Columns: elapsed_seconds,best_score,best_reliability,plans_evaluated.
[[nodiscard]] std::string trace_to_csv(const annealing_result& result);

}  // namespace recloud
