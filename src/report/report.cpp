#include "report/report.hpp"

#include <cmath>
#include <cstdio>
#include <sstream>

#include "obs/build_info.hpp"

namespace recloud {
namespace {

/// Prints a double with enough digits to round-trip, without trailing cruft.
/// NaN and infinity have no JSON literal — they become null (printing them
/// raw would emit "nan"/"inf" and break every strict parser downstream).
std::string number(double value) {
    if (!std::isfinite(value)) {
        return "null";
    }
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.12g", value);
    return buffer;
}

}  // namespace

std::string json_escape(const std::string& text) {
    std::string out;
    out.reserve(text.size() + 2);
    out.push_back('"');
    for (const char c : text) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\r': out += "\\r"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buffer[8];
                    std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
                    out += buffer;
                } else {
                    out.push_back(c);
                }
        }
    }
    out.push_back('"');
    return out;
}

std::string to_json(const assessment_stats& stats) {
    std::ostringstream out;
    out << "{\"rounds\":" << stats.rounds << ",\"reliable\":" << stats.reliable
        << ",\"reliability\":" << number(stats.reliability)
        << ",\"variance\":" << number(stats.variance)
        << ",\"ciw95\":" << number(stats.ciw95)
        << ",\"replicates\":" << stats.replicates << "}";
    return out.str();
}

std::string to_json(const service_stats& stats) {
    std::ostringstream out;
    out << "{\"submitted\":" << stats.submitted
        << ",\"rejected\":" << stats.rejected
        << ",\"completed\":" << stats.completed
        << ",\"failed\":" << stats.failed
        << ",\"shed_queue_full\":" << stats.shed_queue_full
        << ",\"shed_quota\":" << stats.shed_quota
        << ",\"shed_unmeetable\":" << stats.shed_unmeetable
        << ",\"deadline_met\":" << stats.deadline_met
        << ",\"deadline_missed\":" << stats.deadline_missed
        << ",\"preempted\":" << stats.preempted
        << ",\"peak_queue_depth\":" << stats.peak_queue_depth
        << ",\"shard_queue_depth\":[";
    for (std::size_t s = 0; s < stats.shard_queue_depth.size(); ++s) {
        if (s > 0) {
            out << ",";
        }
        out << stats.shard_queue_depth[s];
    }
    out << "],\"shard_queue_peak\":[";
    for (std::size_t s = 0; s < stats.shard_queue_peak.size(); ++s) {
        if (s > 0) {
            out << ",";
        }
        out << stats.shard_queue_peak[s];
    }
    out << "]}";
    return out.str();
}

std::string to_json(const obs::telemetry_snapshot& snapshot) {
    std::ostringstream out;
    out << "{\"build\":" << build_info_json() << ",\"metrics\":{";
    bool first = true;
    for (const obs::metric_entry& entry : snapshot.metrics) {
        if (!first) {
            out << ",";
        }
        first = false;
        out << json_escape(entry.name) << ":";
        if (entry.kind == obs::metric_kind::histogram) {
            out << "{\"count\":" << entry.histogram.count
                << ",\"sum\":" << entry.histogram.sum
                << ",\"min\":" << entry.histogram.min
                << ",\"max\":" << entry.histogram.max
                << ",\"mean\":" << number(entry.histogram.mean()) << "}";
        } else {
            out << entry.value;
        }
    }
    out << "}}";
    return out.str();
}

std::string to_json(const deployment_response& response,
                    const component_registry* registry,
                    const obs::telemetry_snapshot* telemetry) {
    std::ostringstream out;
    out << "{\"fulfilled\":" << (response.fulfilled ? "true" : "false")
        << ",\"outcome\":\"" << to_string(response.outcome) << "\""
        << ",\"hosts\":[";
    for (std::size_t i = 0; i < response.plan.hosts.size(); ++i) {
        const node_id host = response.plan.hosts[i];
        if (i > 0) {
            out << ",";
        }
        if (registry != nullptr) {
            out << "{\"id\":" << host
                << ",\"name\":" << json_escape(registry->name(host)) << "}";
        } else {
            out << host;
        }
    }
    out << "],\"assessment\":" << to_json(response.stats)
        << ",\"utility\":" << number(response.utility)
        << ",\"score\":" << number(response.score) << ",\"search\":{"
        << "\"plans_generated\":" << response.search.plans_generated
        << ",\"plans_evaluated\":" << response.search.plans_evaluated
        << ",\"symmetric_skips\":" << response.search.symmetric_skips
        << ",\"filtered_plans\":" << response.search.filtered_plans
        << ",\"accepted_worse\":" << response.search.accepted_worse
        << ",\"elapsed_seconds\":" << number(response.search.elapsed_seconds)
        << "}";
    if (telemetry != nullptr) {
        out << ",\"telemetry\":" << to_json(*telemetry);
    }
    out << "}";
    return out.str();
}

std::string to_json(const criticality_report& report,
                    const component_registry& registry) {
    std::ostringstream out;
    out << "{\"baseline\":" << to_json(report.baseline) << ",\"entries\":[";
    for (std::size_t i = 0; i < report.entries.size(); ++i) {
        const criticality_entry& entry = report.entries[i];
        if (i > 0) {
            out << ",";
        }
        out << "{\"component\":" << entry.component
            << ",\"name\":" << json_escape(registry.name(entry.component))
            << ",\"conditional_reliability\":"
            << number(entry.conditional_reliability)
            << ",\"impact\":" << number(entry.impact) << "}";
    }
    out << "]}";
    return out.str();
}

std::string trace_to_csv(const annealing_result& result) {
    std::ostringstream out;
    out << "elapsed_seconds,best_score,best_reliability,plans_evaluated\n";
    for (const annealing_trace_point& point : result.trace) {
        out << number(point.elapsed_seconds) << "," << number(point.best_score)
            << "," << number(point.best_reliability) << ","
            << point.plans_evaluated << "\n";
    }
    return out.str();
}

}  // namespace recloud
