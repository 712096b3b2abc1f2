// Fleet observability-plane overhead: the whole plane on (metrics registry
// + tracer + a telemetry harvest per assessment) versus everything off, on
// the acceptance configuration — 8 recloud_worker processes over Unix
// sockets assessing the medium fat-tree. Recorded into
// BENCH_obs_harvest.json.
//
// Three live asserts (the bench exits non-zero on any):
//   * §6 purity: both arms' assessment_stats are bit-identical, rep by rep;
//   * harvest equivalence (DESIGN §12): the counters pulled back from the
//     socket fleet equal what a same-seed loopback fleet writes into the
//     shared registry directly;
//   * the <2% gate: median obs-on wall time within 2% of obs-off.
//
// Worker binary resolution: $RECLOUD_WORKER_BIN when set, else the
// build-tree path baked in at compile time.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "exec/engine.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "routing/bfs_reachability.hpp"
#include "sampling/extended_dagger.hpp"
#include "topology/fat_tree.hpp"

namespace {

using namespace recloud;

std::string iso_now() {
    char buffer[32];
    const std::time_t now = std::time(nullptr);
    std::tm utc{};
    gmtime_r(&now, &utc);
    std::strftime(buffer, sizeof buffer, "%FT%TZ", &utc);
    return buffer;
}

double median(std::vector<double> values) {
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

bool identical(const assessment_stats& a, const assessment_stats& b) {
    return a.rounds == b.rounds && a.reliable == b.reliable &&
           a.reliability == b.reliability && a.variance == b.variance &&
           a.ciw95 == b.ciw95;
}

}  // namespace

int main() {
    using recloud::bench::full_scale;
    recloud::bench::print_header(
        "fleet observability plane overhead (8 socket workers, harvest on)",
        "§6 purity + DESIGN §12 <2% overhead gate");

    const fat_tree tree = fat_tree::build(data_center_scale::medium);
    const built_topology& topo = tree.topology();
    component_registry registry{topo.graph};
    fault_tree_forest forest{topo.graph.node_count()};
    for (component_id id = 0; id < registry.size(); ++id) {
        if (registry.kind(id) != component_kind::external) {
            registry.set_probability(id, 0.002);
        }
    }
    const application app = application::k_of_n(2, 4);
    deployment_plan plan;
    plan.hosts = {topo.hosts[0], topo.hosts[700], topo.hosts[1500],
                  topo.hosts[3000]};
    // Enough rounds that the per-assessment harvest round-trip amortizes
    // the way it does in production (one pull per assessment or scrape,
    // not per batch); at the test suite's 1500 rounds the fixed ~3 ms
    // harvest would dominate a ~50 ms assessment.
    const std::size_t rounds = full_scale() ? 20'000 : 10'000;
    const std::size_t reps = full_scale() ? 9 : 5;
    constexpr std::size_t workers = 8;
    constexpr std::uint64_t seed = 777;

    engine_options options;
    options.workers = workers;
    options.batch_rounds = 128;
    options.transport = transport_kind::socket;
    options.topology = &topo;
    if (const char* bin = std::getenv("RECLOUD_WORKER_BIN");
        bin != nullptr && bin[0] != '\0') {
        options.socket.worker_binary = bin;
    } else {
        options.socket.worker_binary = RECLOUD_WORKER_BIN;
    }

    const auto factory = [&topo] {
        return std::make_unique<bfs_reachability>(topo);
    };

    auto& reg = obs::metrics_registry::global();
    auto& tracer = obs::tracer::global();

    // One arm: fresh engine, one timed assessment (+ harvest when the plane
    // is on). Spawn/shutdown stay outside the stopwatch — the plane's cost
    // is per-assessment, the fleet is long-lived in production.
    // route.floods is the equivalence probe: it is incremented inside the
    // worker contexts (remote for sockets), so it only reaches this
    // registry through the harvest.
    std::uint64_t harvested_floods = 0;
    const auto run_arm = [&](bool obs_on, std::vector<double>& ms_out,
                             std::vector<assessment_stats>& stats_out) {
        reg.reset();
        reg.set_enabled(obs_on);
        if (obs_on) {
            tracer.start();
        }
        {
            extended_dagger_sampler sampler{registry.probabilities(), seed};
            assessment_engine engine{registry.size(), &forest, factory,
                                     sampler, options};
            (void)engine.assess(app, plan, rounds);  // warmup
            for (std::size_t rep = 0; rep < reps; ++rep) {
                // Rewound stream per rep: every rep assesses the identical
                // batches, so the arms compare rep by rep.
                engine.reset_stream(seed);
                stopwatch watch;
                stats_out.push_back(engine.assess(app, plan, rounds));
                if (obs_on) {
                    engine.harvest_telemetry();
                }
                ms_out.push_back(watch.elapsed_ms());
            }
        }
        if (obs_on) {
            harvested_floods = reg.snapshot().value("route.floods");
            tracer.stop();
            tracer.reset();
        }
        reg.set_enabled(false);
        reg.reset();
    };

    std::vector<double> off_ms;
    std::vector<double> on_ms;
    std::vector<assessment_stats> off_stats;
    std::vector<assessment_stats> on_stats;
    run_arm(false, off_ms, off_stats);
    run_arm(true, on_ms, on_stats);

    bool bit_identical = true;
    std::printf("\n%-6s %12s %12s %8s\n", "rep", "off ms", "on ms", "same");
    for (std::size_t rep = 0; rep < reps; ++rep) {
        const bool same = identical(off_stats[rep], on_stats[rep]);
        bit_identical = bit_identical && same;
        std::printf("%-6zu %12.1f %12.1f %8s\n", rep, off_ms[rep], on_ms[rep],
                    same ? "yes" : "NO");
    }

    // Harvest equivalence: a same-seed loopback fleet (same warmup + reps
    // shape) writes the registry directly; the socket harvests must have
    // pulled back the identical totals across the process boundary.
    std::uint64_t loopback_floods = 0;
    {
        reg.reset();
        reg.set_enabled(true);
        engine_options loopback;
        loopback.workers = workers;
        loopback.batch_rounds = options.batch_rounds;
        extended_dagger_sampler sampler{registry.probabilities(), seed};
        assessment_engine engine{registry.size(), &forest, factory, sampler,
                                 loopback};
        for (std::size_t rep = 0; rep < reps + 1; ++rep) {  // warmup + reps
            engine.reset_stream(seed);
            (void)engine.assess(app, plan, rounds);
        }
        loopback_floods = reg.snapshot().value("route.floods");
        reg.set_enabled(false);
        reg.reset();
    }
    const bool harvest_equivalent =
        harvested_floods == loopback_floods && harvested_floods > 0;

    const double off_median = median(off_ms);
    const double on_median = median(on_ms);
    const double overhead_pct =
        off_median > 0.0 ? 100.0 * (on_median - off_median) / off_median
                         : 0.0;
    constexpr double gate_pct = 2.0;
    std::printf("\nmedian: off %.1f ms, on %.1f ms -> overhead %+.2f%% "
                "(gate < %.1f%%)\n",
                off_median, on_median, overhead_pct, gate_pct);
    std::printf("harvested route.floods %llu, loopback %llu (%s)\n",
                static_cast<unsigned long long>(harvested_floods),
                static_cast<unsigned long long>(loopback_floods),
                harvest_equivalent ? "equivalent" : "MISMATCH");

    const char* path = "BENCH_obs_harvest.json";
    std::FILE* out = std::fopen(path, "w");
    if (out == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", path);
        return 1;
    }
    std::fprintf(out, "{\n  \"context\": {\n");
    std::fprintf(out, "    \"date\": \"%s\",\n", iso_now().c_str());
    std::fprintf(out, "    \"num_cpus\": %u,\n",
                 std::thread::hardware_concurrency());
    std::fprintf(out, "    \"topology\": \"fat-tree medium (k=24)\",\n");
    std::fprintf(out, "    \"workers\": %zu,\n", workers);
    std::fprintf(out, "    \"transport\": \"socket\",\n");
    std::fprintf(out, "    \"rounds\": %zu,\n", rounds);
    std::fprintf(out, "    \"reps\": %zu,\n", reps);
    std::fprintf(out, "    \"full_scale\": %s\n",
                 full_scale() ? "true" : "false");
    std::fprintf(out, "  },\n  \"samples_ms\": {\n    \"obs_off\": [");
    for (std::size_t i = 0; i < off_ms.size(); ++i) {
        std::fprintf(out, "%s%.2f", i == 0 ? "" : ", ", off_ms[i]);
    }
    std::fprintf(out, "],\n    \"obs_on\": [");
    for (std::size_t i = 0; i < on_ms.size(); ++i) {
        std::fprintf(out, "%s%.2f", i == 0 ? "" : ", ", on_ms[i]);
    }
    std::fprintf(out, "]\n  },\n  \"summary\": {\n");
    std::fprintf(out, "    \"off_median_ms\": %.2f,\n", off_median);
    std::fprintf(out, "    \"on_median_ms\": %.2f,\n", on_median);
    std::fprintf(out, "    \"overhead_pct\": %.3f,\n", overhead_pct);
    std::fprintf(out, "    \"gate_pct\": %.1f,\n", gate_pct);
    std::fprintf(out, "    \"bit_identical\": %s,\n",
                 bit_identical ? "true" : "false");
    std::fprintf(out, "    \"harvested_route_floods\": %llu,\n",
                 static_cast<unsigned long long>(harvested_floods));
    std::fprintf(out, "    \"loopback_route_floods\": %llu,\n",
                 static_cast<unsigned long long>(loopback_floods));
    std::fprintf(out, "    \"harvest_equivalent\": %s\n",
                 harvest_equivalent ? "true" : "false");
    std::fprintf(out, "  }\n}\n");
    std::fclose(out);
    std::printf("wrote %s\n", path);

    if (!bit_identical) {
        std::fprintf(stderr, "FAIL: obs-on stats diverged from obs-off\n");
        return 1;
    }
    if (!harvest_equivalent) {
        std::fprintf(stderr, "FAIL: harvested counters != loopback fleet\n");
        return 1;
    }
    if (overhead_pct >= gate_pct) {
        std::fprintf(stderr, "FAIL: observability overhead %.2f%% >= %.1f%%\n",
                     overhead_pct, gate_pct);
        return 1;
    }
    return 0;
}
