// recloud_cli — scenario-driven command line front end.
//
//   $ ./recloud_cli scenario.conf
//   $ ./recloud_cli --sample-config > scenario.conf
//
// Reads an INI-style scenario (data center, application structure, search
// parameters), runs the reCloud workflow, and prints the resulting plan
// with its quantitative assessment. Demonstrates how a deployment pipeline
// would embed the library without writing C++ per scenario.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "assess/downtime.hpp"
#include "core/recloud.hpp"
#include "service/deployment_service.hpp"
#include "exec/engine.hpp"
#include "obs/build_info.hpp"
#include "obs/metrics.hpp"
#include "obs/timeline.hpp"
#include "obs/trace.hpp"
#include "routing/bfs_reachability.hpp"
#include "topology/bcube.hpp"
#include "topology/jellyfish.hpp"
#include "topology/leaf_spine.hpp"
#include "topology/vl2.hpp"
#include "report/report.hpp"
#include "util/config.hpp"

namespace {

using namespace recloud;

constexpr const char* sample_config = R"(# reCloud scenario
[datacenter]
topology = fat-tree       # fat-tree | leaf-spine | vl2 | jellyfish | bcube
scale = small             # fat-tree presets: tiny | small | medium | large
power_supplies = 5
model_links = false
seed = 42

[application]
structure = k-of-n        # k-of-n | layered | microservice
k = 4
n = 5
layers = 2                # layered only
cores = 3                 # microservice only
supports = 5              # microservice only

[search]
max_seconds = 5
desired_downtime_hours = 160
rounds = 10000
sampler = dagger          # dagger | monte-carlo
backend = serial          # serial | parallel | engine (assessment execution)
threads = 0               # parallel/engine workers; 0 = all hardware threads
max_attempts = 3          # engine only: dispatch attempts per batch before
                          # degrading to master-local route-and-check
deadline_ms = 0           # engine only: per-attempt result deadline; 0 = none
transport = loopback      # engine only: loopback | socket (real recloud_worker
                          # processes; bit-identical results, master respawns
                          # crashed workers)
worker_binary =           # socket transport: worker executable; empty =
                          # $RECLOUD_WORKER_BIN, then next to this binary, then PATH
max_respawns = 16         # socket transport: respawn budget per worker slot
verdict_cache = true      # memoize round verdicts across plans and replay
                          # CRN journals (bit-identical results)
multi_objective = false
symmetry = true
seed = 1
chains = 1                # K independent annealing chains; best plan wins
chain_threads = 0         # threads running chains; 0 = all hardware threads
                          # (the result is bit-identical for any value)
max_iterations = 0        # finite iteration budget; 0 = time-driven only
deterministic = false     # iteration-driven schedule: reruns are bit-identical
                          # (requires max_iterations > 0)

[service]
requests = 0              # > 0: replay the request N times (seeds seed..seed+N-1)
                          # through the concurrent deployment service instead of
                          # one inline search
workers = 2               # concurrent searches per shard
queue_capacity = 64       # admission bound per shard; overflow sheds as `rejected`
shards = 1                # independent queue+worker shards; a scenario's requests
                          # always land on hash(scenario) % shards
tenant_quota = 0          # max in-flight requests per tenant; 0 = unlimited
scheduling = edf          # edf | fifo: deadline-ordered admission with shedding
                          # and cooperative preemption, or strict arrival order
                          # (fifo still measures deadline hits, never enforces)
slo_deadline_ms = 0       # per-request SLO deadline over the whole lifecycle
                          # (queue wait + search + response); 0 = none — the
                          # request is never shed or preempted
min_grant_ms = 0          # admission floor: shed a deadline request that cannot
                          # get at least this much search time before its
                          # deadline; 0 disables admission-time shedding
headroom_ms = 0           # slice of the deadline reserved for response assembly
                          # when arming the search's run budget

[observability]
metrics = true            # metrics registry (counters/gauges/histograms)
trace = false             # scoped-span capture; view at https://ui.perfetto.dev
trace_path = trace.json   # Chrome trace-event JSON, written when tracing is on
# timeline = timeline.jsonl # per-iteration search timeline (JSONL; empty = off)
heartbeat_ms = 1000       # timeline progress heartbeat; 0 disables it
# admin_socket = /tmp/recloud-admin.sock # live introspection endpoint for
                          # [service] runs: HTTP over a Unix socket serving
                          # /metrics (Prometheus), /status, /healthz, /trace
                          #   curl --unix-socket <path> http://localhost/metrics
# RECLOUD_TRACE=1 forces tracing on (0/off/false force it off) and
# RECLOUD_TRACE_PATH overrides trace_path, both without editing this file.

[output]
# json = result.json        # machine-readable deployment report
# trace_csv = trace.csv     # best-score improvements over time
)";

/// Everything the [observability] section switched on for this run.
struct observability_session {
    bool trace = false;
    std::string trace_path;
    std::string timeline_path;
    std::unique_ptr<obs::search_timeline> timeline;
};

observability_session setup_observability(const config& cfg) {
    observability_session session;
    obs::metrics_registry::global().set_enabled(
        cfg.get_bool("observability.metrics", true));
    session.trace = cfg.get_bool("observability.trace", false);
    const int forced = obs::trace_env_override();
    if (forced >= 0) {
        session.trace = forced != 0;
    }
    session.trace_path = obs::trace_env_path(
        cfg.get_string("observability.trace_path", "trace.json"));
    if (session.trace) {
        obs::tracer::global().start();
    }
    session.timeline_path = cfg.get_string("observability.timeline", "");
    if (!session.timeline_path.empty()) {
        session.timeline = std::make_unique<obs::search_timeline>(
            session.timeline_path,
            std::chrono::milliseconds{static_cast<std::int64_t>(
                cfg.get_uint("observability.heartbeat_ms", 1000))});
    }
    return session;
}

/// Stops the capture and writes the artifacts the session asked for.
void finish_observability(observability_session& session) {
    if (session.trace) {
        obs::tracer& tracer = obs::tracer::global();
        tracer.stop();
        if (tracer.export_to_file(session.trace_path)) {
            std::printf("wrote trace to %s (%llu spans, %llu dropped)\n",
                        session.trace_path.c_str(),
                        static_cast<unsigned long long>(tracer.captured()),
                        static_cast<unsigned long long>(tracer.dropped()));
        } else {
            std::fprintf(stderr, "warning: cannot write %s\n",
                         session.trace_path.c_str());
        }
    }
    if (session.timeline != nullptr) {
        std::printf("wrote search timeline to %s (%llu records)\n",
                    session.timeline_path.c_str(),
                    static_cast<unsigned long long>(session.timeline->records()));
    }
}

application build_application(const config& cfg) {
    const std::string structure =
        cfg.get_string("application.structure", "k-of-n");
    const auto k = static_cast<std::uint32_t>(cfg.get_int("application.k", 4));
    const auto n = static_cast<std::uint32_t>(cfg.get_int("application.n", 5));
    if (structure == "k-of-n") {
        return application::k_of_n(k, n);
    }
    if (structure == "layered") {
        return application::layered(
            static_cast<std::uint32_t>(cfg.get_int("application.layers", 2)), k, n);
    }
    if (structure == "microservice") {
        return application::microservice(
            static_cast<std::uint32_t>(cfg.get_int("application.cores", 3)),
            static_cast<std::uint32_t>(cfg.get_int("application.supports", 5)), k,
            n);
    }
    throw config_error{"unknown application.structure: " + structure};
}

assessment_backend_kind parse_backend(const std::string& name) {
    if (name == "serial") {
        return assessment_backend_kind::serial;
    }
    if (name == "parallel") {
        return assessment_backend_kind::parallel;
    }
    if (name == "engine") {
        return assessment_backend_kind::engine;
    }
    throw config_error{"unknown search.backend: " + name};
}

engine_transport_kind parse_transport(const std::string& name) {
    if (name == "loopback") {
        return engine_transport_kind::loopback;
    }
    if (name == "socket") {
        return engine_transport_kind::socket;
    }
    throw config_error{"unknown search.transport: " + name};
}

sampler_kind parse_sampler(const std::string& name) {
    if (name == "dagger") {
        return sampler_kind::extended_dagger;
    }
    if (name == "monte-carlo") {
        return sampler_kind::monte_carlo;
    }
    throw config_error{"unknown search.sampler: " + name};
}

recloud_options build_options(const config& cfg,
                              const observability_session& session) {
    recloud_options options;
    if (session.timeline != nullptr) {
        obs::search_timeline* timeline = session.timeline.get();
        options.observer = [timeline](const obs::search_iteration_event& event) {
            timeline->on_event(event);
        };
    }
    options.assessment_rounds =
        static_cast<std::size_t>(cfg.get_uint("search.rounds", 10000));
    options.sampler = parse_sampler(cfg.get_string("search.sampler", "dagger"));
    options.backend = parse_backend(cfg.get_string("search.backend", "serial"));
    options.assessment_threads =
        static_cast<std::size_t>(cfg.get_uint("search.threads", 0));
    options.engine_max_attempts =
        static_cast<std::size_t>(cfg.get_uint("search.max_attempts", 3));
    options.engine_batch_deadline = std::chrono::milliseconds{
        static_cast<std::int64_t>(cfg.get_uint("search.deadline_ms", 0))};
    options.engine_transport =
        parse_transport(cfg.get_string("search.transport", "loopback"));
    options.engine_worker_binary = cfg.get_string("search.worker_binary", "");
    options.engine_max_respawns =
        static_cast<std::size_t>(cfg.get_uint("search.max_respawns", 16));
    options.verdict_cache = cfg.get_bool("search.verdict_cache", true);
    options.multi_objective = cfg.get_bool("search.multi_objective", false);
    options.use_symmetry = cfg.get_bool("search.symmetry", true);
    options.seed = cfg.get_uint("search.seed", 1);
    options.search_chains = static_cast<std::size_t>(
        cfg.get_uint("search.chains", 1));
    options.search_threads = static_cast<std::size_t>(
        cfg.get_uint("search.chain_threads", 0));
    const auto iterations =
        static_cast<std::size_t>(cfg.get_uint("search.max_iterations", 0));
    if (iterations > 0) {
        options.max_iterations = iterations;
    }
    options.deterministic_schedule = cfg.get_bool("search.deterministic", false);
    options.record_trace = !cfg.get_string("output.trace_csv", "").empty();
    return options;
}

deployment_request build_request(const config& cfg, application app) {
    deployment_request request;
    request.app = std::move(app);
    request.desired_reliability = reliability_for_downtime(
        cfg.get_double("search.desired_downtime_hours", 130.0));
    request.max_search_time = std::chrono::milliseconds{static_cast<long long>(
        cfg.get_double("search.max_seconds", 5.0) * 1000.0)};
    return request;
}

void write_outputs(const config& cfg, const deployment_response& response,
                   const component_registry& registry,
                   const obs::telemetry_snapshot& telemetry) {
    const std::string json_path = cfg.get_string("output.json", "");
    if (!json_path.empty()) {
        std::FILE* out = std::fopen(json_path.c_str(), "w");
        if (out == nullptr) {
            throw config_error{"cannot write " + json_path};
        }
        const std::string json = to_json(response, &registry, &telemetry);
        std::fwrite(json.data(), 1, json.size(), out);
        std::fputc('\n', out);
        std::fclose(out);
        std::printf("wrote JSON report to %s\n", json_path.c_str());
    }
    const std::string csv_path = cfg.get_string("output.trace_csv", "");
    if (!csv_path.empty()) {
        std::FILE* out = std::fopen(csv_path.c_str(), "w");
        if (out == nullptr) {
            throw config_error{"cannot write " + csv_path};
        }
        const std::string csv = trace_to_csv(response.search);
        std::fwrite(csv.data(), 1, csv.size(), out);
        std::fclose(out);
        std::printf("wrote search trace to %s\n", csv_path.c_str());
    }
}

void report(const deployment_response& response, const built_topology& topo,
            const engine_stats* engine, const verdict_cache_stats* cache,
            std::size_t chains = 1) {
    std::printf("fulfilled:        %s\n", response.fulfilled ? "yes" : "no");
    std::printf("outcome:          %s\n", to_string(response.outcome));
    // Which estimator produced the CIW95: batch replicates or Eq. 2.
    const std::string estimator =
        response.stats.replicates != 0
            ? std::to_string(response.stats.replicates) + " replicates"
            : "binomial";
    std::printf("reliability:      %.5f (95%% CI width %.2e, %s)\n",
                response.stats.reliability, response.stats.ciw95,
                estimator.c_str());
    std::printf("annual downtime:  %.1f hours\n",
                annual_downtime_hours(response.stats.reliability));
    std::printf("plans: generated=%zu assessed=%zu symmetric-skips=%zu in %.2fs\n",
                response.search.plans_generated, response.search.plans_evaluated,
                response.search.symmetric_skips, response.search.elapsed_seconds);
    if (chains > 1) {
        std::printf("winning chain:    %u of %zu\n", response.winning_chain,
                    chains);
    }
    if (engine != nullptr) {
        std::printf("engine: batches=%llu dispatches=%llu retries=%llu "
                    "re-dispatches=%llu degraded=%llu failures=%llu\n",
                    static_cast<unsigned long long>(engine->batches),
                    static_cast<unsigned long long>(engine->dispatches),
                    static_cast<unsigned long long>(engine->retries),
                    static_cast<unsigned long long>(engine->redispatches),
                    static_cast<unsigned long long>(engine->degraded),
                    static_cast<unsigned long long>(engine->failures()));
        std::printf("engine: sent=%.1f MiB received=%.1f MiB\n",
                    static_cast<double>(engine->bytes_sent) / (1024.0 * 1024.0),
                    static_cast<double>(engine->bytes_received) /
                        (1024.0 * 1024.0));
    }
    if (cache != nullptr) {
        std::printf("verdict cache: hit-rate=%.1f%% (empty=%llu signature=%llu "
                    "of %llu rounds) support=%llu evictions=%llu\n",
                    cache->hit_rate() * 100.0,
                    static_cast<unsigned long long>(cache->empty_hits),
                    static_cast<unsigned long long>(cache->hits),
                    static_cast<unsigned long long>(cache->rounds),
                    static_cast<unsigned long long>(cache->support_size),
                    static_cast<unsigned long long>(cache->evictions));
        if (cache->warm_rebinds > 0) {
            std::printf(
                "  cross-plan: warm=%llu cold=%llu retained=%llu hits=%llu\n",
                static_cast<unsigned long long>(cache->warm_rebinds),
                static_cast<unsigned long long>(cache->cold_rebinds),
                static_cast<unsigned long long>(cache->retained_entries),
                static_cast<unsigned long long>(cache->cross_plan_hits));
        }
        if (cache->replay_groups > 0) {
            // Replayed groups whose verdict the journal kept never reach the
            // cache, so its hit rate alone understates the reuse.
            std::printf(
                "  journal: replayed=%llu groups re-judged=%llu (%.1f%%)\n",
                static_cast<unsigned long long>(cache->replay_groups),
                static_cast<unsigned long long>(cache->replay_rejudged),
                100.0 * static_cast<double>(cache->replay_rejudged) /
                    static_cast<double>(cache->replay_groups));
        }
    }
    std::printf("placement:\n");
    for (const node_id host : response.plan.hosts) {
        std::printf("  host#%-6u rack=switch#%u\n", host,
                    rack_of(topo.graph, host));
    }
}

/// [service] replay: N developer requests (seeds seed..seed+N-1) race
/// through the bounded-queue deployment service against ONE shared
/// snapshot. Exit 0 iff every request completed with R_desired fulfilled.
int run_service(const config& cfg, const application& app,
                const scenario_ptr& snapshot, recloud_options options,
                const deployment_request& request) {
    const auto count =
        static_cast<std::size_t>(cfg.get_uint("service.requests", 0));
    if (options.observer) {
        // The CLI timeline writer is single-threaded; several request
        // searches share it, so serialize delivery.
        auto gate = std::make_shared<std::mutex>();
        options.observer = [gate, observer = options.observer](
                               const obs::search_iteration_event& event) {
            const std::lock_guard<std::mutex> lock{*gate};
            observer(event);
        };
    }
    service_options service_cfg;
    service_cfg.workers =
        static_cast<std::size_t>(cfg.get_uint("service.workers", 2));
    service_cfg.queue_capacity =
        static_cast<std::size_t>(cfg.get_uint("service.queue_capacity", 64));
    service_cfg.shards =
        static_cast<std::size_t>(cfg.get_uint("service.shards", 1));
    service_cfg.tenant_quota =
        static_cast<std::size_t>(cfg.get_uint("service.tenant_quota", 0));
    const std::string scheduling =
        cfg.get_string("service.scheduling", "edf");
    if (scheduling == "fifo") {
        service_cfg.scheduling = scheduling_policy::fifo;
    } else if (scheduling == "edf") {
        service_cfg.scheduling = scheduling_policy::edf;
    } else {
        throw config_error{"unknown service.scheduling: " + scheduling};
    }
    service_cfg.min_service_grant = std::chrono::milliseconds{
        static_cast<std::int64_t>(cfg.get_uint("service.min_grant_ms", 0))};
    service_cfg.deadline_headroom = std::chrono::milliseconds{
        static_cast<std::int64_t>(cfg.get_uint("service.headroom_ms", 0))};
    const std::chrono::milliseconds slo_deadline{
        static_cast<std::int64_t>(cfg.get_uint("service.slo_deadline_ms", 0))};
    service_cfg.admin_socket =
        cfg.get_string("observability.admin_socket", "");
    service_cfg.defaults = options;
    deployment_service service{service_cfg};
    service.add_scenario(snapshot->name(), snapshot);
    std::printf(
        "service:          %zu requests on %zu shard(s) x %zu workers "
        "(queue %zu/shard, tenant quota %zu)\n",
        count, service_cfg.shards, service_cfg.workers,
        service_cfg.queue_capacity, service_cfg.tenant_quota);
    if (!service_cfg.admin_socket.empty()) {
        std::printf(
            "admin endpoint:   %s (/metrics /status /healthz /trace)\n",
            service_cfg.admin_socket.c_str());
    }

    std::vector<std::future<service_response>> futures;
    futures.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        service_request pending;
        pending.scenario = snapshot->name();
        pending.app = app;
        pending.desired_reliability = request.desired_reliability;
        pending.max_search_time = request.max_search_time;
        pending.slo_deadline = slo_deadline;
        pending.seed = options.seed + i;
        futures.push_back(service.submit(std::move(pending)));
    }
    std::size_t fulfilled = 0;
    bool all_completed = true;
    for (auto& future : futures) {
        const service_response response = future.get();
        if (response.status == request_status::completed) {
            std::printf(
                "  request#%-4llu %-9s R=%.5f outcome=%-17s chain=%u\n",
                static_cast<unsigned long long>(response.request_id),
                to_string(response.status),
                response.result.stats.reliability,
                to_string(response.result.outcome),
                response.result.winning_chain);
            fulfilled += response.result.fulfilled ? 1 : 0;
        } else {
            all_completed = false;
            std::printf("  request#%-4llu %-9s %s\n",
                        static_cast<unsigned long long>(response.request_id),
                        to_string(response.status), response.error.c_str());
        }
    }
    const service_stats stats = service.stats();
    std::printf("service: submitted=%llu completed=%llu rejected=%llu "
                "(queue_full=%llu quota=%llu) failed=%llu peak-queue=%zu\n",
                static_cast<unsigned long long>(stats.submitted),
                static_cast<unsigned long long>(stats.completed),
                static_cast<unsigned long long>(stats.rejected),
                static_cast<unsigned long long>(stats.shed_queue_full),
                static_cast<unsigned long long>(stats.shed_quota),
                static_cast<unsigned long long>(stats.failed),
                stats.peak_queue_depth);
    if (slo_deadline.count() > 0) {
        std::printf("service: deadlines met=%llu missed=%llu "
                    "shed-unmeetable=%llu preempted=%llu\n",
                    static_cast<unsigned long long>(stats.deadline_met),
                    static_cast<unsigned long long>(stats.deadline_missed),
                    static_cast<unsigned long long>(stats.shed_unmeetable),
                    static_cast<unsigned long long>(stats.preempted));
    }
    return all_completed && fulfilled == count ? 0 : 2;
}

int run_fat_tree(const config& cfg, const application& app,
                 const observability_session& session) {
    infrastructure_options infra_options;
    infra_options.power.supply_count = static_cast<std::size_t>(
        cfg.get_int("datacenter.power_supplies", 5));
    infra_options.model_link_failures =
        cfg.get_bool("datacenter.model_links", false);
    infra_options.seed =
        static_cast<std::uint64_t>(cfg.get_int("datacenter.seed", 42));

    const std::string scale = cfg.get_string("datacenter.scale", "small");
    fat_tree_infrastructure infra = [&] {
        if (scale == "tiny") {
            return fat_tree_infrastructure::build(data_center_scale::tiny,
                                                  infra_options);
        }
        if (scale == "small") {
            return fat_tree_infrastructure::build(data_center_scale::small,
                                                  infra_options);
        }
        if (scale == "medium") {
            return fat_tree_infrastructure::build(data_center_scale::medium,
                                                  infra_options);
        }
        if (scale == "large") {
            return fat_tree_infrastructure::build(data_center_scale::large,
                                                  infra_options);
        }
        return fat_tree_infrastructure::build(
            static_cast<int>(cfg.get_int("datacenter.k", 8)), infra_options);
    }();
    std::printf("infrastructure:   %s (%zu hosts, %zu components)\n",
                infra.topology().name.c_str(), infra.topology().hosts.size(),
                infra.registry().size());

    const scenario_ptr snapshot = make_fat_tree_scenario(infra);
    const recloud_options options = build_options(cfg, session);
    const deployment_request request = build_request(cfg, app);
    if (cfg.get_uint("service.requests", 0) > 0) {
        return run_service(cfg, app, snapshot, options, request);
    }
    re_cloud system{snapshot, options};
    std::printf("assessment:       %s backend\n", system.backend().name());
    const deployment_response response = system.find_deployment(request);
    // Harvest first: socket workers ship their cache counters back only then.
    const obs::telemetry_snapshot telemetry = system.telemetry();
    report(response, infra.topology(), system.execution_stats(),
           system.cache_stats(), options.search_chains);
    write_outputs(cfg, response, infra.registry(), telemetry);
    return response.fulfilled ? 0 : 2;
}

int run_generic(const config& cfg, const application& app, built_topology topo,
                const observability_session& session) {
    component_registry registry{topo.graph};
    fault_tree_forest forest{topo.graph.node_count()};
    const power_assignment power = attach_power_supplies(
        topo, registry, forest,
        {.supply_count = static_cast<std::size_t>(
             cfg.get_int("datacenter.power_supplies", 5))});
    (void)power;
    std::optional<link_attachment> links;
    if (cfg.get_bool("datacenter.model_links", false)) {
        links = attach_link_components(topo, registry);
    }
    rng random{static_cast<std::uint64_t>(cfg.get_int("datacenter.seed", 42))};
    assign_paper_probabilities(registry, random);
    workload_map workloads{topo, random};
    bfs_reachability oracle{topo, links ? &*links : nullptr};

    scenario_builder builder;
    builder.topology(topo).registry(registry).forest(forest).oracle(oracle)
        .workloads(workloads);
    if (links) {
        builder.links(*links);
    }
    const scenario_ptr snapshot = builder.freeze();

    std::printf("infrastructure:   %s (%zu hosts, %zu components)\n",
                topo.name.c_str(), topo.hosts.size(), registry.size());
    const recloud_options options = build_options(cfg, session);
    const deployment_request request = build_request(cfg, app);
    if (cfg.get_uint("service.requests", 0) > 0) {
        return run_service(cfg, app, snapshot, options, request);
    }
    re_cloud system{snapshot, options};
    std::printf("assessment:       %s backend\n", system.backend().name());
    const deployment_response response = system.find_deployment(request);
    const obs::telemetry_snapshot telemetry = system.telemetry();  // harvests
    report(response, topo, system.execution_stats(), system.cache_stats(),
           options.search_chains);
    write_outputs(cfg, response, registry, telemetry);
    return response.fulfilled ? 0 : 2;
}

int dispatch_scenario(const config& cfg, const application& app,
                      const observability_session& session) {
    const std::string topology =
        cfg.get_string("datacenter.topology", "fat-tree");
    if (topology == "fat-tree") {
        return run_fat_tree(cfg, app, session);
    }
    if (topology == "leaf-spine") {
        return run_generic(cfg, app, build_leaf_spine({}), session);
    }
    if (topology == "vl2") {
        return run_generic(cfg, app, build_vl2({}), session);
    }
    if (topology == "jellyfish") {
        return run_generic(cfg, app,
                           build_jellyfish({.switches = 24, .degree = 6,
                                            .hosts_per_switch = 4,
                                            .border_switches = 2}),
                           session);
    }
    if (topology == "bcube") {
        return run_generic(cfg, app, build_bcube({.ports = 4, .levels = 2}),
                           session);
    }
    throw config_error{"unknown datacenter.topology: " + topology};
}

int run_scenario(const config& cfg) {
    std::printf("%s\n", build_info_banner().c_str());
    const application app = build_application(cfg);
    observability_session session = setup_observability(cfg);
    const int code = dispatch_scenario(cfg, app, session);
    finish_observability(session);
    return code;
}

}  // namespace

int main(int argc, char** argv) {
    if (argc == 2 && std::strcmp(argv[1], "--sample-config") == 0) {
        std::fputs(sample_config, stdout);
        return 0;
    }
    if (argc != 2) {
        std::fprintf(stderr,
                     "usage: %s <scenario.conf>\n"
                     "       %s --sample-config   # print a template\n",
                     argv[0], argv[0]);
        return 64;
    }
    try {
        return run_scenario(recloud::config::parse_file(argv[1]));
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
