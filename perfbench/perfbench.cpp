// reCloud benchmark binary: runs one workload for a fixed time and prints
// its raw measurements as one JSON object on stdout. perfbench/run.py builds
// this binary, turns the raw samples into the named metrics and checks them.
//
//   recloud_perfbench --workload search|assess --seed N --seconds S
//                     --trace 0|1
//
// Every workload runs the same three phases, so every run can report every
// end-to-end metric. A run makes passes over a fixed set of inputs made from
// --seed until --seconds is spent; each pass builds a fresh set-up and runs
// every phase's inputs once. The workload sets the phases' input sizes (its
// own phase runs the inputs it is named for, the others smaller ones, see
// phase_sizes) and, in the traced run, which phase the tracer, the metrics
// registry and the layer ledger watch:
//
//   search  - one developer request (§4.1): medium fat-tree, paper
//             probabilities, 4-of-5, 10^4 rounds, CRN + verdict cache +
//             incremental, deterministic schedule; serial and parallel.
//   assess  - cold assessments of fixed plans: microservice 5-10 at 10^5
//             rounds on parallel and engine loopback, plus 4-of-5 plans to
//             CIW95 <= 1e-3 through assess_until_ciw on parallel.
//
// Both also run open-loop arrivals into deployment_service at a fixed rate
// in every pass, then a saturating burst.
//
// All timings come from calls into the library's public API; the layer
// numbers of the traced run come from timing public calls and reading the
// counters the library already returns. Nothing here patches the library.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "assess/backend.hpp"
#include "assess/verdict_cache.hpp"
#include "core/recloud.hpp"
#include "core/scenario.hpp"
#include "exec/engine.hpp"
#include "obs/build_info.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sampling/extended_dagger.hpp"
#include "search/neighbor.hpp"
#include "search/symmetry.hpp"
#include "service/deployment_service.hpp"

namespace {

using namespace recloud;
using bench_clock = std::chrono::steady_clock;

// ---- fixed workload parameters (recorded in the output) -----------------

constexpr int medium_k = 24;
constexpr int small_k = 16;
constexpr double realistic_p = 5e-4;

constexpr std::size_t search_rounds = 10'000;
constexpr std::size_t search_iterations = 100;
constexpr std::size_t ciw_plan_iterations = 30;
constexpr std::size_t ciw_plans = 24;
constexpr std::size_t ciw_runs_per_pass = 12;
constexpr std::size_t assess_ciw_initial_rounds = 10'000;
constexpr std::size_t assess_ciw_max_rounds = 4'000'000;
constexpr std::size_t engine_check_rounds = 5'000;
constexpr std::size_t reassess_rounds = 10'000;

constexpr double service_rate_rps = 100.0;
constexpr std::size_t service_requests = 300;
constexpr std::size_t service_burst_requests = 400;
constexpr std::size_t service_rounds = 2'000;

/// Every run makes at least this many passes over its inputs (see main).
constexpr std::size_t min_passes = 3;

double seconds_since(bench_clock::time_point start) {
    return std::chrono::duration<double>(bench_clock::now() - start).count();
}

double ns_between(bench_clock::time_point origin, bench_clock::time_point t) {
    return static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin).count());
}

template <typename F>
double time_s(F&& fn) {
    const auto start = bench_clock::now();
    fn();
    return seconds_since(start);
}

// ---- minimal JSON output --------------------------------------------------

std::string json_number(double x) {
    if (!std::isfinite(x)) {
        return "null";
    }
    char buffer[40];
    std::snprintf(buffer, sizeof buffer, "%.17g", x);
    return buffer;
}

std::string json_string(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buffer[8];
            std::snprintf(buffer, sizeof buffer, "\\u%04x", c);
            out += buffer;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string json_list(const std::vector<double>& values) {
    std::string out = "[";
    for (std::size_t i = 0; i < values.size(); ++i) {
        out += (i == 0 ? "" : ",") + json_number(values[i]);
    }
    return out + "]";
}

std::string json_lists(const std::vector<std::vector<double>>& lists) {
    std::string out = "[";
    for (std::size_t i = 0; i < lists.size(); ++i) {
        out += (i == 0 ? "" : ",") + json_list(lists[i]);
    }
    return out + "]";
}

/// Ordered object builder; values are pre-rendered JSON.
class json_object {
public:
    json_object& add(const std::string& key, const std::string& rendered) {
        fields_.emplace_back(key, rendered);
        return *this;
    }
    json_object& num(const std::string& key, double value) {
        return add(key, json_number(value));
    }
    json_object& str(const std::string& key, const std::string& value) {
        return add(key, json_string(value));
    }
    json_object& list(const std::string& key, const std::vector<double>& values) {
        return add(key, json_list(values));
    }
    [[nodiscard]] std::string render() const {
        std::string out = "{";
        for (std::size_t i = 0; i < fields_.size(); ++i) {
            out += (i == 0 ? "" : ",") + json_string(fields_[i].first) + ":" +
                   fields_[i].second;
        }
        return out + "}";
    }

private:
    std::vector<std::pair<std::string, std::string>> fields_;
};

// ---- operations, failures and correctness checks -------------------------

struct tally {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> checks;  ///< rendered {"name","ok","detail"}

    void operation(bool ok) {
        ++attempted;
        failed += ok ? 0 : 1;
    }
    void check(const std::string& name, bool ok, const std::string& detail) {
        operation(ok);
        checks.push_back(json_object{}
                             .str("name", name)
                             .add("ok", ok ? "true" : "false")
                             .str("detail", detail)
                             .render());
        if (!ok) {
            std::fprintf(stderr, "check failed: %s: %s\n", name.c_str(),
                         detail.c_str());
        }
    }
};

/// Two independent estimates of one reliability agree when they are at most
/// the sum of their CIW95 widths apart. CIW95 is 4 standard errors, so this
/// is a >5-sigma test: a correct program fails it with probability < 1e-6.
bool agree_within_ciw(const assessment_stats& a, const assessment_stats& b) {
    return std::abs(a.reliability - b.reliability) <= a.ciw95 + b.ciw95;
}

std::string stats_detail(const assessment_stats& a, const assessment_stats& b) {
    std::ostringstream out;
    out.precision(9);
    out << "R " << a.reliability << " ciw " << a.ciw95 << " vs R "
        << b.reliability << " ciw " << b.ciw95;
    return out.str();
}

bool same_stats(const assessment_stats& a, const assessment_stats& b) {
    return a.rounds == b.rounds && a.reliable == b.reliable;
}

bool same_response(const deployment_response& a, const deployment_response& b) {
    return a.plan == b.plan && same_stats(a.stats, b.stats) &&
           a.search.plans_generated == b.search.plans_generated &&
           a.search.plans_evaluated == b.search.plans_evaluated &&
           a.search.symmetric_skips == b.search.symmetric_skips &&
           a.search.accepted_worse == b.search.accepted_worse &&
           a.outcome == b.outcome;
}

// ---- scenarios and requests ------------------------------------------------

// The provider's data centers are fixed (the library's default
// infrastructure seed); --seed makes the developer requests and plans.
infrastructure_options paper_regime() { return {}; }

infrastructure_options realistic_regime() {
    infrastructure_options options;
    options.probabilities.switch_mean = realistic_p;
    options.probabilities.switch_stddev = realistic_p / 8.0;
    options.probabilities.other_mean = realistic_p;
    options.probabilities.other_stddev = realistic_p / 8.0;
    return options;
}

recloud_options search_options(assessment_backend_kind backend,
                               std::size_t threads, std::uint64_t seed,
                               std::size_t iterations) {
    recloud_options options;
    options.assessment_rounds = search_rounds;
    options.backend = backend;
    options.assessment_threads = threads;
    options.seed = seed;
    options.max_iterations = iterations;
    options.deterministic_schedule = true;
    return options;
}

deployment_request search_request(const application& app) {
    deployment_request request;
    request.app = app;
    request.desired_reliability = 1.0;  // unreachable: the whole budget runs
    request.max_search_time = std::chrono::hours{1};
    return request;
}

deployment_plan plan_for(const scenario& sc, const application& app,
                         std::uint64_t seed) {
    neighbor_generator generator{sc.topology(), anti_affinity::none, seed};
    return generator.initial_plan(app.total_instances());
}

application search_app() { return application::k_of_n(4, 5); }
application assess_app() { return application::microservice(5, 10, 4, 5); }

/// The service's deterministic request mix: every third request goes to the
/// small paper-regime scenario, the others to the medium realistic one, and
/// each run of three consecutive requests has one of three application
/// shapes. Each shape has a short iteration budget, varied deterministically
/// per request over [budget / 2, 3 * budget / 2) so that request costs spread
/// out instead of forming one spike per shape. Small paper-regime
/// requests cost about three times as much as realistic ones; at one in
/// three, both the median and p95 fall inside a cluster of request costs
/// rather than in the gap between them, and the two shards carry similar
/// load.
bool small_scenario(std::size_t i) { return i % 3 == 0; }

struct mix_entry {
    application app;
    std::size_t iterations;
};

const std::vector<mix_entry>& service_mix() {
    static const std::vector<mix_entry> mix{
        {application::k_of_n(4, 5), 16},
        {application::microservice(2, 2, 2, 3), 6},
        {application::layered(3, 2, 3), 10},
    };
    return mix;
}

// ---- set-up -----------------------------------------------------------------

struct bench_setup {
    scenario_ptr medium_paper;
    scenario_ptr small_paper;
    scenario_ptr medium_realistic;
    std::string small_name;
    std::string realistic_name;
    std::unique_ptr<re_cloud> assess_parallel;
    std::unique_ptr<re_cloud> assess_engine;
    std::unique_ptr<extended_dagger_sampler> ciw_sampler;
    std::unique_ptr<parallel_backend> ciw_backend;
    std::unique_ptr<deployment_service> service;
    double scenario_ms = 0.0;  ///< building the three scenarios
    double recloud_ms = 0.0;   ///< constructing one serial search re_cloud
};

struct run_context {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::size_t threads = 1;
    std::size_t shards = 1;
    std::size_t workers_per_shard = 1;
    tally ops;
};

recloud_options service_defaults() {
    recloud_options options;
    options.assessment_rounds = service_rounds;
    options.backend = assessment_backend_kind::serial;
    options.deterministic_schedule = true;
    return options;
}

service_request service_request_for(const run_context& ctx,
                                    const bench_setup& setup, std::size_t i) {
    const mix_entry& entry = service_mix()[(i / 3) % service_mix().size()];
    service_request request;
    request.scenario = small_scenario(i) ? setup.small_name : setup.realistic_name;
    request.tenant = "perfbench";
    request.app = entry.app;
    request.desired_reliability = 1.0;
    request.max_search_time = std::chrono::hours{1};
    request.seed = substream_seed(ctx.seed, 1000 + i);
    request.max_iterations =
        entry.iterations / 2 + (i * 7) % entry.iterations;
    return request;
}

/// Builds everything the phases need and runs one warm-up pass through each
/// phase's code path.
std::unique_ptr<bench_setup> build_setup(run_context& ctx) {
    auto setup = std::make_unique<bench_setup>();
    setup->scenario_ms = 1e3 * time_s([&] {
        setup->medium_paper = make_fat_tree_scenario(medium_k, paper_regime());
        setup->small_paper = make_fat_tree_scenario(small_k, paper_regime());
        setup->medium_realistic =
            make_fat_tree_scenario(medium_k, realistic_regime());
    });

    setup->assess_parallel = std::make_unique<re_cloud>(
        setup->medium_paper,
        search_options(assessment_backend_kind::parallel, ctx.threads, ctx.seed, 0));
    setup->assess_engine = std::make_unique<re_cloud>(
        setup->medium_paper,
        search_options(assessment_backend_kind::engine, ctx.threads, ctx.seed, 0));
    const scenario_ptr sc = setup->medium_paper;
    setup->ciw_sampler = std::make_unique<extended_dagger_sampler>(
        sc->registry().probabilities(), substream_seed(ctx.seed, 7));
    setup->ciw_backend = std::make_unique<parallel_backend>(
        sc->registry().size(), sc->forest(), [sc] { return sc->make_oracle(); },
        *setup->ciw_sampler, parallel_backend_options{.threads = ctx.threads});

    service_options options;
    options.shards = ctx.shards;
    options.workers = ctx.workers_per_shard;
    options.queue_capacity = 4 * service_burst_requests;
    options.defaults = service_defaults();
    setup->service = std::make_unique<deployment_service>(options);
    // Scenario names are chosen so the two scenarios land on different
    // shards (routing is a hash of the name).
    setup->small_name = "k16-paper";
    setup->realistic_name = "k24-realistic";
    for (int suffix = 0; ctx.shards > 1 &&
                         setup->service->shard_of(setup->small_name) ==
                             setup->service->shard_of(setup->realistic_name);
         ++suffix) {
        setup->realistic_name = "k24-realistic-" + std::to_string(suffix);
    }
    setup->service->add_scenario(setup->small_name, setup->small_paper);
    setup->service->add_scenario(setup->realistic_name, setup->medium_realistic);

    // Warm-up pass: fault in code and allocator arenas on every path.
    {
        std::optional<re_cloud> warm;
        setup->recloud_ms = 1e3 * time_s([&] {
            warm.emplace(setup->medium_paper,
                         search_options(assessment_backend_kind::serial, 1, ctx.seed, 10));
        });
        (void)warm->find_deployment(search_request(search_app()));
        re_cloud parallel{setup->medium_paper,
                          search_options(assessment_backend_kind::parallel, ctx.threads,
                                         ctx.seed, 10)};
        (void)parallel.find_deployment(search_request(search_app()));
    }
    const application micro = assess_app();
    const deployment_plan plan = plan_for(*sc, micro, ctx.seed);
    (void)setup->assess_parallel->assess(micro, plan, 2048);
    (void)setup->assess_engine->assess(micro, plan, 2000);
    std::vector<std::future<service_response>> warm_requests;
    for (std::size_t i = 0; i < 2 * service_mix().size(); ++i) {
        warm_requests.push_back(
            setup->service->submit(service_request_for(ctx, *setup, 100'000 + i)));
    }
    for (auto& f : warm_requests) {
        (void)f.get();
    }
    return setup;
}

// ---- traced-run helpers ------------------------------------------------------

/// What the library's tracer and metrics registry recorded in one window.
struct trace_capture {
    std::map<std::string, double> spans_ms;  ///< total duration by span name
    std::map<std::string, double> counters;
    double dropped = 0.0;  ///< spans lost to full rings
};

/// Enables the library's existing tracer and metrics registry for a scope
/// and collects the span totals and counter deltas it saw.
class trace_window {
public:
    explicit trace_window(bool on) : on_(on) {
        if (!on_) {
            return;
        }
        obs::tracer::global().reset();
        obs::tracer::global().start();
        obs::metrics_registry::global().set_enabled(true);
    }
    void pause() {
        if (on_) {
            obs::tracer::global().stop();
            obs::metrics_registry::global().set_enabled(false);
        }
    }
    void resume() {
        if (on_) {
            obs::tracer::global().start();
            obs::metrics_registry::global().set_enabled(true);
        }
    }
    /// Stops recording and folds what was captured into `out`.
    void finish(trace_capture& out) {
        if (!on_) {
            return;
        }
        pause();
        const obs::process_capture capture =
            obs::tracer::global().drain_capture("perfbench");
        for (const obs::trace_span& span : capture.spans) {
            out.spans_ms[span.name] += static_cast<double>(span.dur_ns) / 1e6;
        }
        out.dropped += static_cast<double>(capture.dropped);
        for (const obs::metric_entry& m :
             obs::metrics_registry::global().snapshot().metrics) {
            if (m.kind == obs::metric_kind::counter) {
                out.counters[m.name] += static_cast<double>(m.value);
            }
        }
        obs::metrics_registry::global().reset();
        obs::tracer::global().reset();
        on_ = false;
    }

private:
    bool on_;
};

/// Median per-call cost of `fn` over `batches` batches of `calls` calls.
template <typename F>
double unit_cost_ns(std::size_t batches, std::size_t calls, F&& fn) {
    std::vector<double> per_call;
    for (std::size_t b = 0; b < batches; ++b) {
        const auto start = bench_clock::now();
        for (std::size_t i = 0; i < calls; ++i) {
            fn(i);
        }
        per_call.push_back(ns_between(start, bench_clock::now()) /
                           static_cast<double>(calls));
    }
    std::sort(per_call.begin(), per_call.end());
    return per_call[per_call.size() / 2];
}

struct search_units {
    double neighbor_ns = 0.0;
    double symmetry_ns = 0.0;
};

/// neighbor_generator::neighbor_of and symmetry_checker::signature on a
/// 4-of-5 plan of `sc`.
search_units measure_search_units(const scenario& sc, std::uint64_t seed) {
    search_units u;
    neighbor_generator generator{sc.topology(), anti_affinity::none, seed};
    const deployment_plan plan = generator.initial_plan(5);
    std::vector<deployment_plan> neighbors;
    for (int i = 0; i < 512; ++i) {
        neighbors.push_back(generator.neighbor_of(plan));
    }
    u.neighbor_ns = unit_cost_ns(21, 512, [&](std::size_t) {
        deployment_plan p = generator.neighbor_of(plan);
        asm volatile("" : : "r"(p.hosts.data()) : "memory");
    });
    const symmetry_checker checker{sc.topology(), sc.registry(), sc.forest(),
                                   sc.links()};
    std::uint64_t sink = 0;
    u.symmetry_ns = unit_cost_ns(21, 512, [&](std::size_t i) {
        sink += checker.signature(neighbors[i]);
    });
    asm volatile("" : : "r"(sink) : "memory");
    return u;
}

struct unit_costs {
    double neighbor_ns = 0.0;
    double symmetry_ns = 0.0;
    double sample_round_ns = 0.0;
    double failed_per_round = 0.0;
    double routing_check_ns = 0.0;
    double judge_micro_round_ns = 0.0;
    double cache_lookup_ns = 0.0;
    double cache_lookup_micro_ns = 0.0;
    double topology_ms = 0.0;
};

/// verdict_cache::lookup on a cache bound to (app, plan) that has already
/// stored the verdict of every round, so every lookup hits.
double cache_lookup_ns(const scenario& sc, const application& app,
                       const deployment_plan& plan,
                       const std::vector<std::vector<component_id>>& rounds) {
    const verdict_support support{sc.topology(), sc.registry().size(),
                                  sc.forest(), sc.links()};
    verdict_cache cache{support, std::size_t{1} << 16, true};
    cache.bind(app, plan);
    round_state rs{sc.registry().size(), sc.forest()};
    std::unique_ptr<reachability_oracle> oracle = sc.make_oracle();
    requirement_evaluator evaluator{app, plan};
    for (const auto& round : rounds) {
        (void)cached_reliable_in_round(&cache, round, rs, *oracle, plan, evaluator);
    }
    std::uint64_t sink = 0;
    const double ns = unit_cost_ns(21, rounds.size(), [&](std::size_t i) {
        sink += cache.lookup(rounds[i]).verdict ? 1 : 0;
    });
    asm volatile("" : : "r"(sink) : "memory");
    return ns;
}

/// Outside-in unit costs on the medium paper scenario, each through one
/// public call.
unit_costs measure_unit_costs(const run_context& ctx, const bench_setup& setup) {
    unit_costs u;
    const scenario& sc = *setup.medium_paper;
    const application app45 = search_app();
    const application micro = assess_app();

    std::vector<double> topo_ms;
    for (int i = 0; i < 3; ++i) {
        topo_ms.push_back(1e3 * time_s([] { (void)fat_tree::build(medium_k); }));
    }
    std::sort(topo_ms.begin(), topo_ms.end());
    u.topology_ms = topo_ms[1];

    const search_units search = measure_search_units(sc, ctx.seed);
    u.neighbor_ns = search.neighbor_ns;
    u.symmetry_ns = search.symmetry_ns;
    const deployment_plan plan45 = plan_for(sc, app45, ctx.seed);
    std::uint64_t sink = 0;

    extended_dagger_sampler sampler{sc.registry().probabilities(),
                                    substream_seed(ctx.seed, 9)};
    std::vector<component_id> failed;
    std::size_t failed_total = 0;
    std::size_t sampled = 0;
    u.sample_round_ns = unit_cost_ns(21, 4096, [&](std::size_t) {
        sampler.next_round(failed);
        failed_total += failed.size();
        ++sampled;
    });
    u.failed_per_round =
        static_cast<double>(failed_total) / static_cast<double>(sampled);

    std::vector<std::vector<component_id>> rounds(4096);
    for (auto& round : rounds) {
        sampler.next_round(round);
    }
    round_state rs{sc.registry().size(), sc.forest()};
    std::unique_ptr<reachability_oracle> oracle = sc.make_oracle();
    u.routing_check_ns = unit_cost_ns(21, rounds.size(), [&](std::size_t i) {
        rs.begin_round(rounds[i]);
        oracle->begin_round(rs, std::span<const node_id>{plan45.hosts});
        for (const node_id h : plan45.hosts) {
            sink += oracle->border_reachable(h) ? 1 : 0;
        }
        sink += oracle->host_to_host(plan45.hosts[0], plan45.hosts[1]) ? 1 : 0;
    });
    const deployment_plan micro_plan = plan_for(sc, micro, ctx.seed);
    requirement_evaluator evaluator{micro, micro_plan};
    u.judge_micro_round_ns = unit_cost_ns(11, rounds.size(), [&](std::size_t i) {
        sink += cached_reliable_in_round(nullptr, rounds[i], rs, *oracle,
                                         micro_plan, evaluator)
                    ? 1
                    : 0;
    });
    u.cache_lookup_ns = cache_lookup_ns(sc, app45, plan45, rounds);
    u.cache_lookup_micro_ns = cache_lookup_ns(sc, micro, micro_plan, rounds);
    asm volatile("" : : "r"(sink) : "memory");
    return u;
}

// ---- phases -----------------------------------------------------------------

/// Input sizes of every phase for one workload. The workload's own phase
/// runs the inputs the workload is named for; the other two phases run
/// smaller inputs, so that every run reports every end-to-end metric. Every
/// pass runs every input once.
struct phase_sizes {
    std::size_t search_requests = 2;
    std::size_t assess_rounds = 20'000;
    double ciw_target = 2e-3;
};

phase_sizes sizes_for(const run_context& ctx) {
    phase_sizes p;
    if (ctx.workload == "search") {
        p.search_requests = 3;
    } else {
        p.assess_rounds = 100'000;
        p.ciw_target = 1e-3;
    }
    return p;
}

/// The 4-of-5 plans the adaptive assessments take: the winners of short
/// serial searches, one per request seed, as a developer would assess a
/// found plan to a target precision.
std::vector<deployment_plan> found_plans(const run_context& ctx,
                                         const bench_setup& setup) {
    const deployment_request request = search_request(search_app());
    std::vector<deployment_plan> plans;
    for (std::size_t i = 0; i < ciw_plans; ++i) {
        re_cloud instance{setup.medium_paper,
                          search_options(assessment_backend_kind::serial, 1,
                                         substream_seed(ctx.seed, 300 + i),
                                         ciw_plan_iterations)};
        plans.push_back(instance.find_deployment(request).plan);
    }
    return plans;
}

/// Keeps the first result of input `i` and checks every repeat against it.
template <typename T, typename Same>
void first_or_same(run_context& ctx, std::optional<T>& first, T&& result,
                   const std::string& check, Same&& same, const std::string& detail) {
    if (!first) {
        first = std::forward<T>(result);
        return;
    }
    ctx.ops.check(check, same(*first, result), detail);
}

struct search_phase_out {
    std::vector<std::vector<double>> serial_s;    ///< per request, per pass
    std::vector<std::vector<double>> parallel_s;  ///< per request, per pass
    std::vector<double> iter_ms;  ///< traced: gaps between observer events
    double plans_generated = 0.0;
    double plans_evaluated = 0.0;
    double symmetric_skips = 0.0;
    double accepted = 0.0;  ///< signature recomputations after a move
    double searches = 0.0;
    verdict_cache_stats cache{};
    std::vector<double> evaluate_ms;  ///< traced: re_cloud::evaluate
    trace_capture trace;
};

/// Replays one trajectory's candidate plans from its observer events: the
/// neighbor generator is seeded as re_cloud seeds it, and each event says
/// whether the candidate was assessed and whether it became current.
std::vector<deployment_plan> replay_candidates(
    const scenario& sc, std::uint64_t seed, std::uint32_t instances,
    const std::vector<obs::search_event_kind>& kinds) {
    neighbor_generator generator{sc.topology(), anti_affinity::none, seed};
    deployment_plan current = generator.initial_plan(instances);
    std::vector<deployment_plan> assessed{current};
    for (std::size_t i = 1; i < kinds.size(); ++i) {
        deployment_plan candidate = generator.neighbor_of(current);
        const obs::search_event_kind kind = kinds[i];
        if (kind == obs::search_event_kind::symmetric_skip ||
            kind == obs::search_event_kind::filtered) {
            continue;
        }
        assessed.push_back(candidate);
        if (kind == obs::search_event_kind::accepted ||
            kind == obs::search_event_kind::accepted_worse) {
            current = std::move(candidate);
        }
    }
    return assessed;
}

/// The search phase: a fixed set of developer requests, each with its own
/// seed, searched once per pass on serial and on parallel(nproc). Every
/// repeat must return the first pass's response.
class search_phase {
public:
    search_phase(run_context& ctx, const phase_sizes& sizes, bool window_on)
        : ctx_(ctx), sizes_(sizes), window_(window_on) {
        window_.pause();
        for (std::size_t j = 0; j < sizes.search_requests; ++j) {
            seeds_.push_back(substream_seed(ctx.seed, 100 + j));
        }
        out_.serial_s.resize(seeds_.size());
        out_.parallel_s.resize(seeds_.size());
        first_.resize(seeds_.size());
        first_parallel_.resize(seeds_.size());
        first_kinds_.resize(seeds_.size());
    }

    void run_pass(const bench_setup& setup) {
        for (std::size_t j = 0; j < seeds_.size(); ++j) {
            search_serial(setup, j);
            re_cloud parallel{setup.medium_paper,
                              search_options(assessment_backend_kind::parallel,
                                             ctx_.threads, seeds_[j],
                                             search_iterations)};
            deployment_response response;
            out_.parallel_s[j].push_back(
                time_s([&] { response = parallel.find_deployment(request_); }));
            ctx_.ops.operation(true);
            first_or_same(ctx_, first_parallel_[j], std::move(response),
                          "search.parallel_deterministic", same_response,
                          "parallel search repeated with request seed " +
                              std::to_string(seeds_[j]));
        }
    }

    search_phase_out finish(const bench_setup& setup) {
        window_.finish(out_.trace);
        // Outside the timed passes: each winner, re-assessed on a fresh
        // stream, must agree with the reported R.
        for (std::size_t j = 0; j < seeds_.size(); ++j) {
            re_cloud fresh{setup.medium_paper,
                           search_options(assessment_backend_kind::serial, 1,
                                          substream_seed(seeds_[j], 0xfe5), 0)};
            const assessment_stats again =
                fresh.assess(app_, first_[j]->plan, reassess_rounds);
            ctx_.ops.check("search.winner_reassessed",
                           agree_within_ciw(first_[j]->stats, again),
                           stats_detail(first_[j]->stats, again));
        }
        if (ctx_.trace) {
            // re_cloud::evaluate on the first trajectory's candidate plans.
            const std::vector<deployment_plan> plans =
                replay_candidates(*setup.medium_paper, seeds_[0],
                                  app_.total_instances(), first_kinds_[0]);
            re_cloud evaluator{setup.medium_paper,
                               search_options(assessment_backend_kind::serial, 1,
                                              seeds_[0], 0)};
            const std::size_t n = std::min<std::size_t>(plans.size(), 24);
            for (std::size_t i = 0; i < n; ++i) {
                out_.evaluate_ms.push_back(
                    1e3 * time_s([&] { (void)evaluator.evaluate(app_, plans[i]); }));
            }
            ctx_.ops.check("search.replayed_trajectory",
                           std::find(plans.begin(), plans.end(),
                                     first_[0]->plan) != plans.end(),
                           "winner found among the replayed candidate plans");
        }
        return std::move(out_);
    }

private:
    /// One timed serial search of request j.
    void search_serial(const bench_setup& setup, std::size_t j) {
        std::vector<bench_clock::time_point> stamps;
        std::vector<obs::search_event_kind> kinds;
        recloud_options options = search_options(
            assessment_backend_kind::serial, 1, seeds_[j], search_iterations);
        if (ctx_.trace) {
            options.observer = [&](const obs::search_iteration_event& e) {
                stamps.push_back(bench_clock::now());
                kinds.push_back(e.kind);
            };
        }
        re_cloud serial{setup.medium_paper, options};
        window_.resume();
        deployment_response response;
        out_.serial_s[j].push_back(
            time_s([&] { response = serial.find_deployment(request_); }));
        window_.pause();
        ctx_.ops.operation(true);
        if (ctx_.trace) {
            for (std::size_t i = 1; i < stamps.size(); ++i) {
                out_.iter_ms.push_back(ns_between(stamps[i - 1], stamps[i]) / 1e6);
            }
            out_.plans_generated += static_cast<double>(response.search.plans_generated);
            out_.plans_evaluated += static_cast<double>(response.search.plans_evaluated);
            out_.symmetric_skips += static_cast<double>(response.search.symmetric_skips);
            out_.accepted += static_cast<double>(std::count_if(
                kinds.begin(), kinds.end(), [](obs::search_event_kind k) {
                    return k == obs::search_event_kind::accepted ||
                           k == obs::search_event_kind::accepted_worse;
                }));
            out_.searches += 1.0;
            if (const verdict_cache_stats* cache = serial.cache_stats()) {
                out_.cache.accumulate(*cache);
            }
        }
        if (!first_[j]) {
            first_kinds_[j] = std::move(kinds);
        }
        first_or_same(ctx_, first_[j], std::move(response), "search.deterministic",
                      same_response,
                      "serial search repeated with request seed " +
                          std::to_string(seeds_[j]));
    }

    run_context& ctx_;
    const phase_sizes& sizes_;
    const application app_ = search_app();
    const deployment_request request_ = search_request(app_);
    trace_window window_;
    search_phase_out out_;
    std::vector<std::uint64_t> seeds_;
    std::vector<std::optional<deployment_response>> first_;
    std::vector<std::optional<deployment_response>> first_parallel_;
    std::vector<std::vector<obs::search_event_kind>> first_kinds_;
};

struct assess_phase_out {
    std::vector<double> parallel_s;             ///< per pass
    std::vector<double> engine_s;               ///< per pass
    std::vector<double> ciw_s;                  ///< per plan and pass
    std::vector<double> rounds_to_ciw;          ///< per plan and pass
    double serial_equivalent_s = 0.0;  ///< traced: serial time per assessment
    verdict_cache_stats parallel_cache{};
    engine_stats engine{};
    double engine_rounds = 0.0;
    trace_capture trace;
};

/// Counter growth of the timed calls: `after` minus `before`.
verdict_cache_stats cache_growth(const verdict_cache_stats& after,
                                 const verdict_cache_stats& before) {
    verdict_cache_stats d{};
    d.rounds = after.rounds - before.rounds;
    d.empty_hits = after.empty_hits - before.empty_hits;
    d.hits = after.hits - before.hits;
    d.misses = after.misses - before.misses;
    d.warm_rebinds = after.warm_rebinds - before.warm_rebinds;
    d.cross_plan_hits = after.cross_plan_hits - before.cross_plan_hits;
    return d;
}

/// The assess phase: per pass, one microservice assessment on each backend
/// of the pass's fresh set-up (so every pass assesses the same rounds), then
/// adaptive assessments of the next 4-of-5 plans. Every repeat of a
/// microservice assessment must return the first pass's stats.
class assess_phase {
public:
    assess_phase(run_context& ctx, const bench_setup& setup, const phase_sizes& sizes,
                 std::vector<deployment_plan> plans45, bool window_on)
        : ctx_(ctx),
          sizes_(sizes),
          micro_plan_(plan_for(*setup.medium_paper, micro_, ctx.seed)),
          plans45_(std::move(plans45)),
          window_(window_on) {
        window_.pause();
        adaptive_.target_ciw = sizes.ciw_target;
        adaptive_.initial_rounds = assess_ciw_initial_rounds;
        adaptive_.max_rounds = assess_ciw_max_rounds;
    }

    void run_pass(const bench_setup& setup) {
        const verdict_cache_stats cache_before = *setup.assess_parallel->cache_stats();
        const engine_stats engine_before = *setup.assess_engine->execution_stats();
        assessment_stats parallel;
        window_.resume();
        out_.parallel_s.push_back(time_s([&] {
            parallel = setup.assess_parallel->assess(micro_, micro_plan_,
                                                     sizes_.assess_rounds);
        }));
        window_.pause();
        ctx_.ops.operation(true);
        assessment_stats engine;
        out_.engine_s.push_back(time_s([&] {
            engine = setup.assess_engine->assess(micro_, micro_plan_, sizes_.assess_rounds);
        }));
        ctx_.ops.operation(true);
        out_.engine_rounds += static_cast<double>(engine.rounds);
        ctx_.ops.check("assess.parallel_engine_agree", agree_within_ciw(parallel, engine),
                       stats_detail(parallel, engine));
        first_or_same(ctx_, first_parallel_, std::move(parallel),
                      "assess.parallel_repeatable", same_stats,
                      "parallel assessment of a fresh set-up");
        first_or_same(ctx_, first_engine_, std::move(engine), "assess.engine_repeatable",
                      same_stats, "engine assessment of a fresh set-up");
        out_.parallel_cache.accumulate(
            cache_growth(*setup.assess_parallel->cache_stats(), cache_before));
        const engine_stats& engine_after = *setup.assess_engine->execution_stats();
        out_.engine.dispatches += engine_after.dispatches - engine_before.dispatches;
        out_.engine.retries += engine_after.retries - engine_before.retries;
        out_.engine.degraded += engine_after.degraded - engine_before.degraded;
        out_.engine.bytes_sent += engine_after.bytes_sent - engine_before.bytes_sent;
        out_.engine.bytes_received +=
            engine_after.bytes_received - engine_before.bytes_received;

        // The developer's final step: assess a found plan to a target
        // precision. The round count grows with the plan's R(1 - R) and, in
        // about half of the assessments, doubles when the first prediction
        // undershoots. The passes cycle over the plans, each assessment from
        // a fresh stream, so a run averages that coin over many assessments.
        for (std::size_t i = 0; i < ciw_runs_per_pass; ++i) {
            const deployment_plan& plan45 = plans45_[ciw_done_ % plans45_.size()];
            setup.ciw_backend->reset_stream(substream_seed(ctx_.seed, 500 + ciw_done_++));
            assessment_stats stats;
            out_.ciw_s.push_back(time_s([&] {
                stats = setup.ciw_backend->assess_until_ciw(app45_, plan45, adaptive_);
            }));
            out_.rounds_to_ciw.push_back(static_cast<double>(stats.rounds));
            ctx_.ops.check("assess.ciw_reached", stats.ciw95 <= adaptive_.target_ciw,
                           "ciw95 " + json_number(stats.ciw95) + " target " +
                               json_number(adaptive_.target_ciw));
        }
    }

    assess_phase_out finish(const bench_setup& setup) {
        window_.finish(out_.trace);
        // Outside the timed passes: the engine equals serial bit-for-bit.
        re_cloud serial{setup.medium_paper,
                        search_options(assessment_backend_kind::serial, 1,
                                       substream_seed(ctx_.seed, 11), 0)};
        re_cloud engine{setup.medium_paper,
                        search_options(assessment_backend_kind::engine, ctx_.threads,
                                       substream_seed(ctx_.seed, 11), 0)};
        const assessment_stats a = serial.assess(micro_, micro_plan_, engine_check_rounds);
        const assessment_stats b = engine.assess(micro_, micro_plan_, engine_check_rounds);
        ctx_.ops.check("assess.engine_equals_serial", same_stats(a, b),
                       "reliable " + std::to_string(a.reliable) + " vs " +
                           std::to_string(b.reliable));
        if (ctx_.trace) {
            // Serial-equivalent time of one timed parallel assessment, from a
            // serial run on a fifth of the rounds.
            const std::size_t rounds = sizes_.assess_rounds / 5;
            out_.serial_equivalent_s =
                5.0 * time_s([&] { (void)serial.assess(micro_, micro_plan_, rounds); });
        }
        return std::move(out_);
    }

private:
    run_context& ctx_;
    const phase_sizes& sizes_;
    const application micro_ = assess_app();
    const application app45_ = search_app();
    const deployment_plan micro_plan_;
    const std::vector<deployment_plan> plans45_;
    adaptive_assess_options adaptive_;
    trace_window window_;
    assess_phase_out out_;
    std::optional<assessment_stats> first_parallel_;
    std::optional<assessment_stats> first_engine_;
    std::size_t ciw_done_ = 0;
};

struct request_record {
    double due_ns = 0.0;
    double sent_ns = 0.0;
    double done_ns = 0.0;
    bool ok = false;
    double queue_wait_ns = 0.0;
    double search_ns = 0.0;
    double plans_generated = 0.0;
    double scenario = 0.0;  ///< 0 = small paper, 1 = medium realistic
};

/// Open loop: request i is due at start + i / rate (rate 0 = all due at
/// start). One generator thread sends each request when it is due and, while
/// waiting, polls the outstanding futures to timestamp completions.
std::vector<request_record> drive_open_loop(
    run_context& ctx, const bench_setup& setup, std::size_t count, double rate_rps,
    std::size_t first_index,
    std::vector<std::pair<std::size_t, service_response>>* keep) {
    std::vector<request_record> records(count);
    std::vector<std::future<service_response>> futures(count);
    std::vector<std::size_t> open;
    const auto start = bench_clock::now();
    const auto due_at = [&](std::size_t i) {
        const double offset_s = rate_rps > 0.0 ? static_cast<double>(i) / rate_rps : 0.0;
        return start + std::chrono::duration_cast<bench_clock::duration>(
                           std::chrono::duration<double>(offset_s));
    };
    std::size_t next = 0;
    while (next < count || !open.empty()) {
        if (next < count && bench_clock::now() >= due_at(next)) {
            service_request request =
                service_request_for(ctx, setup, first_index + next);
            const auto sent = bench_clock::now();
            records[next].due_ns = ns_between(start, due_at(next));
            records[next].sent_ns = ns_between(start, sent);
            records[next].scenario = small_scenario(first_index + next) ? 0.0 : 1.0;
            futures[next] = setup.service->submit(std::move(request));
            open.push_back(next);
            ++next;
            continue;
        }
        for (std::size_t k = 0; k < open.size();) {
            const std::size_t i = open[k];
            if (futures[i].wait_for(std::chrono::seconds{0}) !=
                std::future_status::ready) {
                ++k;
                continue;
            }
            records[i].done_ns = ns_between(start, bench_clock::now());
            service_response response = futures[i].get();
            records[i].ok = response.status == request_status::completed;
            records[i].queue_wait_ns = static_cast<double>(response.queue_wait_ns.count());
            records[i].search_ns = static_cast<double>(response.search_ns.count());
            records[i].plans_generated =
                static_cast<double>(response.result.search.plans_generated);
            ctx.ops.operation(records[i].ok);
            if (!records[i].ok) {
                std::fprintf(stderr, "request %zu %s: %s\n", first_index + i,
                             to_string(response.status), response.error.c_str());
            }
            if (keep != nullptr) {
                keep->emplace_back(first_index + i, std::move(response));
            }
            open[k] = open.back();
            open.pop_back();
        }
        auto wake = bench_clock::now() + std::chrono::microseconds{200};
        if (next < count) {
            wake = std::min(wake, due_at(next));
        }
        std::this_thread::sleep_until(wake);
    }
    return records;
}

struct service_phase_out {
    double rate_rps = service_rate_rps;
    std::vector<std::vector<request_record>> rate;  ///< per pass
    std::vector<request_record> burst;
    double peak_queue_depth = 0.0;
    double shed = 0.0;
};

/// Load shed by a service so far.
double shed_of(const deployment_service& service) {
    const service_stats stats = service.stats();
    return static_cast<double>(stats.shed_queue_full + stats.shed_quota +
                               stats.shed_unmeetable);
}

/// The service phase: per pass, the same requests at the fixed rate into the
/// pass's fresh service; after the last pass, the burst.
class service_phase {
public:
    explicit service_phase(run_context& ctx) : ctx_(ctx) {}

    void run_pass(const bench_setup& setup) {
        out_.rate.push_back(drive_open_loop(ctx_, setup, service_requests,
                                            service_rate_rps, 0,
                                            out_.rate.empty() ? &kept_ : nullptr));
        out_.shed += shed_of(*setup.service);
    }

    service_phase_out finish(const bench_setup& setup) {
        const double shed_before = shed_of(*setup.service);
        out_.burst = drive_open_loop(ctx_, setup, service_burst_requests, 0.0,
                                     service_requests, nullptr);
        out_.peak_queue_depth =
            static_cast<double>(setup.service->stats().peak_queue_depth);
        out_.shed += shed_of(*setup.service) - shed_before;

        // Outside the timed passes: a fixed subset of requests equals solo
        // re_cloud runs of the same request bit-for-bit. Requests 3k and
        // 3k + 1 for k < 3 cover every (scenario, shape) pair of the mix.
        for (const auto& [index, response] : kept_) {
            if (index >= 3 * service_mix().size() || index % 3 == 2) {
                continue;
            }
            const deployment_response expected = solo_find_deployment(setup, index);
            ctx_.ops.check("service.equals_solo",
                           response.status == request_status::completed &&
                               same_response(expected, response.result),
                           "request " + std::to_string(index));
        }

        return std::move(out_);
    }

private:
    /// The options the service runs request `request` with.
    static recloud_options solo_options(const service_request& request) {
        recloud_options options = service_defaults();
        options.seed = request.seed;
        options.max_iterations = *request.max_iterations;
        return options;
    }

    deployment_response solo_find_deployment(const bench_setup& setup,
                                             std::size_t index) const {
        const service_request request = service_request_for(ctx_, setup, index);
        re_cloud solo{setup.service->find_scenario(request.scenario),
                      solo_options(request)};
        return solo.find_deployment(search_request(request.app));
    }

    run_context& ctx_;
    service_phase_out out_;
    std::vector<std::pair<std::size_t, service_response>> kept_;
};

// ---- output -----------------------------------------------------------------

std::string render_records(const std::vector<request_record>& records) {
    std::string out = "[";
    for (std::size_t i = 0; i < records.size(); ++i) {
        const request_record& r = records[i];
        out += (i == 0 ? "" : ",") +
               json_list({r.due_ns, r.sent_ns, r.done_ns, r.ok ? 1.0 : 0.0,
                          r.queue_wait_ns, r.search_ns, r.plans_generated,
                          r.scenario});
    }
    return out + "]";
}

std::string render_map(const std::map<std::string, double>& values) {
    json_object object;
    for (const auto& [name, value] : values) {
        object.num(name, value);
    }
    return object.render();
}

std::string render_capture(const trace_capture& c) {
    return json_object{}
        .add("spans_ms", render_map(c.spans_ms))
        .add("counters", render_map(c.counters))
        .num("dropped", c.dropped)
        .render();
}

std::string render_cache(const verdict_cache_stats& c) {
    return json_object{}
        .num("rounds", static_cast<double>(c.rounds))
        .num("empty_hits", static_cast<double>(c.empty_hits))
        .num("hits", static_cast<double>(c.hits))
        .num("misses", static_cast<double>(c.misses))
        .num("warm_rebinds", static_cast<double>(c.warm_rebinds))
        .num("cross_plan_hits", static_cast<double>(c.cross_plan_hits))
        .render();
}

int parse_args(int argc, char** argv, run_context& ctx) {
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string value = argv[i + 1];
        if (key == "--workload") {
            ctx.workload = value;
        } else if (key == "--seed") {
            ctx.seed = std::stoull(value);
        } else if (key == "--seconds") {
            ctx.seconds = std::stod(value);
        } else if (key == "--trace") {
            ctx.trace = value == "1";
        } else {
            std::fprintf(stderr, "unknown argument %s\n", key.c_str());
            return 2;
        }
    }
    if ((argc - 1) % 2 != 0 ||
        (ctx.workload != "search" && ctx.workload != "assess") ||
        !(ctx.seconds > 0.0)) {
        std::fprintf(stderr,
                     "usage: recloud_perfbench --workload search|assess "
                     "--seed N --seconds S --trace 0|1\n");
        return 2;
    }
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    run_context ctx;
    if (const int rc = parse_args(argc, argv, ctx); rc != 0) {
        return rc;
    }
    const build_info_t& build = build_info();
    if (build.sanitizer[0] != '\0') {
        std::fprintf(stderr, "refusing to time a sanitizer build (%s)\n",
                     build.sanitizer);
        return 3;
    }
    ctx.threads = std::max(1u, std::thread::hardware_concurrency());
    ctx.shards = ctx.threads >= 2 ? 2 : 1;
    ctx.workers_per_shard = std::max<std::size_t>(1, ctx.threads / ctx.shards);
    if (ctx.trace) {
        obs::tracer::global().set_ring_capacity(std::size_t{1} << 18);
    }

    // Each pass builds a fresh set-up, so set-up is timed once per pass and
    // every pass runs the same inputs from the same state.
    std::vector<double> setup_s;
    std::vector<double> scenario_ms;
    std::vector<double> recloud_ms;
    std::unique_ptr<bench_setup> setup;
    const auto set_up = [&] {
        setup.reset();
        setup_s.push_back(time_s([&] { setup = build_setup(ctx); }));
        scenario_ms.push_back(setup->scenario_ms);
        recloud_ms.push_back(setup->recloud_ms);
    };
    set_up();

    double overhead_untraced_s = 0.0;
    double overhead_traced_s = 0.0;
    if (ctx.trace) {
        // Tracer overhead: one serial search alternately with the tracer,
        // registry and observer off and on.
        std::vector<double> off;
        std::vector<double> on;
        const deployment_request request = search_request(search_app());
        for (int rep = 0; rep < 6; ++rep) {
            for (const bool traced : {false, true}) {
                recloud_options options = search_options(
                    assessment_backend_kind::serial, 1, substream_seed(ctx.seed, 100),
                    100);
                if (traced) {
                    options.observer = [](const obs::search_iteration_event&) {};
                }
                re_cloud instance{setup->medium_paper, options};
                trace_window window{traced};
                const double s = time_s([&] { (void)instance.find_deployment(request); });
                trace_capture ignored;
                window.finish(ignored);
                (traced ? on : off).push_back(s);
            }
        }
        // The first pair warms up; the medians of the other five compare.
        off.erase(off.begin());
        on.erase(on.begin());
        std::sort(off.begin(), off.end());
        std::sort(on.begin(), on.end());
        overhead_untraced_s = off[off.size() / 2];
        overhead_traced_s = on[on.size() / 2];
    }

    // Passes over the run's fixed inputs until --seconds is spent, at least
    // min_passes of them. Every metric pools the samples of all passes, so
    // its samples span the whole run: on a shared host other tenants slow
    // whole seconds at a time.
    const phase_sizes sizes = sizes_for(ctx);
    search_phase search_run{ctx, sizes, ctx.trace && ctx.workload == "search"};
    assess_phase assess_run{ctx, *setup, sizes, found_plans(ctx, *setup),
                            ctx.trace && ctx.workload == "assess"};
    service_phase service_run{ctx};
    const auto start = bench_clock::now();
    double pass_s = 0.0;
    std::size_t passes = 0;
    while (passes < min_passes || seconds_since(start) + pass_s <= ctx.seconds) {
        const auto pass_start = bench_clock::now();
        if (passes > 0) {
            set_up();
        }
        search_run.run_pass(*setup);
        assess_run.run_pass(*setup);
        service_run.run_pass(*setup);
        pass_s = seconds_since(pass_start);
        ++passes;
    }
    const search_phase_out search = search_run.finish(*setup);
    const assess_phase_out assess = assess_run.finish(*setup);
    const service_phase_out service = service_run.finish(*setup);

    json_object out;
    out.str("workload", ctx.workload)
        .num("seed", static_cast<double>(ctx.seed))
        .num("seconds", ctx.seconds)
        .num("trace", ctx.trace ? 1 : 0)
        .num("nproc", static_cast<double>(ctx.threads))
        .num("service_shards", static_cast<double>(ctx.shards))
        .num("service_workers_per_shard", static_cast<double>(ctx.workers_per_shard))
        .add("build", build_info_json())
        .add("parameters",
             json_object{}
                 .num("passes", static_cast<double>(passes))
                 .num("search_rounds", search_rounds)
                 .num("search_iterations", search_iterations)
                 .num("search_requests", sizes.search_requests)
                 .num("assess_rounds", sizes.assess_rounds)
                 .num("assess_target_ciw", sizes.ciw_target)
                 .num("assess_ciw_plans", ciw_plans)
                 .num("assess_ciw_runs_per_pass", ciw_runs_per_pass)
                 .num("service_rate_requests", service_requests)
                 .num("service_rate_rps", service_rate_rps)
                 .num("service_burst_requests", service_burst_requests)
                 .num("service_rounds", service_rounds)
                 .render())
        .list("setup_s", setup_s)
        .list("setup_scenario_ms", scenario_ms)
        .list("setup_recloud_ms", recloud_ms)
        .add("search", json_object{}
                           .add("serial_s", json_lists(search.serial_s))
                           .add("parallel_s", json_lists(search.parallel_s))
                           .list("iter_ms", search.iter_ms)
                           .list("evaluate_ms", search.evaluate_ms)
                           .num("searches", search.searches)
                           .num("plans_generated", search.plans_generated)
                           .num("plans_evaluated", search.plans_evaluated)
                           .num("symmetric_skips", search.symmetric_skips)
                           .num("accepted", search.accepted)
                           .add("cache", render_cache(search.cache))
                           .add("trace", render_capture(search.trace))
                           .render())
        .add("assess", json_object{}
                           .list("parallel_s", assess.parallel_s)
                           .list("engine_s", assess.engine_s)
                           .list("ciw_s", assess.ciw_s)
                           .list("rounds_to_ciw", assess.rounds_to_ciw)
                           .num("serial_equivalent_s", assess.serial_equivalent_s)
                           .add("parallel_cache", render_cache(assess.parallel_cache))
                           .num("engine_rounds", assess.engine_rounds)
                           .num("engine_dispatches", static_cast<double>(assess.engine.dispatches))
                           .num("engine_retries", static_cast<double>(assess.engine.retries))
                           .num("engine_degraded", static_cast<double>(assess.engine.degraded))
                           .num("engine_bytes", static_cast<double>(assess.engine.bytes_sent +
                                                                    assess.engine.bytes_received))
                           .add("trace", render_capture(assess.trace))
                           .render());
    std::string rate = "[";
    for (std::size_t p = 0; p < service.rate.size(); ++p) {
        rate += (p == 0 ? "" : ",") + render_records(service.rate[p]);
    }
    out.add("service", json_object{}
                           .num("rate_rps", service.rate_rps)
                           .add("rate", rate + "]")
                           .add("burst", render_records(service.burst))
                           .num("peak_queue_depth", service.peak_queue_depth)
                           .num("shed", service.shed)
                           .render());
    if (ctx.trace) {
        const unit_costs u = measure_unit_costs(ctx, *setup);
        out.add("units", json_object{}
                             .num("neighbor_ns", u.neighbor_ns)
                             .num("symmetry_ns", u.symmetry_ns)
                             .num("sample_round_ns", u.sample_round_ns)
                             .num("failed_per_round", u.failed_per_round)
                             .num("routing_check_ns", u.routing_check_ns)
                             .num("judge_micro_round_ns", u.judge_micro_round_ns)
                             .num("cache_lookup_ns", u.cache_lookup_ns)
                             .num("cache_lookup_micro_ns", u.cache_lookup_micro_ns)
                             .num("topology_ms", u.topology_ms)
                             .num("overhead_untraced_s", overhead_untraced_s)
                             .num("overhead_traced_s", overhead_traced_s)
                             .render());
    }
    out.num("attempted", static_cast<double>(ctx.ops.attempted))
        .num("failed", static_cast<double>(ctx.ops.failed));
    std::string checks = "[";
    for (std::size_t i = 0; i < ctx.ops.checks.size(); ++i) {
        checks += (i == 0 ? "" : ",") + ctx.ops.checks[i];
    }
    out.add("checks", checks + "]");
    setup.reset();
    std::printf("%s\n", out.render().c_str());
    return 0;
}
