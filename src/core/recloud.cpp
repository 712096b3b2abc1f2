#include "core/recloud.hpp"

#include <algorithm>
#include <stdexcept>
#include <thread>
#include <utility>

#include "exec/engine.hpp"
#include "obs/trace.hpp"

namespace recloud {
namespace {

/// Wires the configured backend kind onto the scenario. Every backend clones
/// its per-worker oracles through the scenario — the captured scenario_ptr
/// keeps the snapshot alive for as long as the factory (and thus the
/// backend) exists. The serial backend is the one-worker parallel backend.
///
/// Lifetime: every backend stores `sampler` as a non-owning pointer and
/// dereferences it on each assess()/reset_stream(). The caller (re_cloud's
/// constructor / make_chain_stack) owns the sampler in a member declared
/// before the backend (destroyed after it) — the pointer can never dangle
/// within re_cloud. Anyone else calling this owes the same guarantee.
std::unique_ptr<assessment_backend> make_backend(
    const scenario_ptr& scenario, const recloud_options& options,
    failure_sampler& sampler, const verdict_cache_options& cache_options) {
    const std::size_t components = scenario->registry().size();
    const fault_tree_forest* forest = scenario->forest();
    oracle_factory factory = [scenario] { return scenario->make_oracle(); };
    if (options.backend != assessment_backend_kind::engine) {
        const bool serial = options.backend == assessment_backend_kind::serial;
        return std::make_unique<parallel_backend>(
            components, forest, std::move(factory), sampler,
            parallel_backend_options{
                .threads = serial ? 1 : options.assessment_threads,
                .batch_rounds = options.assessment_batch_rounds,
                .verdict_cache = cache_options});
    }
    engine_options eng{.workers = options.assessment_threads != 0
                                      ? options.assessment_threads
                                      : std::max(
                                            1u, std::thread::hardware_concurrency()),
                       .batch_rounds = options.assessment_batch_rounds,
                       .max_attempts = options.engine_max_attempts,
                       .batch_deadline = options.engine_batch_deadline,
                       .verdict_cache = cache_options};
    if (options.engine_transport == engine_transport_kind::socket) {
        eng.transport = transport_kind::socket;
        if (!options.engine_worker_binary.empty()) {
            eng.socket.worker_binary = options.engine_worker_binary;
        }
        eng.socket.max_respawns = options.engine_max_respawns;
        // The structural environment shipped to worker processes borrows
        // from the scenario; the caller holds the scenario_ptr for the
        // backend's whole lifetime (re_cloud's member order guarantees it).
        eng.topology = &scenario->topology();
        eng.links = scenario->links();
    }
    return std::make_unique<assessment_engine>(components, forest,
                                               std::move(factory), sampler, eng);
}

}  // namespace

re_cloud::re_cloud(scenario_ptr scenario, const recloud_options& options)
    : scenario_(std::move(scenario)), options_(options) {
    if (scenario_ == nullptr) {
        throw std::invalid_argument{"re_cloud: a scenario is required"};
    }
    if (options_.multi_objective && scenario_->workloads() == nullptr) {
        throw std::invalid_argument{
            "re_cloud: multi-objective optimization needs workloads"};
    }
    if (options_.instance_workload_demand > 0.0 &&
        scenario_->workloads() == nullptr) {
        throw std::invalid_argument{
            "re_cloud: resource constraints need workloads"};
    }
    if (options_.instance_workload_demand < 0.0) {
        throw std::invalid_argument{
            "re_cloud: instance_workload_demand must be >= 0"};
    }
    if (options_.assessment_rounds == 0) {
        throw std::invalid_argument{"re_cloud: assessment_rounds must be >= 1"};
    }
    if (options_.search_chains == 0) {
        throw std::invalid_argument{"re_cloud: search_chains must be >= 1"};
    }
    if (options_.deterministic_schedule &&
        options_.max_iterations == static_cast<std::size_t>(-1)) {
        throw std::invalid_argument{
            "re_cloud: deterministic_schedule needs a finite max_iterations"};
    }
    sampler_ = make_sampler(options_.sampler, scenario_->registry().probabilities(),
                            options_.seed);
    if (options_.verdict_cache) {
        support_.emplace(scenario_->topology(), scenario_->registry().size(),
                         scenario_->forest(), scenario_->links());
        cache_options_.enabled = true;
        cache_options_.support = &*support_;
    }
    backend_ = make_backend(scenario_, options_, *sampler_, cache_options_);
    if (options_.backend == assessment_backend_kind::engine) {
        engine_view_ = static_cast<assessment_engine*>(backend_.get());
        // Aggregation scratch allocated up front so execution_stats() never
        // allocates while chains are live.
        aggregated_engine_stats_ = std::make_unique<engine_stats>();
    }
    if (options_.use_symmetry) {
        symmetry_.emplace(scenario_->topology(), scenario_->registry(),
                          scenario_->forest(), scenario_->links());
    }
    if (options_.multi_objective) {
        utility_.emplace(*scenario_->workloads());
    }
}

re_cloud::re_cloud(const fat_tree_infrastructure& infra,
                   const recloud_options& options)
    : re_cloud(make_fat_tree_scenario(infra), options) {}

re_cloud::~re_cloud() = default;

re_cloud::chain_stack re_cloud::make_chain_stack(std::uint64_t stream_id) const {
    chain_stack stack;
    stack.sampler = sampler_->fork(stream_id);  // make_sampler's always fork
    stack.backend =
        make_backend(scenario_, options_, *stack.sampler, cache_options_);
    return stack;
}

deployment_response re_cloud::find_deployment(const deployment_request& request) {
    request.app.validate();
    const std::uint32_t instances = request.app.total_instances();
    const std::size_t chain_count = options_.search_chains;
    const run_budget* budget = request.budget.get();

    // Chains 1..K-1 get their own assessment stack with a forked sampler
    // substream; chain 0 reuses the main stack, so K=1 is byte-for-byte the
    // single-chain path. Stacks persist across searches (like the main one).
    while (chains_.size() + 1 < chain_count) {
        chains_.push_back(make_chain_stack(chains_.size() + 1));
    }

    std::vector<std::unique_ptr<neighbor_generator>> generators;
    std::vector<plan_evaluator> evaluators;
    std::vector<chain_spec> specs;
    generators.reserve(chain_count);
    evaluators.reserve(chain_count);
    specs.reserve(chain_count);
    const std::uint64_t anneal_seed = options_.seed + 0x5eedULL;
    for (std::size_t c = 0; c < chain_count; ++c) {
        // Chain 0 keeps the legacy seeds exactly; higher chains derive
        // theirs from forked substreams, so growing K only ADDS trajectories
        // (prefix stability: chain c's trajectory is the same for any K > c).
        const std::uint64_t generator_seed =
            c == 0 ? options_.seed : substream_seed(options_.seed, c);
        generators.push_back(std::make_unique<neighbor_generator>(
            scenario_->topology(), options_.affinity, generator_seed));
        assessment_backend* backend =
            c == 0 ? backend_.get() : chains_[c - 1].backend.get();
        evaluators.push_back(
            [this, &request, backend](const deployment_plan& plan) {
                if (options_.common_random_numbers) {
                    // Same failure sequences for every candidate — and for
                    // every CHAIN: comparisons within a chain and across
                    // chains measure the plans, not the noise. Backends
                    // guarantee identical streams after a reset regardless
                    // of their worker count.
                    backend->reset_stream(options_.seed ^ 0xc0ffeeULL);
                }
                return evaluate_on(*backend, request.app, plan);
            });
        specs.push_back(chain_spec{
            generators[c].get(), &evaluators[c],
            c == 0 ? anneal_seed : substream_seed(anneal_seed, c)});
    }

    annealing_options search_options;
    search_options.max_time = request.max_search_time;
    search_options.max_iterations = options_.max_iterations;
    search_options.desired_reliability = request.desired_reliability;
    search_options.use_symmetry = options_.use_symmetry;
    search_options.delta = options_.delta;
    search_options.schedule = options_.deterministic_schedule
                                  ? schedule_mode::iterations
                                  : schedule_mode::wall_clock;
    search_options.record_trace = options_.record_trace;
    if (options_.observer) {
        // Forwarding wrapper: enrich each event with the emitting chain's
        // verdict-cache hit rate (reads counters only — cannot perturb the
        // search; the chain's own backend is idle while its observer runs).
        search_options.observer = [this](const obs::search_iteration_event& e) {
            obs::search_iteration_event event = e;
            const assessment_backend* backend =
                event.chain == 0 ? backend_.get()
                                 : chains_[event.chain - 1].backend.get();
            if (const verdict_cache_stats* cache = backend->cache_stats()) {
                event.cache_hit_rate = cache->hit_rate();
            }
            options_.observer(event);
        };
    }
    if (options_.instance_workload_demand > 0.0) {
        // §3.3.3: discard plans violating resource constraints before
        // spending an assessment on them.
        const double demand = options_.instance_workload_demand;
        const workload_map* workloads = scenario_->workloads();
        search_options.filter = [demand, workloads](const deployment_plan& plan) {
            for (const node_id host : plan.hosts) {
                if (workloads->of(host) + demand > 1.0) {
                    return false;
                }
            }
            return true;
        };
    }

    // Arm every chain's backend with the lifecycle token for the search;
    // guard-scoped so the token is disarmed before the final re-assessment
    // below (an anytime result still gets unbiased, complete stats) and on
    // any exception path (the borrowed token must not outlive the request).
    struct budget_guard {
        std::vector<assessment_backend*> armed;
        void disarm() noexcept {
            for (assessment_backend* backend : armed) {
                backend->set_budget(nullptr);
            }
            armed.clear();
        }
        ~budget_guard() { disarm(); }
    } guard;
    if (budget != nullptr) {
        guard.armed.push_back(backend_.get());
        for (const chain_stack& chain : chains_) {
            guard.armed.push_back(chain.backend.get());
        }
        for (assessment_backend* backend : guard.armed) {
            backend->set_budget(budget);
        }
        search_options.budget = budget;
    }

    const symmetry_checker* symmetry = symmetry_ ? &*symmetry_ : nullptr;
    multi_chain_result chains_result = anneal_chains(
        specs, symmetry, instances, search_options, options_.search_threads);
    guard.disarm();
    annealing_result result =
        std::move(chains_result.chains[chains_result.winning_chain]);

    deployment_response response;
    response.winning_chain = chains_result.winning_chain;
    response.fulfilled = result.fulfilled;
    response.plan = result.best_plan;
    if (options_.common_random_numbers) {
        // Re-assess the winner on a fresh stream: the search maximized the
        // CRN estimate, so reporting it directly would carry winner's bias.
        backend_->reset_stream(options_.seed ^ 0xf1e5aULL);
        const plan_evaluation unbiased = evaluate(request.app, result.best_plan);
        response.stats = unbiased.stats;
        response.utility = unbiased.utility;
        response.score = unbiased.score;
        response.fulfilled =
            result.fulfilled &&
            unbiased.stats.reliability >= request.desired_reliability;
    } else {
        response.stats = result.best_evaluation.stats;
        response.utility = result.best_evaluation.utility;
        response.score = result.best_evaluation.score;
    }
    // Three-way lifecycle verdict: a CRN re-check that withdraws
    // fulfillment downgrades to exhausted (the budget WAS spent), never to
    // deadline_exceeded — that verdict is reserved for a fired run_budget.
    response.outcome =
        response.fulfilled
            ? search_outcome::fulfilled
            : (result.outcome == search_outcome::deadline_exceeded
                   ? search_outcome::deadline_exceeded
                   : search_outcome::exhausted);
    response.search = std::move(result);
    return response;
}

assessment_stats re_cloud::assess(const application& app,
                                  const deployment_plan& plan,
                                  std::size_t rounds) {
    app.validate();
    validate_plan(plan, app, scenario_->topology());
    return backend_->assess(app, plan,
                            rounds == 0 ? options_.assessment_rounds : rounds);
}

const engine_stats* re_cloud::execution_stats() const {
    if (engine_view_ == nullptr) {
        return nullptr;
    }
    if (chains_.empty()) {
        return &engine_view_->stats();
    }
    engine_stats& total = *aggregated_engine_stats_;
    total = engine_view_->stats();
    for (const chain_stack& chain : chains_) {
        total.accumulate(
            static_cast<const assessment_engine*>(chain.backend.get())->stats());
    }
    return &total;
}

const verdict_cache_stats* re_cloud::cache_stats() const {
    const verdict_cache_stats* main = backend_->cache_stats();
    if (main == nullptr) {
        return nullptr;
    }
    if (chains_.empty()) {
        return main;
    }
    aggregated_cache_stats_ = *main;
    for (const chain_stack& chain : chains_) {
        if (const verdict_cache_stats* s = chain.backend->cache_stats()) {
            aggregated_cache_stats_.accumulate(*s);
        }
    }
    return &aggregated_cache_stats_;
}

obs::telemetry_snapshot re_cloud::telemetry() const {
    obs::metrics_registry& registry = obs::metrics_registry::global();
    // Cross-process harvest first (socket transports; loopback no-ops):
    // pulls worker registry deltas into the global registry and worker
    // cache counters into the transports' fleet stores, so the gauges
    // published below report fleet totals equivalent to a loopback run.
    // Chain backends fold into the shared registry/totals only; per-worker
    // provenance labels below come from the MAIN backend's fleet.
    if (engine_view_ != nullptr) {
        engine_view_->harvest_telemetry();
        for (const chain_stack& chain : chains_) {
            static_cast<assessment_engine*>(chain.backend.get())
                ->harvest_telemetry();
        }
    }
    // Gauges are snapshot-time publishes (set() works while the registry is
    // disabled): the structs stay the source of truth, the registry is the
    // one export surface. The "engine.stats."/"cache.stats." prefixes keep
    // them clear of the live "engine."/"cache." counters.
    if (const engine_stats* engine = execution_stats()) {
        engine_stats::for_each_counter([&](const char* name, auto field) {
            registry.set(registry.gauge(std::string{"engine.stats."} + name),
                         engine->*field);
        });
    }
    if (const verdict_cache_stats* cache = cache_stats()) {
        verdict_cache_stats::for_each_counter([&](const char* name, auto field) {
            registry.set(registry.gauge(std::string{"cache.stats."} + name),
                         cache->*field);
        });
        registry.set(registry.gauge("cache.stats.saved_rounds"),
                     cache->saved_rounds());
    }
    registry.set(registry.gauge("trace.dropped"),
                 obs::tracer::global().dropped());
    obs::telemetry_snapshot snap = registry.snapshot();
    // Per-worker provenance entries (worker.N.*) appended OUTSIDE the
    // registry: 8 workers x a dozen counters would exhaust the fixed gauge
    // capacity, and these are per-snapshot views, not live metrics. The
    // snapshot is re-sorted afterwards (find() binary-searches by name).
    if (engine_view_ != nullptr) {
        const worker_fleet_telemetry fleet = engine_view_->fleet_telemetry();
        const auto add = [&snap](std::string name, std::uint64_t value) {
            obs::metric_entry entry;
            entry.name = std::move(name);
            entry.kind = obs::metric_kind::gauge;
            entry.value = value;
            snap.metrics.push_back(std::move(entry));
        };
        for (const auto& w : fleet.workers) {
            const std::string prefix =
                "worker." + std::to_string(w.worker_id) + ".";
            add(prefix + "pid", w.pid);
            add(prefix + "harvests", w.harvests);
            add(prefix + "trace.dropped", w.trace_dropped);
            verdict_cache_stats::for_each_counter(
                [&](const char* name, auto field) {
                    add(prefix + "cache.stats." + name, w.cache.*field);
                });
            add(prefix + "cache.stats.saved_rounds", w.cache.saved_rounds());
        }
        if (!fleet.workers.empty()) {
            std::sort(snap.metrics.begin(), snap.metrics.end(),
                      [](const obs::metric_entry& a,
                         const obs::metric_entry& b) { return a.name < b.name; });
        }
    }
    return snap;
}

plan_evaluation re_cloud::evaluate_on(assessment_backend& backend,
                                      const application& app,
                                      const deployment_plan& plan) const {
    plan_evaluation eval;
    eval.stats = backend.assess(app, plan, options_.assessment_rounds);
    if (options_.multi_objective) {
        eval.utility = utility_->utility(plan);
        const double a = options_.weights.reliability;
        const double b = options_.weights.utility;
        const double total = a + b;
        // Eq. 7, normalized into [0, 1] so Eq. 5's log-ratio keeps its
        // order-of-magnitude meaning for the combined score.
        eval.score = total > 0.0
                         ? holistic_measure(eval.stats.reliability, eval.utility,
                                            options_.weights) /
                               total
                         : 0.0;
    } else {
        eval.score = eval.stats.reliability;
    }
    return eval;
}

plan_evaluation re_cloud::evaluate(const application& app,
                                   const deployment_plan& plan) {
    return evaluate_on(*backend_, app, plan);
}

}  // namespace recloud
