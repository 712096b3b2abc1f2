#include "service/deployment_service.hpp"

#include <algorithm>
#include <exception>
#include <functional>
#include <stdexcept>
#include <utility>

#include "exec/engine.hpp"
#include "obs/admin_server.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "report/report.hpp"

namespace recloud {

const char* to_string(request_status status) noexcept {
    switch (status) {
        case request_status::completed: return "completed";
        case request_status::rejected: return "rejected";
        case request_status::failed: return "failed";
    }
    return "unknown";
}

const char* to_string(scheduling_policy policy) noexcept {
    switch (policy) {
        case scheduling_policy::fifo: return "fifo";
        case scheduling_policy::edf: return "edf";
    }
    return "unknown";
}

bool deployment_service::edf_before(const pending_request& a,
                                    const pending_request& b) noexcept {
    const auto key = [](const pending_request& p) {
        return p.has_deadline ? p.deadline_at
                              : monotonic_clock::time_point::max();
    };
    const auto ka = key(a);
    const auto kb = key(b);
    return ka != kb ? ka < kb : a.id < b.id;
}

deployment_service::deployment_service(const service_options& options)
    : options_(options) {
    const std::size_t shard_count = std::max<std::size_t>(1, options_.shards);
    const std::size_t workers = std::max<std::size_t>(1, options_.workers);
    shards_.reserve(shard_count);
    for (std::size_t s = 0; s < shard_count; ++s) {
        auto sh = std::make_unique<shard>();
        try {
            // Pre-register the per-shard queue gauges; registration is the
            // only allocating step, so the queue hot path stays a set().
            auto& registry = obs::metrics_registry::global();
            const std::string prefix = "service.shard." + std::to_string(s);
            sh->depth_gauge = registry.gauge(prefix + ".queue_depth");
            sh->peak_gauge = registry.gauge(prefix + ".queue_peak");
            sh->gauges_registered = true;
        } catch (const std::length_error&) {
            // Gauge capacity exhausted (very wide fleets): this shard keeps
            // its stats() depth/peak but stops publishing gauges.
        }
        sh->workers.reserve(workers);
        for (std::size_t w = 0; w < workers; ++w) {
            sh->workers.emplace_back([this, &sh = *sh] { worker_loop(sh); });
        }
        shards_.push_back(std::move(sh));
    }
    if (!options_.admin_socket.empty()) {
        try {
            obs::admin_endpoints endpoints;
            endpoints.metrics = [] {
                return obs::metrics_registry::global().snapshot();
            };
            endpoints.status_json = [this] { return status_json(); };
            endpoints.trace_json = [] {
                return obs::tracer::global().export_chrome_trace();
            };
            admin_ = std::make_unique<obs::admin_server>(options_.admin_socket,
                                                         std::move(endpoints));
        } catch (...) {
            // The worker threads are already running; join them before the
            // bind failure propagates, or ~thread would terminate().
            shutdown();
            throw;
        }
    }
}

deployment_service::~deployment_service() { shutdown(); }

void deployment_service::add_scenario(std::string name, scenario_ptr scenario) {
    if (scenario == nullptr) {
        throw std::invalid_argument{"deployment_service: null scenario"};
    }
    const std::lock_guard<std::mutex> lock{mutex_};
    scenarios_[std::move(name)] = std::move(scenario);
}

scenario_ptr deployment_service::find_scenario(const std::string& name) const {
    const std::lock_guard<std::mutex> lock{mutex_};
    const auto it = scenarios_.find(name);
    return it != scenarios_.end() ? it->second : nullptr;
}

std::size_t deployment_service::shard_of(
    const std::string& scenario) const noexcept {
    return std::hash<std::string>{}(scenario) % shards_.size();
}

std::future<service_response> deployment_service::submit(
    service_request request) {
    pending_request pending;
    pending.request = std::move(request);
    pending.admitted_at = monotonic_clock::now();
    if (pending.request.slo_deadline.count() > 0) {
        // Tracked under both policies (fifo still measures met/missed);
        // enforcement — EDF pop, shedding, preemption — is edf-only.
        pending.has_deadline = true;
        pending.deadline_at = pending.admitted_at + pending.request.slo_deadline;
    }
    std::future<service_response> future = pending.promise.get_future();

    // Resolved-at-admission responses (shed, unknown scenario) bypass the
    // queue so an overloaded service answers in O(1).
    const auto resolve_now = [&](request_status status, std::string error) {
        service_response response;
        response.status = status;
        response.request_id = pending.id;
        response.scenario = pending.request.scenario;
        response.error = std::move(error);
        pending.promise.set_value(std::move(response));
    };

    shard& sh = *shards_[shard_of(pending.request.scenario)];
    {
        // Lock order everywhere: service mutex_ before a shard mutex.
        const std::lock_guard<std::mutex> lock{mutex_};
        pending.id = next_request_id_++;
        if (shutting_down_.load(std::memory_order_relaxed)) {
            ++stats_.rejected;
            RECLOUD_COUNTER_INC("service.rejected");
            resolve_now(request_status::rejected, "service is shutting down");
            return future;
        }
        const auto it = scenarios_.find(pending.request.scenario);
        if (it == scenarios_.end()) {
            ++stats_.failed;
            RECLOUD_COUNTER_INC("service.failed");
            resolve_now(request_status::failed,
                        "unknown scenario: " + pending.request.scenario);
            return future;
        }
        if (options_.tenant_quota > 0) {
            const auto in_flight = tenant_in_flight_.find(pending.request.tenant);
            if (in_flight != tenant_in_flight_.end() &&
                in_flight->second >= options_.tenant_quota) {
                ++stats_.rejected;
                ++stats_.shed_quota;
                RECLOUD_COUNTER_INC("service.rejected");
                RECLOUD_COUNTER_INC("service.shed.quota");
                resolve_now(request_status::rejected,
                            "tenant quota exceeded: " + pending.request.tenant);
                return future;
            }
        }
        const std::lock_guard<std::mutex> shard_lock{sh.mutex};
        if (sh.queue.size() >= options_.queue_capacity) {
            ++stats_.rejected;
            ++stats_.shed_queue_full;
            RECLOUD_COUNTER_INC("service.rejected");
            RECLOUD_COUNTER_INC("service.shed.queue_full");
            resolve_now(request_status::rejected, "queue is full");
            return future;
        }
        if (options_.scheduling == scheduling_policy::edf &&
            pending.has_deadline && options_.min_service_grant.count() > 0) {
            // Unmeetable-at-admission bound (DESIGN.md §13): every queued
            // request EDF-ordered ahead of this one is owed at least
            // min_service_grant of search time first, spread across the
            // shard's workers — if even that optimistic start leaves less
            // than one grant before the deadline, running it would only
            // burn capacity the on-time requests need.
            const std::size_t workers =
                std::max<std::size_t>(1, options_.workers);
            std::size_t ahead = 0;
            for (const pending_request& queued : sh.queue) {
                if (edf_before(queued, pending)) {
                    ++ahead;
                }
            }
            const monotonic_clock::time_point earliest_finish =
                pending.admitted_at +
                options_.min_service_grant * ((ahead / workers) + 1);
            if (earliest_finish > pending.deadline_at) {
                ++stats_.rejected;
                ++stats_.shed_unmeetable;
                RECLOUD_COUNTER_INC("service.rejected");
                RECLOUD_COUNTER_INC("service.deadline.shed_unmeetable");
                resolve_now(request_status::rejected,
                            "deadline provably unmeetable at admission");
                return future;
            }
        }
        // Snapshot semantics: the request keeps the scenario it was admitted
        // with, even if the name is re-registered later.
        pending.scenario = it->second;
        ++tenant_in_flight_[pending.request.tenant];
        sh.queue.push_back(std::move(pending));
        ++stats_.submitted;
        RECLOUD_COUNTER_INC("service.submitted");
        const std::size_t depth = sh.queue.size();
        sh.peak = std::max(sh.peak, depth);
        stats_.peak_queue_depth = std::max(stats_.peak_queue_depth, depth);
        if (sh.gauges_registered) {
            auto& registry = obs::metrics_registry::global();
            registry.set(sh.depth_gauge, depth);
            registry.set(sh.peak_gauge, sh.peak);
        }
    }
    sh.work_available.notify_one();
    return future;
}

void deployment_service::worker_loop(shard& sh) {
    const bool edf = options_.scheduling == scheduling_policy::edf;
    for (;;) {
        pending_request pending;
        {
            std::unique_lock<std::mutex> lock{sh.mutex};
            sh.work_available.wait(lock, [this, &sh] {
                return shutting_down_.load(std::memory_order_relaxed) ||
                       !sh.queue.empty();
            });
            if (sh.queue.empty()) {
                return;  // shutting down and drained
            }
            auto it = sh.queue.begin();
            if (edf) {
                it = std::min_element(sh.queue.begin(), sh.queue.end(),
                                      &deployment_service::edf_before);
            }
            pending = std::move(*it);
            sh.queue.erase(it);
            if (sh.gauges_registered) {
                obs::metrics_registry::global().set(sh.depth_gauge,
                                                    sh.queue.size());
            }
        }
        const monotonic_clock::time_point dequeued_at = monotonic_clock::now();
        const auto queue_wait =
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                dequeued_at - pending.admitted_at);

        // Dequeue-time shed: a deadline that passed while the request sat
        // in the queue cannot be met by any search, so don't start one.
        if (edf && pending.has_deadline && dequeued_at >= pending.deadline_at) {
            service_response response;
            response.status = request_status::rejected;
            response.request_id = pending.id;
            response.scenario = pending.request.scenario;
            response.error = "deadline expired before the search started";
            response.queue_wait_ns = queue_wait;
            RECLOUD_HIST_OBSERVE("service.latency.queue_wait_ns",
                                 static_cast<std::uint64_t>(queue_wait.count()));
            {
                const std::lock_guard<std::mutex> lock{mutex_};
                ++stats_.rejected;
                ++stats_.shed_unmeetable;
                RECLOUD_COUNTER_INC("service.rejected");
                RECLOUD_COUNTER_INC("service.deadline.shed_unmeetable");
                const auto in_flight =
                    tenant_in_flight_.find(pending.request.tenant);
                if (in_flight != tenant_in_flight_.end() &&
                    --in_flight->second == 0) {
                    tenant_in_flight_.erase(in_flight);
                }
            }
            pending.promise.set_value(std::move(response));
            continue;
        }

        // Arm the request's lifecycle token: the search must yield by the
        // deadline minus the headroom reserved for response assembly.
        run_budget_ptr budget;
        if (edf && pending.has_deadline) {
            budget = std::make_shared<run_budget>();
            budget->set_deadline(pending.deadline_at -
                                 options_.deadline_headroom);
        }

        std::uint64_t worker_respawns = 0;
        service_response response = run(pending, budget, worker_respawns);
        const monotonic_clock::time_point finished_at = monotonic_clock::now();
        response.queue_wait_ns = queue_wait;
        response.search_ns =
            std::chrono::duration_cast<std::chrono::nanoseconds>(finished_at -
                                                                 dequeued_at);
        RECLOUD_HIST_OBSERVE("service.latency.queue_wait_ns",
                             static_cast<std::uint64_t>(queue_wait.count()));
        RECLOUD_HIST_OBSERVE(
            "service.latency.search_ns",
            static_cast<std::uint64_t>(response.search_ns.count()));
        if (pending.has_deadline) {
            response.deadline_met = finished_at <= pending.deadline_at;
        }
        const bool was_preempted =
            response.status == request_status::completed &&
            response.result.outcome == search_outcome::deadline_exceeded;
        {
            const std::lock_guard<std::mutex> lock{mutex_};
            stats_.worker_respawns += worker_respawns;
            if (response.status == request_status::completed) {
                ++stats_.completed;
                RECLOUD_COUNTER_INC("service.completed");
            } else {
                ++stats_.failed;
                RECLOUD_COUNTER_INC("service.failed");
            }
            if (pending.has_deadline) {
                if (response.deadline_met) {
                    ++stats_.deadline_met;
                    RECLOUD_COUNTER_INC("service.deadline.met");
                } else {
                    ++stats_.deadline_missed;
                    RECLOUD_COUNTER_INC("service.deadline.missed");
                }
            }
            if (was_preempted) {
                ++stats_.preempted;
                RECLOUD_COUNTER_INC("service.deadline.preempted");
            }
            const auto in_flight = tenant_in_flight_.find(pending.request.tenant);
            if (in_flight != tenant_in_flight_.end() && --in_flight->second == 0) {
                tenant_in_flight_.erase(in_flight);
            }
        }
        pending.promise.set_value(std::move(response));
    }
}

service_response deployment_service::run(pending_request& pending,
                                         const run_budget_ptr& budget,
                                         std::uint64_t& worker_respawns) const {
    RECLOUD_SPAN("service.request");
    service_response response;
    response.request_id = pending.id;
    response.scenario = pending.request.scenario;

    recloud_options options = options_.defaults;
    options.seed = pending.request.seed;
    if (pending.request.search_chains) {
        options.search_chains = *pending.request.search_chains;
    }
    if (pending.request.max_iterations) {
        options.max_iterations = *pending.request.max_iterations;
    }
    if (options_.defaults.observer) {
        // Stamp every event of this request's search with the request id;
        // the shared downstream observer must cope with several requests'
        // workers calling it concurrently.
        options.observer = [id = pending.id,
                            &observer = options_.defaults.observer](
                               const obs::search_iteration_event& e) {
            obs::search_iteration_event event = e;
            event.request_id = id;
            observer(event);
        };
    }

    try {
        re_cloud instance{pending.scenario, options};
        deployment_request request;
        request.app = pending.request.app;
        request.desired_reliability = pending.request.desired_reliability;
        request.max_search_time = pending.request.max_search_time;
        request.budget = budget;
        response.result = instance.find_deployment(request);
        response.status = request_status::completed;
        if (const engine_stats* engine = instance.execution_stats()) {
            worker_respawns = engine->worker_respawns;
        }
    } catch (const std::exception& error) {
        response.status = request_status::failed;
        response.error = error.what();
    }
    return response;
}

void deployment_service::shutdown() {
    // The admin server goes first, OUTSIDE the service mutex: stop() joins
    // the server thread, and a /status request in flight on that thread
    // needs the service mutex to finish.
    if (admin_ != nullptr) {
        admin_->stop();
    }
    // Idempotent: only the caller that flips the flag joins the workers;
    // later calls (including the destructor after an explicit shutdown)
    // see joined-and-cleared shards and return immediately.
    {
        const std::lock_guard<std::mutex> lock{mutex_};
        bool all_joined = true;
        for (const std::unique_ptr<shard>& sh : shards_) {
            all_joined = all_joined && sh->workers.empty();
        }
        if (shutting_down_.load(std::memory_order_relaxed) && all_joined) {
            return;
        }
        shutting_down_.store(true, std::memory_order_relaxed);
    }
    for (const std::unique_ptr<shard>& sh : shards_) {
        // Take (and drop) the shard mutex before notifying: a worker that
        // checked the predicate before the flag flipped must be parked on
        // the CV before this notify fires, or it would sleep forever — we
        // only notify once.
        { const std::lock_guard<std::mutex> shard_lock{sh->mutex}; }
        sh->work_available.notify_all();
    }
    // Joining drains every queue; each request's re_cloud (and any child
    // recloud_worker fleet it spawned for the socket transport) dies with
    // its search, so no child processes survive this point.
    for (const std::unique_ptr<shard>& sh : shards_) {
        for (std::thread& worker : sh->workers) {
            if (worker.joinable()) {
                worker.join();
            }
        }
        sh->workers.clear();
    }
}

service_stats deployment_service::stats() const {
    service_stats out;
    {
        const std::lock_guard<std::mutex> lock{mutex_};
        out = stats_;
    }
    // Per-shard views are taken shard by shard after the service mutex is
    // released (lock order: never service mutex_ inside a shard mutex, and
    // no nesting needed here).
    out.shard_queue_depth.reserve(shards_.size());
    out.shard_queue_peak.reserve(shards_.size());
    for (const std::unique_ptr<shard>& sh : shards_) {
        const std::lock_guard<std::mutex> lock{sh->mutex};
        out.shard_queue_depth.push_back(sh->queue.size());
        out.shard_queue_peak.push_back(sh->peak);
    }
    return out;
}

std::string deployment_service::status_json() const {
    const service_stats snapshot = stats();
    std::string out = "{\"status\":";
    out += shutting_down_.load(std::memory_order_relaxed) ? "\"shutting_down\""
                                                          : "\"ok\"";
    out += ",\"shards\":" + std::to_string(shards_.size());
    out += ",\"workers_per_shard\":" +
           std::to_string(std::max<std::size_t>(1, options_.workers));
    out += ",\"queue_capacity\":" + std::to_string(options_.queue_capacity);
    out += ",\"tenant_quota\":" + std::to_string(options_.tenant_quota);
    out += ",\"scheduling\":\"";
    out += to_string(options_.scheduling);
    out += "\",\"min_service_grant_ns\":" +
           std::to_string(options_.min_service_grant.count());
    out += ",\"deadline_headroom_ns\":" +
           std::to_string(options_.deadline_headroom.count());
    out += ",\"stats\":" + to_json(snapshot);
    out += ",\"tenants_in_flight\":{";
    {
        const std::lock_guard<std::mutex> lock{mutex_};
        bool first = true;
        for (const auto& [tenant, in_flight] : tenant_in_flight_) {
            if (!first) {
                out.push_back(',');
            }
            first = false;
            out += json_escape(tenant) + ":" + std::to_string(in_flight);
        }
    }
    out += "}";
    out += ",\"fleet\":{\"worker_respawns\":" +
           std::to_string(snapshot.worker_respawns) + ",\"trace_dropped\":" +
           std::to_string(obs::tracer::global().dropped()) + "}";
    out += "}\n";
    return out;
}

std::size_t deployment_service::queue_depth() const {
    std::size_t depth = 0;
    for (const std::unique_ptr<shard>& sh : shards_) {
        const std::lock_guard<std::mutex> lock{sh->mutex};
        depth += sh->queue.size();
    }
    return depth;
}

std::size_t deployment_service::tenant_in_flight(const std::string& tenant) const {
    const std::lock_guard<std::mutex> lock{mutex_};
    const auto it = tenant_in_flight_.find(tenant);
    return it != tenant_in_flight_.end() ? it->second : 0;
}

}  // namespace recloud
