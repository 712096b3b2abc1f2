// Concurrent deployment service (service/deployment_service.hpp):
// admission control on a bounded queue, request isolation over shared
// scenario snapshots, per-request telemetry tagging, and drain-on-shutdown.
#include "service/deployment_service.hpp"

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <future>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/scenario.hpp"
#include "obs/timeline.hpp"
#include "obs/trace.hpp"

namespace recloud {
namespace {

recloud_options small_search_defaults() {
    recloud_options defaults;
    defaults.assessment_rounds = 200;
    defaults.max_iterations = 20;
    defaults.deterministic_schedule = true;
    return defaults;
}

service_request request_for(std::string scenario, std::uint64_t seed) {
    service_request request;
    request.scenario = std::move(scenario);
    request.app = application::k_of_n(2, 3);
    request.desired_reliability = 1.0;  // unreachable: full budget runs
    request.max_search_time = std::chrono::seconds{30};
    request.seed = seed;
    return request;
}

TEST(Service, CompletesARequest) {
    service_options options;
    options.workers = 1;
    options.defaults = small_search_defaults();
    deployment_service service{options};
    service.add_scenario("dc", make_fat_tree_scenario(4));

    auto future = service.submit(request_for("dc", 3));
    const service_response response = future.get();
    EXPECT_EQ(response.status, request_status::completed);
    EXPECT_EQ(response.request_id, 1u);
    EXPECT_EQ(response.scenario, "dc");
    EXPECT_EQ(response.result.plan.hosts.size(), 3u);
    EXPECT_GT(response.result.stats.rounds, 0u);

    const service_stats stats = service.stats();
    EXPECT_EQ(stats.submitted, 1u);
    EXPECT_EQ(stats.completed, 1u);
    EXPECT_EQ(stats.rejected, 0u);
    EXPECT_EQ(stats.failed, 0u);
}

TEST(Service, UnknownScenarioFailsTheRequest) {
    service_options options;
    options.workers = 1;
    options.defaults = small_search_defaults();
    deployment_service service{options};
    const service_response response =
        service.submit(request_for("nowhere", 1)).get();
    EXPECT_EQ(response.status, request_status::failed);
    EXPECT_FALSE(response.error.empty());
    EXPECT_EQ(service.stats().failed, 1u);
}

TEST(Service, ZeroCapacityQueueRejectsDeterministically) {
    // queue_capacity = 0 makes EVERY submission overflow — the admission
    // path is exercised without racing the workers.
    service_options options;
    options.workers = 1;
    options.queue_capacity = 0;
    options.defaults = small_search_defaults();
    deployment_service service{options};
    service.add_scenario("dc", make_fat_tree_scenario(4));

    for (int i = 0; i < 3; ++i) {
        const service_response response =
            service.submit(request_for("dc", 1)).get();
        EXPECT_EQ(response.status, request_status::rejected);
        EXPECT_FALSE(response.error.empty());
    }
    const service_stats stats = service.stats();
    EXPECT_EQ(stats.rejected, 3u);
    EXPECT_EQ(stats.submitted, 0u);
    EXPECT_EQ(service.queue_depth(), 0u);
}

TEST(Service, SubmitAfterShutdownIsRejected) {
    service_options options;
    options.workers = 1;
    options.defaults = small_search_defaults();
    deployment_service service{options};
    service.add_scenario("dc", make_fat_tree_scenario(4));
    service.shutdown();
    service.shutdown();  // idempotent
    const service_response response =
        service.submit(request_for("dc", 1)).get();
    EXPECT_EQ(response.status, request_status::rejected);
}

TEST(Service, ScenarioReplacementDoesNotAffectAdmittedRequests) {
    service_options options;
    options.workers = 1;
    options.defaults = small_search_defaults();
    deployment_service service{options};
    const scenario_ptr original = make_fat_tree_scenario(4);
    service.add_scenario("dc", original);
    auto future = service.submit(request_for("dc", 3));
    // Replace the name immediately; the admitted request captured the
    // original snapshot at submission.
    service.add_scenario("dc", make_fat_tree_scenario(6));
    const service_response response = future.get();
    EXPECT_EQ(response.status, request_status::completed);
    // A k=4 fat tree has 16 hosts; k=6 host ids extend far beyond. The plan
    // must come from the ORIGINAL snapshot's host range.
    for (const node_id host : response.result.plan.hosts) {
        bool in_original = false;
        for (const node_id h : original->topology().hosts) {
            if (h == host) {
                in_original = true;
                break;
            }
        }
        EXPECT_TRUE(in_original);
    }
    EXPECT_GT(service.find_scenario("dc")->topology().hosts.size(),
              original->topology().hosts.size());
}

TEST(Service, ConcurrentRequestsMatchSoloRuns) {
    // The isolation contract: 8 requests racing on 2 workers against ONE
    // shared snapshot produce exactly what 8 solo re_cloud runs produce.
    const scenario_ptr snapshot = make_fat_tree_scenario(4);
    const recloud_options defaults = small_search_defaults();

    std::vector<deployment_response> solo;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        recloud_options options = defaults;
        options.seed = seed;
        re_cloud system{snapshot, options};
        deployment_request request;
        request.app = application::k_of_n(2, 3);
        request.desired_reliability = 1.0;
        request.max_search_time = std::chrono::seconds{30};
        solo.push_back(system.find_deployment(request));
    }

    service_options options;
    options.workers = 2;
    options.defaults = defaults;
    deployment_service service{options};
    service.add_scenario("dc", snapshot);
    std::vector<std::future<service_response>> futures;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        futures.push_back(service.submit(request_for("dc", seed)));
    }
    for (std::size_t i = 0; i < futures.size(); ++i) {
        const service_response response = futures[i].get();
        ASSERT_EQ(response.status, request_status::completed) << response.error;
        EXPECT_EQ(response.result.plan.hosts, solo[i].plan.hosts);
        EXPECT_EQ(response.result.stats.reliable, solo[i].stats.reliable);
        EXPECT_EQ(response.result.stats.rounds, solo[i].stats.rounds);
        EXPECT_EQ(response.result.score, solo[i].score);
        EXPECT_EQ(response.result.winning_chain, solo[i].winning_chain);
    }
    const service_stats stats = service.stats();
    EXPECT_EQ(stats.submitted, 8u);
    EXPECT_EQ(stats.completed, 8u);
    EXPECT_GE(stats.peak_queue_depth, 1u);
}

TEST(Service, PerRequestOverridesApply) {
    const scenario_ptr snapshot = make_fat_tree_scenario(4);
    service_options options;
    options.workers = 1;
    options.defaults = small_search_defaults();
    deployment_service service{options};
    service.add_scenario("dc", snapshot);

    service_request multi = request_for("dc", 9);
    multi.search_chains = 3;
    multi.max_iterations = 12;
    const service_response response = service.submit(std::move(multi)).get();
    ASSERT_EQ(response.status, request_status::completed);
    EXPECT_LT(response.result.winning_chain, 3u);
    // 12-iteration budget, not the 20 of the defaults.
    EXPECT_LE(response.result.search.plans_generated, 12u);

    // The same request through a solo re_cloud with the override applied.
    recloud_options solo_options = options.defaults;
    solo_options.seed = 9;
    solo_options.search_chains = 3;
    solo_options.max_iterations = 12;
    re_cloud solo{snapshot, solo_options};
    deployment_request request;
    request.app = application::k_of_n(2, 3);
    request.desired_reliability = 1.0;
    request.max_search_time = std::chrono::seconds{30};
    const deployment_response expected = solo.find_deployment(request);
    EXPECT_EQ(response.result.plan.hosts, expected.plan.hosts);
    EXPECT_EQ(response.result.winning_chain, expected.winning_chain);
}

TEST(Service, ObserverEventsAreTaggedWithRequestIds) {
    std::mutex seen_mutex;
    std::set<std::uint64_t> seen_requests;
    service_options options;
    options.workers = 2;
    options.defaults = small_search_defaults();
    options.defaults.observer = [&](const obs::search_iteration_event& event) {
        const std::lock_guard<std::mutex> lock{seen_mutex};
        seen_requests.insert(event.request_id);
    };
    deployment_service service{options};
    service.add_scenario("dc", make_fat_tree_scenario(4));
    std::vector<std::future<service_response>> futures;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        futures.push_back(service.submit(request_for("dc", seed)));
    }
    std::set<std::uint64_t> expected_ids;
    for (auto& future : futures) {
        const service_response response = future.get();
        ASSERT_EQ(response.status, request_status::completed);
        expected_ids.insert(response.request_id);
    }
    const std::lock_guard<std::mutex> lock{seen_mutex};
    EXPECT_EQ(seen_requests, expected_ids);  // every id tagged, no id zero
    EXPECT_EQ(seen_requests.count(0), 0u);
}

TEST(Service, ShutdownDrainsAdmittedRequests) {
    // Everything admitted before shutdown still completes; the destructor
    // path is the same code.
    service_options options;
    options.workers = 1;
    options.defaults = small_search_defaults();
    std::vector<std::future<service_response>> futures;
    {
        deployment_service service{options};
        service.add_scenario("dc", make_fat_tree_scenario(4));
        for (std::uint64_t seed = 1; seed <= 4; ++seed) {
            futures.push_back(service.submit(request_for("dc", seed)));
        }
        service.shutdown();
    }
    for (auto& future : futures) {
        const service_response response = future.get();
        EXPECT_EQ(response.status, request_status::completed);
    }
}

TEST(Service, StatusToString) {
    EXPECT_STREQ(to_string(request_status::completed), "completed");
    EXPECT_STREQ(to_string(request_status::rejected), "rejected");
    EXPECT_STREQ(to_string(request_status::failed), "failed");
}

// ---- sharding, quotas and load shedding ------------------------------------

/// Blocks the search of one request id at its first observer event until
/// release(); other requests' events pass straight through. Lets tests hold
/// a shard's single worker busy deterministically.
class request_gate {
public:
    explicit request_gate(std::uint64_t id) : id_(id) {}

    [[nodiscard]] obs::search_observer observer() {
        return [this](const obs::search_iteration_event& event) {
            if (event.request_id != id_) {
                return;
            }
            std::unique_lock<std::mutex> lock{mutex_};
            if (!started_) {
                started_ = true;
                cv_.notify_all();
            }
            cv_.wait(lock, [this] { return released_; });
        };
    }

    void await_started() {
        std::unique_lock<std::mutex> lock{mutex_};
        cv_.wait(lock, [this] { return started_; });
    }

    void release() {
        const std::lock_guard<std::mutex> lock{mutex_};
        released_ = true;
        cv_.notify_all();
    }

private:
    std::uint64_t id_;
    std::mutex mutex_;
    std::condition_variable cv_;
    bool started_ = false;
    bool released_ = false;
};

TEST(Service, ShardRoutingIsStableAndBounded) {
    service_options options;
    options.workers = 1;
    options.shards = 4;
    options.defaults = small_search_defaults();
    deployment_service service{options};
    EXPECT_EQ(service.shard_count(), 4u);
    for (const char* name : {"alpha", "beta", "gamma"}) {
        const std::size_t shard = service.shard_of(name);
        EXPECT_LT(shard, 4u);
        EXPECT_EQ(shard, service.shard_of(name));  // stable
    }
}

TEST(Service, HotScenarioShedsOnItsOwnShardOnly) {
    request_gate gate{1};
    service_options options;
    options.workers = 1;
    options.queue_capacity = 1;
    options.shards = 4;
    options.defaults = small_search_defaults();
    options.defaults.observer = gate.observer();
    deployment_service service{options};

    // Two scenario names living on different shards.
    std::string hot = "s0";
    std::string cold;
    for (int i = 1; i < 64 && cold.empty(); ++i) {
        std::string candidate = "s";
        candidate += std::to_string(i);
        if (service.shard_of(candidate) != service.shard_of(hot)) {
            cold = candidate;
        }
    }
    ASSERT_FALSE(cold.empty());
    const scenario_ptr snapshot = make_fat_tree_scenario(4);
    service.add_scenario(hot, snapshot);
    service.add_scenario(cold, snapshot);

    // Wedge the hot shard: request 1 runs (gated inside its search), one
    // more fills the queue (capacity 1), the third must shed.
    auto wedged = service.submit(request_for(hot, 1));
    gate.await_started();
    auto queued = service.submit(request_for(hot, 2));
    const service_response shed = service.submit(request_for(hot, 3)).get();
    EXPECT_EQ(shed.status, request_status::rejected);
    EXPECT_EQ(shed.error, "queue is full");

    // The cold scenario's shard is unaffected while the hot one is wedged.
    const service_response cold_response =
        service.submit(request_for(cold, 4)).get();
    EXPECT_EQ(cold_response.status, request_status::completed);

    gate.release();
    EXPECT_EQ(wedged.get().status, request_status::completed);
    EXPECT_EQ(queued.get().status, request_status::completed);

    const service_stats stats = service.stats();
    EXPECT_EQ(stats.submitted, 3u);
    EXPECT_EQ(stats.completed, 3u);
    EXPECT_EQ(stats.rejected, 1u);
    EXPECT_EQ(stats.shed_queue_full, 1u);
    EXPECT_EQ(stats.shed_quota, 0u);
    // Overload sheds at the bound instead of growing the queue past it.
    EXPECT_EQ(stats.peak_queue_depth, options.queue_capacity);
}

TEST(Service, TenantQuotaShedsExcessInFlightRequests) {
    request_gate gate{1};
    service_options options;
    options.workers = 1;
    options.tenant_quota = 1;
    options.defaults = small_search_defaults();
    options.defaults.observer = gate.observer();
    deployment_service service{options};
    service.add_scenario("dc", make_fat_tree_scenario(4));

    auto tag = [](service_request request, std::string tenant) {
        request.tenant = std::move(tenant);
        return request;
    };

    auto first = service.submit(tag(request_for("dc", 1), "acme"));
    gate.await_started();
    EXPECT_EQ(service.tenant_in_flight("acme"), 1u);

    // Same tenant, still in flight: shed by quota, not by queue.
    const service_response over_quota =
        service.submit(tag(request_for("dc", 2), "acme")).get();
    EXPECT_EQ(over_quota.status, request_status::rejected);
    EXPECT_EQ(over_quota.error, "tenant quota exceeded: acme");

    // A different tenant is admitted while "acme" is at its quota.
    auto other = service.submit(tag(request_for("dc", 3), "zeta"));

    gate.release();
    EXPECT_EQ(first.get().status, request_status::completed);
    EXPECT_EQ(other.get().status, request_status::completed);
    EXPECT_EQ(service.tenant_in_flight("acme"), 0u);
    EXPECT_EQ(service.tenant_in_flight("zeta"), 0u);

    const service_stats stats = service.stats();
    EXPECT_EQ(stats.shed_quota, 1u);
    EXPECT_EQ(stats.shed_queue_full, 0u);
    EXPECT_EQ(stats.rejected, 1u);
    EXPECT_EQ(stats.completed, 2u);
}

// ---- SLO deadlines: EDF admission, shedding, preemption --------------------

/// Records the order in which requests' searches START (first observer
/// event per id) while optionally gating one id like request_gate.
class start_order_gate {
public:
    explicit start_order_gate(std::uint64_t gated_id) : gated_id_(gated_id) {}

    [[nodiscard]] obs::search_observer observer() {
        return [this](const obs::search_iteration_event& event) {
            std::unique_lock<std::mutex> lock{mutex_};
            if (seen_.insert(event.request_id).second) {
                order_.push_back(event.request_id);
            }
            if (event.request_id != gated_id_) {
                return;
            }
            if (!started_) {
                started_ = true;
                cv_.notify_all();
            }
            cv_.wait(lock, [this] { return released_; });
        };
    }

    void await_started() {
        std::unique_lock<std::mutex> lock{mutex_};
        cv_.wait(lock, [this] { return started_; });
    }

    void release() {
        const std::lock_guard<std::mutex> lock{mutex_};
        released_ = true;
        cv_.notify_all();
    }

    [[nodiscard]] std::vector<std::uint64_t> order() {
        const std::lock_guard<std::mutex> lock{mutex_};
        return order_;
    }

private:
    std::uint64_t gated_id_;
    std::mutex mutex_;
    std::condition_variable cv_;
    std::set<std::uint64_t> seen_;
    std::vector<std::uint64_t> order_;
    bool started_ = false;
    bool released_ = false;
};

service_request deadline_request_for(std::string scenario, std::uint64_t seed,
                                     std::chrono::nanoseconds deadline) {
    service_request request = request_for(std::move(scenario), seed);
    request.slo_deadline = deadline;
    return request;
}

TEST(Service, EdfPopsEarliestDeadlineFirst) {
    start_order_gate gate{1};
    service_options options;
    options.workers = 1;
    options.defaults = small_search_defaults();
    options.defaults.observer = gate.observer();
    deployment_service service{options};
    service.add_scenario("dc", make_fat_tree_scenario(4));

    // Wedge the single worker, then queue: no-deadline, 60s, 5s. The EDF
    // pop must run them tightest-deadline-first, arrival order be damned.
    auto wedged = service.submit(request_for("dc", 1));
    gate.await_started();
    auto no_deadline = service.submit(request_for("dc", 2));
    auto loose = service.submit(
        deadline_request_for("dc", 3, std::chrono::seconds{60}));
    auto tight = service.submit(
        deadline_request_for("dc", 4, std::chrono::seconds{5}));
    gate.release();

    EXPECT_EQ(wedged.get().status, request_status::completed);
    EXPECT_EQ(no_deadline.get().status, request_status::completed);
    EXPECT_EQ(loose.get().status, request_status::completed);
    EXPECT_EQ(tight.get().status, request_status::completed);
    EXPECT_EQ(gate.order(), (std::vector<std::uint64_t>{1, 4, 3, 2}));

    const service_stats stats = service.stats();
    EXPECT_EQ(stats.deadline_met, 2u);
    EXPECT_EQ(stats.deadline_missed, 0u);
    EXPECT_EQ(stats.shed_unmeetable, 0u);
}

TEST(Service, FifoPolicyIgnoresDeadlineOrderingButStillMeasures) {
    start_order_gate gate{1};
    service_options options;
    options.workers = 1;
    options.scheduling = scheduling_policy::fifo;
    options.defaults = small_search_defaults();
    options.defaults.observer = gate.observer();
    deployment_service service{options};
    service.add_scenario("dc", make_fat_tree_scenario(4));

    auto wedged = service.submit(request_for("dc", 1));
    gate.await_started();
    auto first = service.submit(request_for("dc", 2));
    auto tight = service.submit(
        deadline_request_for("dc", 3, std::chrono::seconds{30}));
    gate.release();

    EXPECT_EQ(wedged.get().status, request_status::completed);
    EXPECT_EQ(first.get().status, request_status::completed);
    const service_response timed = tight.get();
    EXPECT_EQ(timed.status, request_status::completed);
    // Arrival order despite request 3's deadline.
    EXPECT_EQ(gate.order(), (std::vector<std::uint64_t>{1, 2, 3}));
    // fifo never preempts...
    EXPECT_NE(timed.result.outcome, search_outcome::deadline_exceeded);
    // ...but the measurement plane still scores the deadline.
    const service_stats stats = service.stats();
    EXPECT_EQ(stats.deadline_met + stats.deadline_missed, 1u);
    EXPECT_EQ(stats.preempted, 0u);
}

TEST(Service, EdfMeetsMoreDeadlinesThanFifoUnderMixedLoad) {
    // The SLO scheduling win: the same mix of heavy no-deadline searches and
    // light tight-deadline ones, queued behind one wedged worker, meets
    // strictly more deadlines under edf than under fifo. Every search is
    // bounded by iterations; a heavy search outlasts the light deadlines
    // because its first event is held until they have all passed. So fifo,
    // which runs a heavy search before each light one, misses them by
    // construction, and edf, which pops the light ones first, meets them
    // on any machine that runs the wedged search and two 5-iteration ones
    // within a second.
    constexpr auto light_deadline = std::chrono::seconds{1};
    const auto run = [&](scheduling_policy policy) {
        start_order_gate gate{1};
        monotonic_clock::time_point hold_until{};
        service_options options;
        options.workers = 1;
        options.scheduling = policy;
        options.defaults = small_search_defaults();
        options.defaults.observer =
            [&, gated = gate.observer()](
                const obs::search_iteration_event& event) {
                gated(event);
                if (event.request_id % 2 == 0) {  // heavy: ids 2 and 4
                    std::this_thread::sleep_until(hold_until);
                }
            };
        deployment_service service{options};
        service.add_scenario("dc", make_fat_tree_scenario(4));

        auto wedged = service.submit(request_for("dc", 1));
        gate.await_started();
        std::vector<std::future<service_response>> queued;
        for (std::uint64_t seed = 2; seed <= 5; ++seed) {
            const bool heavy = seed % 2 == 0;
            service_request request =
                heavy ? request_for("dc", seed)
                      : deadline_request_for("dc", seed, light_deadline);
            request.max_iterations = heavy ? 40 : 5;
            queued.push_back(service.submit(std::move(request)));
        }
        // Every light deadline falls at or before this point; the gate's
        // mutex publishes it to the worker before any heavy search starts.
        hold_until = monotonic_clock::now() + light_deadline +
                     std::chrono::milliseconds{1};
        gate.release();

        EXPECT_EQ(wedged.get().status, request_status::completed);
        for (auto& future : queued) {
            EXPECT_EQ(future.get().status, request_status::completed);
        }
        return std::pair{service.stats(), gate.order()};
    };

    const auto [edf, edf_order] = run(scheduling_policy::edf);
    const auto [fifo, fifo_order] = run(scheduling_policy::fifo);
    EXPECT_EQ(edf_order, (std::vector<std::uint64_t>{1, 3, 5, 2, 4}));
    EXPECT_EQ(fifo_order, (std::vector<std::uint64_t>{1, 2, 3, 4, 5}));
    EXPECT_GT(edf.deadline_met, fifo.deadline_met);
    EXPECT_EQ(edf.deadline_met, 2u);
    EXPECT_EQ(fifo.deadline_missed, 2u);
    EXPECT_EQ(edf.shed_unmeetable + fifo.shed_unmeetable, 0u);
}

TEST(Service, UnmeetableDeadlineIsShedAtAdmission) {
    service_options options;
    options.workers = 1;
    options.min_service_grant = std::chrono::seconds{2};
    options.defaults = small_search_defaults();
    deployment_service service{options};
    service.add_scenario("dc", make_fat_tree_scenario(4));

    // Even an idle service cannot grant 2s of search before a 100ms
    // deadline: provably unmeetable, shed without burning a worker.
    const service_response shed =
        service.submit(
            deadline_request_for("dc", 1, std::chrono::milliseconds{100}))
            .get();
    EXPECT_EQ(shed.status, request_status::rejected);
    EXPECT_EQ(shed.error, "deadline provably unmeetable at admission");

    // The same deadline WITHOUT the grant floor is admitted and met.
    service_options lax = options;
    lax.min_service_grant = std::chrono::nanoseconds{0};
    deployment_service lax_service{lax};
    lax_service.add_scenario("dc", make_fat_tree_scenario(4));
    const service_response admitted =
        lax_service
            .submit(deadline_request_for("dc", 1, std::chrono::seconds{30}))
            .get();
    EXPECT_EQ(admitted.status, request_status::completed);

    const service_stats stats = service.stats();
    EXPECT_EQ(stats.shed_unmeetable, 1u);
    EXPECT_EQ(stats.rejected, 1u);
    EXPECT_EQ(stats.submitted, 0u);
}

TEST(Service, ExpiredDeadlineIsShedAtDequeue) {
    request_gate gate{1};
    service_options options;
    options.workers = 1;
    options.defaults = small_search_defaults();
    options.defaults.observer = gate.observer();
    deployment_service service{options};
    service.add_scenario("dc", make_fat_tree_scenario(4));

    auto wedged = service.submit(request_for("dc", 1));
    gate.await_started();
    // 50ms deadline, but the only worker is wedged until well past it.
    auto doomed = service.submit(
        deadline_request_for("dc", 2, std::chrono::milliseconds{50}));
    std::this_thread::sleep_for(std::chrono::milliseconds{120});
    gate.release();

    EXPECT_EQ(wedged.get().status, request_status::completed);
    const service_response shed = doomed.get();
    EXPECT_EQ(shed.status, request_status::rejected);
    EXPECT_EQ(shed.error, "deadline expired before the search started");
    EXPECT_GT(shed.queue_wait_ns.count(), 0);
    EXPECT_EQ(shed.search_ns.count(), 0);

    const service_stats stats = service.stats();
    EXPECT_EQ(stats.shed_unmeetable, 1u);
    EXPECT_EQ(stats.deadline_missed, 0u);  // never ran, so never "missed"
}

TEST(Service, OverBudgetSearchIsPreemptedWithAnytimeResult) {
    service_options options;
    options.workers = 1;
    // Reserve 600ms of the deadline for response assembly: the search is
    // cut early enough that the RESPONSE still meets the deadline.
    options.deadline_headroom = std::chrono::milliseconds{600};
    options.defaults.assessment_rounds = 200;  // time-driven: no iteration cap
    deployment_service service{options};
    service.add_scenario("dc", make_fat_tree_scenario(4));

    service_request runaway =
        deadline_request_for("dc", 1, std::chrono::seconds{2});
    runaway.desired_reliability = 2.0;  // unreachable: the search never stops
    runaway.max_search_time = std::chrono::seconds{30};  // would blow the SLO
    const service_response response = service.submit(std::move(runaway)).get();

    ASSERT_EQ(response.status, request_status::completed);
    EXPECT_EQ(response.result.outcome, search_outcome::deadline_exceeded);
    EXPECT_FALSE(response.result.fulfilled);
    EXPECT_EQ(response.result.plan.hosts.size(), 3u);  // anytime plan
    EXPECT_TRUE(response.deadline_met);
    EXPECT_GT(response.search_ns.count(), 0);

    const service_stats stats = service.stats();
    EXPECT_EQ(stats.preempted, 1u);
    EXPECT_EQ(stats.deadline_met, 1u);
    EXPECT_EQ(stats.deadline_missed, 0u);
}

TEST(Service, SchedulingPolicyToString) {
    EXPECT_STREQ(to_string(scheduling_policy::fifo), "fifo");
    EXPECT_STREQ(to_string(scheduling_policy::edf), "edf");
}

TEST(Service, StatusFleetReportsTheTracersDroppedSpans) {
    // Overflow a small trace ring, as Tracer.FullRingDropsNewestAndCountsIt
    // does: /status must report the tracer's own count.
    obs::tracer& tracer = obs::tracer::global();
    tracer.reset();
    tracer.set_ring_capacity(4);
    tracer.start();
    std::thread{[&tracer] {
        for (int i = 0; i < 10; ++i) {
            tracer.record("tiny", 0, 1);
        }
    }}.join();
    tracer.stop();
    ASSERT_GT(tracer.dropped(), 0u);

    service_options options;
    options.workers = 1;
    options.defaults = small_search_defaults();
    deployment_service service{options};
    service.add_scenario("dc", make_fat_tree_scenario(4));
    EXPECT_EQ(service.submit(request_for("dc", 3)).get().status,
              request_status::completed);
    const std::string status = service.status_json();
    EXPECT_NE(status.find("\"fleet\":{\"worker_respawns\":0,"
                          "\"trace_dropped\":" +
                          std::to_string(tracer.dropped()) + "}"),
              std::string::npos)
        << status;
    tracer.set_ring_capacity(std::size_t{1} << 15);
    tracer.reset();
}

// ---- child worker processes (socket transport) -----------------------------

service_options socket_engine_options() {
    service_options options;
    options.workers = 2;
    options.defaults = small_search_defaults();
    options.defaults.backend = assessment_backend_kind::engine;
    options.defaults.engine_transport = engine_transport_kind::socket;
    options.defaults.engine_worker_binary = RECLOUD_WORKER_BIN;
    options.defaults.assessment_threads = 2;
    options.defaults.assessment_batch_rounds = 64;
    return options;
}

TEST(Service, NoChildWorkerProcessesSurviveDestruction) {
    {
        deployment_service service{socket_engine_options()};
        service.add_scenario("dc", make_fat_tree_scenario(4));
        std::vector<std::future<service_response>> futures;
        for (std::uint64_t seed = 1; seed <= 3; ++seed) {
            futures.push_back(service.submit(request_for("dc", seed)));
        }
        for (auto& future : futures) {
            EXPECT_EQ(future.get().status, request_status::completed);
        }
    }  // ~deployment_service: drain + join; every worker fleet is dead
    // No zombies and no live children: the process has NO children at all.
    errno = 0;
    EXPECT_EQ(::waitpid(-1, nullptr, WNOHANG), -1);
    EXPECT_EQ(errno, ECHILD);
}

TEST(Service, ShutdownWithSocketFleetIsIdempotentAndDrains) {
    deployment_service service{socket_engine_options()};
    service.add_scenario("dc", make_fat_tree_scenario(4));
    std::vector<std::future<service_response>> futures;
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        futures.push_back(service.submit(request_for("dc", seed)));
    }
    service.shutdown();
    service.shutdown();  // idempotent
    // Every admitted request resolved (drained, not dropped).
    for (auto& future : futures) {
        EXPECT_EQ(future.get().status, request_status::completed);
    }
    // Post-shutdown submissions shed; destructor's shutdown is a no-op.
    EXPECT_EQ(service.submit(request_for("dc", 9)).get().status,
              request_status::rejected);
    errno = 0;
    EXPECT_EQ(::waitpid(-1, nullptr, WNOHANG), -1);
    EXPECT_EQ(errno, ECHILD);
}

}  // namespace
}  // namespace recloud
