// Round-verdict memoization (assess/verdict_cache.hpp): support-set
// construction, the signature table's exact-key semantics, and — the load-
// bearing property — bit-identical assessment_stats with the cache on or
// off, across samplers, backends, worker counts, fault trees, and a full
// pinned annealing trajectory (the CacheEquivalence suite).
#include "assess/verdict_cache.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "assess/backend.hpp"
#include "core/recloud.hpp"
#include "exec/engine.hpp"
#include "routing/bfs_reachability.hpp"
#include "sampling/extended_dagger.hpp"
#include "sampling/monte_carlo.hpp"
#include "topology/leaf_spine.hpp"
#include "topology/power.hpp"

namespace recloud {
namespace {

struct cache_fixture {
    built_topology topo = build_leaf_spine(
        {.spines = 2, .leaves = 4, .hosts_per_leaf = 4, .border_leaves = 1});
    component_registry registry{topo.graph};
    fault_tree_forest forest{topo.graph.node_count()};

    explicit cache_fixture(double probability = 0.03) {
        for (component_id id = 0; id < registry.size(); ++id) {
            if (registry.kind(id) != component_kind::external) {
                registry.set_probability(id, probability);
            }
        }
    }

    oracle_factory factory() {
        return [this] { return std::make_unique<bfs_reachability>(topo); };
    }

    deployment_plan plan_for(const application& app) {
        deployment_plan plan;
        for (std::uint32_t i = 0; i < app.total_instances(); ++i) {
            plan.hosts.push_back(topo.hosts[(i * 5) % topo.hosts.size()]);
        }
        return plan;
    }

    verdict_support support() {
        return verdict_support{topo, registry.size(), &forest, nullptr};
    }
};

void expect_identical(const assessment_stats& a, const assessment_stats& b) {
    EXPECT_EQ(a.rounds, b.rounds);
    EXPECT_EQ(a.reliable, b.reliable);
    EXPECT_EQ(a.reliability, b.reliability);
    EXPECT_EQ(a.variance, b.variance);
    EXPECT_EQ(a.ciw95, b.ciw95);
}

// ---- support set --------------------------------------------------------

TEST(VerdictSupport, RoutingNodesInLeafHostsOut) {
    cache_fixture f;
    const verdict_support support = f.support();
    std::size_t expected = 0;
    for (node_id node = 0; node < f.topo.graph.node_count(); ++node) {
        const bool is_leaf_host = f.topo.graph.kind(node) == node_kind::host &&
                                  f.topo.graph.degree(node) <= 1;
        EXPECT_EQ(support.contains_static(node), !is_leaf_host)
            << "node " << node;
        expected += is_leaf_host ? 0 : 1;
    }
    EXPECT_EQ(support.static_size(), expected);
    EXPECT_EQ(support.component_count(), f.registry.size());
}

TEST(VerdictSupport, IncludesLinksAndFaultTreeDependencies) {
    cache_fixture f;
    const link_attachment links = attach_link_components(f.topo, f.registry);
    const power_assignment power = attach_power_supplies(
        f.topo, f.registry, f.forest, {.supply_count = 3});
    (void)power;
    const verdict_support support{f.topo, f.registry.size(), &f.forest, &links};
    for (const component_id link : links.component_of_edge) {
        if (link != invalid_node) {
            EXPECT_TRUE(support.contains_static(link));
        }
    }
    // Every static member's fault-tree leaves (e.g. a switch's power supply)
    // must be in the key too — their raw failure flips the member's
    // effective state.
    for (node_id node = 0; node < f.topo.graph.node_count(); ++node) {
        if (!support.contains_static(node)) {
            continue;
        }
        for (const component_id dep : f.forest.dependencies_of(node)) {
            EXPECT_TRUE(support.contains_static(dep))
                << "dep " << dep << " of member " << node;
        }
    }
}

// ---- cache mechanics ----------------------------------------------------

TEST(VerdictCache, LookupBeforeBindThrows) {
    cache_fixture f;
    const verdict_support support = f.support();
    verdict_cache cache{support};
    const std::vector<component_id> failed;
    EXPECT_THROW((void)cache.lookup(failed), std::logic_error);
    EXPECT_THROW(cache.store(true), std::logic_error);
}

TEST(VerdictCache, EmptyRoundFastPathComputedOnce) {
    cache_fixture f;
    const verdict_support support = f.support();
    verdict_cache cache{support};
    const application app = application::k_of_n(2, 3);
    const deployment_plan plan = f.plan_for(app);
    cache.bind(app, plan);

    const std::vector<component_id> none;
    auto first = cache.lookup(none);
    EXPECT_FALSE(first.hit);
    cache.store(true);
    auto second = cache.lookup(none);
    EXPECT_TRUE(second.hit);
    EXPECT_TRUE(second.verdict);
    EXPECT_EQ(cache.stats().empty_hits, 1u);
    EXPECT_EQ(cache.stats().misses, 1u);

    // A failed set entirely outside the support filters down to empty and
    // takes the same fast path: pick a degree-1 host that is not in the plan.
    node_id outside = invalid_node;
    for (const node_id h : f.topo.hosts) {
        if (!cache.in_support(h)) {
            outside = h;
            break;
        }
    }
    ASSERT_NE(outside, invalid_node);
    const std::vector<component_id> off_support = {outside};
    auto third = cache.lookup(off_support);
    EXPECT_TRUE(third.hit);
    EXPECT_TRUE(third.verdict);
    EXPECT_EQ(cache.stats().empty_hits, 2u);
}

TEST(VerdictCache, SupportFilterCollapsesSignatures) {
    cache_fixture f;
    const verdict_support support = f.support();
    verdict_cache cache{support};
    const application app = application::k_of_n(2, 3);
    const deployment_plan plan = f.plan_for(app);
    cache.bind(app, plan);

    node_id outside = invalid_node;
    for (const node_id h : f.topo.hosts) {
        if (!cache.in_support(h)) {
            outside = h;
            break;
        }
    }
    ASSERT_NE(outside, invalid_node);
    const node_id spine = f.topo.graph.nodes_of_kind(node_kind::core_switch)[0];

    const std::vector<component_id> raw_a = {spine};
    const std::vector<component_id> raw_b = {outside, spine};
    EXPECT_FALSE(cache.lookup(raw_a).hit);
    cache.store(false);
    const auto b = cache.lookup(raw_b);  // same filtered signature
    EXPECT_TRUE(b.hit);
    EXPECT_FALSE(b.verdict);
    ASSERT_EQ(cache.last_key().size(), 1u);
    EXPECT_EQ(cache.last_key()[0], spine);
}

TEST(VerdictCache, KeyIsOrderInsensitive) {
    cache_fixture f;
    const verdict_support support = f.support();
    verdict_cache cache{support};
    const application app = application::k_of_n(2, 3);
    cache.bind(app, f.plan_for(app));

    const auto spines = f.topo.graph.nodes_of_kind(node_kind::core_switch);
    ASSERT_GE(spines.size(), 2u);
    const std::vector<component_id> ab = {spines[0], spines[1]};
    const std::vector<component_id> ba = {spines[1], spines[0]};
    EXPECT_FALSE(cache.lookup(ab).hit);
    cache.store(true);
    EXPECT_TRUE(cache.lookup(ba).hit);
}

TEST(VerdictCache, RebindResetsOnlyOnRealChange) {
    cache_fixture f;
    const verdict_support support = f.support();
    verdict_cache cache{support};
    const application app = application::k_of_n(2, 3);
    const deployment_plan plan_a = f.plan_for(app);
    deployment_plan plan_b = plan_a;
    plan_b.hosts[0] = f.topo.hosts[(f.topo.hosts.size() - 1)];

    cache.bind(app, plan_a);
    const node_id spine = f.topo.graph.nodes_of_kind(node_kind::core_switch)[0];
    const std::vector<component_id> key = {spine};
    EXPECT_FALSE(cache.lookup(key).hit);
    cache.store(true);
    EXPECT_EQ(cache.stats().rebinds, 1u);

    cache.bind(app, plan_a);  // identical binding: warm
    EXPECT_EQ(cache.stats().rebinds, 1u);
    EXPECT_TRUE(cache.lookup(key).hit);

    cache.bind(app, plan_b);  // different hosts: cold
    EXPECT_EQ(cache.stats().rebinds, 2u);
    EXPECT_FALSE(cache.lookup(key).hit);
    cache.store(false);
}

TEST(VerdictCache, PlanHostsAndTheirDependenciesJoinSupport) {
    cache_fixture f;
    const power_assignment power = attach_power_supplies(
        f.topo, f.registry, f.forest, {.supply_count = 3});
    (void)power;
    const verdict_support support{f.topo, f.registry.size(), &f.forest, nullptr};
    verdict_cache cache{support};
    const application app = application::k_of_n(2, 3);
    const deployment_plan plan = f.plan_for(app);
    EXPECT_FALSE(support.contains_static(plan.hosts[0]));
    cache.bind(app, plan);
    for (const node_id host : plan.hosts) {
        EXPECT_TRUE(cache.in_support(host));
        for (const component_id dep : f.forest.dependencies_of(host)) {
            EXPECT_TRUE(cache.in_support(dep));
        }
    }
    EXPECT_GT(cache.support_size(), support.static_size());
    EXPECT_EQ(cache.stats().support_size, cache.support_size());
}

TEST(VerdictCache, BoundedTableEvictsWholesaleAndStaysCorrect) {
    cache_fixture f;
    const verdict_support support = f.support();
    verdict_cache cache{support, 4};  // tiny: force resets
    const application app = application::k_of_n(2, 3);
    cache.bind(app, f.plan_for(app));

    // Insert more distinct signatures than capacity; every re-lookup must
    // either hit with the right verdict or miss — never return a wrong bit.
    const auto spines = f.topo.graph.nodes_of_kind(node_kind::core_switch);
    const auto leaves = f.topo.graph.nodes_of_kind(node_kind::edge_switch);
    std::vector<std::vector<component_id>> keys;
    for (const node_id s : spines) {
        keys.push_back({s});
    }
    for (const node_id l : leaves) {
        keys.push_back({l});
        keys.push_back({spines[0], l});
    }
    ASSERT_GT(keys.size(), 4u);
    for (std::size_t i = 0; i < keys.size(); ++i) {
        if (!cache.lookup(keys[i]).hit) {
            cache.store(i % 2 == 0);
        }
    }
    EXPECT_GT(cache.stats().evictions, 0u);
    EXPECT_LE(cache.entries(), 4u);
    for (std::size_t i = 0; i < keys.size(); ++i) {
        const auto r = cache.lookup(keys[i]);
        if (r.hit) {
            EXPECT_EQ(r.verdict, i % 2 == 0) << "key " << i;
        } else {
            cache.store(i % 2 == 0);
        }
    }
}

// ---- equivalence: cache on == cache off, bit for bit --------------------

TEST(CacheEquivalence, SerialAcrossSamplers) {
    cache_fixture f;
    const application app = application::k_of_n(2, 3);
    const deployment_plan plan = f.plan_for(app);
    const verdict_support support = f.support();
    const auto make = [&](int kind,
                          std::uint64_t seed) -> std::unique_ptr<failure_sampler> {
        switch (kind) {
            case 0:
                return std::make_unique<monte_carlo_sampler>(
                    f.registry.probabilities(), seed);
            default:
                return std::make_unique<extended_dagger_sampler>(
                    f.registry.probabilities(), seed);
        }
    };
    for (int kind = 0; kind < 2; ++kind) {
        const auto run = [&](bool cached) {
            auto sampler = make(kind, 57);
            verdict_cache_options options;
            options.enabled = cached;
            options.support = &support;
            parallel_backend backend{
                f.registry.size(), &f.forest, f.factory(), *sampler,
                {.threads = 1, .verdict_cache = options}};
            const assessment_stats stats = backend.assess(app, plan, 4000);
            if (cached) {
                EXPECT_NE(backend.cache_stats(), nullptr);
                if (backend.cache_stats() != nullptr) {
                    EXPECT_EQ(backend.cache_stats()->rounds, 4000u);
                    EXPECT_GT(backend.cache_stats()->saved_rounds(), 0u);
                }
            } else {
                EXPECT_EQ(backend.cache_stats(), nullptr);
            }
            return stats;
        };
        const assessment_stats off = run(false);
        const assessment_stats on = run(true);
        expect_identical(on, off);
    }
}

TEST(CacheEquivalence, ParallelAcrossWorkerCounts) {
    cache_fixture f;
    const application app = application::k_of_n(2, 3);
    const deployment_plan plan = f.plan_for(app);
    const verdict_support support = f.support();
    std::optional<assessment_stats> reference;
    for (const std::size_t workers : {1u, 2u, 8u}) {
        for (const bool cached : {false, true}) {
            extended_dagger_sampler sampler{f.registry.probabilities(), 33};
            parallel_backend_options options{.threads = workers,
                                             .batch_rounds = 250};
            options.verdict_cache.enabled = cached;
            options.verdict_cache.support = &support;
            parallel_backend backend{f.registry.size(), &f.forest, f.factory(),
                                     sampler, options};
            const assessment_stats stats = backend.assess(app, plan, 3000);
            if (!reference) {
                reference = stats;
            } else {
                expect_identical(stats, *reference);
            }
            if (cached) {
                ASSERT_NE(backend.cache_stats(), nullptr);
                EXPECT_EQ(backend.cache_stats()->rounds, 3000u);
            }
        }
    }
}

TEST(CacheEquivalence, EngineBackendBitIdentical) {
    cache_fixture f;
    const application app = application::k_of_n(2, 3);
    const deployment_plan plan = f.plan_for(app);
    const verdict_support support = f.support();
    const auto run = [&](bool cached) {
        extended_dagger_sampler sampler{f.registry.probabilities(), 19};
        engine_options options{.workers = 2, .batch_rounds = 200};
        options.verdict_cache.enabled = cached;
        options.verdict_cache.support = &support;
        assessment_engine backend{f.registry.size(), &f.forest, f.factory(),
                                  sampler, options};
        const assessment_stats stats = backend.assess(app, plan, 2000);
        if (cached) {
            EXPECT_NE(backend.cache_stats(), nullptr);
            EXPECT_EQ(backend.cache_stats()->rounds, 2000u);
        } else {
            EXPECT_EQ(backend.cache_stats(), nullptr);
        }
        return stats;
    };
    expect_identical(run(true), run(false));
}

TEST(CacheEquivalence, AdaptiveAssessUntilCiw) {
    cache_fixture f;
    const application app = application::k_of_n(1, 3);
    const deployment_plan plan = f.plan_for(app);
    const verdict_support support = f.support();
    const auto run = [&](bool cached) {
        extended_dagger_sampler sampler{f.registry.probabilities(), 41};
        verdict_cache_options options;
        options.enabled = cached;
        options.support = &support;
        parallel_backend backend{
            f.registry.size(), &f.forest, f.factory(), sampler,
            {.threads = 1, .verdict_cache = options}};
        adaptive_assess_options adaptive;
        adaptive.target_ciw = 2e-2;
        adaptive.initial_rounds = 500;
        adaptive.max_rounds = 100'000;
        return backend.assess_until_ciw(app, plan, adaptive);
    };
    expect_identical(run(true), run(false));
}

TEST(CacheEquivalence, TinyEvictingCacheStillIdentical) {
    // Correctness must not depend on capacity: a 2-entry cache thrashes
    // (every store may wipe the table) yet must stay bit-identical.
    cache_fixture f;
    const application app = application::k_of_n(2, 3);
    const deployment_plan plan = f.plan_for(app);
    const verdict_support support = f.support();
    const auto run = [&](bool cached) {
        extended_dagger_sampler sampler{f.registry.probabilities(), 91};
        verdict_cache_options options;
        options.enabled = cached;
        options.max_entries = 2;
        options.support = &support;
        parallel_backend backend{
            f.registry.size(), &f.forest, f.factory(), sampler,
            {.threads = 1, .verdict_cache = options}};
        return backend.assess(app, plan, 4000);
    };
    expect_identical(run(true), run(false));
}

void expect_same_search(const deployment_response& on,
                        const deployment_response& off) {
    EXPECT_EQ(on.plan, off.plan);
    expect_identical(on.stats, off.stats);
    EXPECT_EQ(on.search.plans_evaluated, off.search.plans_evaluated);
    EXPECT_EQ(on.search.plans_generated, off.search.plans_generated);
    EXPECT_EQ(on.search.symmetric_skips, off.search.symmetric_skips);
    EXPECT_EQ(on.fulfilled, off.fulfilled);
}

recloud_options pinned_search_options(bool cached) {
    recloud_options options;
    options.assessment_rounds = 1000;
    options.max_iterations = 25;
    options.seed = 9;
    options.verdict_cache = cached;
    return options;
}

TEST(CacheEquivalence, SearchTrajectoryPinnedWithForest) {
    // The flagship facade property: a full annealing search — CRN resets,
    // symmetry skips, winner re-assessment — lands on the identical plan,
    // identical stats, identical search counters with the cache on or off.
    // Fat-tree infrastructure carries power-supply fault trees, so the
    // support set includes tree dependencies here.
    auto infra = fat_tree_infrastructure::build(data_center_scale::tiny);
    const auto run = [&](bool cached) {
        re_cloud system{infra, pinned_search_options(cached)};
        deployment_request request{application::k_of_n(2, 3), 1.0,
                                   std::chrono::seconds{20}};
        return system.find_deployment(request);
    };
    const deployment_response off = run(false);
    const deployment_response on = run(true);
    expect_same_search(on, off);
}

TEST(CacheEquivalence, SearchTrajectoryPinnedWithoutForest) {
    // §3.4 limited information: no fault trees at all. The cache key is
    // then the raw support-filtered failed set with no dependency closure.
    cache_fixture f;
    workload_map workloads = [&f] {
        rng random{3};
        return workload_map{f.topo, random};
    }();
    bfs_reachability oracle{f.topo};
    const scenario_ptr snapshot = scenario_builder{}
                                      .topology(f.topo)
                                      .registry(f.registry)
                                      .oracle(oracle)
                                      .workloads(workloads)
                                      .freeze();
    const auto run = [&](bool cached) {
        re_cloud system{snapshot, pinned_search_options(cached)};
        deployment_request request{application::k_of_n(2, 3), 1.0,
                                   std::chrono::seconds{20}};
        return system.find_deployment(request);
    };
    const deployment_response off = run(false);
    const deployment_response on = run(true);
    expect_same_search(on, off);
}

TEST(VerdictCacheStats, ObservabilityCountersAddUp) {
    // With realistic (low) failure probabilities nearly every round is
    // empty after support filtering — the regime the cache is built for.
    cache_fixture f{1e-4};
    const application app = application::k_of_n(2, 3);
    const deployment_plan plan = f.plan_for(app);
    const verdict_support support = f.support();
    extended_dagger_sampler sampler{f.registry.probabilities(), 7};
    verdict_cache_options options;
    options.enabled = true;
    options.support = &support;
    parallel_backend backend{
        f.registry.size(), &f.forest, f.factory(), sampler,
        {.threads = 1, .verdict_cache = options}};
    (void)backend.assess(app, plan, 5000);
    const verdict_cache_stats* stats = backend.cache_stats();
    ASSERT_NE(stats, nullptr);
    EXPECT_EQ(stats->rounds, 5000u);
    EXPECT_EQ(stats->saved_rounds(), stats->empty_hits + stats->hits);
    EXPECT_EQ(stats->rounds, stats->saved_rounds() + stats->misses);
    EXPECT_GT(stats->hit_rate(), 0.5);
    EXPECT_GT(stats->support_size, 0u);
    EXPECT_EQ(stats->rebinds, 1u);
}

}  // namespace
}  // namespace recloud
