#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "faults/round_state.hpp"
#include "property_seed.hpp"
#include "routing/bfs_reachability.hpp"
#include "routing/fat_tree_routing.hpp"
#include "sampling/monte_carlo.hpp"
#include "topology/fat_tree.hpp"
#include "topology/leaf_spine.hpp"
#include "util/rng.hpp"

namespace recloud {
namespace {

// ---- reference up/down (valley-free) reachability over raw adjacency ----
// Structurally independent of the arithmetic oracle: walks the graph's
// neighbor lists instead of index math.

bool alive(round_state& rs, node_id id) { return !rs.failed(id); }

bool ref_border_reachable(const fat_tree& ft, round_state& rs, node_id host) {
    const network_graph& g = ft.graph();
    if (!alive(rs, host)) {
        return false;
    }
    const node_id edge = ft.edge_of_host(host);
    if (!alive(rs, edge)) {
        return false;
    }
    for (const node_id agg : g.neighbors(edge)) {
        if (g.kind(agg) != node_kind::aggregation_switch || !alive(rs, agg)) {
            continue;
        }
        for (const node_id core : g.neighbors(agg)) {
            if (g.kind(core) != node_kind::core_switch || !alive(rs, core)) {
                continue;
            }
            for (const node_id border : g.neighbors(core)) {
                if (g.kind(border) == node_kind::border_switch &&
                    alive(rs, border)) {
                    return true;
                }
            }
        }
    }
    return false;
}

bool ref_host_to_host(const fat_tree& ft, round_state& rs, node_id a, node_id b) {
    const network_graph& g = ft.graph();
    if (!alive(rs, a) || !alive(rs, b)) {
        return false;
    }
    if (a == b) {
        return true;
    }
    const node_id edge_a = ft.edge_of_host(a);
    const node_id edge_b = ft.edge_of_host(b);
    if (!alive(rs, edge_a)) {
        return false;
    }
    if (edge_a == edge_b) {
        return true;
    }
    if (!alive(rs, edge_b)) {
        return false;
    }
    // Same pod: any alive aggregation switch adjacent to both edges.
    for (const node_id agg : g.neighbors(edge_a)) {
        if (g.kind(agg) != node_kind::aggregation_switch || !alive(rs, agg)) {
            continue;
        }
        if (g.has_edge(agg, edge_b)) {
            return true;
        }
        // Cross-pod: up to a core, down into b's pod via an agg adjacent to
        // edge_b.
        for (const node_id core : g.neighbors(agg)) {
            if (g.kind(core) != node_kind::core_switch || !alive(rs, core)) {
                continue;
            }
            for (const node_id agg_b : g.neighbors(core)) {
                if (g.kind(agg_b) == node_kind::aggregation_switch &&
                    alive(rs, agg_b) && g.has_edge(agg_b, edge_b)) {
                    return true;
                }
            }
        }
    }
    return false;
}

// ---- property suite: arithmetic oracle == reference, random failures ----

/// No padding: gtest prints the parameter as its raw bytes into the test's
/// listed name, so every byte must be defined for the name to be the same
/// in every build.
struct routing_case {
    std::int64_t k;
    double failure_probability;
};

class FatTreeRoutingProperty : public ::testing::TestWithParam<routing_case> {};

TEST_P(FatTreeRoutingProperty, MatchesAdjacencyReference) {
    const int k = static_cast<int>(GetParam().k);
    const double q = GetParam().failure_probability;
    const fat_tree ft = fat_tree::build(k);
    const std::size_t n = ft.graph().node_count();
    std::vector<double> probs(n, q);
    probs[ft.external()] = 0.0;
    monte_carlo_sampler sampler{
        probs, property_seed(1234 + static_cast<std::uint64_t>(k))};

    round_state rs{n, nullptr};
    fat_tree_routing oracle{ft};
    rng pick{property_seed(99)};
    const auto& hosts = ft.topology().hosts;

    std::vector<component_id> failed;
    for (int round = 0; round < 300; ++round) {
        sampler.next_round(failed);
        rs.begin_round(failed);
        oracle.begin_round(rs);
        // A handful of random hosts and pairs per round.
        for (int probe = 0; probe < 8; ++probe) {
            const node_id h = hosts[pick.uniform_below(hosts.size())];
            ASSERT_EQ(oracle.border_reachable(h), ref_border_reachable(ft, rs, h))
                << "k=" << k << " round=" << round << " host=" << h;
            const node_id h2 = hosts[pick.uniform_below(hosts.size())];
            ASSERT_EQ(oracle.host_to_host(h, h2), ref_host_to_host(ft, rs, h, h2))
                << "k=" << k << " round=" << round << " pair=" << h << "," << h2;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FatTreeRoutingProperty,
    ::testing::Values(routing_case{4, 0.05}, routing_case{4, 0.3},
                      routing_case{8, 0.05}, routing_case{8, 0.3},
                      routing_case{8, 0.6}, routing_case{12, 0.1}),
    [](const auto& info) {
        return "k" + std::to_string(info.param.k) + "_q" +
               std::to_string(static_cast<int>(info.param.failure_probability * 100));
    });

// ---- crafted fat-tree scenarios -----------------------------------------

struct ft_fixture {
    fat_tree ft = fat_tree::build(4);
    round_state rs{ft.graph().node_count(), nullptr};
    fat_tree_routing oracle{ft};

    void round(std::vector<component_id> failed) {
        rs.begin_round(failed);
        oracle.begin_round(rs);
    }
};

TEST(FatTreeRouting, HealthyEverythingReachable) {
    ft_fixture f;
    f.round({});
    for (const node_id h : f.ft.topology().hosts) {
        EXPECT_TRUE(f.oracle.border_reachable(h));
    }
    EXPECT_TRUE(f.oracle.host_to_host(f.ft.host(0, 0, 0), f.ft.host(2, 1, 1)));
}

TEST(FatTreeRouting, DeadHostUnreachable) {
    ft_fixture f;
    const node_id h = f.ft.host(0, 0, 0);
    f.round({h});
    EXPECT_FALSE(f.oracle.border_reachable(h));
    EXPECT_FALSE(f.oracle.host_to_host(h, f.ft.host(0, 0, 1)));
}

TEST(FatTreeRouting, EdgeFailureTakesDownTheRack) {
    // §3.2.1: "an edge/ToR switch failure makes all hosts under that switch
    // unreachable" — the implicitly-modeled correlated failure.
    ft_fixture f;
    f.round({f.ft.edge(0, 0)});
    for (int slot = 0; slot < f.ft.hosts_per_edge(); ++slot) {
        EXPECT_FALSE(f.oracle.border_reachable(f.ft.host(0, 0, slot)));
    }
    EXPECT_TRUE(f.oracle.border_reachable(f.ft.host(0, 1, 0)));
}

TEST(FatTreeRouting, AllBordersDeadKillsExternalOnly) {
    ft_fixture f;
    f.round({f.ft.border(0), f.ft.border(1)});
    const node_id a = f.ft.host(0, 0, 0);
    const node_id b = f.ft.host(1, 1, 1);
    EXPECT_FALSE(f.oracle.border_reachable(a));
    EXPECT_TRUE(f.oracle.host_to_host(a, b));  // internal paths unaffected
}

TEST(FatTreeRouting, CrossPodNeedsCommonAliveGroup) {
    // Pod 0 keeps only agg group 0; pod 1 keeps only agg group 1: the
    // valley-free up/down protocol cannot connect them even though a
    // "valley" through a third pod physically exists.
    ft_fixture f;
    f.round({f.ft.aggregation(0, 1), f.ft.aggregation(1, 0)});
    EXPECT_FALSE(
        f.oracle.host_to_host(f.ft.host(0, 0, 0), f.ft.host(1, 0, 0)));
    // Same-pod traffic in pod 0 still works through agg group 0.
    EXPECT_TRUE(f.oracle.host_to_host(f.ft.host(0, 0, 0), f.ft.host(0, 1, 0)));
}

TEST(FatTreeRouting, BorderGroupGatesExternalPath) {
    // Kill border 0: external reachability must go through group 1.
    ft_fixture f;
    f.round({f.ft.border(0), f.ft.aggregation(0, 1)});
    // Pod 0 lost agg group 1 and border 0 is dead: no external path.
    EXPECT_FALSE(f.oracle.border_reachable(f.ft.host(0, 0, 0)));
    // Pod 1 has agg group 1 alive -> border 1 -> external.
    EXPECT_TRUE(f.oracle.border_reachable(f.ft.host(1, 0, 0)));
}

TEST(FatTreeRouting, CoreGroupWipeout) {
    // Kill all cores of group 0: group 0 provides no transit.
    ft_fixture f;
    f.round({f.ft.core(0, 0), f.ft.core(0, 1), f.ft.aggregation(0, 1)});
    // Pod 0 can only go up via agg 0 -> cores of group 0 (all dead).
    EXPECT_FALSE(f.oracle.border_reachable(f.ft.host(0, 0, 0)));
}

TEST(FatTreeRouting, UsesEffectiveFailuresFromFaultTrees) {
    fat_tree ft = fat_tree::build(4);
    component_registry registry{ft.graph()};
    fault_tree_forest forest{ft.graph().node_count()};
    const component_id supply =
        registry.add(component_kind::power_supply, "ps0");
    forest.attach(ft.edge(0, 0), forest.add_leaf(supply));

    round_state rs{registry.size(), &forest};
    fat_tree_routing oracle{ft, nullptr, &forest};
    rs.begin_round(std::vector<component_id>{supply});
    oracle.begin_round(rs);
    EXPECT_FALSE(oracle.border_reachable(ft.host(0, 0, 0)));
    EXPECT_TRUE(oracle.border_reachable(ft.host(0, 1, 0)));
}

TEST(FatTreeRouting, RejectsARoundOfAnotherForest) {
    // The patched masks follow dependency failures through the oracle's own
    // forest; a round built on another forest (or none) must not be judged.
    fat_tree ft = fat_tree::build(4);
    component_registry registry{ft.graph()};
    fault_tree_forest forest{ft.graph().node_count()};
    forest.attach(ft.edge(0, 0), forest.add_leaf(registry.add(
                                      component_kind::power_supply, "ps0")));

    round_state with_forest{registry.size(), &forest};
    with_forest.begin_round(std::vector<component_id>{});
    fat_tree_routing without{ft};
    EXPECT_THROW(without.begin_round(with_forest), std::logic_error);

    round_state without_forest{registry.size(), nullptr};
    without_forest.begin_round(std::vector<component_id>{});
    fat_tree_routing wired{ft, nullptr, &forest};
    EXPECT_THROW(wired.begin_round(without_forest), std::logic_error);
    wired.begin_round(with_forest);
    EXPECT_TRUE(wired.border_reachable(ft.host(0, 0, 0)));
}

// ---- generic BFS oracle ---------------------------------------------------

TEST(BfsReachability, LeafSpineBorderPaths) {
    const built_topology topo = build_leaf_spine(
        {.spines = 2, .leaves = 2, .hosts_per_leaf = 2, .border_leaves = 1});
    round_state rs{topo.graph.node_count(), nullptr};
    bfs_reachability oracle{topo};

    rs.begin_round(std::vector<component_id>{});
    oracle.begin_round(rs);
    for (const node_id h : topo.hosts) {
        EXPECT_TRUE(oracle.border_reachable(h));
    }
    EXPECT_TRUE(oracle.host_to_host(topo.hosts[0], topo.hosts[3]));

    // Kill both spines: hosts become islands.
    const auto spines = topo.graph.nodes_of_kind(node_kind::core_switch);
    rs.begin_round(spines);
    oracle.begin_round(rs);
    EXPECT_FALSE(oracle.border_reachable(topo.hosts[0]));
    EXPECT_FALSE(oracle.host_to_host(topo.hosts[0], topo.hosts[2]));
    EXPECT_TRUE(oracle.host_to_host(topo.hosts[0], topo.hosts[1]));  // same leaf
}

TEST(BfsReachability, FailedEndpointsNeverReachable) {
    const built_topology topo = build_leaf_spine({});
    round_state rs{topo.graph.node_count(), nullptr};
    bfs_reachability oracle{topo};
    rs.begin_round(std::vector<component_id>{topo.hosts[0]});
    oracle.begin_round(rs);
    EXPECT_FALSE(oracle.border_reachable(topo.hosts[0]));
    EXPECT_FALSE(oracle.host_to_host(topo.hosts[0], topo.hosts[1]));
    EXPECT_FALSE(oracle.host_to_host(topo.hosts[1], topo.hosts[0]));
    EXPECT_TRUE(oracle.host_to_host(topo.hosts[1], topo.hosts[1]));
}

TEST(BfsReachability, QueriesBeforeBeginRoundRejected) {
    const built_topology topo = build_leaf_spine({});
    bfs_reachability oracle{topo};
    EXPECT_THROW((void)oracle.border_reachable(topo.hosts[0]), std::logic_error);
    EXPECT_THROW((void)oracle.host_to_host(topo.hosts[0], topo.hosts[1]),
                 std::logic_error);
}

TEST(BfsReachability, SourceStampSurvivesUint32WrapAround) {
    // The per-source flood stamp is a uint32 that increments once per flood;
    // after 2^32 floods it wraps and a stale mark could alias a fresh stamp.
    // Fast-forward the stamp to the edge and check every answer across the
    // wrap against a fresh oracle that is nowhere near it.
    const built_topology topo = build_leaf_spine(
        {.spines = 2, .leaves = 3, .hosts_per_leaf = 3, .border_leaves = 1});
    const std::size_t n = topo.graph.node_count();
    round_state rs_wrapping{n, nullptr};
    round_state rs_fresh{n, nullptr};
    bfs_reachability wrapping{topo};
    bfs_reachability fresh{topo};
    wrapping.set_source_stamp_for_test(0xFFFFFFFEu);

    std::vector<double> probs(n, 0.2);
    monte_carlo_sampler sampler{probs, 11};
    std::vector<component_id> failed;
    // Each round floods up to #hosts sources, so a handful of rounds drives
    // the stamp through 0xFFFFFFFF -> wrap -> low values.
    for (int round = 0; round < 20; ++round) {
        sampler.next_round(failed);
        rs_wrapping.begin_round(failed);
        rs_fresh.begin_round(failed);
        wrapping.begin_round(rs_wrapping);
        fresh.begin_round(rs_fresh);
        for (const node_id a : topo.hosts) {
            for (const node_id b : topo.hosts) {
                ASSERT_EQ(wrapping.host_to_host(a, b), fresh.host_to_host(a, b))
                    << "round " << round << " pair " << a << "->" << b;
            }
        }
    }
}

TEST(BfsReachability, TargetHintAgreesWithFullFlood) {
    // A round begun with a query-target hint may truncate its floods; for
    // the hosts the hint names, every answer must equal the unhinted
    // oracle's. Duplicates in the hint are allowed (plan host lists repeat).
    const built_topology topo = build_leaf_spine(
        {.spines = 2, .leaves = 4, .hosts_per_leaf = 4, .border_leaves = 1});
    const std::size_t n = topo.graph.node_count();
    std::vector<node_id> plan_hosts = {topo.hosts[0], topo.hosts[5],
                                       topo.hosts[9], topo.hosts[5],
                                       topo.hosts[14]};
    round_state rs_hinted{n, nullptr};
    round_state rs_full{n, nullptr};
    bfs_reachability hinted{topo};
    bfs_reachability full{topo};

    std::vector<double> probs(n, 0.15);
    monte_carlo_sampler sampler{probs, 23};
    std::vector<component_id> failed;
    for (int round = 0; round < 300; ++round) {
        sampler.next_round(failed);
        rs_hinted.begin_round(failed);
        rs_full.begin_round(failed);
        hinted.begin_round(rs_hinted, std::span<const node_id>{plan_hosts});
        full.begin_round(rs_full);
        for (const node_id a : plan_hosts) {
            ASSERT_EQ(hinted.border_reachable(a), full.border_reachable(a));
            for (const node_id b : plan_hosts) {
                ASSERT_EQ(hinted.host_to_host(a, b), full.host_to_host(a, b));
            }
        }
    }
}

TEST(BfsReachability, TargetHintCanChangeBetweenRounds) {
    // Switching to a different hint (the annealing search moves instances
    // between hosts) must fully retire the previous target set.
    const built_topology topo = build_leaf_spine(
        {.spines = 2, .leaves = 2, .hosts_per_leaf = 4, .border_leaves = 1});
    const std::size_t n = topo.graph.node_count();
    round_state rs{n, nullptr};
    bfs_reachability oracle{topo};
    bfs_reachability reference{topo};
    round_state rs_ref{n, nullptr};

    const std::vector<node_id> first = {topo.hosts[0], topo.hosts[1]};
    const std::vector<node_id> second = {topo.hosts[6], topo.hosts[7]};
    const std::vector<component_id> none;
    for (const auto* hint : {&first, &second, &first}) {
        rs.begin_round(none);
        rs_ref.begin_round(none);
        oracle.begin_round(rs, std::span<const node_id>{*hint});
        reference.begin_round(rs_ref);
        for (const node_id h : *hint) {
            EXPECT_EQ(oracle.border_reachable(h), reference.border_reachable(h));
            EXPECT_EQ(oracle.host_to_host((*hint)[0], h),
                      reference.host_to_host((*hint)[0], h));
        }
    }
}

TEST(BfsReachability, AgreesWithFatTreeOracleOnUpDownReachableStates) {
    // On states where the up/down protocol finds a path, plain connectivity
    // must also find one (up/down paths are a subset of all paths).
    const fat_tree ft = fat_tree::build(4);
    const std::size_t n = ft.graph().node_count();
    std::vector<double> probs(n, 0.15);
    probs[ft.external()] = 0.0;
    monte_carlo_sampler sampler{probs, 5};
    round_state rs{n, nullptr};
    fat_tree_routing fast{ft};
    bfs_reachability slow{ft.topology()};
    std::vector<component_id> failed;
    for (int round = 0; round < 200; ++round) {
        sampler.next_round(failed);
        rs.begin_round(failed);
        fast.begin_round(rs);
        slow.begin_round(rs);
        for (const node_id h : ft.topology().hosts) {
            if (fast.border_reachable(h)) {
                ASSERT_TRUE(slow.border_reachable(h));
            }
        }
    }
}

}  // namespace
}  // namespace recloud
