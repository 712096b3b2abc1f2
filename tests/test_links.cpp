// Link-failure modeling: attachment, BFS and fat-tree oracles under failed
// links, exact reliability with link probabilities, and a property suite
// checking the link-aware fat-tree oracle against an adjacency-walking
// valley-free reference.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "assess/exact.hpp"
#include "faults/round_state.hpp"
#include "property_seed.hpp"
#include "routing/bfs_reachability.hpp"
#include "routing/fat_tree_routing.hpp"
#include "sampling/monte_carlo.hpp"
#include "topology/fat_tree.hpp"
#include "topology/leaf_spine.hpp"
#include "topology/links.hpp"

namespace recloud {
namespace {

TEST(LinkAttachment, OneComponentPerEdge) {
    const built_topology topo = build_leaf_spine(
        {.spines = 2, .leaves = 2, .hosts_per_leaf = 2, .border_leaves = 1});
    component_registry registry{topo.graph};
    const std::size_t before = registry.size();
    const link_attachment links = attach_link_components(topo, registry);
    EXPECT_EQ(links.component_of_edge.size(), topo.graph.edge_count());
    EXPECT_EQ(registry.size(), before + topo.graph.edge_count());
    for (const component_id c : links.component_of_edge) {
        ASSERT_NE(c, invalid_node);
        EXPECT_EQ(registry.kind(c), component_kind::network_link);
    }
}

TEST(LinkAttachment, SkipExternalPeering) {
    const built_topology topo = build_leaf_spine(
        {.spines = 2, .leaves = 2, .hosts_per_leaf = 2, .border_leaves = 1});
    component_registry registry{topo.graph};
    const link_attachment links = attach_link_components(
        topo, registry, {.skip_external_peering = true});
    std::size_t skipped = 0;
    for (std::uint32_t e = 0; e < topo.graph.edge_count(); ++e) {
        const auto [a, b] = topo.graph.edge_endpoints(e);
        const bool peering = topo.graph.kind(a) == node_kind::external ||
                             topo.graph.kind(b) == node_kind::external;
        if (peering) {
            EXPECT_EQ(links.component_of_edge[e], invalid_node);
            ++skipped;
        } else {
            EXPECT_NE(links.component_of_edge[e], invalid_node);
        }
    }
    EXPECT_EQ(skipped, 1u);  // one border leaf
}

TEST(GraphEdges, EdgeIdsRoundtrip) {
    const built_topology topo = build_leaf_spine({});
    for (node_id n = 0; n < topo.graph.node_count(); ++n) {
        const auto neighbors = topo.graph.neighbors(n);
        const auto edges = topo.graph.incident_edges(n);
        ASSERT_EQ(neighbors.size(), edges.size());
        for (std::size_t i = 0; i < neighbors.size(); ++i) {
            const auto [a, b] = topo.graph.edge_endpoints(edges[i]);
            EXPECT_TRUE((a == n && b == neighbors[i]) ||
                        (b == n && a == neighbors[i]));
            EXPECT_EQ(topo.graph.edge_id(n, neighbors[i]), edges[i]);
        }
    }
    EXPECT_THROW((void)topo.graph.edge_endpoints(
                     static_cast<std::uint32_t>(topo.graph.edge_count())),
                 std::out_of_range);
}

TEST(GraphEdges, MissingEdgeThrows) {
    network_graph g;
    const node_id a = g.add_node(node_kind::host);
    const node_id b = g.add_node(node_kind::host);
    (void)g.add_node(node_kind::host);
    g.add_edge(a, b);
    g.freeze();
    EXPECT_THROW((void)g.edge_id(a, 2), std::invalid_argument);
}

TEST(BfsLinks, CutLinkIsolatesExactlyItsPaths) {
    const built_topology topo = build_leaf_spine(
        {.spines = 1, .leaves = 2, .hosts_per_leaf = 1, .border_leaves = 1});
    component_registry registry{topo.graph};
    const link_attachment links = attach_link_components(topo, registry);
    round_state rs{registry.size(), nullptr};
    bfs_reachability oracle{topo, &links};

    const node_id host0 = topo.hosts[0];
    const node_id leaf0 = rack_of(topo.graph, host0);
    const component_id cut =
        links.component_of_edge[topo.graph.edge_id(host0, leaf0)];

    rs.begin_round(std::vector<component_id>{cut});
    oracle.begin_round(rs);
    EXPECT_FALSE(oracle.border_reachable(host0));  // the cut access link
    EXPECT_TRUE(oracle.border_reachable(topo.hosts[1]));
    EXPECT_FALSE(oracle.host_to_host(host0, topo.hosts[1]));
    EXPECT_TRUE(oracle.host_to_host(host0, host0));  // the host itself is fine
}

TEST(BfsLinks, MismatchedAttachmentRejected) {
    const built_topology a = build_leaf_spine({});
    const built_topology b = build_leaf_spine({.leaves = 3});
    component_registry registry{b.graph};
    const link_attachment links = attach_link_components(b, registry);
    EXPECT_THROW((bfs_reachability{a, &links}), std::invalid_argument);
}

TEST(ExactLinks, SerialChainIncludesLinkProbabilities) {
    // external - border - spine - leaf - host with fallible links: R is the
    // product over all nodes AND links on the only path.
    built_topology topo = build_leaf_spine(
        {.spines = 1, .leaves = 1, .hosts_per_leaf = 1, .border_leaves = 1});
    component_registry registry{topo.graph};
    const link_attachment links = attach_link_components(topo, registry);
    const node_id host = topo.hosts[0];
    const node_id leaf = rack_of(topo.graph, host);
    registry.set_probability(host, 0.1);
    registry.set_probability(
        links.component_of_edge[topo.graph.edge_id(host, leaf)], 0.2);

    bfs_reachability oracle{topo, &links};
    const application app = application::k_of_n(1, 1);
    deployment_plan plan;
    plan.hosts = {host};
    EXPECT_NEAR(exact_reliability(registry, nullptr, oracle, app, plan),
                0.9 * 0.8, 1e-12);
}

// ---- fat-tree oracle with links vs adjacency reference -------------------

struct link_env {
    fat_tree ft;
    component_registry registry;
    link_attachment links;

    explicit link_env(int k)
        : ft(fat_tree::build(k)),
          registry(ft.graph()),
          links(attach_link_components(ft.topology(), registry)) {}

    [[nodiscard]] bool link_alive(round_state& rs, node_id a, node_id b) const {
        const component_id c =
            links.component_of_edge[ft.graph().edge_id(a, b)];
        return c == invalid_node || !rs.failed(c);
    }
};

bool ref_border_reachable(const link_env& env, round_state& rs, node_id host) {
    const fat_tree& ft = env.ft;
    const network_graph& g = ft.graph();
    const auto ok = [&](node_id n) { return !rs.failed(n); };
    const node_id edge = ft.edge_of_host(host);
    if (!ok(host) || !env.link_alive(rs, host, edge) || !ok(edge)) {
        return false;
    }
    for (const node_id agg : g.neighbors(edge)) {
        if (g.kind(agg) != node_kind::aggregation_switch || !ok(agg) ||
            !env.link_alive(rs, edge, agg)) {
            continue;
        }
        for (const node_id core : g.neighbors(agg)) {
            if (g.kind(core) != node_kind::core_switch || !ok(core) ||
                !env.link_alive(rs, agg, core)) {
                continue;
            }
            for (const node_id border : g.neighbors(core)) {
                if (g.kind(border) == node_kind::border_switch && ok(border) &&
                    env.link_alive(rs, core, border) &&
                    env.link_alive(rs, border, ft.external())) {
                    return true;
                }
            }
        }
    }
    return false;
}

bool ref_host_to_host(const link_env& env, round_state& rs, node_id a,
                      node_id b) {
    const fat_tree& ft = env.ft;
    const network_graph& g = ft.graph();
    const auto ok = [&](node_id n) { return !rs.failed(n); };
    if (!ok(a) || !ok(b)) {
        return false;
    }
    if (a == b) {
        return true;
    }
    const node_id edge_a = ft.edge_of_host(a);
    const node_id edge_b = ft.edge_of_host(b);
    if (!env.link_alive(rs, a, edge_a) || !env.link_alive(rs, b, edge_b) ||
        !ok(edge_a)) {
        return false;
    }
    if (edge_a == edge_b) {
        return true;
    }
    if (!ok(edge_b)) {
        return false;
    }
    for (const node_id agg : g.neighbors(edge_a)) {
        if (g.kind(agg) != node_kind::aggregation_switch || !ok(agg) ||
            !env.link_alive(rs, edge_a, agg)) {
            continue;
        }
        if (g.has_edge(agg, edge_b) && env.link_alive(rs, agg, edge_b)) {
            return true;
        }
        for (const node_id core : g.neighbors(agg)) {
            if (g.kind(core) != node_kind::core_switch || !ok(core) ||
                !env.link_alive(rs, agg, core)) {
                continue;
            }
            for (const node_id agg_b : g.neighbors(core)) {
                if (g.kind(agg_b) == node_kind::aggregation_switch &&
                    ok(agg_b) && env.link_alive(rs, core, agg_b) &&
                    g.has_edge(agg_b, edge_b) &&
                    env.link_alive(rs, agg_b, edge_b)) {
                    return true;
                }
            }
        }
    }
    return false;
}

/// No padding: gtest prints the parameter as its raw bytes into the test's
/// listed name, so every byte must be defined for the name to be the same
/// in every build.
struct link_routing_case {
    std::int64_t k;
    double failure_probability;
};

class FatTreeLinkRouting : public ::testing::TestWithParam<link_routing_case> {};

TEST_P(FatTreeLinkRouting, MatchesAdjacencyReference) {
    const int k = static_cast<int>(GetParam().k);
    const double q = GetParam().failure_probability;
    link_env env{k};
    // Nodes and links all fallible with probability q.
    std::vector<double> probs(env.registry.size(), q);
    probs[env.ft.external()] = 0.0;
    monte_carlo_sampler sampler{
        probs, property_seed(777 + static_cast<std::uint64_t>(k))};
    round_state rs{env.registry.size(), nullptr};
    fat_tree_routing oracle{env.ft, &env.links};
    rng pick{property_seed(55)};
    const auto& hosts = env.ft.topology().hosts;

    std::vector<component_id> failed;
    for (int round = 0; round < 250; ++round) {
        sampler.next_round(failed);
        rs.begin_round(failed);
        oracle.begin_round(rs);
        for (int probe = 0; probe < 8; ++probe) {
            const node_id h = hosts[pick.uniform_below(hosts.size())];
            ASSERT_EQ(oracle.border_reachable(h),
                      ref_border_reachable(env, rs, h))
                << "k=" << k << " round=" << round << " host=" << h;
            const node_id h2 = hosts[pick.uniform_below(hosts.size())];
            ASSERT_EQ(oracle.host_to_host(h, h2),
                      ref_host_to_host(env, rs, h, h2))
                << "k=" << k << " round=" << round << " pair=" << h << "," << h2;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FatTreeLinkRouting,
    ::testing::Values(link_routing_case{4, 0.05}, link_routing_case{4, 0.3},
                      link_routing_case{8, 0.05}, link_routing_case{8, 0.25},
                      link_routing_case{12, 0.1}),
    [](const auto& info) {
        return "k" + std::to_string(info.param.k) + "_q" +
               std::to_string(static_cast<int>(info.param.failure_probability * 100));
    });

TEST(FatTreeLinks, CutHostUplinkIsolatesHostOnly) {
    link_env env{4};
    round_state rs{env.registry.size(), nullptr};
    fat_tree_routing oracle{env.ft, &env.links};
    const node_id victim = env.ft.host(0, 0, 0);
    const node_id sibling = env.ft.host(0, 0, 1);
    const component_id cut = env.links.component_of_edge[env.ft.graph().edge_id(
        victim, env.ft.edge_of_host(victim))];
    rs.begin_round(std::vector<component_id>{cut});
    oracle.begin_round(rs);
    EXPECT_FALSE(oracle.border_reachable(victim));
    EXPECT_TRUE(oracle.border_reachable(sibling));
    EXPECT_FALSE(oracle.host_to_host(victim, sibling));
}

TEST(FatTreeLinks, CutPeeringLinkRemovesOneExternalGroup) {
    link_env env{4};
    round_state rs{env.registry.size(), nullptr};
    fat_tree_routing oracle{env.ft, &env.links};
    // Cut border 0's external peering and kill agg group 1 in pod 0: pod 0
    // then has no external path (its only alive group leads to border 0).
    const component_id peering0 =
        env.links.component_of_edge[env.ft.graph().edge_id(
            env.ft.border(0), env.ft.external())];
    rs.begin_round(
        std::vector<component_id>{peering0, env.ft.aggregation(0, 1)});
    oracle.begin_round(rs);
    EXPECT_FALSE(oracle.border_reachable(env.ft.host(0, 0, 0)));
    EXPECT_TRUE(oracle.border_reachable(env.ft.host(1, 0, 0)));
}

}  // namespace
}  // namespace recloud
