#include "topology/fat_tree.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <stdexcept>
#include <tuple>

#include "topology/stats.hpp"

namespace recloud {
namespace {

// ---- Table 2 of the paper, verbatim ------------------------------------
// gtest prints the raw bytes of a parameter into the test's listed name, so
// the row has no implicit padding: the bytes after the one-byte scale are an
// explicit, zeroed field, and every build lists the same test names.
struct table2_row {
    data_center_scale scale;
    std::uint8_t zero_pad[3]{};
    int k;
    std::size_t core;
    std::size_t agg;
    std::size_t edge;
    std::size_t border;
    std::size_t hosts;
};

class FatTreeTable2 : public ::testing::TestWithParam<table2_row> {};

TEST_P(FatTreeTable2, MatchesPaperCounts) {
    const table2_row row = GetParam();
    const fat_tree ft = fat_tree::build(row.scale);
    const topology_stats stats = compute_topology_stats(ft.topology());
    EXPECT_EQ(ft.k(), row.k);
    EXPECT_EQ(stats.core_switches, row.core);
    EXPECT_EQ(stats.aggregation_switches, row.agg);
    EXPECT_EQ(stats.edge_switches, row.edge);
    EXPECT_EQ(stats.border_switches, row.border);
    EXPECT_EQ(stats.hosts, row.hosts);
}

INSTANTIATE_TEST_SUITE_P(
    Table2, FatTreeTable2,
    ::testing::Values(
        table2_row{.scale = data_center_scale::tiny, .k = 8,
                   .core = 16, .agg = 28, .edge = 28, .border = 4, .hosts = 112},
        table2_row{.scale = data_center_scale::small, .k = 16,
                   .core = 64, .agg = 120, .edge = 120, .border = 8, .hosts = 960},
        table2_row{.scale = data_center_scale::medium, .k = 24,
                   .core = 144, .agg = 276, .edge = 276, .border = 12, .hosts = 3312},
        table2_row{.scale = data_center_scale::large, .k = 48,
                   .core = 576, .agg = 1128, .edge = 1128, .border = 24, .hosts = 27072}),
    [](const auto& info) { return to_string(info.param.scale); });

// ---- structural invariants, parameterized over k ------------------------
class FatTreeStructure : public ::testing::TestWithParam<int> {};

TEST_P(FatTreeStructure, PortCountsRespectK) {
    const int k = GetParam();
    const fat_tree ft = fat_tree::build(k);
    const network_graph& g = ft.graph();
    const int gw = k / 2;
    for (node_id id = 0; id < g.node_count(); ++id) {
        switch (g.kind(id)) {
            case node_kind::host:
                EXPECT_EQ(g.degree(id), 1u);
                break;
            case node_kind::edge_switch:
            case node_kind::aggregation_switch:
                EXPECT_EQ(g.degree(id), static_cast<std::size_t>(k));
                break;
            case node_kind::core_switch:
                // One regular pod link per pod + one border link = k.
                EXPECT_EQ(g.degree(id), static_cast<std::size_t>(k));
                break;
            case node_kind::border_switch:
                // g core uplinks + the external peering.
                EXPECT_EQ(g.degree(id), static_cast<std::size_t>(gw + 1));
                break;
            case node_kind::external:
                EXPECT_EQ(g.degree(id), static_cast<std::size_t>(gw));
                break;
        }
    }
}

TEST_P(FatTreeStructure, ArithmeticAddressingMatchesWiring) {
    const int k = GetParam();
    const fat_tree ft = fat_tree::build(k);
    const network_graph& g = ft.graph();
    const int gw = k / 2;
    for (int p = 0; p < ft.pod_count(); ++p) {
        for (int j = 0; j < gw; ++j) {
            EXPECT_EQ(g.kind(ft.aggregation(p, j)), node_kind::aggregation_switch);
            for (int i = 0; i < gw; ++i) {
                EXPECT_TRUE(g.has_edge(ft.aggregation(p, j), ft.core(j, i)));
            }
            for (int e = 0; e < gw; ++e) {
                EXPECT_TRUE(g.has_edge(ft.aggregation(p, j), ft.edge(p, e)));
            }
        }
    }
    for (int j = 0; j < gw; ++j) {
        EXPECT_EQ(g.kind(ft.border(j)), node_kind::border_switch);
        for (int i = 0; i < gw; ++i) {
            EXPECT_TRUE(g.has_edge(ft.border(j), ft.core(j, i)));
        }
        EXPECT_TRUE(g.has_edge(ft.border(j), ft.external()));
    }
}

TEST_P(FatTreeStructure, HostReverseLookups) {
    const int k = GetParam();
    const fat_tree ft = fat_tree::build(k);
    const int gw = k / 2;
    for (int p = 0; p < ft.pod_count(); ++p) {
        for (int e = 0; e < gw; ++e) {
            for (int h = 0; h < gw; ++h) {
                const node_id host = ft.host(p, e, h);
                EXPECT_TRUE(ft.is_host(host));
                EXPECT_EQ(ft.pod_of_host(host), p);
                EXPECT_EQ(ft.edge_index_of_host(host), e);
                EXPECT_EQ(ft.edge_of_host(host), ft.edge(p, e));
                EXPECT_TRUE(ft.graph().has_edge(host, ft.edge_of_host(host)));
            }
        }
    }
    EXPECT_FALSE(ft.is_host(ft.core(0, 0)));
    EXPECT_FALSE(ft.is_host(ft.aggregation(0, 0)));
    EXPECT_FALSE(ft.is_host(ft.border(0)));
    EXPECT_FALSE(ft.is_host(ft.external()));
}

TEST_P(FatTreeStructure, HostListMatchesGraph) {
    const fat_tree ft = fat_tree::build(GetParam());
    const std::set<node_id> listed(ft.topology().hosts.begin(),
                                   ft.topology().hosts.end());
    EXPECT_EQ(listed.size(), ft.topology().hosts.size());  // no duplicates
    EXPECT_EQ(listed.size(), ft.graph().count_of_kind(node_kind::host));
    for (const node_id h : listed) {
        EXPECT_EQ(ft.graph().kind(h), node_kind::host);
    }
}

INSTANTIATE_TEST_SUITE_P(VariousK, FatTreeStructure, ::testing::Values(4, 6, 8, 12, 16));

TEST(FatTree, RejectsInvalidK) {
    EXPECT_THROW((void)fat_tree::build(3), std::invalid_argument);
    EXPECT_THROW((void)fat_tree::build(7), std::invalid_argument);
    EXPECT_THROW((void)fat_tree::build(2), std::invalid_argument);
    EXPECT_THROW((void)fat_tree::build(0), std::invalid_argument);
    EXPECT_THROW((void)fat_tree::build(-4), std::invalid_argument);
}

TEST(FatTree, ScalePresetKs) {
    EXPECT_EQ(fat_tree_k_for(data_center_scale::tiny), 8);
    EXPECT_EQ(fat_tree_k_for(data_center_scale::small), 16);
    EXPECT_EQ(fat_tree_k_for(data_center_scale::medium), 24);
    EXPECT_EQ(fat_tree_k_for(data_center_scale::large), 48);
}

TEST(FatTree, HostsPerPodAndEdge) {
    const fat_tree ft = fat_tree::build(8);
    EXPECT_EQ(ft.group_width(), 4);
    EXPECT_EQ(ft.pod_count(), 7);
    EXPECT_EQ(ft.hosts_per_pod(), 16);
    EXPECT_EQ(ft.hosts_per_edge(), 4);
}

TEST(FatTree, CoordinatesOutsideTheTreeThrow) {
    // k = 4: pods 0..2 (the fourth pod position holds the border switches),
    // 2 groups, 2 edges per pod, 2 hosts per edge.
    const fat_tree ft = fat_tree::build(4);
    EXPECT_THROW((void)ft.host(3, 0, 0), std::out_of_range);
    EXPECT_THROW((void)ft.host(0, 2, 0), std::out_of_range);
    EXPECT_THROW((void)ft.host(0, 0, 2), std::out_of_range);
    EXPECT_THROW((void)ft.host(-1, 0, 0), std::out_of_range);
    EXPECT_THROW((void)ft.edge(3, 0), std::out_of_range);
    EXPECT_THROW((void)ft.aggregation(0, 2), std::out_of_range);
    EXPECT_THROW((void)ft.core(2, 0), std::out_of_range);
    EXPECT_THROW((void)ft.core(0, 2), std::out_of_range);
    EXPECT_THROW((void)ft.border(2), std::out_of_range);
    // The last valid coordinates stay inside the graph.
    EXPECT_LT(ft.host(2, 1, 1), ft.graph().node_count());
    EXPECT_LT(ft.border(1), ft.graph().node_count());
    EXPECT_EQ(ft.edge_of_host(ft.host(2, 1, 1)), ft.edge(2, 1));
}

}  // namespace
}  // namespace recloud
