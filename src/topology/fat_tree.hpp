// Fat-tree (k-port) topology with external connectivity via a dedicated
// border pod, matching the paper's Table 2.
//
// A classic k-port fat-tree has k pods. Following Google's Jupiter approach
// (paper §3.1), one pod position is dedicated to external peering: it is
// modeled as k/2 border switches that sit at the aggregation level, each
// wired to the same k/2 core switches an aggregation switch would use, and
// each peering with the synthetic "external" node. The remaining k-1 pods
// are regular (k/2 aggregation + k/2 edge switches, (k/2)^2 hosts each).
//
// This reproduces Table 2 exactly, e.g. k=8: 16 core, 28 agg, 28 edge,
// 4 border switches and 112 hosts.
//
// Node id layout (dense, arithmetic addressing — the routing oracle relies
// on it):
//   [0, g*g)                           core switches; core(j, i) = j*g + i
//   [core_end + p*pod_stride, ...)     pod p: aggs, then edges, then hosts
//   [border_base, border_base + g)     border switches; border(j)
//   external                           last id
// where g = k/2 and pod_stride = 2g + g*g.
#pragma once

#include <cstdint>

#include "topology/graph.hpp"

namespace recloud {

/// Preset scales from Table 2 of the paper.
enum class data_center_scale : std::uint8_t { tiny, small, medium, large };

[[nodiscard]] const char* to_string(data_center_scale scale) noexcept;

/// Switch port count for a Table 2 preset (8 / 16 / 24 / 48).
[[nodiscard]] int fat_tree_k_for(data_center_scale scale) noexcept;

/// A built fat-tree with arithmetic index accessors.
class fat_tree {
public:
    /// Builds a k-port fat-tree with a dedicated border pod. Requires k even
    /// and k >= 4.
    static fat_tree build(int k);

    /// Convenience: build one of the Table 2 presets.
    static fat_tree build(data_center_scale scale);

    [[nodiscard]] const built_topology& topology() const noexcept { return topo_; }
    [[nodiscard]] const network_graph& graph() const noexcept { return topo_.graph; }

    [[nodiscard]] int k() const noexcept { return k_; }
    /// g = k/2: aggregation switches per pod, core groups, border switches.
    [[nodiscard]] int group_width() const noexcept { return g_; }
    /// Number of regular (host-carrying) pods: k - 1.
    [[nodiscard]] int pod_count() const noexcept { return k_ - 1; }
    [[nodiscard]] int hosts_per_pod() const noexcept { return g_ * g_; }
    [[nodiscard]] int hosts_per_edge() const noexcept { return g_; }

    // -- arithmetic node addressing ------------------------------------
    // Each throws std::out_of_range for a coordinate outside
    // [0, pod_count()), [0, group_width()) or [0, hosts_per_edge()).
    [[nodiscard]] node_id core(int group, int index) const;
    [[nodiscard]] node_id aggregation(int pod, int group) const;
    [[nodiscard]] node_id edge(int pod, int edge_index) const;
    [[nodiscard]] node_id host(int pod, int edge_index, int slot) const;
    [[nodiscard]] node_id border(int group) const;
    [[nodiscard]] node_id external() const noexcept { return topo_.external; }

    // -- reverse lookups (only valid for ids of the matching kind) ------
    [[nodiscard]] bool is_host(node_id id) const noexcept;
    [[nodiscard]] int pod_of_host(node_id id) const noexcept;
    [[nodiscard]] int edge_index_of_host(node_id id) const noexcept;
    /// The edge (top-of-rack) switch a host hangs off. A "rack" in the
    /// common-practice baseline is exactly one edge switch.
    [[nodiscard]] node_id edge_of_host(node_id id) const noexcept;

private:
    fat_tree() = default;

    int k_ = 0;
    int g_ = 0;
    std::uint32_t pod_stride_ = 0;
    std::uint32_t core_count_ = 0;
    std::uint32_t border_base_ = 0;
    built_topology topo_;
};

}  // namespace recloud
