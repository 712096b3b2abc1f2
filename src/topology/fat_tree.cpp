#include "topology/fat_tree.hpp"

#include <stdexcept>
#include <string>

namespace recloud {

const char* to_string(data_center_scale scale) noexcept {
    switch (scale) {
        case data_center_scale::tiny: return "tiny";
        case data_center_scale::small: return "small";
        case data_center_scale::medium: return "medium";
        case data_center_scale::large: return "large";
    }
    return "unknown";
}

int fat_tree_k_for(data_center_scale scale) noexcept {
    switch (scale) {
        case data_center_scale::tiny: return 8;
        case data_center_scale::small: return 16;
        case data_center_scale::medium: return 24;
        case data_center_scale::large: return 48;
    }
    return 8;
}

fat_tree fat_tree::build(data_center_scale scale) {
    return build(fat_tree_k_for(scale));
}

fat_tree fat_tree::build(int k) {
    if (k < 4 || k % 2 != 0) {
        throw std::invalid_argument{"fat_tree: k must be even and >= 4"};
    }
    fat_tree ft;
    ft.k_ = k;
    const int g = k / 2;
    ft.g_ = g;
    ft.core_count_ = static_cast<std::uint32_t>(g) * static_cast<std::uint32_t>(g);
    ft.pod_stride_ = static_cast<std::uint32_t>(2 * g + g * g);
    const int pods = k - 1;
    ft.border_base_ = ft.core_count_ + static_cast<std::uint32_t>(pods) * ft.pod_stride_;

    network_graph& graph = ft.topo_.graph;

    // Allocation order must match the arithmetic addressing documented in
    // the header: cores, then per-pod (aggs, edges, hosts), borders, external.
    for (std::uint32_t i = 0; i < ft.core_count_; ++i) {
        graph.add_node(node_kind::core_switch);
    }
    for (int p = 0; p < pods; ++p) {
        for (int j = 0; j < g; ++j) {
            graph.add_node(node_kind::aggregation_switch);
        }
        for (int e = 0; e < g; ++e) {
            graph.add_node(node_kind::edge_switch);
        }
        for (int e = 0; e < g; ++e) {
            for (int h = 0; h < g; ++h) {
                graph.add_node(node_kind::host);
            }
        }
    }
    for (int j = 0; j < g; ++j) {
        graph.add_node(node_kind::border_switch);
    }
    ft.topo_.external = graph.add_node(node_kind::external);

    // Wiring. Aggregation switch `j` of every pod — and border switch `j` —
    // uplinks to core group j, i.e. cores (j, 0..g-1).
    for (int p = 0; p < pods; ++p) {
        for (int j = 0; j < g; ++j) {
            const node_id agg = ft.aggregation(p, j);
            for (int i = 0; i < g; ++i) {
                graph.add_edge(agg, ft.core(j, i));
            }
            for (int e = 0; e < g; ++e) {
                graph.add_edge(agg, ft.edge(p, e));
            }
        }
        for (int e = 0; e < g; ++e) {
            const node_id edge = ft.edge(p, e);
            for (int h = 0; h < g; ++h) {
                graph.add_edge(edge, ft.host(p, e, h));
            }
        }
    }
    for (int j = 0; j < g; ++j) {
        const node_id border = ft.border(j);
        for (int i = 0; i < g; ++i) {
            graph.add_edge(border, ft.core(j, i));
        }
        graph.add_edge(border, ft.topo_.external);
    }
    graph.freeze();

    ft.topo_.hosts.reserve(static_cast<std::size_t>(pods) * g * g);
    for (int p = 0; p < pods; ++p) {
        for (int e = 0; e < g; ++e) {
            for (int h = 0; h < g; ++h) {
                ft.topo_.hosts.push_back(ft.host(p, e, h));
            }
        }
    }
    ft.topo_.border_switches.reserve(g);
    for (int j = 0; j < g; ++j) {
        ft.topo_.border_switches.push_back(ft.border(j));
    }
    ft.topo_.name = "fat-tree(k=" + std::to_string(k) + ")";
    return ft;
}

namespace {

void check_coordinate(const char* name, int value, int limit) {
    if (value < 0 || value >= limit) {
        throw std::out_of_range{"fat_tree: " + std::string{name} + " " +
                                std::to_string(value) + " is outside [0, " +
                                std::to_string(limit) + ")"};
    }
}

}  // namespace

node_id fat_tree::core(int group, int index) const {
    check_coordinate("group", group, g_);
    check_coordinate("core index", index, g_);
    return static_cast<node_id>(group * g_ + index);
}

node_id fat_tree::aggregation(int pod, int group) const {
    check_coordinate("pod", pod, pod_count());
    check_coordinate("group", group, g_);
    return core_count_ + static_cast<node_id>(pod) * pod_stride_ +
           static_cast<node_id>(group);
}

node_id fat_tree::edge(int pod, int edge_index) const {
    check_coordinate("pod", pod, pod_count());
    check_coordinate("edge index", edge_index, g_);
    return core_count_ + static_cast<node_id>(pod) * pod_stride_ +
           static_cast<node_id>(g_ + edge_index);
}

node_id fat_tree::host(int pod, int edge_index, int slot) const {
    check_coordinate("pod", pod, pod_count());
    check_coordinate("edge index", edge_index, g_);
    check_coordinate("host slot", slot, hosts_per_edge());
    return core_count_ + static_cast<node_id>(pod) * pod_stride_ +
           static_cast<node_id>(2 * g_ + edge_index * g_ + slot);
}

node_id fat_tree::border(int group) const {
    check_coordinate("group", group, g_);
    return border_base_ + static_cast<node_id>(group);
}

bool fat_tree::is_host(node_id id) const noexcept {
    if (id < core_count_ || id >= border_base_) {
        return false;
    }
    const std::uint32_t within = (id - core_count_) % pod_stride_;
    return within >= static_cast<std::uint32_t>(2 * g_);
}

int fat_tree::pod_of_host(node_id id) const noexcept {
    return static_cast<int>((id - core_count_) / pod_stride_);
}

int fat_tree::edge_index_of_host(node_id id) const noexcept {
    const std::uint32_t within = (id - core_count_) % pod_stride_;
    return static_cast<int>((within - 2 * g_) / g_);
}

node_id fat_tree::edge_of_host(node_id id) const noexcept {
    // Unchecked: a host's own coordinates are in range by construction.
    return core_count_ + static_cast<node_id>(pod_of_host(id)) * pod_stride_ +
           static_cast<node_id>(g_ + edge_index_of_host(id));
}

}  // namespace recloud
