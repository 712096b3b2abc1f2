// Link failure modeling (paper §2.1: "network components (e.g., network
// connectivity across hardware components)").
//
// Every edge of the routing graph can be registered as a fallible
// component. Oracles consult the per-round state of the traversed link in
// addition to both endpoint nodes, so a cut cable isolates exactly the
// paths crossing it. The external peering links (border switch <-> external)
// can optionally be kept infallible, mirroring providers that model their
// upstream transit separately.
#pragma once

#include <cstdint>
#include <vector>

#include "faults/component_registry.hpp"
#include "topology/graph.hpp"

namespace recloud {

struct link_attachment_options {
    /// Keep border<->external peering links infallible (probability 0 and
    /// no component registered; queries report them alive).
    bool skip_external_peering = false;
};

struct link_attachment {
    /// Per graph edge id: the link's component id, or invalid_node if this
    /// edge was not registered (external peering with skip option).
    std::vector<component_id> component_of_edge;

    /// True if the link of `edge` is effectively failed in the current
    /// round of `failed_fn` (a callable component_id -> bool).
    template <typename FailedFn>
    [[nodiscard]] bool link_failed(std::uint32_t edge, FailedFn&& failed_fn) const {
        const component_id c = component_of_edge[edge];
        return c != invalid_node && failed_fn(c);
    }
};

/// Registers one component per graph edge (probability 0 — assign with a
/// probability model afterwards; links count as "every other component" in
/// the paper's §4.1 setting).
[[nodiscard]] link_attachment attach_link_components(
    const built_topology& topo, component_registry& registry,
    const link_attachment_options& options = {});

/// Appends a host's attachment to `out`: its adjacent nodes and, when
/// `links` is given, the link components of its incident edges — every
/// component besides the host itself whose failure cuts the host off from
/// the rest of the graph. Adjacency order; a shared link component may
/// appear twice. The one definition of attachment: the oracles name it
/// (reachability_oracle::append_attachment) and verdict_support's
/// host_attachment index is built from it.
void append_host_attachment(const network_graph& graph,
                            const link_attachment* links, node_id host,
                            std::vector<component_id>& out);

}  // namespace recloud
