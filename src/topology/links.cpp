#include "topology/links.hpp"

#include <string>

namespace recloud {

link_attachment attach_link_components(const built_topology& topo,
                                       component_registry& registry,
                                       const link_attachment_options& options) {
    link_attachment attachment;
    const std::size_t edges = topo.graph.edge_count();
    attachment.component_of_edge.assign(edges, invalid_node);
    for (std::uint32_t edge = 0; edge < edges; ++edge) {
        const auto [a, b] = topo.graph.edge_endpoints(edge);
        const bool is_peering = topo.graph.kind(a) == node_kind::external ||
                                topo.graph.kind(b) == node_kind::external;
        if (is_peering && options.skip_external_peering) {
            continue;
        }
        attachment.component_of_edge[edge] = registry.add(
            component_kind::network_link,
            "link#" + std::to_string(a) + "-" + std::to_string(b));
    }
    return attachment;
}

void append_host_attachment(const network_graph& graph,
                            const link_attachment* links, node_id host,
                            std::vector<component_id>& out) {
    const std::span<const node_id> adjacent = graph.neighbors(host);
    const std::span<const std::uint32_t> edges = graph.incident_edges(host);
    for (std::size_t i = 0; i < adjacent.size(); ++i) {
        out.push_back(adjacent[i]);
        if (links != nullptr) {
            const component_id link = links->component_of_edge[edges[i]];
            if (link != invalid_node) {
                out.push_back(link);
            }
        }
    }
}

}  // namespace recloud
