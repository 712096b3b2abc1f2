#include "routing/fat_tree_routing.hpp"

#include <bit>
#include <stdexcept>

namespace recloud {

fat_tree_routing::fat_tree_routing(const fat_tree& tree,
                                   const link_attachment* links,
                                   const fault_tree_forest* forest)
    : tree_(&tree), links_(links), forest_(forest) {
    if (tree.group_width() > 64) {
        throw std::invalid_argument{"fat_tree_routing: k > 128 not supported"};
    }
    const auto g = static_cast<std::size_t>(tree.group_width());
    const auto pods = static_cast<std::size_t>(tree.pod_count());
    pod_agg_clear_.assign(pods, 0);
    pod_agg_gen_.assign(pods, 0);
    core_clear_.assign(g, 0);
    core_gen_.assign(g, 0);
    ext_zero_gen_.assign(g, 0);

    // Mask reverse index (patched-mask fast path): which bits each switch
    // clears when it fails.
    for (int p = 0; p < tree.pod_count(); ++p) {
        for (int j = 0; j < tree.group_width(); ++j) {
            add_touch(tree.aggregation(p, j),
                      {patch_kind::agg, static_cast<std::uint32_t>(p),
                       static_cast<std::uint32_t>(j)});
        }
    }
    for (int j = 0; j < tree.group_width(); ++j) {
        for (int i = 0; i < tree.group_width(); ++i) {
            add_touch(tree.core(j, i),
                      {patch_kind::core, static_cast<std::uint32_t>(j),
                       static_cast<std::uint32_t>(i)});
        }
        add_touch(tree.border(j),
                  {patch_kind::ext_zero, static_cast<std::uint32_t>(j), 0});
    }

    // Role table for classify_round. Node roles first; link
    // components are folded in below once their edge ids are resolved.
    full_group_mask_ =
        g >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << g) - 1;
    role_.assign(tree.graph().node_count(), role_unassigned);
    for (int j = 0; j < tree.group_width(); ++j) {
        for (int i = 0; i < tree.group_width(); ++i) {
            role_[tree.core(j, i)] = static_cast<std::uint8_t>(j);
        }
        role_[tree.border(j)] = static_cast<std::uint8_t>(j);
    }
    for (int p = 0; p < tree.pod_count(); ++p) {
        for (int j = 0; j < tree.group_width(); ++j) {
            role_[tree.aggregation(p, j)] = static_cast<std::uint8_t>(j);
        }
        for (int e = 0; e < tree.group_width(); ++e) {
            role_[tree.edge(p, e)] = role_semi;
            for (int h = 0; h < tree.hosts_per_edge(); ++h) {
                role_[tree.host(p, e, h)] = role_ignore;
            }
        }
    }
    role_[tree.external()] = role_unclean;

    // Shared constructor tail: invert the forest's dependency edges over the
    // mask-relevant components so a raw dependency failure maps straight to
    // the switches it can flip, then size the per-round dedup stamps.
    const auto finish_touch_index = [this] {
        if (forest_ != nullptr) {
            // A structural component some fault tree reads can fail
            // components of other groups or racks through that tree: the
            // role table cannot attribute its failure.
            for (tree_node_id n = 0; n < forest_->tree_node_count(); ++n) {
                const fault_tree_forest::node_view view = forest_->node(n);
                if (view.kind == gate_kind::leaf && view.leaf < role_.size()) {
                    role_[view.leaf] = role_unclean;
                }
            }
            for (component_id c = 0; c < touch_.size(); ++c) {
                if (touch_[c].empty()) {
                    continue;
                }
                for (const component_id dep : forest_->dependencies_of(c)) {
                    if (dep >= rev_dep_.size()) {
                        rev_dep_.resize(dep + 1);
                    }
                    rev_dep_[dep].push_back(c);
                }
            }
        }
        cand_gen_.assign(
            std::max(touch_.size(), rev_dep_.size()), 0);
    };

    if (links_ == nullptr) {
        finish_touch_index();
        return;
    }
    if (links_->component_of_edge.size() != tree.graph().edge_count()) {
        throw std::invalid_argument{
            "fat_tree_routing: link attachment does not match topology"};
    }
    // Resolve every structural link's edge id once, so per-round queries
    // are pure array lookups.
    const network_graph& graph = tree.graph();
    host_uplink_.assign(graph.node_count(), 0);
    std::vector<std::uint32_t> edge_agg_link(pods * g * g, 0);
    std::vector<std::uint32_t> agg_core_link(pods * g * g, 0);
    std::vector<std::uint32_t> core_border_link(g * g, 0);
    std::vector<std::uint32_t> border_external_link(g, 0);
    for (int p = 0; p < tree.pod_count(); ++p) {
        for (int j = 0; j < tree.group_width(); ++j) {
            const node_id agg = tree.aggregation(p, j);
            for (int e = 0; e < tree.group_width(); ++e) {
                edge_agg_link[(static_cast<std::size_t>(p) * g + e) * g + j] =
                    graph.edge_id(tree.edge(p, e), agg);
            }
            for (int i = 0; i < tree.group_width(); ++i) {
                agg_core_link[(static_cast<std::size_t>(p) * g + j) * g + i] =
                    graph.edge_id(agg, tree.core(j, i));
            }
        }
        for (int e = 0; e < tree.group_width(); ++e) {
            const node_id edge = tree.edge(p, e);
            for (int h = 0; h < tree.hosts_per_edge(); ++h) {
                const node_id host = tree.host(p, e, h);
                host_uplink_[host] = graph.edge_id(host, edge);
            }
        }
    }
    for (int j = 0; j < tree.group_width(); ++j) {
        const node_id border = tree.border(j);
        for (int i = 0; i < tree.group_width(); ++i) {
            core_border_link[static_cast<std::size_t>(j) * g + i] =
                graph.edge_id(tree.core(j, i), border);
        }
        border_external_link[j] = graph.edge_id(border, tree.external());
    }

    // Link-component roles. A component carrying edges of different groups
    // (shared-risk groups) degrades to unclean inside assign_link_role.
    const auto link_component = [&](std::uint32_t edge) {
        return links_->component_of_edge[edge];
    };
    for (int p = 0; p < tree.pod_count(); ++p) {
        for (int j = 0; j < tree.group_width(); ++j) {
            const auto role = static_cast<std::uint8_t>(j);
            for (int e = 0; e < tree.group_width(); ++e) {
                assign_link_role(
                    link_component(
                        edge_agg_link[(static_cast<std::size_t>(p) * g + e) * g + j]),
                    role);
            }
            for (int i = 0; i < tree.group_width(); ++i) {
                assign_link_role(
                    link_component(
                        agg_core_link[(static_cast<std::size_t>(p) * g + j) * g + i]),
                    role);
            }
        }
        for (int e = 0; e < tree.group_width(); ++e) {
            for (int h = 0; h < tree.hosts_per_edge(); ++h) {
                assign_link_role(link_component(host_uplink_[tree.host(p, e, h)]),
                                 role_semi);
            }
        }
    }
    for (int j = 0; j < tree.group_width(); ++j) {
        const auto role = static_cast<std::uint8_t>(j);
        for (int i = 0; i < tree.group_width(); ++i) {
            assign_link_role(
                link_component(core_border_link[static_cast<std::size_t>(j) * g + i]),
                role);
        }
        assign_link_role(link_component(border_external_link[j]), role);
    }

    // Link components' mask bits. Host uplinks are mask-irrelevant (checked
    // directly per query); a shared-risk component simply accumulates one op
    // per carried edge.
    for (int p = 0; p < tree.pod_count(); ++p) {
        for (int j = 0; j < tree.group_width(); ++j) {
            for (int e = 0; e < tree.group_width(); ++e) {
                const std::size_t slot = static_cast<std::size_t>(p) * g + e;
                add_touch(link_component(edge_agg_link[slot * g + j]),
                          {patch_kind::uplink_exc,
                           static_cast<std::uint32_t>(slot),
                           static_cast<std::uint32_t>(j)});
            }
            const std::size_t slot = static_cast<std::size_t>(p) * g + j;
            for (int i = 0; i < tree.group_width(); ++i) {
                add_touch(link_component(agg_core_link[slot * g + i]),
                          {patch_kind::transit_exc,
                           static_cast<std::uint32_t>(slot),
                           static_cast<std::uint32_t>(i)});
            }
        }
    }
    for (int j = 0; j < tree.group_width(); ++j) {
        for (int i = 0; i < tree.group_width(); ++i) {
            add_touch(
                link_component(core_border_link[static_cast<std::size_t>(j) * g + i]),
                {patch_kind::ext_exc, static_cast<std::uint32_t>(j),
                 static_cast<std::uint32_t>(i)});
        }
        add_touch(link_component(border_external_link[j]),
                  {patch_kind::ext_zero, static_cast<std::uint32_t>(j), 0});
    }
    finish_touch_index();
}

void fat_tree_routing::add_touch(component_id component, patch_op op) {
    if (component == invalid_node) {
        return;  // infallible edge: nothing can fail, nothing to patch
    }
    if (component >= touch_.size()) {
        touch_.resize(component + 1);
    }
    touch_[component].push_back(op);
}

void fat_tree_routing::assign_link_role(component_id component,
                                        std::uint8_t role) {
    if (component == invalid_node) {
        return;  // infallible edge: nothing can fail, nothing to classify
    }
    if (component >= role_.size()) {
        role_.resize(component + 1, role_unassigned);
    }
    if (role_[component] == role_unassigned) {
        role_[component] = role;
    } else if (role_[component] != role) {
        role_[component] = role_unclean;
    }
}

round_class fat_tree_routing::classify_round(
    std::span<const component_id> raw_failed) {
    (void)raw_failed;  // classified once, by begin_round
    if (rs_ == nullptr) {
        throw std::logic_error{"fat_tree_routing: begin_round not called"};
    }
    return class_;
}

round_class fat_tree_routing::classify(
    std::span<const component_id> raw_failed) const {
    std::uint64_t touched = 0;
    bool semi = false;
    for (const component_id id : raw_failed) {
        const std::uint8_t role =
            id < role_.size() ? role_[id] : role_unclean;
        if (role == role_ignore) {
            continue;
        }
        if (role == role_semi) {
            semi = true;  // detaches its own racks, nothing else
            continue;
        }
        if (role >= 64) {
            return round_class::unclean;  // unattributable component
        }
        touched |= std::uint64_t{1} << role;
    }
    // At least one core group must survive completely untouched; it carries
    // every still-attached rack to any rack and to the border.
    if (touched == full_group_mask_) {
        return round_class::unclean;
    }
    return semi ? round_class::semi : round_class::clean;
}

void fat_tree_routing::begin_round(round_state& rs) {
    // The reverse index sees only the effective failures of the forest it
    // was built from.
    if (rs.forest() != forest_) {
        throw std::logic_error{
            "fat_tree_routing: the round's fault-tree forest is not the "
            "oracle's"};
    }
    rs_ = &rs;
    class_ = classify(rs.raw_failed_list());
}

void fat_tree_routing::apply_candidate(component_id candidate) {
    if (cand_gen_[candidate] == prep_gen_) {
        return;
    }
    cand_gen_[candidate] = prep_gen_;
    if (!rs_->failed(candidate)) {
        return;  // e.g. a redundant supply absorbed the dependency failure
    }
    for (const patch_op& op : touch_[candidate]) {
        switch (op.kind) {
            case patch_kind::agg:
                if (pod_agg_gen_[op.a] != prep_gen_) {
                    pod_agg_gen_[op.a] = prep_gen_;
                    pod_agg_clear_[op.a] = 0;
                }
                pod_agg_clear_[op.a] |= std::uint64_t{1} << op.b;
                break;
            case patch_kind::core:
                if (core_gen_[op.a] != prep_gen_) {
                    core_gen_[op.a] = prep_gen_;
                    core_clear_[op.a] = 0;
                }
                core_clear_[op.a] |= std::uint64_t{1} << op.b;
                break;
            case patch_kind::ext_zero:
                ext_zero_gen_[op.a] = prep_gen_;
                break;
            case patch_kind::uplink_exc:
                uplink_exc_.emplace_back(op.a, std::uint64_t{1} << op.b);
                break;
            case patch_kind::transit_exc:
                transit_exc_.emplace_back(op.a, std::uint64_t{1} << op.b);
                break;
            case patch_kind::ext_exc:
                ext_exc_.emplace_back(op.a, std::uint64_t{1} << op.b);
                break;
        }
    }
}

void fat_tree_routing::prepare_round() {
    if (prep_rs_ == rs_ && prep_epoch_ == rs_->epoch()) {
        return;
    }
    prep_rs_ = rs_;
    prep_epoch_ = rs_->epoch();
    ++prep_gen_;
    uplink_exc_.clear();
    transit_exc_.clear();
    ext_exc_.clear();
    for (const component_id id : rs_->raw_failed_list()) {
        if (id < touch_.size() && !touch_[id].empty()) {
            apply_candidate(id);
        }
        if (id < rev_dep_.size()) {
            for (const component_id dependent : rev_dep_[id]) {
                apply_candidate(dependent);
            }
        }
    }
}

std::uint64_t fat_tree_routing::uplink_mask(int pod, int edge_index) {
    const auto g = static_cast<std::size_t>(tree_->group_width());
    const std::size_t slot = static_cast<std::size_t>(pod) * g + edge_index;
    prepare_round();
    std::uint64_t mask = full_group_mask_;
    if (pod_agg_gen_[pod] == prep_gen_) {
        mask &= ~pod_agg_clear_[pod];
    }
    for (const auto& [exc_slot, bits] : uplink_exc_) {
        if (exc_slot == slot) {
            mask &= ~bits;
        }
    }
    return mask;
}

std::uint64_t fat_tree_routing::transit_mask(int pod, int group) {
    const auto g = static_cast<std::size_t>(tree_->group_width());
    const std::size_t slot = static_cast<std::size_t>(pod) * g + group;
    prepare_round();
    if (pod_agg_gen_[pod] == prep_gen_ &&
        (pod_agg_clear_[pod] >> group & 1) != 0) {
        return 0;  // the pod's aggregation switch of this group is down
    }
    std::uint64_t mask = full_group_mask_;
    if (core_gen_[group] == prep_gen_) {
        mask &= ~core_clear_[group];
    }
    for (const auto& [exc_slot, bits] : transit_exc_) {
        if (exc_slot == slot) {
            mask &= ~bits;
        }
    }
    return mask;
}

std::uint64_t fat_tree_routing::external_group_mask(int group) {
    prepare_round();
    if (ext_zero_gen_[group] == prep_gen_) {
        return 0;  // border switch or its external peering link is down
    }
    std::uint64_t mask = full_group_mask_;
    if (core_gen_[group] == prep_gen_) {
        mask &= ~core_clear_[group];
    }
    for (const auto& [exc_group, bits] : ext_exc_) {
        if (exc_group == static_cast<std::uint32_t>(group)) {
            mask &= ~bits;
        }
    }
    return mask;
}

bool fat_tree_routing::border_reachable(node_id host) {
    if (rs_ == nullptr) {
        throw std::logic_error{"fat_tree_routing: begin_round not called"};
    }
    if (!attached(host)) {
        return false;
    }
    if (connected(class_)) {
        return true;  // the untouched core group carries it to the border
    }
    const int pod = tree_->pod_of_host(host);
    std::uint64_t up = uplink_mask(pod, tree_->edge_index_of_host(host));
    while (up != 0) {
        const int j = std::countr_zero(up);
        up &= up - 1;
        if ((transit_mask(pod, j) & external_group_mask(j)) != 0) {
            return true;
        }
    }
    return false;
}

bool fat_tree_routing::host_to_host(node_id a, node_id b) {
    if (rs_ == nullptr) {
        throw std::logic_error{"fat_tree_routing: begin_round not called"};
    }
    if (!node_ok(a) || !node_ok(b)) {
        return false;
    }
    if (a == b) {
        return true;
    }
    if (links_ != nullptr &&
        (!link_ok(host_uplink_[a]) || !link_ok(host_uplink_[b]))) {
        return false;
    }
    const node_id edge_a = tree_->edge_of_host(a);
    const node_id edge_b = tree_->edge_of_host(b);
    if (!node_ok(edge_a)) {
        return false;
    }
    if (edge_a == edge_b) {
        return true;  // same rack: the shared (alive) edge switch suffices
    }
    if (!node_ok(edge_b)) {
        return false;
    }
    if (connected(class_)) {
        return true;  // the untouched core group carries rack to rack
    }
    const int pod_a = tree_->pod_of_host(a);
    const int pod_b = tree_->pod_of_host(b);
    const std::uint64_t up_a = uplink_mask(pod_a, tree_->edge_index_of_host(a));
    const std::uint64_t up_b = uplink_mask(pod_b, tree_->edge_index_of_host(b));
    if (pod_a == pod_b) {
        // Up to any aggregation switch both racks can reach, straight down.
        return (up_a & up_b) != 0;
    }
    std::uint64_t common = up_a & up_b;
    while (common != 0) {
        const int j = std::countr_zero(common);
        common &= common - 1;
        if ((transit_mask(pod_a, j) & transit_mask(pod_b, j)) != 0) {
            return true;
        }
    }
    return false;
}

std::unique_ptr<reachability_oracle> fat_tree_routing::clone() const {
    return std::make_unique<fat_tree_routing>(*tree_, links_, forest_);
}

}  // namespace recloud
