#include "faults/fault_tree.hpp"

#include <algorithm>
#include <stdexcept>

namespace recloud {

fault_tree_forest::fault_tree_forest(std::size_t component_count)
    : roots_(component_count, invalid_tree_node) {}

tree_node_id fault_tree_forest::add_leaf(component_id dependency) {
    tree_node node;
    node.kind = gate_kind::leaf;
    node.leaf = dependency;
    nodes_.push_back(node);
    return static_cast<tree_node_id>(nodes_.size() - 1);
}

tree_node_id fault_tree_forest::add_gate(gate_kind kind, std::uint32_t k,
                                         std::vector<tree_node_id> children) {
    if (children.empty()) {
        throw std::invalid_argument{"fault_tree: gate needs at least one child"};
    }
    for (tree_node_id child : children) {
        if (child >= nodes_.size()) {
            throw std::out_of_range{"fault_tree: unknown child node"};
        }
    }
    tree_node node;
    node.kind = kind;
    node.k = k;
    node.children_begin = static_cast<std::uint32_t>(children_.size());
    node.children_count = static_cast<std::uint32_t>(children.size());
    children_.insert(children_.end(), children.begin(), children.end());
    nodes_.push_back(node);
    return static_cast<tree_node_id>(nodes_.size() - 1);
}

tree_node_id fault_tree_forest::add_or(std::vector<tree_node_id> children) {
    return add_gate(gate_kind::or_gate, 0, std::move(children));
}

tree_node_id fault_tree_forest::add_and(std::vector<tree_node_id> children) {
    return add_gate(gate_kind::and_gate, 0, std::move(children));
}

tree_node_id fault_tree_forest::add_k_of_n(std::uint32_t k,
                                           std::vector<tree_node_id> children) {
    if (k == 0 || k > children.size()) {
        throw std::invalid_argument{"fault_tree: k must be in [1, #children]"};
    }
    return add_gate(gate_kind::k_of_n_gate, k, std::move(children));
}

void fault_tree_forest::attach(component_id component, tree_node_id root) {
    if (component >= roots_.size()) {
        // Components registered after the forest was created (dependency
        // components) can still receive trees; grow on demand.
        roots_.resize(component + 1, invalid_tree_node);
    }
    if (root >= nodes_.size()) {
        throw std::out_of_range{"fault_tree: unknown tree node"};
    }
    tree_node_id& slot = roots_[component];
    if (slot == invalid_tree_node) {
        slot = root;
    } else {
        slot = add_or({slot, root});
    }
}

tree_node_id fault_tree_forest::root_of(component_id component) const {
    // Ids beyond the tracked range simply have no tree.
    return component < roots_.size() ? roots_[component] : invalid_tree_node;
}

std::vector<component_id> fault_tree_forest::dependencies_of(
    component_id component) const {
    std::vector<component_id> deps;
    const tree_node_id root = root_of(component);
    if (root == invalid_tree_node) {
        return deps;
    }
    std::vector<tree_node_id> stack{root};
    while (!stack.empty()) {
        const tree_node_id id = stack.back();
        stack.pop_back();
        const tree_node& n = nodes_[id];
        if (n.kind == gate_kind::leaf) {
            deps.push_back(n.leaf);
        } else {
            const auto children = children_of(id);
            stack.insert(stack.end(), children.begin(), children.end());
        }
    }
    std::sort(deps.begin(), deps.end());
    deps.erase(std::unique(deps.begin(), deps.end()), deps.end());
    return deps;
}

void add_dependencies(const fault_tree_forest* forest,
                      std::vector<component_id>& ids) {
    if (forest != nullptr) {
        const std::size_t direct = ids.size();
        for (std::size_t i = 0; i < direct; ++i) {
            for (const component_id dep : forest->dependencies_of(ids[i])) {
                ids.push_back(dep);
            }
        }
    }
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
}

}  // namespace recloud
