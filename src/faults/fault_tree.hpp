// Fault trees over shared dependencies (paper §3.2.3, Figure 5).
//
// Each host/switch may have a fault tree describing the additional
// dependencies that can bring it down: the tree's leaves are dependency
// components (power supplies, cooling units, OS images, libraries,
// firmware, ...) and its internal nodes are logical gates. A component's
// *effective* failure in a round is: its own sampled state OR its fault
// tree evaluating to failed.
//
// Trees of different components are connected simply by referencing the
// same leaf component id — that is exactly how shared dependencies produce
// correlated failures.
//
// Gates: OR (any child failed), AND (all children failed — redundant
// supplies), and the generalization K_OF_N (at least k children failed).
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "faults/component_registry.hpp"

namespace recloud {

enum class gate_kind : std::uint8_t { leaf, or_gate, and_gate, k_of_n_gate };

/// Index of a tree node inside the forest's node pool.
using tree_node_id = std::uint32_t;

inline constexpr tree_node_id invalid_tree_node = static_cast<tree_node_id>(-1);

class fault_tree_forest {
public:
    /// Creates a forest for `component_count` components, none of which has
    /// a dependency tree yet.
    explicit fault_tree_forest(std::size_t component_count);

    /// Adds a leaf referencing a dependency component.
    tree_node_id add_leaf(component_id dependency);

    /// Adds an OR / AND gate over the given children.
    tree_node_id add_or(std::vector<tree_node_id> children);
    tree_node_id add_and(std::vector<tree_node_id> children);

    /// Adds a gate that fails when at least `k` of the children failed.
    tree_node_id add_k_of_n(std::uint32_t k, std::vector<tree_node_id> children);

    /// Attaches `root` as the dependency tree of `component`. If the
    /// component already has a tree, the new root is OR-ed with the existing
    /// one (dependencies accumulate: power AND-redundancy lives inside the
    /// subtree, but independent dependency *sources* combine with OR).
    void attach(component_id component, tree_node_id root);

    /// Root of the component's tree, or invalid_tree_node if it has none.
    [[nodiscard]] tree_node_id root_of(component_id component) const;

    [[nodiscard]] bool has_tree(component_id component) const {
        return root_of(component) != invalid_tree_node;
    }

    [[nodiscard]] std::size_t component_count() const noexcept {
        return roots_.size();
    }
    [[nodiscard]] std::size_t tree_node_count() const noexcept {
        return nodes_.size();
    }

    /// All dependency component ids referenced by the component's tree
    /// (deduplicated, sorted). Used by symmetry signatures.
    [[nodiscard]] std::vector<component_id> dependencies_of(component_id component) const;

    /// Structural view of one tree node — the introspection the wire
    /// serializer needs to ship a forest to an out-of-process worker.
    /// Children always have smaller ids than their gate (gates are created
    /// after their children), so re-adding nodes in id order reproduces an
    /// identical forest.
    struct node_view {
        gate_kind kind = gate_kind::leaf;
        std::uint32_t k = 0;               ///< k_of_n threshold
        component_id leaf = invalid_node;  ///< leaves only
        std::span<const tree_node_id> children;  ///< gates only
    };
    [[nodiscard]] node_view node(tree_node_id id) const {
        const tree_node& n = nodes_.at(id);
        return {n.kind, n.k, n.leaf,
                n.kind == gate_kind::leaf ? std::span<const tree_node_id>{}
                                          : children_of(id)};
    }

    /// Evaluates the tree rooted at `node` against a per-component failure
    /// predicate. `leaf_failed(component_id) -> bool`.
    template <typename FailedFn>
    [[nodiscard]] bool evaluate(tree_node_id node, FailedFn&& leaf_failed) const {
        const tree_node& n = nodes_[node];
        switch (n.kind) {
            case gate_kind::leaf:
                return leaf_failed(n.leaf);
            case gate_kind::or_gate:
                for (tree_node_id child : children_of(node)) {
                    if (evaluate(child, leaf_failed)) {
                        return true;
                    }
                }
                return false;
            case gate_kind::and_gate:
                for (tree_node_id child : children_of(node)) {
                    if (!evaluate(child, leaf_failed)) {
                        return false;
                    }
                }
                return true;
            case gate_kind::k_of_n_gate: {
                std::uint32_t failed = 0;
                const auto children = children_of(node);
                std::uint32_t remaining = static_cast<std::uint32_t>(children.size());
                for (tree_node_id child : children) {
                    if (evaluate(child, leaf_failed)) {
                        if (++failed >= n.k) {
                            return true;
                        }
                    }
                    --remaining;
                    if (failed + remaining < n.k) {
                        return false;  // cannot reach k anymore
                    }
                }
                return false;
            }
        }
        return false;
    }

    /// Evaluates the *effective* failure of a component: `own_failed` OR its
    /// fault tree (if any) against `leaf_failed`.
    template <typename FailedFn>
    [[nodiscard]] bool effective_failed(component_id component, bool own_failed,
                                        FailedFn&& leaf_failed) const {
        if (own_failed) {
            return true;
        }
        const tree_node_id root = root_of(component);
        if (root == invalid_tree_node) {
            return false;
        }
        return evaluate(root, std::forward<FailedFn>(leaf_failed));
    }

    /// Reduces the tree rooted at `node` to a single equivalent failure
    /// probability, assuming independent leaves: OR gates combine as
    /// 1 - prod(1-p), AND gates as prod(p), k-of-n via the Poisson-binomial
    /// tail. `leaf_probability(component_id) -> double`. This is the
    /// "collapse a subnetwork into one equivalent component" step of the
    /// network-transformations equivalence check (§3.3.1).
    template <typename ProbFn>
    [[nodiscard]] double failure_probability(tree_node_id node,
                                             ProbFn&& leaf_probability) const {
        const tree_node& n = nodes_[node];
        switch (n.kind) {
            case gate_kind::leaf:
                return leaf_probability(n.leaf);
            case gate_kind::or_gate: {
                double survive = 1.0;
                for (tree_node_id child : children_of(node)) {
                    survive *= 1.0 - failure_probability(child, leaf_probability);
                }
                return 1.0 - survive;
            }
            case gate_kind::and_gate: {
                double fail = 1.0;
                for (tree_node_id child : children_of(node)) {
                    fail *= failure_probability(child, leaf_probability);
                }
                return fail;
            }
            case gate_kind::k_of_n_gate: {
                // Poisson-binomial: dp[j] = P(exactly j children failed).
                const auto children = children_of(node);
                std::vector<double> dp(children.size() + 1, 0.0);
                dp[0] = 1.0;
                std::size_t seen = 0;
                for (tree_node_id child : children) {
                    const double p = failure_probability(child, leaf_probability);
                    for (std::size_t j = ++seen; j > 0; --j) {
                        dp[j] = dp[j] * (1.0 - p) + dp[j - 1] * p;
                    }
                    dp[0] *= 1.0 - p;
                }
                double tail = 0.0;
                for (std::size_t j = n.k; j < dp.size(); ++j) {
                    tail += dp[j];
                }
                return tail;
            }
        }
        return 0.0;
    }

private:
    struct tree_node {
        gate_kind kind = gate_kind::leaf;
        std::uint32_t k = 0;             ///< threshold for k_of_n gates
        component_id leaf = invalid_node;  ///< for leaves
        std::uint32_t children_begin = 0;
        std::uint32_t children_count = 0;
    };

    [[nodiscard]] std::span<const tree_node_id> children_of(tree_node_id node) const {
        const tree_node& n = nodes_[node];
        return {children_.data() + n.children_begin, n.children_count};
    }

    tree_node_id add_gate(gate_kind kind, std::uint32_t k,
                          std::vector<tree_node_id> children);

    std::vector<tree_node> nodes_;
    std::vector<tree_node_id> children_;  ///< flattened children pool
    std::vector<tree_node_id> roots_;     ///< per component; invalid if none
};

/// Adds to `ids` the fault-tree leaves of every component already in it
/// (none when `forest` is null), then sorts `ids` and drops repeats. Leaves
/// read raw dependency state, so one level closes the set over the forest.
void add_dependencies(const fault_tree_forest* forest,
                      std::vector<component_id>& ids);

}  // namespace recloud
