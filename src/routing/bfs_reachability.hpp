// Generic reachability oracle: breadth-first search over the alive subgraph.
// Works on ANY topology (leaf-spine, VL2, Jellyfish, hand-built test
// graphs) — the price is O(V + E) per flood instead of the fat-tree
// oracle's O(k) closed-form answers.
//
// border_reachable() floods once per round from the external node and is
// then O(1) per query; host_to_host() floods from `a` on demand and caches
// the result set per (round, source). When the round is begun with a
// query-target hint (begin_round(rs, hosts)), floods terminate as soon as
// every alive target host is marked — the rest of the graph can no longer
// change any answer the round is allowed to ask for.
#pragma once

#include <vector>

#include "routing/oracle.hpp"
#include "topology/links.hpp"

namespace recloud {

class bfs_reachability final : public reachability_oracle {
public:
    /// `links` is optional; when given, floods also require the traversed
    /// link's component to be alive in the current round. Must outlive the
    /// oracle. The per-edge component ids are copied into a flat array at
    /// construction so the flood inner loop reads them without indirection.
    explicit bfs_reachability(const built_topology& topo,
                              const link_attachment* links = nullptr);

    void begin_round(round_state& rs) override;
    void begin_round(round_state& rs,
                     std::span<const node_id> query_hosts) override;
    [[nodiscard]] bool border_reachable(node_id host) override;
    [[nodiscard]] bool host_to_host(node_id a, node_id b) override;
    /// Flood-based cleanliness (clean or unclean, never semi): settles the
    /// external flood (floods past the target hint, or completes a
    /// hint-truncated frontier), then checks that every host — alive, or
    /// failed but assumed alive — sits adjacent to the external-connected
    /// alive region via an alive link. A raw-failed switch with a
    /// single-homed host settles the check without the host scan. That
    /// region is one connected alive subgraph containing the border, so
    /// under the condition every query any plan could ask degenerates to
    /// host aliveness.
    [[nodiscard]] round_class classify_round(
        std::span<const component_id> raw_failed) override;
    /// Every neighbor and incident link component: in a clean round an
    /// alive host sits in the external-connected region, so its attachment
    /// closure over-approximates what can detach it.
    void append_attachment(node_id host,
                           std::vector<component_id>& out) const override {
        append_host_attachment(topo_->graph, links_, host, out);
    }
    [[nodiscard]] std::unique_ptr<reachability_oracle> clone() const override;
    [[nodiscard]] const link_attachment* consulted_links()
        const noexcept override {
        return links_;
    }

    /// Test hook: fast-forwards the per-source flood stamp so the uint32
    /// wrap-around hardening can be exercised without 2^32 floods.
    void set_source_stamp_for_test(std::uint32_t stamp) noexcept {
        source_stamp_ = stamp;
    }

private:
    /// Floods the alive subgraph from `source`; marks reached nodes in
    /// `mark` with `stamp`. The stamp must be fresh for that mark array
    /// (marks of earlier floods would otherwise leak into the result).
    /// Stops early once every alive query-target host is marked (only when
    /// the round carries a target hint). Returns true iff the flood ran to
    /// exhaustion — i.e. the marks are "settled" and valid for ANY query,
    /// not just the hinted targets.
    bool flood(node_id source, std::vector<std::uint32_t>& mark,
               std::uint32_t stamp);

    /// Makes the external marks valid for the current round, reusing the
    /// previous round's flood when both rounds share the same raw
    /// failed-set (incremental reseeding: across plans the CRN streams
    /// replay identical rounds, only the query hint changes).
    void ensure_external_flood();

    /// Completes a hint-truncated external flood: reseeds the BFS queue
    /// from every already-marked node and drains it with the early exit
    /// disabled. Re-flooding with the same stamp would stall instead — the
    /// marked frontier's neighbors are marked and would never be enqueued.
    void settle_external_flood();

    const built_topology* topo_;
    const link_attachment* links_;  ///< kept for clone(); queries use the flat copy
    round_state* rs_ = nullptr;

    /// Flat per-edge link component ids (empty when no link attachment):
    /// the inner flood loop indexes this directly instead of calling
    /// link_attachment::link_failed through a lambda.
    std::vector<component_id> edge_components_;

    std::vector<std::uint32_t> external_mark_;  ///< stamped reach-from-external
    bool external_flooded_ = false;  ///< marks valid for the current round
    /// Monotonic stamp for external floods — oracle-owned (not the round
    /// epoch) so marks may outlive the round that produced them and be
    /// reused by a later round with the identical raw failed-set. Wraps
    /// like source_stamp_.
    std::uint32_t external_stamp_ = 0;
    bool external_settled_ = false;  ///< current marks ran to exhaustion
    /// Raw failed-set snapshot the external marks were computed from.
    bool last_flood_valid_ = false;
    const round_state* last_flood_rs_ = nullptr;
    std::uint64_t last_flood_hash_ = 0;
    std::vector<component_id> last_flood_raw_;

    std::vector<std::uint32_t> source_mark_;  ///< reach-from-cached-source
    node_id cached_source_ = invalid_node;
    std::uint32_t cached_source_epoch_ = 0;
    /// Monotonic stamp for source floods: several sources can be flooded
    /// within ONE round, so the round epoch alone cannot key the marks. On
    /// uint32 wrap-around source_mark_ is cleared (a stale mark from 2^32
    /// floods ago could otherwise alias a fresh stamp).
    std::uint32_t source_stamp_ = 0;

    // Query-target hint of the current round (begin_round overload).
    bool targets_active_ = false;
    std::uint64_t hint_hash_ = 0;         ///< cheap pre-check before std::equal
    std::vector<node_id> hint_hosts_;     ///< as passed (identity check)
    std::vector<node_id> unique_targets_; ///< deduplicated
    std::vector<std::uint8_t> target_mark_;  ///< per node: 1 iff a target

    std::vector<node_id> queue_;  ///< scratch BFS queue
};

}  // namespace recloud
