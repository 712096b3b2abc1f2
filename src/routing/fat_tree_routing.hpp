// Fat-tree routing oracle: closed-form multipath up/down reachability, with
// optional link-failure awareness.
//
// Fat-tree routing is valley-free: a packet travels up (host -> edge ->
// aggregation -> core) and then down. With node and link failures,
// reachability has a closed form over per-round bitmasks:
//
//   - uplink mask U(e) of an edge switch e: bit j set iff aggregation
//     switch j of e's pod is alive AND the e<->agg_j link is alive;
//   - transit mask T(p, j) of pod p and group j: bit i set iff core (j, i)
//     is alive AND the agg_j(p)<->core(j,i) link is alive;
//   - external group mask X(j): bit i set iff core (j, i) is alive, the
//     core<->border_j link is alive, border_j is alive, and border_j's
//     external peering link is alive.
//
// Then, writing e(h) for a host's edge switch and p(h) for its pod:
//   border_reachable(h)  = alive(h) ^ alive(h<->e) ^ alive(e) ^
//                          exists j in U(e): T(p,j) & X(j) != 0
//   host_to_host(a, b)   = same edge: both ends + links + the edge;
//                          same pod:  U(e_a) & U(e_b) != 0;
//                          cross pod: exists j in U(e_a) & U(e_b):
//                                     T(p_a,j) & T(p_b,j) != 0.
//
// Connected short-circuit: begin_round classifies the round from a role
// table in O(|raw failed|) (see classify_round). In a connected (clean or
// semi) round one core group survives untouched and carries every attached
// rack to any rack and to the border, so both queries reduce to
// attachment — the host, its uplink and its edge switch — and never touch
// the masks.
//
// In the remaining (unclean) rounds, masks are built by PATCHING: in the
// all-alive round every mask is full, and each (effectively) failed switch
// or link component clears a known set of bits. A reverse index from
// component id to its mask bits is precomputed once, so preparing a round
// costs O(|raw failed| + |affected deps|), and a mask read costs O(1) plus
// a scan of the round's exception lists (failed edge<->agg, agg<->core and
// core<->border links) — short, since each entry is one failed link. The
// reverse index follows dependency failures through the oracle's own
// fault-tree forest, so every round must carry that forest. Without a link
// attachment, links are treated as infallible and the math degenerates to
// the node-only closed form.
// std::uint64_t masks support k up to 128.
#pragma once

#include <cstdint>
#include <vector>

#include "faults/fault_tree.hpp"
#include "routing/oracle.hpp"
#include "topology/fat_tree.hpp"
#include "topology/links.hpp"

namespace recloud {

class fat_tree_routing final : public reachability_oracle {
public:
    /// `links` and `forest` are optional and must outlive the oracle when
    /// given. `forest` must be the one the assessed rounds carry (nullptr
    /// for rounds without one): it tells the oracle which mask-relevant
    /// switches a raw dependency failure can flip.
    explicit fat_tree_routing(const fat_tree& tree,
                              const link_attachment* links = nullptr,
                              const fault_tree_forest* forest = nullptr);

    /// Throws std::logic_error when `rs` carries another forest than the
    /// oracle's.
    void begin_round(round_state& rs) override;
    /// The closed-form oracle has no flood to cut short; the base overload
    /// that takes (and ignores) the query-target hint stays visible here.
    using reachability_oracle::begin_round;
    [[nodiscard]] bool border_reachable(node_id host) override;
    [[nodiscard]] bool host_to_host(node_id a, node_id b) override;
    /// The class begin_round computed for the bound round (one classifier
    /// path; `raw_failed` must be that round's raw failed-set). Closed-form
    /// cleanliness, O(|raw_failed|) via a role table. A round is
    /// `clean` (fully connected for any plan) iff no edge switch, host-uplink
    /// link, or unclassifiable component (e.g. a fault-tree dependency)
    /// failed AND at least one core group — its aggregation switches across
    /// all pods, its cores, its border switch, and every link among them — is
    /// completely untouched. That surviving group carries any rack to any
    /// rack and to the border, so every query degenerates to host aliveness.
    /// Rounds whose non-group failures are ONLY edge switches or host-uplink
    /// links are `semi` (with the same untouched-group requirement). Such a
    /// failure cuts exactly its own racks off while the surviving group still
    /// carries every attached rack anywhere, so the verdict is a pure
    /// function of slot-wise attachment-effective aliveness — precisely the
    /// contract reachability_oracle::classify_round demands for semi.
    /// A component that is a leaf of the oracle's forest classifies the
    /// round unclean whatever its structural role, since its failure can
    /// fail other components through their fault trees. Without a forest,
    /// the class assumes what every infrastructure builder guarantees:
    /// dependency leaves are not topology components.
    [[nodiscard]] round_class classify_round(
        std::span<const component_id> raw_failed) override;
    /// The edge switch and, with links, the host's uplink: all attached()
    /// reads besides the host.
    void append_attachment(node_id host,
                           std::vector<component_id>& out) const override {
        append_host_attachment(tree_->graph(), links_, host, out);
    }
    [[nodiscard]] std::unique_ptr<reachability_oracle> clone() const override;
    [[nodiscard]] const link_attachment* consulted_links()
        const noexcept override {
        return links_;
    }

private:
    [[nodiscard]] bool node_ok(node_id id) { return !rs_->failed(id); }
    /// The host, its uplink and its edge switch are alive: all a connected
    /// round asks of a host.
    [[nodiscard]] bool attached(node_id host) {
        return node_ok(host) &&
               (links_ == nullptr || link_ok(host_uplink_[host])) &&
               node_ok(tree_->edge_of_host(host));
    }
    [[nodiscard]] round_class classify(
        std::span<const component_id> raw_failed) const;
    [[nodiscard]] bool link_ok(std::uint32_t edge) {
        if (links_ == nullptr) {
            return true;
        }
        return !links_->link_failed(
            edge, [this](component_id c) { return rs_->failed(c); });
    }

    /// Uplink mask of edge switch (pod, e); includes the edge switch's own
    /// aliveness of aggs and the edge<->agg links but NOT the edge switch
    /// itself.
    [[nodiscard]] std::uint64_t uplink_mask(int pod, int edge_index);
    /// Transit mask of (pod, group): alive cores reachable from agg_j(pod).
    /// Zero when agg_j(pod) itself is dead.
    [[nodiscard]] std::uint64_t transit_mask(int pod, int group);
    /// External mask of a group: alive cores with a working path down to an
    /// alive border switch and its peering link.
    [[nodiscard]] std::uint64_t external_group_mask(int group);

    const fat_tree* tree_;
    const link_attachment* links_;
    const fault_tree_forest* forest_;
    round_state* rs_ = nullptr;
    round_class class_ = round_class::unclean;  ///< of the bound round

    // ---- patched-mask fast path ------------------------------------------
    // Reverse index: component id -> the mask bits its effective failure
    // clears. Built once in the constructor from the same loops that
    // resolve link edge ids.
    enum class patch_kind : std::uint8_t {
        agg,          ///< a=pod, b=group: agg switch down (uplink bit + transit)
        core,         ///< a=group, b=i: core switch down (transit + external)
        ext_zero,     ///< a=group: border switch or its peering link down
        uplink_exc,   ///< a=pod*g+e, b=j: edge<->agg link down
        transit_exc,  ///< a=pod*g+group, b=i: agg<->core link down
        ext_exc,      ///< a=group, b=i: core<->border link down
    };
    struct patch_op {
        patch_kind kind;
        std::uint32_t a;
        std::uint32_t b;
    };
    void add_touch(component_id component, patch_op op);
    /// Ensures the per-round patch state matches rs_'s current round.
    void prepare_round();
    void apply_candidate(component_id candidate);

    std::vector<std::vector<patch_op>> touch_;  ///< by component id
    /// Dependency component -> mask-relevant components whose fault trees
    /// read it (empty unless forest_ given).
    std::vector<std::vector<component_id>> rev_dep_;

    // Per-round patch state, stamped with prep_gen_.
    const round_state* prep_rs_ = nullptr;
    std::uint32_t prep_epoch_ = 0;
    std::uint64_t prep_gen_ = 0;
    std::vector<std::uint64_t> cand_gen_;          ///< dedup stamps (by id)
    std::vector<std::uint64_t> pod_agg_clear_;     ///< by pod
    std::vector<std::uint64_t> pod_agg_gen_;
    std::vector<std::uint64_t> core_clear_;        ///< by group
    std::vector<std::uint64_t> core_gen_;
    std::vector<std::uint64_t> ext_zero_gen_;      ///< by group
    std::vector<std::pair<std::uint32_t, std::uint64_t>> uplink_exc_;
    std::vector<std::pair<std::uint32_t, std::uint64_t>> transit_exc_;
    std::vector<std::pair<std::uint32_t, std::uint64_t>> ext_exc_;

    /// Host uplink edge ids by host id (empty when links_ == nullptr).
    std::vector<std::uint32_t> host_uplink_;

    // Role table for classify_round: per component id, either the
    // core-group index it belongs to (0..g-1), or a sentinel. Hosts are
    // ignored (their failure is part of the cached key / slot function);
    // edge switches and host-uplink links only detach their own racks
    // (semi); external, and anything the table cannot attribute (fault-tree
    // deps, shared link components spanning groups) make a round unclean.
    static constexpr std::uint8_t role_ignore = 0xFF;
    static constexpr std::uint8_t role_unclean = 0xFE;
    static constexpr std::uint8_t role_unassigned = 0xFD;
    static constexpr std::uint8_t role_semi = 0xFC;
    void assign_link_role(component_id component, std::uint8_t role);
    std::vector<std::uint8_t> role_;
    std::uint64_t full_group_mask_ = 0;
};

}  // namespace recloud
