// Per-round requirement evaluation — the "check" half of route-and-check
// for applications with internal structure (paper §3.2.4, Figure 6).
//
// Semantics (documented in application.hpp): greatest-fixpoint functional
// sets, then per-requirement K checks.
//
// Both paths judge by one count per component. A component's need is the
// largest K of the requirements that target it, and at least 1 if it is an
// internal requirement's source. The round is reliable iff every component
// keeps as many functional instances as it needs: a source with none strips
// its whole target, which then fails K (validate() guarantees K >= 1).
//
// Two paths compute the counts. An unclean round runs the pairwise
// fixpoint: up to (source instances x target instances) host_to_host calls
// per internal requirement per pass. It is bounded by the counts. The
// fixpoint only ever strips instances, so once a count falls below its need
// the round is unreliable whatever the oracle would answer next. The bound is
// checked on the base state (hosts effectively alive) before any oracle call,
// then again on every strip, by the external step or by the fixpoint. A
// power supply that takes out several replicas of one component thus decides
// the round with no routing query. A connected round (clean or semi; see
// reachability_oracle::classify_round) runs in O(|raw failed| + candidates +
// components): reachability there carries no pairwise information, so an
// instance is functional iff its host is attached (border_reachable), and a
// requirement whose source component has no functional instance strips
// every instance of its target. A stripped target fails its own K check, so
// the round is reliable iff every requirement's target has K attached
// instances and its source at least one. Both paths agree because the
// application has no self-requirement and the plan no duplicate host — so
// the two ends of any host_to_host call are distinct hosts.
//
// The connected path asks only about the instances a failure can detach. An
// instance can be detached only when a raw-failed component lies in its
// host's attachment closure (attachment_closure; the argument is in
// reachability_oracle::append_attachment). A dense index from component id
// to the plan slots whose closure holds it, built on the first connected
// round of a binding, turns the round's raw failed list into the candidate
// instances; border_reachable is asked once per candidate.
#pragma once

#include <cstdint>
#include <vector>

#include "app/application.hpp"
#include "app/deployment.hpp"
#include "faults/fault_tree.hpp"
#include "routing/oracle.hpp"

namespace recloud {

/// Replaces `out` with the attachment closure of `host`: the host, the
/// oracle's attachment of it (reachability_oracle::append_attachment), and
/// the fault-tree leaves in `forest` (may be null) of all of these. Sorted,
/// each component once. In a connected round the host is attached unless a
/// raw-failed component lies in it.
void attachment_closure(const reachability_oracle& oracle,
                        const fault_tree_forest* forest, node_id host,
                        std::vector<component_id>& out);

class requirement_evaluator {
public:
    /// Binds to an application/plan pair; both must outlive the evaluator.
    /// The plan must already be validated against the application.
    requirement_evaluator(const application& app, const deployment_plan& plan);

    /// Judges the current round (oracle must already be bound to it via
    /// begin_round). Returns true iff every requirement holds. `cls` is the
    /// oracle's classify_round of that round; a connected class takes the
    /// per-component path, `unclean` (always safe) the pairwise one.
    [[nodiscard]] bool reliable_in_round(
        reachability_oracle& oracle, round_state& rs,
        round_class cls = round_class::unclean);

    /// Whether the round's class can save work: only internal requirements
    /// make the pairwise path cost more than one oracle call per instance.
    [[nodiscard]] bool wants_round_class() const noexcept {
        return has_internal_;
    }

private:
    /// Whether every component has at least need_ functional instances.
    [[nodiscard]] bool replicas_suffice() const;
    [[nodiscard]] bool reliable_connected(reachability_oracle& oracle,
                                          const round_state& rs);
    /// (Re)builds the component -> slots index for the attachment closures
    /// that `oracle` and `forest` define.
    void index_closures(const reachability_oracle& oracle,
                        const fault_tree_forest* forest);

    const application* app_;
    const deployment_plan* plan_;
    bool has_internal_ = false;

    /// functional_[instance] flags, flattened component-major like the plan.
    std::vector<std::uint8_t> functional_;
    std::vector<std::uint32_t> offsets_;  ///< per component, into functional_
    std::vector<app_component_id> component_of_;  ///< per plan slot
    std::vector<std::uint8_t> reached_;   ///< per-requirement scratch
    /// Per component: functional (unclean) or attached (connected)
    /// instances in the current round, and the fewest it needs.
    std::vector<std::uint32_t> live_;
    std::vector<std::uint32_t> need_;

    // ---- connected path ---------------------------------------------------
    /// Closure index, CSR over component ids: the plan slots whose closure
    /// holds component c are detach_slots_[detach_begin_[c] ..
    /// detach_begin_[c + 1]). Empty until the first connected round with a
    /// failure; keyed by the links and forest it was built for.
    std::vector<std::uint32_t> detach_begin_;
    std::vector<std::uint32_t> detach_slots_;
    const link_attachment* index_links_ = nullptr;
    const fault_tree_forest* index_forest_ = nullptr;
    /// Per plan slot: the round stamp of its last border_reachable ask.
    std::vector<std::uint32_t> asked_;
    std::uint32_t round_stamp_ = 0;
};

}  // namespace recloud
