// Per-round requirement evaluation — the "check" half of route-and-check
// for applications with internal structure (paper §3.2.4, Figure 6).
//
// Semantics (documented in application.hpp): greatest-fixpoint functional
// sets, then per-requirement K checks.
//
// Two paths compute them. An unclean round runs the pairwise fixpoint: up to
// (source instances x target instances) host_to_host calls per internal
// requirement per pass. A connected round (clean or semi; see
// reachability_oracle::classify_round) runs in O(instances + requirements):
// reachability there carries no pairwise information, so an instance is
// functional iff its host is attached (border_reachable), and a requirement
// whose source component has no functional instance strips every instance
// of its target. A stripped target fails its own K check, so the round is
// reliable iff every requirement's target has K attached instances and its
// source at least one. Both paths agree because the application has no
// self-requirement and the plan no duplicate host — so the two ends of any
// host_to_host call are distinct hosts.
#pragma once

#include <cstdint>
#include <vector>

#include "app/application.hpp"
#include "app/deployment.hpp"
#include "routing/oracle.hpp"

namespace recloud {

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
    [[nodiscard]] bool reliable_connected(reachability_oracle& oracle);

    const application* app_;
    const deployment_plan* plan_;
    bool has_internal_ = false;

    /// functional_[instance] flags, flattened component-major like the plan.
    std::vector<std::uint8_t> functional_;
    std::vector<std::uint32_t> offsets_;  ///< per component, into functional_
    std::vector<std::uint8_t> reached_;   ///< per-requirement scratch
    /// Attached instances per component (connected path).
    std::vector<std::uint32_t> attached_count_;
};

}  // namespace recloud
