// Application structure model (paper §2.2 and §3.2.4).
//
// An application consists of components; component Ci is deployed with
// N_Ci redundant instances, and the developer states reachability
// requirements K_{Ci,Cj}: at least K instances of Ci must be reachable from
// component Cj — where Cj is another component or the external side (border
// switches).
//
// Functional-instance semantics (how a round is judged reliable):
//   * an instance is *functional* iff its host is effectively alive AND,
//     for every requirement targeting its component, it is reachable from
//     at least one functional instance of the source (or from a border
//     switch for external requirements);
//   * the definition is circular for meshed components, so the evaluator
//     runs it to a greatest fixpoint (start from "alive", iteratively strip
//     instances that violate a requirement);
//   * the round is reliable iff every requirement's target component keeps
//     >= K functional instances.
// This reproduces the paper's Figure 6: FE functional = border-reachable;
// DB functional = reachable from a functional FE; reliable iff >= K of each.
// In a connected round (reachability_oracle::classify_round) the fixpoint
// has a closed form, which requirement_evaluator uses: reliable iff every
// requirement's target has >= K attached (border-reachable) instances and
// every internal requirement's source has >= 1. validate() rejects
// self-requirements, which that closed form relies on. The evaluator counts
// attached instances from the round's failures, in O(|raw failed| +
// instances a failure can detach + requirements) rather than one oracle call
// per instance.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "topology/graph.hpp"

namespace recloud {

/// Index of a component within an application.
using app_component_id = std::uint32_t;

struct app_component {
    std::string name;
    std::uint32_t replicas = 0;  ///< N_Ci
};

struct reachability_requirement {
    app_component_id target = 0;  ///< Ci
    /// Cj, or nullopt for "from the external side / border switches".
    std::optional<app_component_id> source;
    std::uint32_t min_reachable = 0;  ///< K_{Ci,Cj}
};

class application {
public:
    /// Adds a component with N_Ci = replicas (>= 1); returns its id.
    app_component_id add_component(std::string name, std::uint32_t replicas);

    /// Requires >= k instances of `target` to be reachable from a border
    /// switch (the simple K-of-N scenario when it is the only requirement).
    void require_external(app_component_id target, std::uint32_t k);

    /// Requires >= k instances of `target` to be reachable from >= 1
    /// functional instance of `source`.
    void require_reachable(app_component_id target, app_component_id source,
                           std::uint32_t k);

    [[nodiscard]] std::span<const app_component> components() const noexcept {
        return components_;
    }
    [[nodiscard]] std::span<const reachability_requirement> requirements()
        const noexcept {
        return requirements_;
    }

    /// Sum of all components' replica counts = number of hosts a deployment
    /// plan must select.
    [[nodiscard]] std::uint32_t total_instances() const noexcept;

    /// Offset of a component's first instance in the flattened plan layout.
    [[nodiscard]] std::uint32_t instance_offset(app_component_id component) const;

    /// Throws std::invalid_argument if any requirement references a missing
    /// component or asks for more instances than the target has.
    void validate() const;

    // ---- canned structures from the paper's evaluation -----------------

    /// §2.2: single component, N instances, >= K alive (border-reachable).
    [[nodiscard]] static application k_of_n(std::uint32_t k, std::uint32_t n);

    /// §4.2.3: `layers` components; layer 0 needs >= k instances reachable
    /// from border switches; each next layer needs >= k instances reachable
    /// from the previous layer. Every layer has `n` replicas.
    [[nodiscard]] static application layered(std::uint32_t layers, std::uint32_t k,
                                             std::uint32_t n);

    /// §4.2.3: microservice "X-Y" structure — `cores` fully-meshed core
    /// components, each with `supports` supporting components; k-of-n per
    /// component. Cores additionally need external reachability (they are
    /// the application's serving entry points).
    [[nodiscard]] static application microservice(std::uint32_t cores,
                                                  std::uint32_t supports,
                                                  std::uint32_t k, std::uint32_t n);

private:
    std::vector<app_component> components_;
    std::vector<reachability_requirement> requirements_;
};

}  // namespace recloud
