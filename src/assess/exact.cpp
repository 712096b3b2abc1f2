#include "assess/exact.hpp"

#include <stdexcept>
#include <vector>

#include "app/requirement_eval.hpp"
#include "faults/round_state.hpp"

namespace recloud {

double exact_reliability(const component_registry& registry,
                         const fault_tree_forest* forest,
                         reachability_oracle& oracle, const application& app,
                         const deployment_plan& plan) {
    std::vector<component_id> fallible;
    for (component_id id = 0; id < registry.size(); ++id) {
        if (registry.probability(id) > 0.0) {
            fallible.push_back(id);
        }
    }
    if (fallible.size() > exact_reliability_max_components) {
        throw std::invalid_argument{
            "exact_reliability: too many fallible components to enumerate"};
    }

    round_state rs{registry.size(), forest};
    requirement_evaluator evaluator{app, plan};

    double reliability = 0.0;
    const std::uint64_t combinations = std::uint64_t{1} << fallible.size();
    std::vector<component_id> failed;
    for (std::uint64_t mask = 0; mask < combinations; ++mask) {
        failed.clear();
        double probability = 1.0;
        for (std::size_t i = 0; i < fallible.size(); ++i) {
            const double p = registry.probability(fallible[i]);
            if (mask & (std::uint64_t{1} << i)) {
                failed.push_back(fallible[i]);
                probability *= p;
            } else {
                probability *= 1.0 - p;
            }
        }
        rs.begin_round(failed);
        oracle.begin_round(rs);
        const round_class cls = evaluator.wants_round_class()
                                    ? oracle.classify_round(failed)
                                    : round_class::unclean;
        if (evaluator.reliable_in_round(oracle, rs, cls)) {
            reliability += probability;
        }
    }
    return reliability;
}

}  // namespace recloud
