#include "sampling/monte_carlo.hpp"

#include "obs/metrics.hpp"

namespace recloud {

void monte_carlo_sampler::next_round(std::vector<component_id>& failed) {
    failed.clear();
    // One individual failure-state generation per component per round —
    // the C x X cost the paper calls out as prohibitive at scale.
    const std::vector<double>& probabilities = description_.probabilities;
    for (component_id id = 0; id < probabilities.size(); ++id) {
        const double p = probabilities[id];
        if (p > 0.0 && random_.uniform() < p) {
            failed.push_back(id);
        }
    }
    RECLOUD_COUNTER_INC("sample.rounds");
    RECLOUD_HIST_OBSERVE("sample.failed_size", failed.size());
}

}  // namespace recloud
