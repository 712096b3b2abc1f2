#include "sampling/antithetic.hpp"

#include "obs/metrics.hpp"

namespace recloud {

void antithetic_sampler::next_round(std::vector<component_id>& failed) {
    RECLOUD_COUNTER_INC("sample.rounds");
    if (pending_) {
        failed.assign(mirror_.begin(), mirror_.end());
        pending_ = false;
        RECLOUD_HIST_OBSERVE("sample.failed_size", failed.size());
        return;
    }
    failed.clear();
    mirror_.clear();
    const std::vector<double>& probabilities = description_.probabilities;
    for (component_id id = 0; id < probabilities.size(); ++id) {
        const double p = probabilities[id];
        if (p <= 0.0) {
            continue;
        }
        const double r = random_.uniform();
        if (r < p) {
            failed.push_back(id);
        }
        if (r > 1.0 - p) {
            // The mirrored draw 1-r falls below p.
            mirror_.push_back(id);
        }
    }
    pending_ = true;
    RECLOUD_HIST_OBSERVE("sample.failed_size", failed.size());
}

}  // namespace recloud
