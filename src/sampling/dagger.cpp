#include "sampling/dagger.hpp"

#include <cmath>

namespace recloud {

dagger_plan make_dagger_plan(double p) noexcept {
    dagger_plan plan;
    plan.probability = p;
    if (p <= 0.0) {
        plan.cycle_length = 0;
    } else if (p >= 1.0) {
        plan.cycle_length = 1;
    } else {
        // floor(1/p) exceeds any integer type as p nears 0: compare first.
        const double cycle = std::floor(1.0 / p);
        plan.cycle_length = cycle < max_cycle_rounds
                                ? static_cast<std::uint32_t>(cycle)
                                : max_cycle_rounds;
    }
    return plan;
}

}  // namespace recloud
