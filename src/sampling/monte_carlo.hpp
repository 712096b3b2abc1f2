// Monte-Carlo failure-state sampler — the strawman design of §3.2.1 and what
// the state-of-the-art INDaaS system uses. One uniform draw per component
// per round: r < p  =>  'failed'. Kept as the baseline for Figure 7 and as
// the ground-truth reference in sampler property tests.
#pragma once

#include <utility>
#include <vector>

#include "sampling/sampler.hpp"

namespace recloud {

class monte_carlo_sampler final : public forkable_sampler {
public:
    monte_carlo_sampler(std::span<const double> probabilities, std::uint64_t seed)
        : forkable_sampler(
              {.kind = sampler_kind::monte_carlo,
               .probabilities = {probabilities.begin(), probabilities.end()},
               .seed = seed}) {}
    /// The stream of `description` (whose kind must be monte_carlo).
    explicit monte_carlo_sampler(sampler_description description)
        : forkable_sampler(std::move(description)) {}

    void next_round(std::vector<component_id>& failed) override;
    [[nodiscard]] const char* name() const noexcept override { return "monte-carlo"; }
};

}  // namespace recloud
