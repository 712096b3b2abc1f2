// Antithetic-variates Monte-Carlo sampler — an extension beyond the paper.
//
// Classic variance-reduction alternative to dagger sampling: rounds come in
// pairs driven by mirrored uniforms (r and 1-r). Within a pair a component
// fails in the first round iff r < p and in the second iff r > 1-p, which
// are negatively correlated events; the per-round failure probability stays
// exactly p. Gives a second point of comparison for the variance-reduction
// ablation (bench_ablation_sampling) and a fallback for workloads where
// dagger cycles would be short (large p).
#pragma once

#include <vector>

#include "sampling/sampler.hpp"

namespace recloud {

class antithetic_sampler final : public forkable_sampler {
public:
    antithetic_sampler(std::span<const double> probabilities, std::uint64_t seed)
        : forkable_sampler(sampler_kind::antithetic, probabilities, seed) {}

    void next_round(std::vector<component_id>& failed) override;
    void reset(std::uint64_t seed) override {
        forkable_sampler::reset(seed);
        pending_ = false;
    }
    [[nodiscard]] const char* name() const noexcept override { return "antithetic"; }

private:
    /// Failed set of the buffered mirror round (valid when pending_).
    std::vector<component_id> mirror_;
    bool pending_ = false;
};

}  // namespace recloud
