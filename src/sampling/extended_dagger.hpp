// Extended dagger sampling (paper §3.2.2, Figure 4; Rios et al.).
//
// Components have different failure probabilities, hence different dagger
// cycle lengths. The extension generates each component's cycles
// independently but resets ALL cycles at the end of the longest cycle
// s_max: rounds are produced in blocks of s_max; within a block a
// component's consecutive cycles are concatenated and the last one is
// truncated at the block boundary — a failure that a truncated cycle would
// place beyond the boundary is discarded (Figure 4's "discarded round").
//
// Cost per block: sum_i ceil(s_max / s_i) ~ s_max * sum_i p_i random draws
// for s_max rounds, i.e. ~sum_i p_i draws per round — versus C draws per
// round for Monte-Carlo. With 1% failure probabilities that is the
// two-orders-of-magnitude gap Figure 7 shows.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "sampling/dagger.hpp"
#include "sampling/sampler.hpp"

namespace recloud {

class extended_dagger_sampler final : public forkable_sampler {
public:
    extended_dagger_sampler(std::span<const double> probabilities,
                            std::uint64_t seed);

    void next_round(std::vector<component_id>& failed) override;
    void reset(std::uint64_t seed) override {
        forkable_sampler::reset(seed);
        cursor_ = block_length_;  // discard the current block
    }
    [[nodiscard]] const char* name() const noexcept override {
        return "extended-dagger";
    }

    /// Block length = longest dagger cycle s_max across components (at
    /// least 1). Exposed for tests.
    [[nodiscard]] std::uint32_t block_length() const noexcept { return block_length_; }

private:
    void generate_block();

    std::vector<dagger_plan> plans_;       ///< per component (never-failing skipped at gen time)
    std::vector<component_id> can_fail_;   ///< components with p > 0
    std::uint32_t block_length_ = 1;

    // Current block, flat: block round r failed ids_[round_begin_[r]] up to
    // ids_[round_begin_[r + 1]], in ascending id order. Flat arrays keep a
    // block (and a freshly forked substream's first block) to a handful of
    // allocations, however many rounds it spans.
    std::vector<component_id> ids_;
    std::vector<std::uint32_t> round_begin_;  ///< block_length_ + 1 offsets
    std::vector<std::pair<std::uint32_t, component_id>> draws_;  ///< scratch
    std::uint32_t cursor_ = 0;  ///< next round within the block
};

}  // namespace recloud
