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

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "sampling/dagger.hpp"
#include "sampling/sampler.hpp"

namespace recloud {

/// One component's row of the cycle table.
struct dagger_cycle {
    dagger_plan plan;         ///< probability and cycle length s_i
    std::uint32_t cycles = 0; ///< ceil(s_max / s_i): its draws per block
    component_id id = 0;
};

/// The cycle plans of one probability vector. It depends on nothing else,
/// so one table serves every stream (seed, fork) over that vector.
struct dagger_table {
    explicit dagger_table(std::span<const double> probabilities);

    std::vector<dagger_cycle> components;  ///< p > 0 only, ascending id
    std::uint32_t block_length = 1;  ///< s_max (at least 1)
    std::size_t draws = 0;           ///< sum of cycles: draws per block
};

class extended_dagger_sampler final : public forkable_sampler {
public:
    extended_dagger_sampler(std::span<const double> probabilities,
                            std::uint64_t seed);
    /// The stream of `description` (whose kind must be extended_dagger),
    /// sharing its cycle table or building one if it has none.
    explicit extended_dagger_sampler(sampler_description description);

    void next_round(std::vector<component_id>& failed) override;
    void reset(std::uint64_t seed) override {
        forkable_sampler::reset(seed);
        cursor_ = table().block_length;  // discard the current block
    }
    [[nodiscard]] const char* name() const noexcept override {
        return "extended-dagger";
    }

    /// Block length = longest dagger cycle s_max across components (at
    /// least 1, at most max_cycle_rounds). Exposed for tests.
    [[nodiscard]] std::uint32_t block_length() const noexcept {
        return table().block_length;
    }

private:
    [[nodiscard]] const dagger_table& table() const noexcept {
        return *description_.cycles;
    }
    void generate_block();

    // Current block, flat: block round r failed ids_[round_begin_[r]] up to
    // ids_[round_begin_[r + 1]], in ascending id order. Every array is sized
    // once from the table, so a block (and a freshly forked substream's
    // first block) allocates nothing, however many rounds it spans.
    std::vector<component_id> ids_;
    std::vector<std::size_t> round_begin_;    ///< block_length + 2 offsets
    std::vector<std::uint32_t> draw_rounds_;  ///< scratch: the block's draws,
    std::vector<component_id> draw_ids_;      ///< as (round, id) in id order
    std::uint32_t cursor_ = 0;  ///< next round within the block
};

}  // namespace recloud
