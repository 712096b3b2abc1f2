#include "sampling/extended_dagger.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace recloud {

extended_dagger_sampler::extended_dagger_sampler(
    std::span<const double> probabilities, std::uint64_t seed)
    : forkable_sampler(sampler_kind::extended_dagger, probabilities, seed) {
    plans_.reserve(probabilities.size());
    for (component_id id = 0; id < probabilities.size(); ++id) {
        plans_.push_back(make_dagger_plan(probabilities[id]));
        if (plans_.back().cycle_length > 0) {
            can_fail_.push_back(id);
            block_length_ = std::max(block_length_, plans_.back().cycle_length);
        }
    }
    cursor_ = block_length_;  // force block generation on first next_round
}

void extended_dagger_sampler::generate_block() {
    RECLOUD_SPAN("sample.dagger_block");
    // Place every failure of the block as a (round, component) draw, in
    // component order ...
    draws_.clear();
    for (const component_id id : can_fail_) {
        const dagger_plan& plan = plans_[id];
        // Concatenate this component's dagger cycles across the block; the
        // final cycle is truncated at the block boundary (cycle reset).
        for (std::uint32_t cycle_start = 0; cycle_start < block_length_;
             cycle_start += plan.cycle_length) {
            const auto slot = dagger_slot(plan, random_.uniform());
            if (!slot) {
                continue;
            }
            const std::uint32_t round = cycle_start + *slot;
            if (round < block_length_) {
                draws_.emplace_back(round, id);
            }
            // else: the truncated cycle placed the failure beyond the reset
            // line — a discarded round (Figure 4).
        }
    }
    // ... then counting-sort them by round; the sort is stable, so each
    // round lists its components in ascending id order.
    round_begin_.assign(block_length_ + 1, 0);
    for (const auto& [round, id] : draws_) {
        ++round_begin_[round + 1];
    }
    for (std::uint32_t r = 0; r < block_length_; ++r) {
        round_begin_[r + 1] += round_begin_[r];
    }
    ids_.resize(draws_.size());
    for (const auto& [round, id] : draws_) {
        ids_[round_begin_[round]++] = id;  // leaves begin[r] = end of round r
    }
    for (std::uint32_t r = block_length_; r > 0; --r) {
        round_begin_[r] = round_begin_[r - 1];
    }
    round_begin_[0] = 0;
    cursor_ = 0;
}

void extended_dagger_sampler::next_round(std::vector<component_id>& failed) {
    if (cursor_ >= block_length_) {
        generate_block();
    }
    failed.assign(ids_.begin() + round_begin_[cursor_],
                  ids_.begin() + round_begin_[cursor_ + 1]);
    ++cursor_;
    RECLOUD_COUNTER_INC("sample.rounds");
    RECLOUD_HIST_OBSERVE("sample.failed_size", failed.size());
}

}  // namespace recloud
