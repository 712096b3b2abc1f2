#include "sampling/extended_dagger.hpp"

#include <algorithm>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace recloud {

dagger_table::dagger_table(std::span<const double> probabilities) {
    for (component_id id = 0; id < probabilities.size(); ++id) {
        const dagger_plan plan = make_dagger_plan(probabilities[id]);
        if (plan.cycle_length > 0) {
            components.push_back({plan, 0, id});
            block_length = std::max(block_length, plan.cycle_length);
        }
    }
    for (dagger_cycle& c : components) {
        c.cycles = (block_length + c.plan.cycle_length - 1) / c.plan.cycle_length;
        draws += c.cycles;
    }
}

extended_dagger_sampler::extended_dagger_sampler(
    std::span<const double> probabilities, std::uint64_t seed)
    : extended_dagger_sampler(sampler_description{
          .kind = sampler_kind::extended_dagger,
          .probabilities = {probabilities.begin(), probabilities.end()},
          .seed = seed}) {}

extended_dagger_sampler::extended_dagger_sampler(sampler_description description)
    : forkable_sampler(std::move(description)) {
    if (description_.cycles == nullptr) {
        description_.cycles =
            std::make_shared<const dagger_table>(description_.probabilities);
    }
    ids_.resize(table().draws);
    round_begin_.resize(table().block_length + 2);
    draw_rounds_.resize(table().draws);
    draw_ids_.resize(table().draws);
    cursor_ = table().block_length;  // force block generation on first next_round
}

void extended_dagger_sampler::generate_block() {
    RECLOUD_SPAN("sample.dagger_block");
    const dagger_table& t = table();
    // Place every failure of the block as a (round, component) draw, in
    // component order. Each component's dagger cycles are concatenated
    // across the block; the final cycle is truncated at the block boundary
    // (cycle reset). A draw is written whether or not it fails the
    // component and kept only if it does, inside the block: a failure the
    // truncated cycle places beyond the reset line is a discarded round
    // (Figure 4). The scratch holds every draw, so writes need no check.
    std::size_t kept = 0;
    for (const dagger_cycle& c : t.components) {
        std::uint32_t cycle_start = 0;
        for (std::uint32_t k = 0; k < c.cycles; ++k) {
            const std::uint32_t slot = c.plan.slot_of(random_.uniform());
            const std::uint32_t round = cycle_start + slot;
            draw_rounds_[kept] = round;
            draw_ids_[kept] = c.id;
            kept += (slot < c.plan.cycle_length && round < t.block_length) ? 1 : 0;
            cycle_start += c.plan.cycle_length;
        }
    }
    // ... then counting-sort them by round; the sort is stable, so each
    // round lists its components in ascending id order. Counts go to
    // begin[round + 2]; after the prefix sum begin[round + 1] is where the
    // round starts, and placing advances it to where the round ends, which
    // leaves begin[r] = start of round r.
    std::fill(round_begin_.begin(), round_begin_.end(), 0);
    for (std::size_t i = 0; i < kept; ++i) {
        ++round_begin_[draw_rounds_[i] + 2];
    }
    for (std::uint32_t r = 2; r < t.block_length + 2; ++r) {
        round_begin_[r] += round_begin_[r - 1];
    }
    for (std::size_t i = 0; i < kept; ++i) {
        ids_[round_begin_[draw_rounds_[i] + 1]++] = draw_ids_[i];
    }
    cursor_ = 0;
}

void extended_dagger_sampler::next_round(std::vector<component_id>& failed) {
    if (cursor_ >= table().block_length) {
        generate_block();
    }
    failed.assign(ids_.begin() + round_begin_[cursor_],
                  ids_.begin() + round_begin_[cursor_ + 1]);
    ++cursor_;
    RECLOUD_COUNTER_INC("sample.rounds");
    RECLOUD_HIST_OBSERVE("sample.failed_size", failed.size());
}

}  // namespace recloud
