#include "assess/assessor.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace recloud {

assessment_stats assess_deployment(failure_sampler& sampler, round_state& rs,
                                   reachability_oracle& oracle,
                                   const application& app,
                                   const deployment_plan& plan,
                                   std::size_t rounds, verdict_cache* cache,
                                   const run_budget* budget) {
    RECLOUD_SPAN("assess.deployment");
    RECLOUD_COUNTER_ADD("assess.rounds", rounds);
    requirement_evaluator evaluator{app, plan};
    result_accumulator results;
    std::vector<component_id> failed;
    if (cache != nullptr) {
        cache->bind(app, plan);
    }
    for (std::size_t round = 0; round < rounds; ++round) {
        if (round % budget_poll_stride == 0) {
            throw_if_preempted(budget);
        }
        sampler.next_round(failed);
        results.add(cached_reliable_in_round(cache, failed, rs, oracle, plan,
                                             evaluator));
    }
    return results.stats();
}

assessment_stats assess_until_ciw(failure_sampler& sampler, round_state& rs,
                                  reachability_oracle& oracle,
                                  const application& app,
                                  const deployment_plan& plan,
                                  const adaptive_assess_options& options,
                                  verdict_cache* cache,
                                  const run_budget* budget) {
    if (options.target_ciw <= 0.0) {
        throw std::invalid_argument{"assess_until_ciw: target must be > 0"};
    }
    RECLOUD_SPAN("assess.until_ciw");
    requirement_evaluator evaluator{app, plan};
    result_accumulator results;
    std::vector<component_id> failed;
    if (cache != nullptr) {
        cache->bind(app, plan);
    }
    const auto run_rounds = [&](std::size_t rounds) {
        RECLOUD_COUNTER_ADD("assess.rounds", rounds);
        for (std::size_t round = 0; round < rounds; ++round) {
            if (round % budget_poll_stride == 0) {
                throw_if_preempted(budget);
            }
            sampler.next_round(failed);
            results.add(cached_reliable_in_round(cache, failed, rs, oracle,
                                                 plan, evaluator));
        }
    };

    run_rounds(std::min(std::max<std::size_t>(options.initial_rounds, 1),
                        options.max_rounds));
    for (;;) {
        const assessment_stats stats = results.stats();
        if (stats.ciw95 <= options.target_ciw ||
            results.rounds() >= options.max_rounds) {
            return stats;
        }
        // Predict the total rounds needed from the current estimate, then
        // run the shortfall (at least as many as already done, so the
        // prediction error of early noisy estimates cannot stall progress).
        const std::size_t predicted =
            rounds_for_target_ciw(options.target_ciw, stats.reliability);
        const std::size_t want = std::max(predicted, 2 * results.rounds());
        const std::size_t next = std::min(want, options.max_rounds);
        run_rounds(next - results.rounds());
    }
}

reliability_assessor::reliability_assessor(
    std::size_t component_count, const fault_tree_forest* forest,
    reachability_oracle& oracle, failure_sampler& sampler,
    const verdict_cache_options& cache_options)
    : rs_(component_count, forest), oracle_(&oracle), sampler_(&sampler) {
    if (cache_options.enabled && cache_options.support != nullptr) {
        cache_.emplace(*cache_options.support, cache_options.max_entries,
                       cache_options.cross_plan);
    }
}

void reliability_assessor::settle_stream_debt() {
    while (replay_debt_rounds_ > 0) {
        sampler_->next_round(failed_scratch_);
        --replay_debt_rounds_;
    }
}

assessment_stats reliability_assessor::assess(const application& app,
                                              const deployment_plan& plan,
                                              std::size_t rounds,
                                              const run_budget* budget) {
    RECLOUD_SPAN("assess.deployment");
    RECLOUD_COUNTER_ADD("assess.rounds", rounds);
    requirement_evaluator evaluator{app, plan};
    verdict_cache* cache = cache_ ? &*cache_ : nullptr;
    const std::optional<std::uint64_t> fresh_reset = pending_reset_seed_;
    pending_reset_seed_.reset();
    if (!fresh_reset.has_value()) {
        settle_stream_debt();  // continue the stream where off-mode would be
    }
    if (cache != nullptr) {
        cache->bind(app, plan);
    }
    // CRN journal (DESIGN.md §11): only the first assessment after a reset
    // knows which stream it reads, so only it records or replays.
    const bool journaling = fresh_reset.has_value() && rounds > 0 &&
                            cache != nullptr && cache->cross_plan();
    if (journaling) {
        const journal_key key{.seed = *fresh_reset,
                              .rounds = rounds,
                              .app = application_fingerprint(app)};
        if (const std::optional<assessment_stats> replayed =
                journal_.replay_or_begin(key, *cache, rs_, *oracle_, plan,
                                         evaluator, budget)) {
            replay_debt_rounds_ += rounds;
            return *replayed;
        }
    }
    result_accumulator results;
    for (std::size_t round = 0; round < rounds; ++round) {
        if (round % budget_poll_stride == 0) {
            throw_if_preempted(budget);
        }
        sampler_->next_round(failed_scratch_);
        results.add(cached_reliable_in_round(cache, failed_scratch_, rs_,
                                             *oracle_, plan, evaluator));
        if (journaling) {
            journal_.record(static_cast<std::uint32_t>(round), failed_scratch_,
                            *cache);
        }
    }
    if (journaling) {
        journal_.finish();
    }
    return results.stats();
}

}  // namespace recloud
