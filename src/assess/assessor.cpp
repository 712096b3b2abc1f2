#include "assess/assessor.hpp"

#include <vector>

#include "assess/round_journal.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace recloud {

void judge_rounds(failure_sampler& sampler, std::size_t rounds,
                  const round_judge& judge, result_accumulator& results,
                  round_journal* journal, const run_budget* budget) {
    std::vector<component_id> failed;
    for (std::size_t round = 0; round < rounds; ++round) {
        if (round % budget_poll_stride == 0) {
            throw_if_preempted(budget);
        }
        sampler.next_round(failed);
        const bool verdict =
            cached_reliable_in_round(judge.cache, failed, judge.rs,
                                     judge.oracle, judge.plan, judge.evaluator);
        results.add(verdict);
        if (journal != nullptr) {
            journal->record(failed, verdict, *judge.cache);
        }
    }
}

assessment_stats assess_deployment(failure_sampler& sampler, round_state& rs,
                                   reachability_oracle& oracle,
                                   const application& app,
                                   const deployment_plan& plan,
                                   std::size_t rounds, verdict_cache* cache,
                                   const run_budget* budget) {
    RECLOUD_SPAN("assess.deployment");
    RECLOUD_COUNTER_ADD("assess.rounds", rounds);
    requirement_evaluator evaluator{app, plan};
    if (cache != nullptr) {
        cache->bind(app, plan);
    }
    result_accumulator results;
    judge_rounds(sampler, rounds, {rs, oracle, plan, evaluator, cache}, results,
                 nullptr, budget);
    return results.stats();
}

}  // namespace recloud
