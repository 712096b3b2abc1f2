// Reliability assessment of a deployment plan (paper §3.2): sample failure
// states for X rounds, run route-and-check per round, and aggregate the
// result list into R, V and CIW95 (Eqs. 1-3). Eq. 2 prices V as if rounds
// were iid; the backends (assess/backend.hpp) estimate V from their
// independent batches instead once there are min_replicates of them.
#pragma once

#include <cstddef>

#include "app/application.hpp"
#include "app/deployment.hpp"
#include "app/requirement_eval.hpp"
#include "assess/verdict_cache.hpp"
#include "core/run_budget.hpp"
#include "faults/round_state.hpp"
#include "routing/oracle.hpp"
#include "sampling/result_stats.hpp"
#include "sampling/sampler.hpp"

namespace recloud {

class round_journal;

/// Rounds (or journal groups) between run_budget polls in the assessment
/// inner loops: frequent enough to bound preemption latency to a sliver of
/// route-and-check work, sparse enough that the clock read vanishes in the
/// noise. An un-armed poll (budget == nullptr) is a single pointer test.
inline constexpr std::size_t budget_poll_stride = 256;

/// Everything that judges one round of one (application, plan): the scratch
/// round_state, the routing oracle, the plan's requirement evaluator and an
/// optional verdict cache already bound to (app, plan).
struct round_judge {
    round_state& rs;
    reachability_oracle& oracle;
    const deployment_plan& plan;
    requirement_evaluator& evaluator;
    verdict_cache* cache = nullptr;
};

/// The one sample-judge-record loop. Draws `rounds` rounds from `sampler`,
/// judges each through cached_reliable_in_round and adds the verdict to
/// `results` as a loose round (a caller that judges a batch merges the
/// batch's tally as one replicate). When `journal` is given (it needs
/// `judge.cache`), each round is recorded into it as it is judged: the
/// journal of a batch (judge_batch, assess/backend.hpp) is one call's
/// rounds. `budget` (nullable) is polled every
/// budget_poll_stride rounds; when it fires search_preempted propagates.
void judge_rounds(failure_sampler& sampler, std::size_t rounds,
                  const round_judge& judge, result_accumulator& results,
                  round_journal* journal = nullptr,
                  const run_budget* budget = nullptr);

/// Runs `rounds` sampling + route-and-check rounds for one plan on the
/// sampler's own stream — the building block for callers that bring their
/// own sampler (criticality analysis wraps it in a forced_failure_sampler;
/// tests rebuild a backend's batches from forked substreams). `rs` carries
/// the fault-tree forest; `oracle` must match the topology the plan deploys
/// into. The sampler continues its stream (it is NOT reset). `cache` may be
/// nullptr; when given it is bound to (app, plan) here and memoizes round
/// verdicts — the returned stats are bit-identical either way. One stream
/// is no set of replicates, so V is Eq. 2's. `budget` (nullable) is polled
/// every few hundred rounds; when it fires the partial tally is discarded
/// and search_preempted thrown (core/run_budget.hpp).
[[nodiscard]] assessment_stats assess_deployment(failure_sampler& sampler,
                                                 round_state& rs,
                                                 reachability_oracle& oracle,
                                                 const application& app,
                                                 const deployment_plan& plan,
                                                 std::size_t rounds,
                                                 verdict_cache* cache = nullptr,
                                                 const run_budget* budget = nullptr);

/// Adaptive precision (assessment_backend::assess_until_ciw): keep sampling
/// until the 95% confidence interval width (Eq. 3) drops to `target_ciw` or
/// `max_rounds` is reached. Useful when a developer wants a guaranteed error
/// bound rather than a fixed round budget (§4.2.4 motivates exactly this:
/// "some application developers may want even higher accuracy"). The
/// bound met is Eq. 2's below min_replicates batches and the replicate one
/// (V from the batches) from there, but a replicate bound stops the loop
/// only from twice min_replicates; rounds that all agree (V = 0) stop it
/// only once 4/target rounds are in.
struct adaptive_assess_options {
    double target_ciw = 1e-3;
    std::size_t initial_rounds = 1000;
    std::size_t max_rounds = 1'000'000;
};

}  // namespace recloud
