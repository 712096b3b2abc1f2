// Test reference for the batch scheme every assessment backend shares
// (assess/backend.hpp): assessment `epoch` cuts its rounds into batches of
// `batch_rounds`, batch b is drawn from base.fork(substream_id(epoch, b)),
// and each batch's tally is one replicate of the result accumulator.
// Rebuilt here round by round — no backend, no verdict cache, no shared
// round loop — so the backends can be checked against it bit for bit.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "app/requirement_eval.hpp"
#include "assess/backend.hpp"
#include "faults/round_state.hpp"
#include "routing/oracle.hpp"
#include "sampling/result_stats.hpp"
#include "sampling/sampler.hpp"

namespace recloud {

inline assessment_stats forked_batch_reference(
    const failure_sampler& base, std::uint64_t epoch, round_state& rs,
    reachability_oracle& oracle, const application& app,
    const deployment_plan& plan, std::size_t rounds,
    std::size_t batch_rounds = default_batch_rounds) {
    requirement_evaluator evaluator{app, plan};
    result_accumulator results;
    std::vector<component_id> failed;
    for (std::size_t b = 0; b * batch_rounds < rounds; ++b) {
        const std::unique_ptr<failure_sampler> substream =
            base.fork(substream_id(epoch, b));
        if (substream == nullptr) {
            throw std::invalid_argument{"forked_batch_reference: no fork()"};
        }
        const std::size_t count =
            std::min(batch_rounds, rounds - b * batch_rounds);
        std::size_t reliable = 0;
        for (std::size_t i = 0; i < count; ++i) {
            substream->next_round(failed);
            rs.begin_round(failed);
            oracle.begin_round(rs);
            reliable += evaluator.reliable_in_round(oracle, rs) ? 1 : 0;
        }
        results.merge(reliable, count);
    }
    return results.stats();
}

}  // namespace recloud
