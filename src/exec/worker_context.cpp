#include "exec/worker_context.hpp"

#include <thread>
#include <utility>

#include "exec/engine.hpp"
#include "obs/trace.hpp"
#include "sampling/result_stats.hpp"

namespace recloud {

worker_context::worker_context(std::span<const std::byte> framed_setup,
                               sampler_description sampler,
                               std::size_t component_count,
                               const fault_tree_forest* forest,
                               const oracle_factory& make_oracle,
                               const verdict_cache_options& cache_options)
    : sampler_(std::move(sampler)),
      judge_(component_count, forest, make_oracle(), cache_options) {
    rebind(framed_setup);
}

void worker_context::rebind(std::span<const std::byte> framed_setup) {
    byte_reader reader{unframe_message(framed_setup)};
    wire::assessment_setup setup = wire::decode_setup(reader);
    // A short plan would make the evaluator read past plan.hosts.
    if (setup.plan.hosts.size() != setup.app.total_instances()) {
        throw serialize_error{"setup: plan size != application instances"};
    }
    app_ = std::move(setup.app);
    plan_ = std::move(setup.plan);
    sampler_.seed = setup.seed;
    epoch_ = setup.epoch;
    evaluator_.emplace(app_, plan_);
    if (judge_.cache) {
        judge_.cache->bind(app_, plan_);
    }
}

std::vector<std::byte> worker_context::run_batch(
    std::span<const std::byte> framed_task, const chaos_schedule* chaos,
    std::uint64_t attempt, std::uint64_t worker_id) {
    RECLOUD_SPAN("engine.batch");
    byte_reader reader{unframe_message(framed_task)};
    const wire::batch_descriptor batch = wire::decode_batch(reader);
    const chaos_fault fault =
        chaos != nullptr ? chaos->fault_for(batch.batch, attempt, worker_id)
                         : chaos_fault::none;
    if (fault == chaos_fault::crash) {
        throw chaos_crash{"injected worker crash"};
    }
    if (fault == chaos_fault::stall) {
        std::this_thread::sleep_for(chaos->options().stall_duration);
    }
    result_accumulator results;
    judge_batch(sampler_, epoch_, batch.batch, batch.rounds,
                judge_.judge(plan_, *evaluator_), results);
    byte_writer writer;
    wire::encode_batch_result(writer, {.rounds = results.rounds(),
                                       .reliable = results.reliable_rounds()});
    std::vector<std::byte> framed = frame_message(writer.bytes());
    if (fault == chaos_fault::corrupt_result) {
        chaos_schedule::corrupt(framed, batch.batch, attempt, worker_id);
    } else if (fault == chaos_fault::truncate_result) {
        chaos_schedule::truncate(framed, batch.batch, attempt, worker_id);
    }
    return framed;
}

}  // namespace recloud
