#include "exec/worker_context.hpp"

#include <thread>
#include <utility>

#include "exec/engine.hpp"
#include "obs/trace.hpp"

namespace recloud {

worker_context::worker_context(std::span<const std::byte> framed_setup,
                               std::size_t component_count,
                               const fault_tree_forest* forest,
                               const oracle_factory& make_oracle,
                               const verdict_cache_options& cache_options)
    : app_(make_app(framed_setup)),
      plan_(make_plan(framed_setup)),
      rs_(component_count, forest),
      oracle_(make_oracle()),
      evaluator_(app_, plan_) {
    if (cache_options.enabled && cache_options.support != nullptr) {
        cache_.emplace(*cache_options.support, cache_options.max_entries,
                       cache_options.cross_plan);
        cache_->bind(app_, plan_);
    }
}

void worker_context::rebind(std::span<const std::byte> framed_setup) {
    app_ = make_app(framed_setup);
    plan_ = make_plan(framed_setup);
    evaluator_ = requirement_evaluator{app_, plan_};
    if (cache_) {
        cache_->bind(app_, plan_);
    }
}

application worker_context::make_app(std::span<const std::byte> framed_setup) {
    byte_reader reader{unframe_message(framed_setup)};
    return wire::decode_application(reader);
}

deployment_plan worker_context::make_plan(
    std::span<const std::byte> framed_setup) {
    byte_reader reader{unframe_message(framed_setup)};
    (void)wire::decode_application(reader);  // skip the app section
    return wire::decode_plan(reader);
}

std::vector<std::byte> worker_context::run_batch(
    std::span<const std::byte> framed_task, const chaos_schedule* chaos,
    std::uint64_t batch_id, std::uint64_t attempt, std::uint64_t worker_id) {
    RECLOUD_SPAN("engine.batch");
    const chaos_fault fault =
        chaos != nullptr ? chaos->fault_for(batch_id, attempt, worker_id)
                         : chaos_fault::none;
    if (fault == chaos_fault::crash) {
        throw chaos_crash{"injected worker crash"};
    }
    if (fault == chaos_fault::stall) {
        std::this_thread::sleep_for(chaos->options().stall_duration);
    }
    byte_reader reader{unframe_message(framed_task)};
    const auto rounds = wire::decode_round_batch(reader);
    wire::batch_result result;
    verdict_cache* vc = cache_ ? &*cache_ : nullptr;
    for (const auto& failed : rounds) {
        ++result.rounds;
        if (cached_reliable_in_round(vc, failed, rs_, *oracle_, plan_,
                                     evaluator_)) {
            ++result.reliable;
        }
    }
    byte_writer writer;
    wire::encode_batch_result(writer, result);
    std::vector<std::byte> framed = frame_message(writer.bytes());
    if (fault == chaos_fault::corrupt_result) {
        chaos_schedule::corrupt(framed, batch_id, attempt, worker_id);
    } else if (fault == chaos_fault::truncate_result) {
        chaos_schedule::truncate(framed, batch_id, attempt, worker_id);
    }
    return framed;
}

}  // namespace recloud
