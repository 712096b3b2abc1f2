#include "exec/engine.hpp"

#include <algorithm>
#include <future>
#include <stdexcept>
#include <thread>
#include <utility>

#include "exec/worker_context.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sampling/result_stats.hpp"

namespace recloud {
namespace wire {

void encode_application(byte_writer& out, const application& app) {
    out.write_varint(app.components().size());
    for (const app_component& c : app.components()) {
        out.write_string(c.name);
        out.write_varint(c.replicas);
    }
    out.write_varint(app.requirements().size());
    for (const reachability_requirement& req : app.requirements()) {
        out.write_varint(req.target);
        out.write_bool(req.source.has_value());
        if (req.source) {
            out.write_varint(*req.source);
        }
        out.write_varint(req.min_reachable);
    }
}

application decode_application(byte_reader& in) {
    application app;
    // A component costs >= 2 bytes (name length prefix + replicas), a
    // requirement >= 3 (target + has_source + min_reachable).
    const std::uint64_t components = in.read_length_prefix(2);
    for (std::uint64_t c = 0; c < components; ++c) {
        std::string name = in.read_string();
        const auto replicas = static_cast<std::uint32_t>(in.read_varint());
        app.add_component(std::move(name), replicas);
    }
    const std::uint64_t requirements = in.read_length_prefix(3);
    for (std::uint64_t r = 0; r < requirements; ++r) {
        const auto target = static_cast<app_component_id>(in.read_varint());
        const bool has_source = in.read_bool();
        if (has_source) {
            const auto source = static_cast<app_component_id>(in.read_varint());
            app.require_reachable(target, source,
                                  static_cast<std::uint32_t>(in.read_varint()));
        } else {
            app.require_external(target,
                                 static_cast<std::uint32_t>(in.read_varint()));
        }
    }
    app.validate();
    return app;
}

void encode_plan(byte_writer& out, const deployment_plan& plan) {
    out.write_uint_vector(std::span<const node_id>{plan.hosts});
}

deployment_plan decode_plan(byte_reader& in) {
    deployment_plan plan;
    plan.hosts = in.read_uint_vector<node_id>();
    return plan;
}

void encode_setup(byte_writer& out, const application& app,
                  const deployment_plan& plan, std::uint64_t seed,
                  std::uint64_t epoch) {
    encode_application(out, app);
    encode_plan(out, plan);
    out.write_u64(seed);
    out.write_varint(epoch);
}

assessment_setup decode_setup(byte_reader& in) {
    assessment_setup setup{.app = decode_application(in),
                           .plan = decode_plan(in)};
    setup.seed = in.read_u64();
    setup.epoch = in.read_varint();
    if (!in.at_end()) {
        throw serialize_error{"setup: trailing bytes"};
    }
    return setup;
}

void encode_batch(byte_writer& out, const batch_descriptor& batch) {
    out.write_varint(batch.batch);
    out.write_varint(batch.rounds);
}

batch_descriptor decode_batch(byte_reader& in) {
    batch_descriptor batch;
    batch.batch = in.read_varint();
    batch.rounds = in.read_varint();
    if (batch.batch >> 32 != 0 || batch.rounds == 0) {
        throw serialize_error{"batch: id past 2^32 or zero rounds"};
    }
    return batch;
}

void encode_batch_result(byte_writer& out, const batch_result& result) {
    out.write_varint(result.rounds);
    out.write_varint(result.reliable);
}

batch_result decode_batch_result(byte_reader& in) {
    batch_result result;
    result.rounds = in.read_varint();
    result.reliable = in.read_varint();
    return result;
}

}  // namespace wire

namespace {

/// What every worker context is built from. Throws std::invalid_argument
/// when the sampler cannot fork.
transport_env make_env(std::size_t component_count,
                       const fault_tree_forest* forest,
                       oracle_factory make_oracle,
                       const failure_sampler& sampler,
                       const engine_options& options) {
    if (sampler.description() == nullptr) {
        throw std::invalid_argument{
            "assessment_engine: sampler does not support substreams (fork)"};
    }
    return {.component_count = component_count,
            .forest = forest,
            .sampler = sampler.description(),
            .make_oracle = std::move(make_oracle),
            .verdict_cache = options.verdict_cache,
            .chaos = options.chaos,
            .topology = options.topology,
            .links = options.links};
}

/// Builds the transport the options select.
std::unique_ptr<engine_transport> build_transport(
    const transport_env& env, const engine_options& options) {
    if (options.transport == transport_kind::socket) {
        return make_socket_transport(options.workers, env, options.socket);
    }
    return make_loopback_transport(options.workers, env);
}

/// One batch the master is responsible for until its result validates.
struct pending_batch {
    std::uint64_t id = 0;
    std::uint64_t rounds = 0;
    std::vector<std::byte> framed_task;  ///< read until the outcome settles
    std::size_t attempt = 0;  ///< dispatch attempts so far
    std::size_t worker = 0;   ///< worker of the outstanding attempt
    std::vector<bool> failed_on;  ///< workers that already failed this batch
    std::future<std::vector<std::byte>> outcome;
};

}  // namespace

assessment_engine::assessment_engine(std::size_t component_count,
                                     const fault_tree_forest* forest,
                                     oracle_factory make_oracle,
                                     failure_sampler& sampler,
                                     const engine_options& options)
    : sampler_(&sampler),
      options_(options),
      env_(make_env(component_count, forest, std::move(make_oracle), sampler,
                    options)),
      transport_(build_transport(env_, options_)) {
    if (options_.batch_rounds == 0) {
        throw std::invalid_argument{
            "assessment_engine: batch_rounds must be >= 1"};
    }
    stats_.worker_failures.assign(transport_->workers(), 0);
}

void assessment_engine::reset_stream(std::uint64_t seed) {
    sampler_->reset(seed);
    epoch_ = 0;
}

const verdict_cache_stats* assessment_engine::cache_stats() const noexcept {
    const verdict_cache_options& vc = options_.verdict_cache;
    if (!vc.enabled ||
        (vc.support == nullptr &&
         options_.transport == transport_kind::loopback)) {
        return nullptr;
    }
    combined_cache_stats_ = local_cache_stats_;
    if (const verdict_cache_stats* remote = transport_->cache_stats()) {
        combined_cache_stats_.accumulate(*remote);
    }
    return &combined_cache_stats_;
}

result_accumulator assessment_engine::run_epoch(const application& app,
                                               const deployment_plan& plan,
                                               std::size_t rounds) {
    RECLOUD_SPAN("engine.assess");
    RECLOUD_COUNTER_ADD("assess.rounds", rounds);
    const run_budget* budget = budget_;
    const std::size_t worker_count = transport_->workers();
    // Serialize the assessment context once; every worker receives its own
    // copy (what shipping the job to a remote worker costs — and with the
    // socket transport, what it literally is).
    byte_writer setup_writer;
    wire::encode_setup(setup_writer, app, plan, sampler_->description()->seed,
                       ++epoch_);
    const std::vector<std::byte> framed_setup =
        frame_message(setup_writer.bytes());
    stats_.bytes_sent += transport_->begin_assessment(framed_setup);

    std::vector<pending_batch> batches;

    // Results a deadline miss (or a lifecycle preempt) abandoned: the
    // stalled task still runs and must be drained before its descriptor
    // dies and the next setup rebinds its context.
    std::vector<std::future<std::vector<std::byte>>> abandoned;
    const auto drain = [&] {
        for (pending_batch& b : batches) {
            if (b.outcome.valid()) {
                b.outcome.wait();
            }
        }
        for (auto& f : abandoned) {
            f.wait();
        }
    };

    const auto dispatch = [&](pending_batch& b, std::size_t worker) {
        RECLOUD_SPAN("engine.dispatch");
        RECLOUD_COUNTER_INC("engine.dispatches");
        b.worker = worker;
        b.outcome = transport_->dispatch(worker,
                                         std::span<const std::byte>{
                                             b.framed_task},
                                         b.id, b.attempt);
        ++b.attempt;
        ++stats_.dispatches;
        stats_.bytes_sent += b.framed_task.size();
    };

    /// First healthy candidate after `after`, or the worker count when
    /// every worker has already failed this batch.
    const auto next_worker = [&](const pending_batch& b, std::size_t after) {
        for (std::size_t step = 1; step <= worker_count; ++step) {
            const std::size_t w = (after + step) % worker_count;
            if (!b.failed_on[w]) {
                return w;
            }
        }
        return worker_count;
    };

    // Waits for one attempt's result: bounded by the per-attempt deadline
    // (if any) and — when a lifecycle budget is armed — sliced so the wait
    // aborts within a few milliseconds of the budget firing. With neither,
    // the plain get() below blocks, exactly the historic path.
    const auto attempt_timed_out = [&](pending_batch& b) {
        const bool bounded = options_.batch_deadline.count() > 0;
        if (!bounded && budget == nullptr) {
            return false;
        }
        constexpr std::chrono::milliseconds poll_slice{2};
        const auto attempt_deadline =
            monotonic_clock::now() + options_.batch_deadline;
        for (;;) {
            throw_if_preempted(budget);
            std::chrono::nanoseconds wait = poll_slice;
            if (bounded) {
                const std::chrono::nanoseconds remaining =
                    attempt_deadline - monotonic_clock::now();
                if (remaining <= std::chrono::nanoseconds::zero()) {
                    return true;
                }
                if (budget == nullptr || remaining < wait) {
                    wait = remaining;
                }
            }
            if (b.outcome.wait_for(wait) == std::future_status::ready) {
                return false;
            }
        }
    };

    result_accumulator results;
    std::unique_ptr<worker_context> local;  // lazily-built degraded path
    try {
        // Master: one descriptor per batch. Workers derive the rounds from
        // it, so retries, re-dispatches and degraded local runs all judge
        // the identical rounds.
        const std::size_t batch_rounds = options_.batch_rounds;
        for (std::size_t begin = 0; begin < rounds; begin += batch_rounds) {
            pending_batch b;
            b.id = batches.size();
            b.rounds = std::min(batch_rounds, rounds - begin);
            byte_writer writer;
            wire::encode_batch(writer, {.batch = b.id, .rounds = b.rounds});
            b.framed_task = frame_message(writer.bytes());
            b.failed_on.assign(worker_count, false);
            batches.push_back(std::move(b));
        }
        stats_.batches += batches.size();

        // Initial wave: batch i to worker i mod workers (round-robin).
        if (options_.max_attempts > 0) {
            for (pending_batch& b : batches) {
                dispatch(b, static_cast<std::size_t>(b.id % worker_count));
            }
        }

        for (pending_batch& b : batches) {
            throw_if_preempted(budget);
            bool accepted = false;
            while (b.outcome.valid() && !accepted) {
                if (attempt_timed_out(b)) {
                    ++stats_.deadline_misses;
                    abandoned.push_back(std::move(b.outcome));
                } else {
                    try {
                        const std::vector<std::byte> framed = b.outcome.get();
                        stats_.bytes_received += framed.size();
                        byte_reader reader{unframe_message(framed)};
                        const wire::batch_result r =
                            wire::decode_batch_result(reader);
                        if (!reader.at_end() || r.rounds != b.rounds ||
                            r.reliable > r.rounds) {
                            throw serialize_error{"batch result inconsistent"};
                        }
                        results.merge(r.reliable, r.rounds);
                        accepted = true;
                    } catch (const serialize_error&) {
                        ++stats_.invalid_frames;
                    } catch (const std::exception&) {
                        ++stats_.worker_crashes;
                    }
                }
                if (accepted) {
                    break;
                }
                // The attempt failed; retry on a healthy worker or fall
                // through (invalid future) to the degraded local path.
                ++stats_.worker_failures[b.worker];
                b.failed_on[b.worker] = true;
                const std::size_t candidate = next_worker(b, b.worker);
                if (b.attempt >= options_.max_attempts ||
                    candidate == worker_count) {
                    break;
                }
                if (options_.retry_backoff.count() > 0) {
                    // Exponential backoff: base * 2^(attempts - 1).
                    std::this_thread::sleep_for(
                        options_.retry_backoff *
                        (std::int64_t{1} << std::min<std::size_t>(b.attempt - 1, 20)));
                }
                ++stats_.retries;
                RECLOUD_COUNTER_INC("engine.retries");
                if (candidate != b.worker) {
                    ++stats_.redispatches;
                }
                dispatch(b, candidate);
            }
            if (!accepted) {
                // Graceful degradation: every worker exhausted (or none
                // allowed) — the master forks and judges the batch itself,
                // chaos-free, which cannot fail. An over-budget request
                // aborts instead of paying for the local run.
                throw_if_preempted(budget);
                RECLOUD_SPAN("engine.degraded");
                RECLOUD_COUNTER_INC("engine.degraded");
                if (local == nullptr) {
                    local = std::make_unique<worker_context>(
                        framed_setup, *env_.sampler, env_.component_count,
                        env_.forest, env_.make_oracle, env_.verdict_cache);
                }
                const std::vector<std::byte> framed = local->run_batch(
                    b.framed_task, nullptr, b.attempt, worker_count);
                byte_reader reader{unframe_message(framed)};
                const wire::batch_result r = wire::decode_batch_result(reader);
                results.merge(r.reliable, r.rounds);
                ++stats_.degraded;
            }
            // The batch is settled, but its descriptor is only freed with
            // `batches` after drain(): an abandoned stalled attempt may
            // still be reading it.
        }
    } catch (...) {
        drain();
        stats_.worker_respawns = transport_->respawns();
        throw;
    }
    drain();
    stats_.worker_respawns = transport_->respawns();
    if (local != nullptr) {
        if (const verdict_cache_stats* stats = local->cache_stats()) {
            local_cache_stats_.accumulate(*stats);
        }
    }
    return results;
}

}  // namespace recloud
