#include "assess/backend.hpp"

#include <algorithm>
#include <future>
#include <stdexcept>
#include <thread>
#include <utility>

#include "app/requirement_eval.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sampling/result_stats.hpp"

namespace recloud {
namespace {

/// Per-task tally a worker hands back to the reducer.
struct batch_counts {
    std::size_t rounds = 0;
    std::size_t reliable = 0;
};

}  // namespace

assessment_stats assessment_backend::assess_until_ciw(
    const application& app, const deployment_plan& plan,
    const adaptive_assess_options& options) {
    if (options.target_ciw <= 0.0) {
        throw std::invalid_argument{"assess_until_ciw: target must be > 0"};
    }
    // Same prediction loop as the serial free function (assessor.cpp), built
    // on the backend's assess(): run an initial burst, then repeatedly
    // predict the total rounds needed and run the shortfall.
    result_accumulator results;
    const auto run_rounds = [&](std::size_t rounds) {
        const assessment_stats chunk = assess(app, plan, rounds);
        results.merge(chunk.reliable, chunk.rounds);
    };
    run_rounds(std::min(std::max<std::size_t>(options.initial_rounds, 1),
                        options.max_rounds));
    for (;;) {
        throw_if_preempted(budget_);  // between prediction batches
        const assessment_stats stats = results.stats();
        if (stats.ciw95 <= options.target_ciw ||
            results.rounds() >= options.max_rounds) {
            return stats;
        }
        const std::size_t predicted =
            rounds_for_target_ciw(options.target_ciw, stats.reliability);
        const std::size_t want = std::max(predicted, 2 * results.rounds());
        const std::size_t next = std::min(want, options.max_rounds);
        run_rounds(next - results.rounds());
    }
}

serial_backend::serial_backend(std::size_t component_count,
                               const fault_tree_forest* forest,
                               reachability_oracle& oracle,
                               failure_sampler& sampler,
                               const verdict_cache_options& cache_options)
    : assessor_(component_count, forest, oracle, sampler, cache_options),
      sampler_(&sampler),
      oracle_(&oracle) {}

assessment_stats serial_backend::assess(const application& app,
                                        const deployment_plan& plan,
                                        std::size_t rounds) {
    return assessor_.assess(app, plan, rounds, budget_);
}

assessment_stats serial_backend::assess_until_ciw(
    const application& app, const deployment_plan& plan,
    const adaptive_assess_options& options) {
    // The CIW loop drives the sampler directly: pay back any rounds a
    // journal replay skipped and drop the fresh-reset flag so a later
    // assess() cannot mistake the advanced stream for a reset one.
    assessor_.settle_stream_debt();
    assessor_.invalidate_stream_reset();
    return recloud::assess_until_ciw(*sampler_, assessor_.state(), *oracle_, app,
                                     plan, options, assessor_.cache(), budget_);
}

void serial_backend::reset_stream(std::uint64_t seed) {
    sampler_->reset(seed);
    assessor_.note_stream_reset(seed);
}

parallel_backend::parallel_backend(std::size_t component_count,
                                   const fault_tree_forest* forest,
                                   oracle_factory make_oracle,
                                   failure_sampler& sampler,
                                   const parallel_backend_options& options)
    : sampler_(&sampler),
      options_(options),
      pool_(options.threads != 0 ? options.threads
                                 : std::max(1u, std::thread::hardware_concurrency())) {
    if (options_.batch_rounds == 0) {
        throw std::invalid_argument{"parallel_backend: batch_rounds must be >= 1"};
    }
    if (sampler_->fork(0) == nullptr) {
        throw std::invalid_argument{
            "parallel_backend: sampler does not support substreams (fork)"};
    }
    contexts_.reserve(pool_.size());
    for (std::size_t w = 0; w < pool_.size(); ++w) {
        std::unique_ptr<reachability_oracle> oracle = make_oracle();
        if (oracle == nullptr) {
            throw std::invalid_argument{
                "parallel_backend: oracle factory returned nullptr"};
        }
        contexts_.push_back(std::make_unique<worker_context>(
            component_count, forest, std::move(oracle),
            options_.verdict_cache));
    }
}

assessment_stats parallel_backend::assess(const application& app,
                                          const deployment_plan& plan,
                                          std::size_t rounds) {
    RECLOUD_SPAN("backend.parallel.assess");
    RECLOUD_COUNTER_ADD("assess.rounds", rounds);
    ++epoch_;
    const std::size_t batch_rounds = options_.batch_rounds;
    const std::size_t batches = (rounds + batch_rounds - 1) / batch_rounds;
    const std::size_t workers = pool_.size();

    // One task per worker; worker w judges batches w, w+workers, ... Batch
    // b's rounds come from substream (epoch, b) no matter which worker runs
    // it, and the per-batch counts are summed — addition commutes, so the
    // schedule cannot affect the result.
    //
    // Lifecycle: workers poll the armed budget between batches; the first
    // to see it fire raises `aborted` so siblings stop at their next batch
    // boundary too. Every future still completes (the master must not
    // outrun tasks holding references to this frame), then the whole
    // partial tally is discarded by throwing search_preempted.
    std::atomic<bool> aborted{false};
    const run_budget* budget = budget_;
    const std::uint64_t epoch = epoch_;
    // CRN journals (DESIGN.md §11) need a known stream: without a reset
    // nothing is recorded or replayed.
    const std::optional<std::uint64_t> seed = reset_seed_;
    const std::uint64_t app_fingerprint =
        seed.has_value() ? application_fingerprint(app) : 0;
    std::vector<std::future<batch_counts>> futures;
    futures.reserve(workers);
    for (std::size_t w = 0; w < workers && w < batches; ++w) {
        futures.push_back(pool_.submit([this, &app, &plan, rounds, batch_rounds,
                                        batches, workers, w, budget, epoch,
                                        seed, app_fingerprint,
                                        &aborted]() -> batch_counts {
            worker_context& context = *contexts_[w];
            requirement_evaluator evaluator{app, plan};
            verdict_cache* cache = context.cache ? &*context.cache : nullptr;
            if (cache != nullptr) {
                cache->bind(app, plan);
            }
            const bool journaling =
                seed.has_value() && cache != nullptr && cache->cross_plan();
            std::vector<component_id> failed;
            batch_counts counts;
            for (std::size_t b = w; b < batches; b += workers) {
                if (budget != nullptr &&
                    (aborted.load(std::memory_order_relaxed) ||
                     budget->interrupted())) {
                    aborted.store(true, std::memory_order_relaxed);
                    break;
                }
                RECLOUD_SPAN("assess.batch");
                RECLOUD_COUNTER_INC("assess.batches");
                const std::size_t begin = b * batch_rounds;
                const std::size_t count = std::min(batch_rounds, rounds - begin);
                round_journal* journal = nullptr;
                if (journaling) {
                    // The batch is the preemption unit here: a replay runs
                    // whole, so it gets no budget of its own.
                    const std::size_t slot = b / workers;
                    if (context.journals.size() <= slot) {
                        context.journals.resize(slot + 1);
                    }
                    journal = &context.journals[slot];
                    const journal_key key{.seed = *seed,
                                          .epoch = epoch,
                                          .rounds = count,
                                          .app = app_fingerprint};
                    if (const std::optional<assessment_stats> replayed =
                            journal->replay_or_begin(key, *cache, context.rs,
                                                     *context.oracle, plan,
                                                     evaluator, nullptr)) {
                        counts.rounds += replayed->rounds;
                        counts.reliable += replayed->reliable;
                        continue;
                    }
                }
                const std::unique_ptr<failure_sampler> substream =
                    sampler_->fork(substream_id(epoch, b));
                for (std::size_t i = 0; i < count; ++i) {
                    substream->next_round(failed);
                    ++counts.rounds;
                    if (cached_reliable_in_round(cache, failed, context.rs,
                                                 *context.oracle, plan,
                                                 evaluator)) {
                        ++counts.reliable;
                    }
                    if (journal != nullptr) {
                        journal->record(static_cast<std::uint32_t>(i), failed,
                                        *cache);
                    }
                }
                if (journal != nullptr) {
                    journal->finish();
                }
            }
            return counts;
        }));
    }

    result_accumulator results;
    for (auto& future : futures) {
        const batch_counts counts = future.get();
        results.merge(counts.reliable, counts.rounds);
    }
    if (aborted.load(std::memory_order_relaxed)) {
        throw search_preempted{};
    }
    return results.stats();
}

void parallel_backend::reset_stream(std::uint64_t seed) {
    sampler_->reset(seed);
    epoch_ = 0;
    reset_seed_ = seed;
}

const verdict_cache_stats* parallel_backend::cache_stats() const noexcept {
    if (!options_.verdict_cache.enabled ||
        options_.verdict_cache.support == nullptr) {
        return nullptr;
    }
    cache_stats_ = {};
    for (const std::unique_ptr<worker_context>& context : contexts_) {
        if (context->cache) {
            cache_stats_.accumulate(context->cache->stats());
        }
    }
    return &cache_stats_;
}

}  // namespace recloud
