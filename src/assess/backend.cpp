#include "assess/backend.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
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

/// Replicates before a replicate bound may stop assess_until_ciw. From
/// min_replicates on V is usable, but 20 replicates estimate it only to
/// about 30%, and the loop stops on the first estimate that meets the
/// target, so stopping that early keeps the runs whose V came out low and
/// the stopped interval under-covers (EXPERIMENTS.md, "Coverage at the
/// adaptive stop").
constexpr std::size_t min_stopping_replicates = 2 * min_replicates;

}  // namespace

assessment_stats assessment_backend::assess_until_ciw(
    const application& app, const deployment_plan& plan,
    const adaptive_assess_options& options) {
    if (options.target_ciw <= 0.0) {
        throw std::invalid_argument{"assess_until_ciw: target must be > 0"};
    }
    // Run an initial burst, then grow until the bound meets the target.
    // Each burst is one epoch whose batches join the replicates. Fewer than
    // min_replicates leave V at the binomial Eq. 2, which overstates
    // dagger's variance, so its prediction is not trusted: the rounds
    // double. From min_replicates on, the total is planned from the
    // per-round variance the reported bound implies, s^2 = (CIW95/4)^2 N
    // (V N inflated by the Student-t quantile), growing by at least a
    // quarter per burst so a noisy prediction cannot creep.
    result_accumulator results;
    const auto run_rounds = [&](std::size_t rounds) {
        results.merge(run_epoch(app, plan, rounds));
    };
    run_rounds(std::min(std::max<std::size_t>(options.initial_rounds, 1),
                        options.max_rounds));
    for (;;) {
        throw_if_preempted(budget_);  // between prediction batches
        const assessment_stats stats = results.stats();
        const std::size_t done = results.rounds();
        // A replicate bound stops the loop only from min_stopping_replicates
        // on. Rounds that all agree give V = 0, which says nothing of the
        // spread: that bound counts as met only once a single contradicting
        // round could no longer push CIW95 past the target.
        const bool met =
            stats.ciw95 <= options.target_ciw &&
            (stats.replicates == 0 ||
             stats.replicates >= min_stopping_replicates) &&
            (stats.variance > 0.0 ||
             done >= rounds_for_target_variance(options.target_ciw, 0.0));
        if (met || done >= options.max_rounds) {
            return stats;
        }
        std::size_t want = 2 * done;
        if (stats.replicates != 0) {
            const double bound = stats.ciw95 / 4.0;
            want = std::max(
                rounds_for_target_variance(
                    options.target_ciw,
                    bound * bound * static_cast<double>(done)),
                done + done / 4);
        }
        const std::size_t next = std::min(want, options.max_rounds);
        run_rounds(next - results.rounds());
    }
}

judge_context::judge_context(std::size_t component_count,
                             const fault_tree_forest* forest,
                             std::unique_ptr<reachability_oracle> o,
                             const verdict_cache_options& cache_options)
    : rs(component_count, forest), oracle(std::move(o)) {
    if (oracle == nullptr) {
        throw std::invalid_argument{"judge_context: no routing oracle"};
    }
    if (cache_options.enabled && cache_options.support != nullptr) {
        cache.emplace(*cache_options.support, cache_options.max_entries,
                      /*cross_plan=*/true);
    }
}

void judge_batch(const sampler_description& sampler, std::uint64_t epoch,
                 std::uint64_t batch, std::size_t rounds,
                 const round_judge& judge, result_accumulator& results,
                 const run_budget* budget, round_journal* journal,
                 std::uint64_t app_fingerprint) {
    RECLOUD_SPAN("assess.batch");
    RECLOUD_COUNTER_INC("assess.batches");
    if (journal != nullptr) {
        const journal_key key{.seed = sampler.seed,
                              .epoch = epoch,
                              .rounds = rounds,
                              .app = app_fingerprint};
        if (const std::optional<std::size_t> reliable =
                journal->replay_or_begin(key, judge, budget)) {
            results.merge(*reliable, rounds);
            return;
        }
    }
    const std::unique_ptr<failure_sampler> substream =
        sampler.fork(substream_id(epoch, batch));
    result_accumulator tally;
    judge_rounds(*substream, rounds, judge, tally, journal, budget);
    if (journal != nullptr) {
        journal->finish(*judge.cache);
    }
    results.merge(tally.reliable_rounds(), tally.rounds());
}

parallel_backend::parallel_backend(std::size_t component_count,
                                   const fault_tree_forest* forest,
                                   oracle_factory make_oracle,
                                   failure_sampler& sampler,
                                   const parallel_backend_options& options)
    : sampler_(&sampler), options_(options) {
    if (options_.batch_rounds == 0) {
        throw std::invalid_argument{
            "parallel_backend: batch_rounds must be >= 1"};
    }
    if (sampler_->description() == nullptr) {
        throw std::invalid_argument{
            "parallel_backend: sampler does not support substreams (fork)"};
    }
    const std::size_t workers =
        options_.threads != 0
            ? options_.threads
            : std::max(1u, std::thread::hardware_concurrency());
    contexts_.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) {
        contexts_.push_back(std::make_unique<judge_context>(
            component_count, forest, make_oracle(), options_.verdict_cache));
    }
    if (workers > 1) {
        pool_.emplace(workers - 1);
    }
}

result_accumulator parallel_backend::run_epoch(const application& app,
                                              const deployment_plan& plan,
                                              std::size_t rounds) {
    RECLOUD_SPAN("assess.deployment");
    RECLOUD_COUNTER_ADD("assess.rounds", rounds);
    ++epoch_;
    const std::size_t batch_rounds = options_.batch_rounds;
    const std::size_t batches = (rounds + batch_rounds - 1) / batch_rounds;
    // CRN journals (DESIGN.md §11) need a known stream: without a reset
    // nothing is recorded or replayed.
    const std::uint64_t app_fingerprint =
        stream_reset_ ? application_fingerprint(app) : 0;
    journals_.resize(batches);

    // Each claimer binds its context, then judges the next unclaimed batch
    // until none is left. Batch b's rounds come from substream (epoch, b)
    // and its journal is journals_[b] whoever claims it, and the per-batch
    // replicates are summed — addition commutes, so the schedule cannot
    // affect the result.
    //
    // Lifecycle: claimers poll the armed budget inside their batches; the
    // first to see it fire (or to fail) raises `aborted` so the others stop
    // at their next claim. The caller collects every task (they hold
    // references to this frame) before it rethrows, so a preempted epoch's
    // partial tally is discarded.
    std::atomic<std::size_t> next{0};
    std::atomic<bool> aborted{false};
    const auto claim = [&](judge_context& context) {
        requirement_evaluator evaluator{app, plan};
        const round_judge judge = context.judge(plan, evaluator);
        if (judge.cache != nullptr) {
            judge.cache->bind(app, plan);
        }
        const bool journaled = stream_reset_ && judge.cache != nullptr;
        result_accumulator results;
        try {
            for (std::size_t b = next.fetch_add(1, std::memory_order_relaxed);
                 b < batches && !aborted.load(std::memory_order_relaxed);
                 b = next.fetch_add(1, std::memory_order_relaxed)) {
                judge_batch(*sampler_->description(), epoch_, b,
                            std::min(batch_rounds, rounds - b * batch_rounds),
                            judge, results, budget_,
                            journaled ? &journals_[b] : nullptr,
                            app_fingerprint);
            }
        } catch (...) {
            aborted.store(true, std::memory_order_relaxed);
            throw;
        }
        return results;
    };
    const std::size_t claimers = std::min(contexts_.size(), batches);
    std::vector<std::future<result_accumulator>> tasks;
    for (std::size_t t = 1; t < claimers; ++t) {
        tasks.push_back(pool_->submit(
            [&claim, context = contexts_[t].get()] { return claim(*context); }));
    }
    result_accumulator results;
    std::exception_ptr failure;
    try {
        results = claim(*contexts_[0]);
    } catch (...) {
        failure = std::current_exception();
    }
    for (std::future<result_accumulator>& task : tasks) {
        try {
            results.merge(task.get());
        } catch (...) {
            if (failure == nullptr) {
                failure = std::current_exception();
            }
        }
    }
    if (failure != nullptr) {
        std::rethrow_exception(failure);
    }
    return results;
}

void parallel_backend::reset_stream(std::uint64_t seed) {
    sampler_->reset(seed);
    epoch_ = 0;
    stream_reset_ = true;
}

const verdict_cache_stats* parallel_backend::cache_stats() const noexcept {
    if (!options_.verdict_cache.enabled ||
        options_.verdict_cache.support == nullptr) {
        return nullptr;
    }
    cache_stats_ = {};
    for (const std::unique_ptr<judge_context>& context : contexts_) {
        if (context->cache) {
            cache_stats_.accumulate(context->cache->stats());
        }
    }
    return &cache_stats_;
}

}  // namespace recloud
