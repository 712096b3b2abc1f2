#include "assess/backend.hpp"

#include <algorithm>
#include <atomic>
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
                 round_journal* journal, const run_budget* budget) {
    RECLOUD_SPAN("assess.batch");
    RECLOUD_COUNTER_INC("assess.batches");
    const std::unique_ptr<failure_sampler> substream =
        sampler.fork(substream_id(epoch, batch));
    result_accumulator tally;
    judge_rounds(*substream, rounds, judge, tally, journal, budget);
    results.merge(tally.reliable_rounds(), tally.rounds());
}

/// One assess() call as every worker sees it.
struct parallel_backend::assessment {
    const application& app;
    const deployment_plan& plan;
    std::size_t rounds = 0;
    std::size_t batches = 0;
    std::uint64_t epoch = 0;
    /// The reset seed when the worker journals may record or replay.
    std::optional<std::uint64_t> journal_seed;
    std::uint64_t app_fingerprint = 0;
    const run_budget* budget = nullptr;

    [[nodiscard]] std::size_t batch_size(std::size_t b,
                                         std::size_t batch_rounds) const {
        return std::min(batch_rounds, rounds - b * batch_rounds);
    }
};

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
    workers_.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) {
        workers_.push_back(std::make_unique<worker>(
            judge_context{component_count, forest, make_oracle(),
                          options_.verdict_cache}));
    }
    if (workers > 1) {
        pool_.emplace(workers);
    }
}

result_accumulator parallel_backend::run_worker(std::size_t w,
                                                const assessment& job,
                                                std::atomic<bool>& aborted) {
    judge_context& context = workers_[w]->context;
    const std::size_t workers = workers_.size();
    const std::size_t batch_rounds = options_.batch_rounds;
    requirement_evaluator evaluator{job.app, job.plan};
    const round_judge judge = context.judge(job.plan, evaluator);
    verdict_cache* cache = judge.cache;
    if (cache != nullptr) {
        cache->bind(job.app, job.plan);
    }
    result_accumulator results;
    round_journal* journal = nullptr;
    try {
        if (job.journal_seed.has_value() && cache != nullptr) {
            std::size_t share = 0;
            for (std::size_t b = w; b < job.batches; b += workers) {
                share += job.batch_size(b, batch_rounds);
            }
            const journal_key key{.seed = *job.journal_seed,
                                  .epoch = job.epoch,
                                  .rounds = share,
                                  .app = job.app_fingerprint};
            if (std::optional<result_accumulator> replayed =
                    workers_[w]->journal.replay_or_begin(
                        key, *cache, context.rs, *context.oracle, job.plan,
                        evaluator, job.budget, batch_rounds)) {
                return *replayed;
            }
            journal = &workers_[w]->journal;
        }
        for (std::size_t b = w; b < job.batches; b += workers) {
            if (aborted.load(std::memory_order_relaxed)) {
                return results;  // a recording journal stays unfinished
            }
            judge_batch(*sampler_->description(), job.epoch, b,
                        job.batch_size(b, batch_rounds), judge, results,
                        journal, job.budget);
        }
    } catch (const search_preempted&) {
        aborted.store(true, std::memory_order_relaxed);
        return results;
    }
    if (journal != nullptr) {
        journal->finish();
    }
    return results;
}

result_accumulator parallel_backend::run_epoch(const application& app,
                                              const deployment_plan& plan,
                                              std::size_t rounds) {
    RECLOUD_SPAN("assess.deployment");
    RECLOUD_COUNTER_ADD("assess.rounds", rounds);
    ++epoch_;
    const std::size_t batch_rounds = options_.batch_rounds;
    const assessment job{
        .app = app,
        .plan = plan,
        .rounds = rounds,
        .batches = (rounds + batch_rounds - 1) / batch_rounds,
        .epoch = epoch_,
        // CRN journals (DESIGN.md §11) need a known stream: without a reset
        // nothing is recorded or replayed.
        .journal_seed = reset_seed_,
        .app_fingerprint =
            reset_seed_.has_value() ? application_fingerprint(app) : 0,
        .budget = budget_};

    // Worker w judges batches w, w+W, ... Batch b's rounds come from
    // substream (epoch, b) whichever worker runs it, and the per-batch
    // replicates are summed — addition commutes, so the schedule cannot
    // affect the result.
    //
    // Lifecycle: workers poll the armed budget inside their batches; the
    // first to see it fire raises `aborted` so siblings stop at their next
    // batch boundary too. Every worker finishes (the master must not outrun
    // tasks holding references to this frame), then the whole partial tally
    // is discarded by throwing search_preempted.
    std::atomic<bool> aborted{false};
    result_accumulator results;
    const std::size_t active = std::min(workers_.size(), job.batches);
    if (!pool_.has_value()) {
        if (active > 0) {
            results = run_worker(0, job, aborted);
        }
    } else {
        std::vector<std::future<result_accumulator>> futures;
        futures.reserve(active);
        for (std::size_t w = 0; w < active; ++w) {
            futures.push_back(pool_->submit([this, w, &job, &aborted] {
                return run_worker(w, job, aborted);
            }));
        }
        for (auto& future : futures) {
            future.wait();
        }
        for (auto& future : futures) {
            results.merge(future.get());
        }
    }
    if (aborted.load(std::memory_order_relaxed)) {
        throw search_preempted{};
    }
    return results;
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
    for (const std::unique_ptr<worker>& w : workers_) {
        if (w->context.cache) {
            cache_stats_.accumulate(w->context.cache->stats());
        }
    }
    return &cache_stats_;
}

}  // namespace recloud
