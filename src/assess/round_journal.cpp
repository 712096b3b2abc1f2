#include "assess/round_journal.hpp"

#include <algorithm>
#include <numeric>

#include "obs/metrics.hpp"

namespace recloud {
namespace {

std::uint64_t hash_ids(std::span<const component_id> ids) noexcept {
    std::uint64_t hash = 1469598103934665603ULL;
    for (const component_id id : ids) {
        hash ^= static_cast<std::uint64_t>(id);
        hash *= 1099511628211ULL;
    }
    return hash;
}

/// A CSR index over component ids: values[begin[c]..begin[c + 1]) are the
/// values `pairs` pairs with c, in its order. `pairs(fn)` calls
/// fn(component, value) for every pair.
template <typename Pairs>
void build_index(std::size_t components, const Pairs& pairs,
                 std::vector<std::uint32_t>& begin,
                 std::vector<std::uint32_t>& values) {
    begin.assign(components + 1, 0);
    pairs([&](component_id c, std::uint32_t) { ++begin[c + 1]; });
    std::partial_sum(begin.begin(), begin.end(), begin.begin());
    values.resize(begin.back());
    std::vector<std::uint32_t> fill(begin.begin(), begin.end() - 1);
    pairs([&](component_id c, std::uint32_t value) {
        values[fill[c]++] = value;
    });
}

}  // namespace

std::optional<std::size_t> round_journal::replay_or_begin(
    const journal_key& key, const round_judge& judge,
    const run_budget* budget) {
    if (valid_ && key == key_) {
        if (const std::optional<std::size_t> reliable = replay(judge, budget)) {
            return reliable;
        }
    }
    begin(key, judge.plan);
    return std::nullopt;
}

void round_journal::begin(const journal_key& key, const deployment_plan& plan) {
    valid_ = false;
    key_ = key;
    keys_.clear();
    groups_.clear();
    round_group_.clear();
    round_group_.reserve(key.rounds);
    residue_.clear();
    index_.clear();
    verdict_plan_ = plan.hosts;
    verdicts_stale_ = false;
    indexed_ = false;
}

void round_journal::record(std::span<const component_id> failed,
                           bool verdict, const verdict_cache& cache) {
    const auto round = static_cast<std::uint32_t>(round_group_.size());
    // Group the round by its support-filtered signature. Every round of a
    // group has the group's verdict (a pure function of the key); its class
    // is the weakest any of them was judged with, so keeping the verdict
    // across a swap is sound for every one of them.
    const std::span<const component_id> key = cache.last_key();
    std::vector<std::uint32_t>& bucket = index_[hash_ids(key)];
    auto id = static_cast<std::uint32_t>(groups_.size());
    for (const std::uint32_t candidate : bucket) {
        const group& g = groups_[candidate];
        if (g.key_length == key.size() &&
            std::equal(key.begin(), key.end(), keys_.begin() + g.key_begin)) {
            id = candidate;
            break;
        }
    }
    if (id == groups_.size()) {
        group g;
        g.key_begin = static_cast<std::uint32_t>(keys_.size());
        g.key_length = static_cast<std::uint32_t>(key.size());
        g.verdict = verdict;
        keys_.insert(keys_.end(), key.begin(), key.end());
        groups_.push_back(g);
        bucket.push_back(id);
    }
    group& g = groups_[id];
    g.cls = std::min(g.cls, cache.last_class());
    round_group_.push_back(id);

    // Off-support residue: the components that failed in this round while
    // outside the recording plan's support. Duplicate raw occurrences stay
    // duplicated so a merged replay key matches the full-pass key exactly.
    for (const component_id c : failed) {
        if (!cache.in_support(c)) {
            residue_.emplace_back(c, round);
        }
    }
}

void round_journal::finish(const verdict_cache& cache) {
    // Inverted: component -> the rounds it failed in while off-support.
    // Replay probes it with the new binding's support additions only.
    build_index(
        cache.support().component_count(),
        [&](const auto& fn) {
            for (const auto& [c, round] : residue_) {
                fn(c, round);
            }
        },
        residue_begin_, residue_rounds_);
    residue_.clear();
    residue_.shrink_to_fit();  // the index holds it now
    valid_ = true;
}

void round_journal::index_groups(verdict_cache& cache) {
    // Component -> the groups whose key holds it.
    build_index(
        cache.support().component_count(),
        [&](const auto& fn) {
            for (std::uint32_t g = 0; g < groups_.size(); ++g) {
                for (const component_id c : key_of(groups_[g])) {
                    fn(c, g);
                }
            }
        },
        component_begin_, component_groups_);
    unclean_groups_.clear();
    for (std::uint32_t g = 0; g < groups_.size(); ++g) {
        if (groups_[g].cls == round_class::unclean) {
            unclean_groups_.push_back(g);
        }
    }
    // From now on the journal answers for every recorded key, so the
    // entries the pass stored would only lengthen warm-rebind sweeps.
    cache.drop_entries();
    indexed_ = true;
}

void round_journal::select_rejudge(const verdict_support& support,
                                   const deployment_plan& plan) {
    rejudge_.clear();
    if (verdicts_stale_) {
        rejudge_.resize(groups_.size());
        std::iota(rejudge_.begin(), rejudge_.end(), 0U);
        return;
    }
    if (plan.hosts == verdict_plan_) {
        return;  // every verdict is already this plan's
    }
    rejudge_.assign(unclean_groups_.begin(), unclean_groups_.end());
    delta_.compute(support, verdict_plan_, plan.hosts);
    for (const component_id c : delta_.components()) {
        for (std::uint32_t i = component_begin_[c];
             i < component_begin_[c + 1]; ++i) {
            const std::uint32_t g = component_groups_[i];
            if (delta_.kills(c, groups_[g].cls)) {
                rejudge_.push_back(g);
            }
        }
    }
    // Once each, in group order.
    std::sort(rejudge_.begin(), rejudge_.end());
    rejudge_.erase(std::unique(rejudge_.begin(), rejudge_.end()),
                   rejudge_.end());
}

std::optional<std::size_t> round_journal::replay(const round_judge& judge,
                                                 const run_budget* budget) {
    throw_if_preempted(budget);  // before anything moves
    verdict_cache& cache = *judge.cache;

    // Pass 1 (no judging): which recorded rounds are dirty under the new
    // plan — some off-support residue entered the new support (it belongs
    // to the swapped-in host or its dependencies)? Only the binding's
    // support additions can differ between two bindings of the same app
    // shape, so probing the inverted residue index with them finds every
    // dirty round in O(|swap delta|).
    const std::size_t churn_limit = key_.rounds / 4;
    dirty_pairs_.clear();
    for (const component_id c : cache.bound_support_additions()) {
        for (std::uint32_t i = residue_begin_[c]; i < residue_begin_[c + 1];
             ++i) {
            dirty_pairs_.emplace_back(residue_rounds_[i], c);
        }
    }
    if (dirty_pairs_.size() > churn_limit) {
        // Pathological churn: grouping no longer pays. (Pairs over-count
        // rounds with several entered residues; that only makes the bail
        // more conservative.)
        return std::nullopt;
    }
    std::sort(dirty_pairs_.begin(), dirty_pairs_.end());
    dirty_rounds_.clear();
    dirty_pool_.clear();
    for (std::size_t i = 0; i < dirty_pairs_.size();) {
        const std::uint32_t round = dirty_pairs_[i].first;
        const auto begin = static_cast<std::uint32_t>(dirty_pool_.size());
        for (; i < dirty_pairs_.size() && dirty_pairs_[i].first == round; ++i) {
            dirty_pool_.push_back(dirty_pairs_[i].second);
        }
        dirty_rounds_.push_back(
            {round_group_[round], begin,
             static_cast<std::uint32_t>(dirty_pool_.size()) - begin});
    }
    if (dirty_rounds_.size() > churn_limit) {
        return std::nullopt;
    }

    // Pass 2: move the kept group verdicts to the new plan, judging again
    // only the groups the swap delta can change (a group's verdict is that
    // of its key alone, which is what its clean rounds judge).
    if (!indexed_) {
        index_groups(cache);
    }
    select_rejudge(cache.support(), judge.plan);
    RECLOUD_COUNTER_INC("assess.journal_replays");
    RECLOUD_COUNTER_ADD("assess.replay_groups", groups_.size());
    RECLOUD_COUNTER_ADD("assess.replay_rejudged", rejudge_.size());
    cache.count_replay(groups_.size(), rejudge_.size());
    verdicts_stale_ = true;
    for (std::size_t i = 0; i < rejudge_.size(); ++i) {
        if (i % budget_poll_stride == 0) {
            throw_if_preempted(budget);
        }
        group& entry = groups_[rejudge_[i]];
        entry.verdict =
            cached_reliable_in_round(&cache, key_of(entry), judge.rs,
                                     judge.oracle, judge.plan, judge.evaluator);
    }
    verdicts_stale_ = false;
    verdict_plan_ = judge.plan.hosts;

    // Pass 3: each dirty round trades its group's verdict for its own,
    // judged with its residue merged into the group key (the seam's lookup
    // filters and sorts, so plain concatenation is enough; components the
    // new support dropped are filtered there too).
    for (dirty_round& round : dirty_rounds_) {
        const group& entry = groups_[round.group];
        const std::span<const component_id> key = key_of(entry);
        merged_.assign(key.begin(), key.end());
        const auto residue = dirty_pool_.begin() + round.begin;
        merged_.insert(merged_.end(), residue, residue + round.length);
        round.verdict = cached_reliable_in_round(
            &cache, merged_, judge.rs, judge.oracle, judge.plan,
            judge.evaluator);
    }
    return reliable_rounds();
}

std::size_t round_journal::reliable_rounds() const {
    std::size_t reliable = 0;
    for (const std::uint32_t g : round_group_) {
        reliable += groups_[g].verdict ? 1 : 0;
    }
    for (const dirty_round& round : dirty_rounds_) {
        reliable = reliable - (groups_[round.group].verdict ? 1 : 0) +
                   (round.verdict ? 1 : 0);
    }
    return reliable;
}

}  // namespace recloud
