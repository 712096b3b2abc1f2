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

}  // namespace

std::optional<result_accumulator> round_journal::replay_or_begin(
    const journal_key& key, verdict_cache& cache, round_state& rs,
    reachability_oracle& oracle, const deployment_plan& plan,
    requirement_evaluator& evaluator, const run_budget* budget,
    std::size_t batch_rounds) {
    if (valid_ && key == key_) {
        if (std::optional<result_accumulator> replayed = replay(
                cache, rs, oracle, plan, evaluator, budget, batch_rounds)) {
            return replayed;
        }
    }
    begin(key, plan);
    return std::nullopt;
}

void round_journal::begin(const journal_key& key, const deployment_plan& plan) {
    valid_ = false;
    key_ = key;
    keys_.clear();
    groups_.clear();
    round_group_.clear();
    round_group_.reserve(key.rounds);
    residue_index_.clear();
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

    // Off-support residue, inverted: component -> the rounds it failed in
    // while outside the recording plan's support. Replay probes this with
    // the new binding's support additions only. Duplicate raw occurrences
    // stay duplicated so a merged replay key matches the full-pass key
    // exactly.
    for (const component_id c : failed) {
        if (!cache.in_support(c)) {
            residue_index_[c].push_back(round);
        }
    }
}

void round_journal::index_groups(verdict_cache& cache) {
    // CSR over component ids: component -> the groups whose key holds it.
    const std::size_t components = cache.support().component_count();
    component_begin_.assign(components + 1, 0);
    for (const component_id c : keys_) {
        ++component_begin_[c + 1];
    }
    for (std::size_t c = 0; c < components; ++c) {
        component_begin_[c + 1] += component_begin_[c];
    }
    component_groups_.resize(keys_.size());
    std::vector<std::uint32_t> fill(component_begin_.begin(),
                                    component_begin_.end() - 1);
    unclean_groups_.clear();
    for (std::uint32_t g = 0; g < groups_.size(); ++g) {
        for (const component_id c : key_of(groups_[g])) {
            component_groups_[fill[c]++] = g;
        }
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

std::optional<result_accumulator> round_journal::replay(
    verdict_cache& cache, round_state& rs, reachability_oracle& oracle,
    const deployment_plan& plan, requirement_evaluator& evaluator,
    const run_budget* budget, std::size_t batch_rounds) {
    throw_if_preempted(budget);  // before anything moves

    // Pass 1 (no judging): which recorded rounds are dirty under the new
    // plan — some off-support residue entered the new support (it belongs
    // to the swapped-in host or its dependencies)? Only the binding's
    // support additions can differ between two bindings of the same app
    // shape, so probing the inverted residue index with them finds every
    // dirty round in O(|swap delta|).
    const std::size_t churn_limit = key_.rounds / 4;
    dirty_pairs_.clear();
    for (const component_id c : cache.bound_support_additions()) {
        const auto it = residue_index_.find(c);
        if (it == residue_index_.end()) {
            continue;
        }
        for (const std::uint32_t round : it->second) {
            dirty_pairs_.emplace_back(round, c);
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
            {round, round_group_[round], begin,
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
    select_rejudge(cache.support(), plan);
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
        entry.verdict = cached_reliable_in_round(&cache, key_of(entry), rs,
                                                 oracle, plan, evaluator);
    }
    verdicts_stale_ = false;
    verdict_plan_ = plan.hosts;

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
        round.verdict =
            cached_reliable_in_round(&cache, merged_, rs, oracle, plan, evaluator);
    }
    return batch_tallies(batch_rounds);
}

result_accumulator round_journal::batch_tallies(
    std::size_t batch_rounds) const {
    // dirty_rounds_ is in round order, so each batch takes its dirty rounds
    // off the front.
    result_accumulator pass;
    const std::size_t rounds = round_group_.size();
    auto dirty = dirty_rounds_.begin();
    for (std::size_t begin = 0; begin < rounds; begin += batch_rounds) {
        const std::size_t end = std::min(rounds, begin + batch_rounds);
        std::size_t reliable = 0;
        for (std::size_t i = begin; i < end; ++i) {
            reliable += groups_[round_group_[i]].verdict ? 1 : 0;
        }
        for (; dirty != dirty_rounds_.end() && dirty->round < end; ++dirty) {
            reliable = reliable - (groups_[dirty->group].verdict ? 1 : 0) +
                       (dirty->verdict ? 1 : 0);
        }
        pass.merge(reliable, end - begin);
    }
    return pass;
}

}  // namespace recloud
