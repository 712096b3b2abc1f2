#include "assess/round_journal.hpp"

#include <algorithm>

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

std::optional<assessment_stats> round_journal::replay_or_begin(
    const journal_key& key, verdict_cache& cache, round_state& rs,
    reachability_oracle& oracle, const deployment_plan& plan,
    requirement_evaluator& evaluator, const run_budget* budget) {
    if (valid_ && key == key_) {
        if (std::optional<assessment_stats> replayed =
                replay(cache, rs, oracle, plan, evaluator, budget)) {
            return replayed;
        }
    }
    begin(key);
    return std::nullopt;
}

void round_journal::begin(const journal_key& key) {
    valid_ = false;
    key_ = key;
    keys_.clear();
    groups_.clear();
    round_group_.clear();
    round_group_.reserve(key.rounds);
    residue_index_.clear();
    index_.clear();
}

void round_journal::record(std::uint32_t round,
                           std::span<const component_id> failed,
                           const verdict_cache& cache) {
    // Group the round by its support-filtered signature.
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
        keys_.insert(keys_.end(), key.begin(), key.end());
        groups_.push_back(g);
        bucket.push_back(id);
    }
    ++groups_[id].multiplicity;
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

std::optional<assessment_stats> round_journal::replay(
    verdict_cache& cache, round_state& rs, reachability_oracle& oracle,
    const deployment_plan& plan, requirement_evaluator& evaluator,
    const run_budget* budget) {
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
    dirty_per_group_.assign(groups_.size(), 0);
    dirty_rounds_.clear();
    dirty_pool_.clear();
    for (std::size_t i = 0; i < dirty_pairs_.size();) {
        const std::uint32_t round = dirty_pairs_[i].first;
        const auto begin = static_cast<std::uint32_t>(dirty_pool_.size());
        for (; i < dirty_pairs_.size() && dirty_pairs_[i].first == round; ++i) {
            dirty_pool_.push_back(dirty_pairs_[i].second);
        }
        const std::uint32_t g = round_group_[round];
        ++dirty_per_group_[g];
        dirty_rounds_.push_back(
            {g, begin, static_cast<std::uint32_t>(dirty_pool_.size()) - begin});
    }
    if (dirty_rounds_.size() > churn_limit) {
        return std::nullopt;
    }
    RECLOUD_COUNTER_INC("assess.journal_replays");

    // Pass 2: judge once per group for the clean multiplicity, then each
    // dirty round individually with its residue merged into the group key
    // (the seam's lookup filters and sorts, so plain concatenation is
    // enough; components the new support dropped are filtered there too).
    result_accumulator results;
    for (std::size_t g = 0; g < groups_.size(); ++g) {
        if (g % budget_poll_stride == 0) {
            throw_if_preempted(budget);
        }
        const group& entry = groups_[g];
        const std::uint32_t clean = entry.multiplicity - dirty_per_group_[g];
        if (clean == 0) {
            continue;
        }
        const std::span<const component_id> key{keys_.data() + entry.key_begin,
                                                entry.key_length};
        const bool verdict =
            cached_reliable_in_round(&cache, key, rs, oracle, plan, evaluator);
        results.merge(verdict ? clean : 0, clean);
    }
    for (const dirty_round& dirty : dirty_rounds_) {
        const group& entry = groups_[dirty.group];
        const auto key = keys_.begin() + entry.key_begin;
        merged_.assign(key, key + entry.key_length);
        const auto residue = dirty_pool_.begin() + dirty.begin;
        merged_.insert(merged_.end(), residue, residue + dirty.length);
        results.add(
            cached_reliable_in_round(&cache, merged_, rs, oracle, plan, evaluator));
    }
    return results.stats();
}

}  // namespace recloud
