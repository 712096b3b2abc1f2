// CRN round journal (DESIGN.md §11): under common random numbers every
// candidate plan is assessed on the same failure stream, so one full pass
// over a batch of a freshly-reset stream can stand in for sampling it again.
//
// A recording pass stores, per round, the support-filtered signature
// (deduplicated into groups with multiplicities, each group with its
// verdict and round class) and an inverted index from each raw component
// that fell OUTSIDE the support of the recording plan to the rounds it
// failed in. A replay for another plan of the same application shape then
// skips sampling entirely, and its work scales with the swap delta:
//   * dirty rounds: the new binding's support additions (plan hosts + deps
//     — the only ids whose support membership can differ) probe the residue
//     index, so finding the rounds whose signature the new plan sees
//     differently costs O(|swap delta|); each is judged individually with
//     its entered residue merged into the key;
//   * group verdicts: the journal remembers the plan its group verdicts are
//     valid for and keeps every verdict the swap delta from that plan
//     cannot change (the verdict cache's retention rule, swap_delta).
//     Through an index from component to groups only the unclean groups
//     and the groups whose key meets the delta are judged again; the
//     batch's tally is then read off the rounds' group verdicts.
// Every verdict still flows through cached_reliable_in_round, so replayed
// stats are bit-identical to the full pass by the same support-filtering
// invariant the verdict cache itself rests on.
//
// One journal describes one batch. The batched backend keeps one per batch
// id (assess/backend.hpp); whichever worker claims the batch records or
// replays it through its own verdict cache.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "app/deployment.hpp"
#include "assess/assessor.hpp"
#include "assess/verdict_cache.hpp"
#include "core/run_budget.hpp"

namespace recloud {

/// Which batch a journal holds, beside the batch id its owner files it
/// under: the reset seed, the assessment epoch since that reset, the
/// batch's rounds, and the application shape (application_fingerprint)
/// whose support filtered the signatures.
struct journal_key {
    std::uint64_t seed = 0;
    std::uint64_t epoch = 0;
    std::uint64_t rounds = 0;
    std::uint64_t app = 0;

    friend bool operator==(const journal_key&, const journal_key&) = default;
};

class round_journal {
public:
    /// The one protocol of the journal, called with `judge.cache` already
    /// bound to (app, plan) and `key` naming the batch about to be judged.
    /// When a COMPLETE pass recorded under `key` is held and at most a
    /// quarter of its rounds turn dirty under `judge.plan`, judges the
    /// journal instead of the stream and returns the batch's reliable rounds
    /// — bit-identical to a full pass. Otherwise starts recording under
    /// `key` and returns nullopt: the caller samples the batch, calls
    /// record() after judging each round and finish() after the last one.
    /// A pass abandoned midway (preemption) stays invalid and is never
    /// replayed. `budget` (nullable) is polled once before a replay touches
    /// anything and every budget_poll_stride groups it judges again; a
    /// preempt among those leaves the pass valid but its group verdicts
    /// stale, so the next replay judges every group.
    [[nodiscard]] std::optional<std::size_t> replay_or_begin(
        const journal_key& key, const round_judge& judge,
        const run_budget* budget);

    /// Records the pass's next round right after the seam judged `failed`
    /// (the raw sampled set) through `cache` as `verdict`: last_key() and
    /// last_class() then describe that lookup — valid on hits, misses and
    /// the empty fast path.
    void record(std::span<const component_id> failed, bool verdict,
                const verdict_cache& cache);

    /// Marks the pass begun by replay_or_begin() complete and indexes its
    /// off-support residue by component (`cache` is the one record() saw).
    void finish(const verdict_cache& cache);

private:
    struct group {
        std::uint32_t key_begin = 0;
        std::uint32_t key_length = 0;
        bool verdict = false;  ///< under verdict_plan_
        /// The weakest class any of its rounds was judged with.
        round_class cls = round_class::clean;
    };
    struct dirty_round {
        std::uint32_t group = 0;
        std::uint32_t begin = 0;
        std::uint32_t length = 0;
        bool verdict = false;  ///< its own, once pass 3 judged it
    };

    void begin(const journal_key& key, const deployment_plan& plan);
    /// The replayed pass's reliable rounds, or nullopt (nothing judged) when
    /// churn exceeds a quarter of the rounds.
    [[nodiscard]] std::optional<std::size_t> replay(const round_judge& judge,
                                                    const run_budget* budget);
    /// The replayed pass's reliable rounds, from the kept group verdicts and
    /// the dirty rounds' own.
    [[nodiscard]] std::size_t reliable_rounds() const;
    /// First replay of a pass: builds the component -> groups index and the
    /// unclean list, and drops the cache entries the pass stored.
    void index_groups(verdict_cache& cache);
    /// Fills rejudge_ with the groups whose verdict `plan` may change.
    void select_rejudge(const verdict_support& support,
                        const deployment_plan& plan);
    [[nodiscard]] std::span<const component_id> key_of(
        const group& g) const noexcept {
        return {keys_.data() + g.key_begin, g.key_length};
    }

    bool valid_ = false;
    journal_key key_;
    std::vector<component_id> keys_;          ///< group-key arena
    std::vector<group> groups_;
    std::vector<std::uint32_t> round_group_;  ///< per round
    /// Off-support (component, round) occurrences while recording;
    /// finish() turns them into the CSR residue index below.
    std::vector<std::pair<component_id, std::uint32_t>> residue_;
    std::vector<std::uint32_t> residue_begin_;  ///< CSR offsets by id
    std::vector<std::uint32_t> residue_rounds_;
    std::unordered_map<std::uint64_t, std::vector<std::uint32_t>>
        index_;  ///< key hash -> candidate group ids (exact-checked)

    // Kept verdicts: the plan they are valid for, and whether a preempted
    // replay left them half moved to another plan.
    std::vector<node_id> verdict_plan_;
    bool verdicts_stale_ = false;

    // Built by index_groups() once per pass.
    bool indexed_ = false;
    std::vector<std::uint32_t> component_begin_;  ///< CSR offsets by id
    std::vector<std::uint32_t> component_groups_;
    std::vector<std::uint32_t> unclean_groups_;

    // Replay scratch.
    swap_delta delta_;
    std::vector<std::uint32_t> rejudge_;
    std::vector<std::pair<std::uint32_t, component_id>> dirty_pairs_;
    std::vector<dirty_round> dirty_rounds_;
    std::vector<component_id> dirty_pool_;
    std::vector<component_id> merged_;
};

}  // namespace recloud
