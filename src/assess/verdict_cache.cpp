#include "assess/verdict_cache.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace recloud {
namespace {

constexpr std::uint64_t fnv_offset = 1469598103934665603ULL;
constexpr std::uint64_t fnv_prime = 1099511628211ULL;

std::uint64_t fnv1a_append(std::uint64_t hash, std::uint64_t value) noexcept {
    for (int byte = 0; byte < 8; ++byte) {
        hash ^= (value >> (byte * 8)) & 0xffULL;
        hash *= fnv_prime;
    }
    return hash;
}

std::uint64_t hash_key(std::span<const component_id> key) noexcept {
    std::uint64_t hash = fnv_offset;
    for (const component_id id : key) {
        hash = fnv1a_append(hash, id);
    }
    return hash;
}

std::size_t power_of_two_at_least(std::size_t value) noexcept {
    std::size_t capacity = 1;
    while (capacity < value) {
        capacity <<= 1;
    }
    return capacity;
}

}  // namespace

/// Structural fingerprint of an application: rebinding with a different
/// object whose SHAPE is identical may keep the table (the verdict function
/// is the same), while any shape change must reset it.
std::uint64_t application_fingerprint(const application& app) noexcept {
    std::uint64_t hash = fnv_offset;
    for (const app_component& component : app.components()) {
        hash = fnv1a_append(hash, component.replicas);
    }
    for (const reachability_requirement& req : app.requirements()) {
        hash = fnv1a_append(hash, req.target);
        hash = fnv1a_append(hash, req.source ? *req.source + 1 : 0);
        hash = fnv1a_append(hash, req.min_reachable);
    }
    return hash;
}

verdict_support::verdict_support(const built_topology& topo,
                                 std::size_t component_count,
                                 const fault_tree_forest* forest,
                                 const link_attachment* links)
    : forest_(forest), member_(component_count, 0) {
    if (component_count < topo.graph.node_count()) {
        throw std::invalid_argument{
            "verdict_support: component_count smaller than the graph"};
    }
    const auto add = [this](component_id id) {
        if (member_[id] == 0) {
            member_[id] = 1;
            ++size_;
        }
    };
    // Routing nodes: every non-host (switches, external) can lie on a path;
    // hosts only relay when multi-homed (BCube/DCell server-centric
    // topologies). A degree-1 host is a pure leaf — its failure only
    // matters when an instance is placed on it, which bind() covers.
    for (node_id node = 0; node < topo.graph.node_count(); ++node) {
        if (topo.graph.kind(node) != node_kind::host ||
            topo.graph.degree(node) > 1) {
            add(node);
        }
    }
    if (links != nullptr) {
        for (const component_id link : links->component_of_edge) {
            if (link != invalid_node) {
                add(link);
            }
        }
    }
    if (forest_ != nullptr) {
        // Fault-tree dependencies of every member: a supply/software/...
        // failure flips a member's effective state, so it must stay in the
        // cache key. Leaves read RAW dependency state (round_state), so one
        // level suffices — deeper chains live inside the trees themselves.
        std::vector<component_id> members;
        members.reserve(size_);
        for (component_id id = 0; id < member_.size(); ++id) {
            if (member_[id] != 0) {
                members.push_back(id);
            }
        }
        for (const component_id id : members) {
            for (const component_id dep : forest_->dependencies_of(id)) {
                add(dep);
            }
        }
    }

    // Host attachment lists (host_attachment()): CSR over node ids. Only
    // hosts get entries — they are the only nodes a plan can place on.
    attach_begin_.assign(topo.graph.node_count() + 1, 0);
    std::vector<component_id> scratch;
    for (node_id node = 0; node < topo.graph.node_count(); ++node) {
        attach_begin_[node] = static_cast<std::uint32_t>(attach_pool_.size());
        if (topo.graph.kind(node) != node_kind::host) {
            continue;
        }
        scratch.clear();
        append_host_attachment(topo.graph, links, node, scratch);
        add_dependencies(forest_, scratch);
        attach_pool_.insert(attach_pool_.end(), scratch.begin(),
                            scratch.end());
    }
    attach_begin_[topo.graph.node_count()] =
        static_cast<std::uint32_t>(attach_pool_.size());
}

void swap_delta::add(component_id id, std::uint8_t kills) {
    if (level_[id] == 0) {
        list_.push_back(id);
    }
    level_[id] |= kills;
}

void swap_delta::compute(const verdict_support& support,
                         std::span<const node_id> from,
                         std::span<const node_id> to) {
    if (level_.empty()) {
        level_.assign(support.component_count(), 0);
    }
    for (const component_id id : list_) {
        level_[id] = 0;
    }
    list_.clear();
    const fault_tree_forest* forest = support.forest();
    constexpr std::uint8_t core = kills_clean | kills_semi;
    for (std::size_t i = 0; i < to.size(); ++i) {
        if (from[i] == to[i]) {
            continue;
        }
        for (const node_id host : {from[i], to[i]}) {
            add(host, core);
            if (forest != nullptr) {
                for (const component_id dep : forest->dependencies_of(host)) {
                    add(dep, core);
                }
            }
            for (const component_id id : support.host_attachment(host)) {
                add(id, kills_semi);
            }
        }
    }
}

verdict_cache::verdict_cache(const verdict_support& support,
                             std::size_t max_entries, bool cross_plan)
    : support_(&support),
      max_entries_(std::max<std::size_t>(max_entries, 1)),
      cross_plan_(cross_plan),
      mask_(power_of_two_at_least(2 * max_entries_) - 1),
      slots_(mask_ + 1),
      member_(support.membership().begin(), support.membership().end()),
      support_size_(support.static_size()) {}

void verdict_cache::reset_table() noexcept {
    ++epoch_;
    if (epoch_ == 0) {
        // uint32 generation wrapped: stale slots could alias the fresh
        // generation, so wipe them for real once per 2^32 resets.
        std::fill(slots_.begin(), slots_.end(), slot{});
        epoch_ = 1;
    }
    key_pool_.clear();
    live_slots_.clear();
    size_ = 0;
    dead_count_ = 0;
}

void verdict_cache::warm_rebind(const deployment_plan& plan) {
    delta_.compute(*support_, bound_hosts_, plan.hosts);

    // Retain clean/semi, delta-disjoint entries; tombstone the rest.
    // Tombstones keep probe chains intact and are reused by later
    // insertions; live + dead together never exceed max_entries_, so probes
    // stay bounded.
    std::size_t retained = 0;
    std::size_t write = 0;
    for (const std::uint32_t index : live_slots_) {
        slot& s = slots_[index];
        if (!delta_.meets({key_pool_.data() + s.key_begin, s.key_length},
                          class_of(s.flags))) {
            s.flags |= slot_retained;
            live_slots_[write++] = index;
            ++retained;
        } else {
            s.flags |= slot_dead;
            --size_;
            ++dead_count_;
        }
    }
    live_slots_.resize(write);
    stats_.retained_entries += retained;
    RECLOUD_COUNTER_ADD("cache.retained_entries", retained);
    if (size_ == 0) {
        // Nothing survived (e.g. an oracle that classifies no round as
        // clean): a generation bump beats probing through tombstones.
        reset_table();
    }
    // The empty-class verdict is a pure function of slot-host aliveness
    // only when the all-alive network is fully connected. (An empty key
    // cannot classify semi — attachment components are always in support.)
    if (empty_class_ != round_class::clean) {
        empty_valid_ = false;
    }
}

void verdict_cache::bind(const application& app, const deployment_plan& plan) {
    const std::uint64_t app_fingerprint = application_fingerprint(app);
    if (bound_ && bound_app_fingerprint_ == app_fingerprint &&
        bound_hosts_ == plan.hosts) {
        return;  // same binding: keep every entry warm
    }
    RECLOUD_SPAN("cache.rebind");
    RECLOUD_COUNTER_INC("cache.rebinds");
    ++stats_.rebinds;
    // Warm path requires the same application shape (fingerprint equality
    // implies equal host-list lengths) and a key arena below its soft
    // limit; anything else falls back to the epoch-wipe.
    if (cross_plan_ && bound_ && bound_app_fingerprint_ == app_fingerprint &&
        key_pool_.size() < key_pool_soft_limit()) {
        ++stats_.warm_rebinds;
        warm_rebind(plan);
    } else {
        ++stats_.cold_rebinds;
        reset_table();
        empty_valid_ = false;
    }
    bound_ = true;
    bound_app_fingerprint_ = app_fingerprint;
    bound_hosts_ = plan.hosts;
    pending_store_ = false;

    // Rebuild membership: static support + plan hosts + their fault-tree
    // dependencies.
    const std::span<const std::uint8_t> base = support_->membership();
    std::copy(base.begin(), base.end(), member_.begin());
    support_size_ = support_->static_size();
    bound_additions_.clear();
    const auto add = [this](component_id id) {
        if (member_[id] == 0) {
            member_[id] = 1;
            ++support_size_;
            bound_additions_.push_back(id);
        }
    };
    const fault_tree_forest* forest = support_->forest();
    for (const node_id host : plan.hosts) {
        add(host);
        if (forest != nullptr) {
            for (const component_id dep : forest->dependencies_of(host)) {
                add(dep);
            }
        }
    }
    stats_.support_size = support_size_;
}

std::size_t verdict_cache::probe(std::uint64_t hash,
                                 lookup_result* found) const {
    std::size_t index = static_cast<std::size_t>(hash) & mask_;
    std::size_t first_dead = static_cast<std::size_t>(-1);
    for (;;) {
        const slot& s = slots_[index];
        if (s.epoch != epoch_) {
            // Stale or never written: end of the probe chain, miss. Prefer
            // reusing the first tombstone passed on the way (keeps the
            // chain short and returns the slot to the live pool).
            return first_dead != static_cast<std::size_t>(-1) ? first_dead
                                                              : index;
        }
        if ((s.flags & slot_dead) != 0) {
            if (first_dead == static_cast<std::size_t>(-1)) {
                first_dead = index;
            }
        } else if (s.hash == hash && s.key_length == filtered_.size() &&
                   std::equal(filtered_.begin(), filtered_.end(),
                              key_pool_.begin() + s.key_begin)) {
            found->hit = true;
            found->verdict = s.verdict != 0;
            return index;
        }
        index = (index + 1) & mask_;
    }
}

verdict_cache::lookup_result verdict_cache::lookup(
    std::span<const component_id> failed) {
    if (!bound_) {
        throw std::logic_error{"verdict_cache: lookup before bind"};
    }
    ++stats_.rounds;
    filtered_.clear();
    for (const component_id id : failed) {
        if (member_[id] != 0) {
            filtered_.push_back(id);
        }
    }
    if (filtered_.empty()) {
        if (empty_valid_) {
            ++stats_.empty_hits;
            last_class_ = empty_class_;
            return {true, empty_verdict_};
        }
        ++stats_.misses;
        pending_empty_ = true;
        pending_store_ = true;
        return {};
    }
    std::sort(filtered_.begin(), filtered_.end());
    const std::uint64_t hash = hash_key(filtered_);
    lookup_result result;
    const std::size_t index = probe(hash, &result);
    if (result.hit) {
        ++stats_.hits;
        if ((slots_[index].flags & slot_retained) != 0) {
            ++stats_.cross_plan_hits;
        }
        last_class_ = class_of(slots_[index].flags);
        return result;
    }
    ++stats_.misses;
    pending_empty_ = false;
    pending_store_ = true;
    pending_hash_ = hash;
    pending_slot_ = index;
    return {};
}

void verdict_cache::store(bool verdict, round_class cls) {
    if (!pending_store_) {
        throw std::logic_error{"verdict_cache: store without a pending miss"};
    }
    pending_store_ = false;
    last_class_ = cls;
    if (pending_empty_) {
        empty_valid_ = true;
        empty_verdict_ = verdict;
        empty_class_ = cls;
        return;
    }
    if (size_ + dead_count_ >= max_entries_) {
        // Bounded memory: wipe wholesale (O(1) via the generation stamp) and
        // let the working set rebuild — plans are assessed for thousands of
        // rounds, so the refill cost amortizes away. Tombstones count too:
        // the live + dead total is what bounds probe-chain length.
        reset_table();
        ++stats_.evictions;
        lookup_result ignored;
        pending_slot_ = probe(pending_hash_, &ignored);
    }
    slot& s = slots_[pending_slot_];
    if (s.epoch == epoch_ && (s.flags & slot_dead) != 0) {
        --dead_count_;  // reviving a tombstone
    }
    live_slots_.push_back(static_cast<std::uint32_t>(pending_slot_));
    s.hash = pending_hash_;
    s.epoch = epoch_;
    s.key_begin = static_cast<std::uint32_t>(key_pool_.size());
    s.key_length = static_cast<std::uint32_t>(filtered_.size());
    s.verdict = verdict ? 1 : 0;
    s.flags = cls == round_class::clean  ? slot_clean
              : cls == round_class::semi ? slot_semi
                                         : 0;
    key_pool_.insert(key_pool_.end(), filtered_.begin(), filtered_.end());
    ++size_;
    ++stats_.insertions;
}

}  // namespace recloud
