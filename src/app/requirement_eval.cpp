#include "app/requirement_eval.hpp"

#include <algorithm>
#include <utility>

namespace recloud {

void attachment_closure(const reachability_oracle& oracle,
                        const fault_tree_forest* forest, node_id host,
                        std::vector<component_id>& out) {
    out.clear();
    out.push_back(host);
    oracle.append_attachment(host, out);
    add_dependencies(forest, out);
}

requirement_evaluator::requirement_evaluator(const application& app,
                                             const deployment_plan& plan)
    : app_(&app), plan_(&plan) {
    const auto components = app.components();
    offsets_.reserve(components.size());
    for (app_component_id c = 0; c < components.size(); ++c) {
        offsets_.push_back(static_cast<std::uint32_t>(component_of_.size()));
        component_of_.insert(component_of_.end(), components[c].replicas, c);
    }
    functional_.resize(component_of_.size(), 0);
    live_.resize(components.size(), 0);
    need_.resize(components.size(), 0);
    for (const reachability_requirement& req : app.requirements()) {
        has_internal_ = has_internal_ || req.source.has_value();
        need_[req.target] = std::max(need_[req.target], req.min_reachable);
        if (req.source) {
            need_[*req.source] = std::max(need_[*req.source], 1u);
        }
    }
}

bool requirement_evaluator::replicas_suffice() const {
    for (app_component_id c = 0; c < live_.size(); ++c) {
        if (live_[c] < need_[c]) {
            return false;
        }
    }
    return true;
}

bool requirement_evaluator::reliable_in_round(reachability_oracle& oracle,
                                              round_state& rs,
                                              round_class cls) {
    if (connected(cls)) {
        return reliable_connected(oracle, rs);
    }
    const auto components = app_->components();
    const auto requirements = app_->requirements();
    const auto host_of = [&](std::uint32_t flat_index) {
        return plan_->hosts[flat_index];
    };

    // Base functional state: the instance's host is effectively alive.
    std::fill(live_.begin(), live_.end(), 0);
    for (std::uint32_t i = 0; i < functional_.size(); ++i) {
        functional_[i] = rs.failed(host_of(i)) ? 0 : 1;
        live_[component_of_[i]] += functional_[i];
    }
    // The bound: every later step only strips instances, and the K checks
    // read a subset of what is functional, so the round is unreliable as
    // soon as a component holds fewer functional instances than it needs.
    // Each strip re-checks the one count it lowers.
    if (!replicas_suffice()) {
        return false;
    }
    const auto strip = [&](std::uint32_t i, app_component_id c) {
        functional_[i] = 0;
        return --live_[c] >= need_[c];
    };

    // External requirements refine exactly once: border reachability of a
    // host does not depend on other instances' functional state.
    for (const reachability_requirement& req : requirements) {
        if (req.source) {
            continue;
        }
        const std::uint32_t begin = offsets_[req.target];
        const std::uint32_t end = begin + components[req.target].replicas;
        for (std::uint32_t i = begin; i < end; ++i) {
            if (functional_[i] != 0 && !oracle.border_reachable(host_of(i)) &&
                !strip(i, req.target)) {
                return false;
            }
        }
    }

    // Internal requirements run to a greatest fixpoint: strip instances
    // unreachable from every functional source instance until stable.
    bool changed = true;
    while (changed) {
        changed = false;
        for (const reachability_requirement& req : requirements) {
            if (!req.source) {
                continue;
            }
            const std::uint32_t t_begin = offsets_[req.target];
            const std::uint32_t t_end = t_begin + components[req.target].replicas;
            const std::uint32_t s_begin = offsets_[*req.source];
            const std::uint32_t s_end = s_begin + components[*req.source].replicas;

            // Source-major iteration so oracles that cache per-source
            // floods (bfs_reachability) get cache hits: one pass per source
            // instance, marking every target instance it reaches.
            reached_.assign(t_end - t_begin, 0);
            for (std::uint32_t j = s_begin; j < s_end; ++j) {
                if (functional_[j] == 0) {
                    continue;
                }
                for (std::uint32_t i = t_begin; i < t_end; ++i) {
                    if (functional_[i] != 0 && reached_[i - t_begin] == 0 &&
                        oracle.host_to_host(host_of(j), host_of(i))) {
                        reached_[i - t_begin] = 1;
                    }
                }
            }
            for (std::uint32_t i = t_begin; i < t_end; ++i) {
                if (functional_[i] != 0 && reached_[i - t_begin] == 0) {
                    changed = true;
                    if (!strip(i, req.target)) {
                        return false;
                    }
                }
            }
        }
    }
    // Every count still meets its need, so every requirement's target keeps
    // >= K functional instances.
    return true;
}

void requirement_evaluator::index_closures(const reachability_oracle& oracle,
                                           const fault_tree_forest* forest) {
    index_links_ = oracle.consulted_links();
    index_forest_ = forest;
    const std::size_t slots = plan_->hosts.size();
    asked_.assign(slots, 0);
    round_stamp_ = 0;

    // Slot-major (component, slot) pairs first, then a counting sort into
    // the component-major CSR.
    std::vector<component_id> closure;
    std::vector<std::pair<component_id, std::uint32_t>> pairs;
    component_id max_id = 0;
    for (std::uint32_t slot = 0; slot < slots; ++slot) {
        attachment_closure(oracle, forest, plan_->hosts[slot], closure);
        for (const component_id id : closure) {
            pairs.emplace_back(id, slot);
            max_id = std::max(max_id, id);
        }
    }
    detach_begin_.assign(static_cast<std::size_t>(max_id) + 2, 0);
    for (const auto& [id, slot] : pairs) {
        ++detach_begin_[id];
    }
    std::uint32_t total = 0;
    for (std::uint32_t& begin : detach_begin_) {
        total += begin;
        begin = total;  // one past the end of the id's run, for now
    }
    detach_slots_.resize(total);
    for (const auto& [id, slot] : pairs) {
        detach_slots_[--detach_begin_[id]] = slot;  // leaves the run's start
    }
}

bool requirement_evaluator::reliable_connected(reachability_oracle& oracle,
                                               const round_state& rs) {
    const auto components = app_->components();

    // In a connected round an instance reaches another on a distinct host
    // iff both are attached, and attachment is border reachability. So an
    // instance is functional iff it is attached, unless a requirement on
    // its component has a source with no attached instance: that strips
    // the whole target, whose K check then fails (K >= 1). The greatest
    // fixpoint therefore holds iff every target keeps K attached instances
    // and every source has one: iff every component meets its need_.
    //
    // Only an instance whose attachment closure holds a raw-failed
    // component can be detached, so the oracle is asked about those alone,
    // each once.
    for (app_component_id c = 0; c < live_.size(); ++c) {
        live_[c] = components[c].replicas;
    }
    const std::span<const component_id> failed = rs.raw_failed_list();
    if (!failed.empty()) {
        if (detach_begin_.empty() ||
            index_links_ != oracle.consulted_links() ||
            index_forest_ != rs.forest()) {
            index_closures(oracle, rs.forest());
        }
        if (++round_stamp_ == 0) {
            // uint32 wrap-around: a stamp from 2^32 rounds ago would alias.
            std::fill(asked_.begin(), asked_.end(), 0);
            round_stamp_ = 1;
        }
        const std::size_t indexed = detach_begin_.size() - 1;
        for (const component_id id : failed) {
            if (id >= indexed) {
                continue;  // in no closure
            }
            for (std::uint32_t i = detach_begin_[id];
                 i < detach_begin_[id + 1]; ++i) {
                const std::uint32_t slot = detach_slots_[i];
                if (asked_[slot] == round_stamp_) {
                    continue;
                }
                asked_[slot] = round_stamp_;
                if (!oracle.border_reachable(plan_->hosts[slot])) {
                    --live_[component_of_[slot]];
                }
            }
        }
    }
    return replicas_suffice();
}

}  // namespace recloud
