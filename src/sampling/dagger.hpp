// Dagger sampling primitives (paper §3.2.2, Figures 3-4; Kumamoto et al.).
//
// For a component with failure probability p, let s = floor(1/p). The unit
// interval splits into s subintervals of length p plus a remainder. ONE
// uniform draw r decides the component's failure states for s consecutive
// rounds (a "dagger cycle"): if r lands in the i-th subinterval the
// component fails exactly in round i of the cycle, otherwise it is alive
// throughout. The expected failure ratio remains exactly p, and the
// induced negative correlation within a cycle is the source of dagger
// sampling's variance reduction.
#pragma once

#include <cstdint>
#include <optional>

namespace recloud {

/// Longest dagger cycle, in rounds. A component with p < 1/max_cycle_rounds
/// gets a cycle of this many subintervals of length p and a larger
/// remainder: each round still fails with probability p, and no cycle (nor
/// extended-dagger block) outgrows this bound however rare the component.
inline constexpr std::uint32_t max_cycle_rounds = std::uint32_t{1} << 16;

/// Cycle parameters for one component.
struct dagger_plan {
    double probability = 0.0;
    /// s = min(floor(1/p), max_cycle_rounds); 0 means "never fails".
    std::uint32_t cycle_length = 0;

    /// The round within the cycle at which uniform draw r fails the
    /// component, floor(r/p), or cycle_length when r fell into the
    /// remainder (alive all cycle). Requires cycle_length > 0.
    [[nodiscard]] std::uint32_t slot_of(double r) const noexcept {
        // r in the i-th subinterval [i*p, (i+1)*p)  <=>  floor(r/p) == i < s;
        // comparing before the cast keeps a huge r/p from overflowing it.
        const double slot = r / probability;
        return slot < cycle_length ? static_cast<std::uint32_t>(slot)
                                   : cycle_length;
    }
};

/// Computes s = floor(1/p), capped at max_cycle_rounds. p == 0 yields
/// cycle_length 0 ("never fails"); p >= 1 yields cycle_length 1 (fails
/// every round).
[[nodiscard]] dagger_plan make_dagger_plan(double p) noexcept;

/// Maps one uniform draw r in [0,1) to the failing round within a cycle:
/// returns the slot index in [0, s) if r fell into a subinterval, or
/// nullopt if it fell into the remainder (alive for the whole cycle).
[[nodiscard]] inline std::optional<std::uint32_t> dagger_slot(
    const dagger_plan& plan, double r) noexcept {
    if (plan.cycle_length == 0) {
        return std::nullopt;
    }
    const std::uint32_t slot = plan.slot_of(r);
    if (slot < plan.cycle_length) {
        return slot;
    }
    return std::nullopt;
}

}  // namespace recloud
