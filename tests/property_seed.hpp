// Seeds of the randomized property checks. Their assertions are exact
// equalities, so they must hold for every seed: RECLOUD_PROPERTY_SEED, when
// set, reseeds them (CI rotates it per run); unset, the fixed seeds the
// tests pass keep them reproducible.
#pragma once

#include <cstdint>
#include <cstdlib>

#include "util/rng.hpp"

namespace recloud {

/// The seed of one random check: `fixed`, or `fixed` mixed with
/// RECLOUD_PROPERTY_SEED when that is set.
inline std::uint64_t property_seed(std::uint64_t fixed) {
    const char* env = std::getenv("RECLOUD_PROPERTY_SEED");
    if (env == nullptr || env[0] == '\0') {
        return fixed;
    }
    std::uint64_t state = fixed ^ std::strtoull(env, nullptr, 0);
    return splitmix64_next(state);
}

}  // namespace recloud
