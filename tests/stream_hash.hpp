// A 64-bit FNV-1a fold over words, for pinning generated streams: a test
// hashes what a generator emits and compares the hash with a constant, so a
// change to any emitted bit (or to their order) fails it.
#pragma once

#include <cstdint>
#include <vector>

#include "faults/component_registry.hpp"
#include "sampling/sampler.hpp"

namespace recloud {

struct stream_hash {
    std::uint64_t value = 0xcbf29ce484222325ULL;

    void add(std::uint64_t word) noexcept {
        value = (value ^ word) * 0x100000001b3ULL;
    }
};

/// Hash of the next `rounds` rounds of `sampler`: each round's size, then
/// its ids in the order emitted.
inline std::uint64_t hash_rounds(failure_sampler& sampler, std::size_t rounds) {
    stream_hash h;
    std::vector<component_id> failed;
    for (std::size_t r = 0; r < rounds; ++r) {
        sampler.next_round(failed);
        h.add(failed.size());
        for (const component_id id : failed) {
            h.add(id);
        }
    }
    return h.value;
}

}  // namespace recloud
