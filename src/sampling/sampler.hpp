// Failure-state sampling interface (paper §3.2, Table 1).
//
// A sampler streams rounds: each call to next_round() yields the set of
// components that are 'failed' in that round, drawn according to the
// per-component failure probabilities. Streaming a sparse failed-set —
// rather than materializing the dense C x X table of Table 1 — is what
// makes large data centers tractable: with per-component probabilities
// around 1%, a round touches ~1% of components.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "faults/component_registry.hpp"
#include "util/rng.hpp"
#include "util/serialize.hpp"

namespace recloud {

enum class sampler_kind : std::uint8_t {
    monte_carlo,      ///< §3.2.1 strawman (what INDaaS uses)
    extended_dagger,  ///< §3.2.2, the reCloud default
};

class failure_sampler;
struct dagger_table;

/// Everything a forkable sampler's stream is a pure function of: equal
/// descriptions yield the identical stream.
struct sampler_description {
    sampler_kind kind = sampler_kind::extended_dagger;
    std::vector<double> probabilities;  ///< per component, each in [0, 1]
    std::uint64_t seed = 0;             ///< the base seed
    /// The extended-dagger cycle table of `probabilities`, built once and
    /// shared read-only by every fork. Extended-dagger samplers and
    /// decode_sampler build it; a fork of a description without one builds
    /// its own. It is derived data: whoever edits `probabilities` of a
    /// description that has one must reset it.
    std::shared_ptr<const dagger_table> cycles = nullptr;

    /// The one definition of a substream: the same kind and probabilities
    /// seeded with substream_seed(seed, stream_id).
    [[nodiscard]] std::unique_ptr<failure_sampler> fork(
        std::uint64_t stream_id) const;
};

class failure_sampler {
public:
    virtual ~failure_sampler() = default;

    /// Clears `failed` and fills it with the ids of the components that are
    /// failed in the next round. Ids are unique but not necessarily sorted.
    virtual void next_round(std::vector<component_id>& failed) = 0;

    /// Restarts the stream with a new seed.
    virtual void reset(std::uint64_t seed) = 0;

    /// What this stream derives from (the base seed being the one given at
    /// construction or last reset), or nullptr for scripted replays and
    /// decorators. Only samplers with a description can fork.
    [[nodiscard]] virtual const sampler_description* description()
        const noexcept {
        return nullptr;
    }

    /// description()->fork(stream_id), or nullptr without a description.
    /// The substream never depends on how far this stream was consumed, so
    /// backends can assign batches to substreams by index.
    [[nodiscard]] std::unique_ptr<failure_sampler> fork(
        std::uint64_t stream_id) const {
        const sampler_description* self = description();
        return self != nullptr ? self->fork(stream_id) : nullptr;
    }

    [[nodiscard]] virtual const char* name() const noexcept = 0;
};

/// Base of the built-in samplers: each draws from rng(seed) by a fixed rule
/// over the probabilities, so its description is all a fork needs.
class forkable_sampler : public failure_sampler {
public:
    void reset(std::uint64_t seed) override {
        description_.seed = seed;
        random_ = rng{seed};
    }
    [[nodiscard]] const sampler_description* description()
        const noexcept final {
        return &description_;
    }

protected:
    /// Draws from rng(description.seed). The description owns its copy of
    /// the probabilities (the sampler outlives registry edits).
    explicit forkable_sampler(sampler_description description)
        : description_(std::move(description)), random_(description_.seed) {}

    sampler_description description_;
    rng random_;
};

/// Builds the sampler of `kind` (copies the probability vector).
[[nodiscard]] std::unique_ptr<failure_sampler> make_sampler(
    sampler_kind kind, std::span<const double> probabilities,
    std::uint64_t seed);

/// Writes a description's kind and probabilities. The base seed changes
/// with every stream reset, so it travels with each assessment instead.
void encode_sampler(byte_writer& out, const sampler_description& sampler);

/// Reads what encode_sampler wrote (seed 0), with its cycle table built.
/// Throws serialize_error on an unknown kind or unless there are
/// `component_count` probabilities, each finite and in [0, 1].
[[nodiscard]] sampler_description decode_sampler(byte_reader& in,
                                                 std::size_t component_count);

/// Derives the seed of substream `stream_id` from a base seed. Two splitmix64
/// steps keep nearby stream ids (0, 1, 2, ...) well decorrelated.
[[nodiscard]] constexpr std::uint64_t substream_seed(std::uint64_t base_seed,
                                                     std::uint64_t stream_id) noexcept {
    std::uint64_t state = base_seed ^ (0x9e3779b97f4a7c15ULL * (stream_id + 1));
    (void)splitmix64_next(state);
    return splitmix64_next(state);
}

}  // namespace recloud
