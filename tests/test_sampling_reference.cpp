// Extended dagger sampling against a textbook generator on random
// probability vectors. The reference follows §3.2.2 literally: per block,
// for each component and each of its cycles, one dagger_slot(uniform())
// draw; then every kept failure sorted by (round, id). The sampler must
// emit the same rounds bit for bit, through reset, fork and a description's
// encode/decode round trip. Seeds come from property_seed(), so a rotating
// RECLOUD_PROPERTY_SEED draws new vectors.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "assess/backend.hpp"
#include "property_seed.hpp"
#include "sampling/dagger.hpp"
#include "sampling/extended_dagger.hpp"
#include "util/rng.hpp"
#include "util/serialize.hpp"

namespace recloud {
namespace {

/// The textbook extended dagger generator on rng(seed).
class reference_dagger {
public:
    reference_dagger(const std::vector<double>& probabilities, std::uint64_t seed)
        : random_(seed) {
        for (const double p : probabilities) {
            plans_.push_back(make_dagger_plan(p));
            block_ = std::max(block_, plans_.back().cycle_length);
        }
        cursor_ = block_;  // the first call generates
    }

    /// The failed ids of the next round, ascending.
    std::vector<component_id> next_round() {
        if (cursor_ == block_) {
            generate_block();
        }
        std::vector<component_id> failed;
        for (; next_ < failures_.size() && failures_[next_].first == cursor_;
             ++next_) {
            failed.push_back(failures_[next_].second);
        }
        ++cursor_;
        return failed;
    }

private:
    void generate_block() {
        failures_.clear();
        for (component_id id = 0; id < plans_.size(); ++id) {
            const dagger_plan& plan = plans_[id];
            if (plan.cycle_length == 0) {
                continue;
            }
            for (std::uint32_t start = 0; start < block_;
                 start += plan.cycle_length) {
                const auto slot = dagger_slot(plan, random_.uniform());
                if (slot && start + *slot < block_) {
                    failures_.emplace_back(start + *slot, id);
                }
            }
        }
        std::sort(failures_.begin(), failures_.end());
        cursor_ = 0;
        next_ = 0;
    }

    rng random_;
    std::vector<dagger_plan> plans_;
    std::uint32_t block_ = 1;
    std::uint32_t cursor_ = 0;
    std::vector<std::pair<std::uint32_t, component_id>> failures_;
    std::size_t next_ = 0;
};

/// A random probability vector: never-failing, always-failing, in
/// (0.5, 1), duplicates of earlier entries, and log-uniform in
/// [1e-3, 0.05]. Three vectors in four have 1 to 5000 components and blocks
/// of at most 1000 rounds. The fourth has at most 64 components, one of
/// them rare enough for a block longer than 10^4 rounds or, half the time,
/// rarer than 1/max_cycle_rounds, which caps the block.
std::vector<double> random_probabilities(rng& pick) {
    const bool long_block = pick.uniform() < 0.25;
    const double most = long_block ? 64.0 : 5000.0;
    const auto size =
        static_cast<std::size_t>(std::exp(pick.uniform(0.0, std::log(most))));
    std::vector<double> probs;
    for (std::size_t i = 0; i < size; ++i) {
        const double kind = pick.uniform();
        if (kind < 0.05) {
            probs.push_back(0.0);
        } else if (kind < 0.08) {
            probs.push_back(1.0);
        } else if (kind < 0.12) {
            probs.push_back(pick.uniform(0.5, 1.0));
        } else if (kind < 0.25 && !probs.empty()) {
            probs.push_back(probs[pick.uniform_below(probs.size())]);
        } else {
            probs.push_back(std::exp(pick.uniform(std::log(1e-3), std::log(0.05))));
        }
    }
    if (long_block) {
        probs[pick.uniform_below(probs.size())] = pick.uniform() < 0.5
                                                      ? pick.uniform(1e-9, 1e-5)
                                                      : pick.uniform(1.6e-5, 9e-5);
    }
    return probs;
}

/// Rounds to compare: past the second block boundary, but at most 3 * 10^4
/// beyond the first block, so each vector's check stays short.
std::size_t rounds_to_compare(const failure_sampler& sampler) {
    const std::size_t block =
        dynamic_cast<const extended_dagger_sampler&>(sampler).block_length();
    return block + std::min<std::size_t>(block + 7, 30'000);
}

void expect_same_rounds(failure_sampler& sampler, reference_dagger& reference,
                        std::size_t rounds) {
    std::vector<component_id> failed;
    for (std::size_t r = 0; r < rounds; ++r) {
        sampler.next_round(failed);
        ASSERT_EQ(failed, reference.next_round()) << "round " << r;
    }
}

constexpr int k_vectors = 16;

TEST(ExtendedDaggerReference, FreshStreamMatches) {
    rng pick{property_seed(4111)};
    for (int v = 0; v < k_vectors; ++v) {
        const std::vector<double> probs = random_probabilities(pick);
        const std::uint64_t seed = pick();
        SCOPED_TRACE(::testing::Message() << "vector " << v << ", "
                                          << probs.size() << " components");
        extended_dagger_sampler sampler{probs, seed};
        reference_dagger reference{probs, seed};
        expect_same_rounds(sampler, reference, rounds_to_compare(sampler));
    }
}

TEST(ExtendedDaggerReference, ResetMatchesAFreshStream) {
    rng pick{property_seed(4127)};
    for (int v = 0; v < k_vectors; ++v) {
        const std::vector<double> probs = random_probabilities(pick);
        SCOPED_TRACE(::testing::Message() << "vector " << v);
        extended_dagger_sampler sampler{probs, pick()};
        std::vector<component_id> failed;
        for (std::uint64_t r = pick.uniform_below(3 * sampler.block_length());
             r > 0; --r) {
            sampler.next_round(failed);
        }
        const std::uint64_t seed = pick();
        sampler.reset(seed);
        reference_dagger reference{probs, seed};
        expect_same_rounds(sampler, reference, rounds_to_compare(sampler));
    }
}

TEST(ExtendedDaggerReference, ForkMatchesItsSubstreamSeed) {
    rng pick{property_seed(4133)};
    for (int v = 0; v < k_vectors; ++v) {
        const std::vector<double> probs = random_probabilities(pick);
        SCOPED_TRACE(::testing::Message() << "vector " << v);
        const std::uint64_t seed = pick();
        const extended_dagger_sampler parent{probs, seed};
        const std::uint64_t id =
            substream_id(pick.uniform_below(4), pick.uniform_below(64));
        const auto forked = parent.fork(id);
        reference_dagger reference{probs, substream_seed(seed, id)};
        expect_same_rounds(*forked, reference, rounds_to_compare(*forked));
    }
}

TEST(ExtendedDaggerReference, DecodedDescriptionForksMatch) {
    rng pick{property_seed(4139)};
    for (int v = 0; v < k_vectors; ++v) {
        const std::vector<double> probs = random_probabilities(pick);
        SCOPED_TRACE(::testing::Message() << "vector " << v);
        const extended_dagger_sampler original{probs, 0};
        byte_writer out;
        encode_sampler(out, *original.description());
        byte_reader in{out.bytes()};
        sampler_description decoded = decode_sampler(in, probs.size());
        decoded.seed = pick();
        // Two forks share the decoded description's table; each must still
        // be its own stream.
        for (std::uint64_t batch = 0; batch < 2; ++batch) {
            const std::uint64_t id = substream_id(1, batch);
            const auto forked = decoded.fork(id);
            reference_dagger reference{probs, substream_seed(decoded.seed, id)};
            expect_same_rounds(*forked, reference, rounds_to_compare(*forked));
        }
    }
}

}  // namespace
}  // namespace recloud
