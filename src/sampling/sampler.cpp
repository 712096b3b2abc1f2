#include "sampling/sampler.hpp"

#include <cmath>

#include "sampling/extended_dagger.hpp"
#include "sampling/monte_carlo.hpp"

namespace recloud {

std::unique_ptr<failure_sampler> sampler_description::fork(
    std::uint64_t stream_id) const {
    return make_sampler(kind, probabilities, substream_seed(seed, stream_id));
}

std::unique_ptr<failure_sampler> make_sampler(sampler_kind kind,
                                              std::span<const double> probabilities,
                                              std::uint64_t seed) {
    switch (kind) {
        case sampler_kind::monte_carlo:
            return std::make_unique<monte_carlo_sampler>(probabilities, seed);
        case sampler_kind::extended_dagger:
            break;
    }
    return std::make_unique<extended_dagger_sampler>(probabilities, seed);
}

void encode_sampler(byte_writer& out, const sampler_description& sampler) {
    out.write_u8(static_cast<std::uint8_t>(sampler.kind));
    out.write_f64_vector(sampler.probabilities);
}

sampler_description decode_sampler(byte_reader& in,
                                   std::size_t component_count) {
    sampler_description sampler;
    const std::uint8_t kind = in.read_u8();
    if (kind > static_cast<std::uint8_t>(sampler_kind::extended_dagger)) {
        throw serialize_error{"sampler: unknown kind"};
    }
    sampler.kind = static_cast<sampler_kind>(kind);
    sampler.probabilities = in.read_f64_vector();
    if (sampler.probabilities.size() != component_count) {
        throw serialize_error{"sampler: probability count != component count"};
    }
    for (const double p : sampler.probabilities) {
        if (!std::isfinite(p) || p < 0.0 || p > 1.0) {
            throw serialize_error{"sampler: probability outside [0, 1]"};
        }
    }
    return sampler;
}

}  // namespace recloud
