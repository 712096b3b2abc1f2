#include "exec/engine.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>

#include "batch_reference.hpp"
#include "exec/worker_context.hpp"
#include "routing/bfs_reachability.hpp"
#include "sampling/extended_dagger.hpp"
#include "topology/leaf_spine.hpp"

namespace recloud {
namespace {

// ---- wire format ----------------------------------------------------------

TEST(Wire, ApplicationRoundtrip) {
    const application app = application::microservice(2, 1, 1, 3);
    byte_writer w;
    wire::encode_application(w, app);
    byte_reader r{w.bytes()};
    const application decoded = wire::decode_application(r);
    ASSERT_EQ(decoded.components().size(), app.components().size());
    for (std::size_t i = 0; i < app.components().size(); ++i) {
        EXPECT_EQ(decoded.components()[i].name, app.components()[i].name);
        EXPECT_EQ(decoded.components()[i].replicas, app.components()[i].replicas);
    }
    ASSERT_EQ(decoded.requirements().size(), app.requirements().size());
    for (std::size_t i = 0; i < app.requirements().size(); ++i) {
        EXPECT_EQ(decoded.requirements()[i].target, app.requirements()[i].target);
        EXPECT_EQ(decoded.requirements()[i].source, app.requirements()[i].source);
        EXPECT_EQ(decoded.requirements()[i].min_reachable,
                  app.requirements()[i].min_reachable);
    }
}

TEST(Wire, PlanRoundtrip) {
    deployment_plan plan;
    plan.hosts = {3, 1, 4, 1000000};
    byte_writer w;
    wire::encode_plan(w, plan);
    byte_reader r{w.bytes()};
    EXPECT_EQ(wire::decode_plan(r), plan);
}

TEST(Wire, SetupRoundtrip) {
    const application app = application::k_of_n(2, 3);
    deployment_plan plan;
    plan.hosts = {3, 1, 4};
    byte_writer w;
    wire::encode_setup(w, app, plan, 0xfeedfacecafef00dULL, 7);
    byte_reader r{w.bytes()};
    const wire::assessment_setup setup = wire::decode_setup(r);
    EXPECT_EQ(setup.app.total_instances(), 3u);
    EXPECT_EQ(setup.plan, plan);
    EXPECT_EQ(setup.seed, 0xfeedfacecafef00dULL);
    EXPECT_EQ(setup.epoch, 7u);
}

TEST(Wire, BatchDescriptorRoundtrip) {
    byte_writer w;
    wire::encode_batch(w, {.batch = 4294967295u, .rounds = 1024});
    byte_reader r{w.bytes()};
    const wire::batch_descriptor batch = wire::decode_batch(r);
    EXPECT_EQ(batch.batch, 4294967295u);
    EXPECT_EQ(batch.rounds, 1024u);
}

TEST(Wire, BatchDescriptorRejectsOutOfRangeFields) {
    for (const wire::batch_descriptor bad :
         {wire::batch_descriptor{.batch = 1ULL << 32, .rounds = 1},
          wire::batch_descriptor{.batch = 0, .rounds = 0}}) {
        byte_writer w;
        wire::encode_batch(w, bad);
        byte_reader r{w.bytes()};
        EXPECT_THROW((void)wire::decode_batch(r), serialize_error);
    }
}

TEST(Wire, SamplerRoundtrip) {
    const sampler_description sampler{.kind = sampler_kind::monte_carlo,
                                      .probabilities = {0.0, 0.25, 1.0, 1e-4},
                                      .seed = 99};
    byte_writer w;
    encode_sampler(w, sampler);
    byte_reader r{w.bytes()};
    const sampler_description decoded = decode_sampler(r, 4);
    EXPECT_EQ(decoded.kind, sampler.kind);
    EXPECT_EQ(decoded.probabilities, sampler.probabilities);
    EXPECT_EQ(decoded.seed, 0u);  // the seed travels with each setup
    EXPECT_TRUE(r.at_end());
}

TEST(Wire, SamplerRejectsUnknownKinds) {
    // Kind 2 was the retired antithetic sampler; a stale peer naming it, or
    // any later kind, must fail to decode rather than map to a live one.
    for (const std::uint8_t kind : {std::uint8_t{2}, std::uint8_t{255}}) {
        byte_writer w;
        w.write_u8(kind);
        w.write_f64_vector(std::vector<double>{0.5});
        byte_reader r{w.bytes()};
        EXPECT_THROW((void)decode_sampler(r, 1), serialize_error);
    }
}

TEST(Wire, SamplerRejectsBadProbabilities) {
    const auto decodes = [](std::vector<double> probabilities,
                            std::size_t component_count) {
        byte_writer w;
        encode_sampler(w, {.kind = sampler_kind::monte_carlo,
                           .probabilities = std::move(probabilities)});
        byte_reader r{w.bytes()};
        (void)decode_sampler(r, component_count);
    };
    EXPECT_NO_THROW(decodes({0.5, 0.5}, 2));
    EXPECT_THROW(decodes({0.5, 0.5}, 3), serialize_error);
    EXPECT_THROW(decodes({0.5, 1.5}, 2), serialize_error);
    EXPECT_THROW(decodes({-0.0001, 0.5}, 2), serialize_error);
    EXPECT_THROW(decodes({0.5, std::nan("")}, 2), serialize_error);
    EXPECT_THROW(decodes({0.5, HUGE_VAL}, 2), serialize_error);
}

TEST(Wire, BatchResultRoundtrip) {
    byte_writer w;
    wire::encode_batch_result(w, {.rounds = 1000, .reliable = 993});
    byte_reader r{w.bytes()};
    const wire::batch_result result = wire::decode_batch_result(r);
    EXPECT_EQ(result.rounds, 1000u);
    EXPECT_EQ(result.reliable, 993u);
}

TEST(Wire, CorruptApplicationRejected) {
    byte_writer w;
    w.write_varint(1);        // one component
    w.write_string("c");
    w.write_varint(0);        // zero replicas -> add_component throws
    byte_reader r{w.bytes()};
    EXPECT_THROW((void)wire::decode_application(r), std::invalid_argument);
}

// ---- wire fuzzing ---------------------------------------------------------
// Every decoder must survive arbitrary corruption of its input: a truncated
// buffer is always rejected (every encoding is consumed in full, so any
// strict prefix leaves a read short), and a bit-flipped buffer either
// throws a typed error or decodes into SOME value — never crashes, loops,
// or allocates absurdly. End-to-end integrity is the frame layer's job
// (see test_serialize.cpp); these tests pin down the payload decoders.

/// Runs `decode`; only the typed rejection errors may escape — malformed
/// bytes (serialize_error) or a decoded value failing semantic validation
/// (std::invalid_argument / std::out_of_range).
template <typename Fn>
void expect_graceful(Fn&& decode) {
    try {
        decode();
    } catch (const serialize_error&) {
    } catch (const std::invalid_argument&) {
    } catch (const std::out_of_range&) {
    }
}

/// Like expect_graceful, but the decode must not succeed either.
template <typename Fn>
void expect_rejected(Fn&& decode, std::size_t at) {
    try {
        decode();
        ADD_FAILURE() << "decoder accepted a truncated buffer cut at byte "
                      << at;
    } catch (const serialize_error&) {
    } catch (const std::invalid_argument&) {
    } catch (const std::out_of_range&) {
    }
}

template <typename Fn>
void fuzz_decoder(const std::vector<std::byte>& valid, Fn&& decode) {
    // Truncations: every strict prefix must be rejected.
    for (std::size_t keep = 0; keep < valid.size(); ++keep) {
        const std::span<const std::byte> cut{valid.data(), keep};
        expect_rejected([&] { decode(cut); }, keep);
    }
    // Bit flips: every single-bit corruption must be handled gracefully.
    for (std::size_t i = 0; i < valid.size(); ++i) {
        for (int bit = 0; bit < 8; ++bit) {
            std::vector<std::byte> flipped = valid;
            flipped[i] ^= static_cast<std::byte>(1u << bit);
            expect_graceful([&] { decode(flipped); });
        }
    }
}

TEST(WireFuzz, ApplicationSurvivesCorruption) {
    byte_writer w;
    wire::encode_application(w, application::microservice(2, 1, 1, 3));
    fuzz_decoder(w.bytes(), [](std::span<const std::byte> bytes) {
        byte_reader r{bytes};
        (void)wire::decode_application(r);
    });
}

TEST(WireFuzz, PlanSurvivesCorruption) {
    deployment_plan plan;
    plan.hosts = {3, 1, 4, 159, 2653};
    byte_writer w;
    wire::encode_plan(w, plan);
    fuzz_decoder(w.bytes(), [](std::span<const std::byte> bytes) {
        byte_reader r{bytes};
        (void)wire::decode_plan(r);
    });
}

TEST(WireFuzz, SamplerSurvivesCorruption) {
    byte_writer w;
    encode_sampler(w, {.kind = sampler_kind::extended_dagger,
                       .probabilities = {0.01, 0.0, 0.5, 1.0}});
    fuzz_decoder(w.bytes(), [](std::span<const std::byte> bytes) {
        byte_reader r{bytes};
        (void)decode_sampler(r, 4);
    });
}

TEST(WireFuzz, SetupSurvivesCorruption) {
    deployment_plan plan;
    plan.hosts = {3, 1, 4};
    byte_writer w;
    wire::encode_setup(w, application::k_of_n(2, 3), plan, 404, 2);
    fuzz_decoder(w.bytes(), [](std::span<const std::byte> bytes) {
        byte_reader r{bytes};
        (void)wire::decode_setup(r);
    });
}

TEST(WireFuzz, BatchDescriptorSurvivesCorruption) {
    byte_writer w;
    wire::encode_batch(w, {.batch = 300, .rounds = 1024});
    fuzz_decoder(w.bytes(), [](std::span<const std::byte> bytes) {
        byte_reader r{bytes};
        (void)wire::decode_batch(r);
    });
}

TEST(WireFuzz, BatchResultSurvivesCorruption) {
    byte_writer w;
    wire::encode_batch_result(w, {.rounds = 100000, .reliable = 99321});
    fuzz_decoder(w.bytes(), [](std::span<const std::byte> bytes) {
        byte_reader r{bytes};
        (void)wire::decode_batch_result(r);
    });
}

// ---- engine ----------------------------------------------------------------

struct engine_fixture {
    built_topology topo = build_leaf_spine(
        {.spines = 2, .leaves = 4, .hosts_per_leaf = 4, .border_leaves = 1});
    component_registry registry{topo.graph};
    fault_tree_forest forest{topo.graph.node_count()};

    engine_fixture() {
        for (component_id id = 0; id < registry.size(); ++id) {
            if (registry.kind(id) != component_kind::external) {
                registry.set_probability(id, 0.03);
            }
        }
    }

    oracle_factory factory() {
        return [this] { return std::make_unique<bfs_reachability>(topo); };
    }
};

TEST(Engine, MatchesSerialAssessmentExactly) {
    // Same sampler seed and batch size => the engine must judge the serial
    // scheme's rounds (batch b of epoch 1 from fork(substream_id(1, b))) and
    // return the identical reliable count.
    engine_fixture f;
    const application app = application::k_of_n(2, 3);
    deployment_plan plan;
    plan.hosts = {f.topo.hosts[0], f.topo.hosts[5], f.topo.hosts[10]};

    extended_dagger_sampler serial_sampler{f.registry.probabilities(), 101};
    round_state rs{f.registry.size(), &f.forest};
    bfs_reachability oracle{f.topo};
    const assessment_stats serial = forked_batch_reference(
        serial_sampler, 1, rs, oracle, app, plan, 4000, 128);

    extended_dagger_sampler engine_sampler{f.registry.probabilities(), 101};
    assessment_engine engine{f.registry.size(), &f.forest, f.factory(),
                             engine_sampler,
                             {.workers = 3, .batch_rounds = 128}};
    const assessment_stats parallel = engine.assess(app, plan, 4000);

    EXPECT_EQ(parallel.rounds, serial.rounds);
    EXPECT_EQ(parallel.reliable, serial.reliable);
}

TEST(Engine, WorkerCountDoesNotChangeResults) {
    engine_fixture f;
    const application app = application::k_of_n(1, 2);
    deployment_plan plan;
    plan.hosts = {f.topo.hosts[1], f.topo.hosts[9]};

    std::vector<std::size_t> reliable_counts;
    for (const std::size_t workers : {1u, 2u, 4u}) {
        extended_dagger_sampler sampler{f.registry.probabilities(), 55};
        assessment_engine engine{f.registry.size(), &f.forest, f.factory(),
                                 sampler,
                                 {.workers = workers, .batch_rounds = 100}};
        reliable_counts.push_back(engine.assess(app, plan, 2000).reliable);
    }
    EXPECT_EQ(reliable_counts[0], reliable_counts[1]);
    EXPECT_EQ(reliable_counts[1], reliable_counts[2]);
}

TEST(Engine, BatchSizeSelectsTheForkedBatches) {
    // The batch size is part of the determinism contract: for every size
    // (one round per batch, a short last batch, one batch for everything)
    // the engine judges exactly the forked batches of that size.
    engine_fixture f;
    const application app = application::k_of_n(1, 2);
    deployment_plan plan;
    plan.hosts = {f.topo.hosts[2], f.topo.hosts[12]};

    round_state rs{f.registry.size(), &f.forest};
    bfs_reachability oracle{f.topo};
    for (const std::size_t batch : {1u, 7u, 500u, 10000u}) {
        SCOPED_TRACE("batch_rounds " + std::to_string(batch));
        extended_dagger_sampler sampler{f.registry.probabilities(), 77};
        assessment_engine engine{f.registry.size(), &f.forest, f.factory(),
                                 sampler, {.workers = 2, .batch_rounds = batch}};
        const assessment_stats stats = engine.assess(app, plan, 1500);
        EXPECT_EQ(engine.stats().batches, (1500 + batch - 1) / batch);
        const assessment_stats expected = forked_batch_reference(
            sampler, 1, rs, oracle, app, plan, 1500, batch);
        EXPECT_EQ(stats.rounds, expected.rounds);
        EXPECT_EQ(stats.reliable, expected.reliable);
    }
}

TEST(Engine, RejectsZeroBatchRounds) {
    engine_fixture f;
    extended_dagger_sampler sampler{f.registry.probabilities(), 3};
    EXPECT_THROW(assessment_engine(f.registry.size(), &f.forest, f.factory(),
                                   sampler, {.workers = 2, .batch_rounds = 0}),
                 std::invalid_argument);
}

TEST(Engine, HandlesRoundCountNotDivisibleByBatch) {
    engine_fixture f;
    const application app = application::k_of_n(1, 1);
    deployment_plan plan;
    plan.hosts = {f.topo.hosts[0]};
    extended_dagger_sampler sampler{f.registry.probabilities(), 3};
    assessment_engine engine{f.registry.size(), &f.forest, f.factory(), sampler,
                             {.workers = 2, .batch_rounds = 64}};
    const assessment_stats stats = engine.assess(app, plan, 1000);
    EXPECT_EQ(stats.rounds, 1000u);
}

TEST(Engine, ZeroRounds) {
    engine_fixture f;
    const application app = application::k_of_n(1, 1);
    deployment_plan plan;
    plan.hosts = {f.topo.hosts[0]};
    extended_dagger_sampler sampler{f.registry.probabilities(), 3};
    assessment_engine engine{f.registry.size(), &f.forest, f.factory(), sampler,
                             {.workers = 2, .batch_rounds = 64}};
    const assessment_stats stats = engine.assess(app, plan, 0);
    EXPECT_EQ(stats.rounds, 0u);
}

TEST(WorkerContext, RejectsSetupOneHostShort) {
    // A decoded plan is checked against its application: a plan one host
    // short would make the evaluator read past plan.hosts.
    engine_fixture f;
    const application app = application::k_of_n(2, 3);
    deployment_plan plan;
    plan.hosts = {f.topo.hosts[0], f.topo.hosts[5]};
    byte_writer w;
    wire::encode_setup(w, app, plan, 3, 1);
    const std::vector<std::byte> framed = frame_message(w.bytes());
    extended_dagger_sampler sampler{f.registry.probabilities(), 3};
    EXPECT_THROW(worker_context(framed, *sampler.description(),
                                f.registry.size(), &f.forest, f.factory(), {}),
                 serialize_error);
    plan.hosts.push_back(f.topo.hosts[10]);
    byte_writer whole;
    wire::encode_setup(whole, app, plan, 3, 1);
    EXPECT_NO_THROW(worker_context(frame_message(whole.bytes()),
                                   *sampler.description(), f.registry.size(),
                                   &f.forest, f.factory(), {}));
}

TEST(Engine, ReportsWorkerCount) {
    engine_fixture f;
    extended_dagger_sampler sampler{f.registry.probabilities(), 3};
    const assessment_engine engine{f.registry.size(), &f.forest, f.factory(),
                                   sampler, {.workers = 3, .batch_rounds = 10}};
    EXPECT_EQ(engine.workers(), 3u);
}

}  // namespace
}  // namespace recloud
