#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <set>
#include <vector>

#include "assess/backend.hpp"
#include "stream_hash.hpp"

namespace recloud {
namespace {

TEST(Rng, SameSeedSameStream) {
    rng a{123};
    rng b{123};
    for (int i = 0; i < 1000; ++i) {
        EXPECT_EQ(a(), b());
    }
}

TEST(Rng, DifferentSeedsDiffer) {
    rng a{1};
    rng b{2};
    int equal = 0;
    for (int i = 0; i < 100; ++i) {
        if (a() == b()) {
            ++equal;
        }
    }
    EXPECT_LT(equal, 2);
}

TEST(Rng, ZeroSeedIsUsable) {
    rng r{0};
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 100; ++i) {
        seen.insert(r());
    }
    EXPECT_GT(seen.size(), 95u);  // not stuck on a fixed point
}

TEST(Rng, UniformInUnitInterval) {
    rng r{7};
    for (int i = 0; i < 100000; ++i) {
        const double u = r.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
    }
}

TEST(Rng, UniformMeanNearHalf) {
    rng r{11};
    double sum = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i) {
        sum += r.uniform();
    }
    EXPECT_NEAR(sum / n, 0.5, 0.005);
}

TEST(Rng, UniformRangeRespectsBounds) {
    rng r{13};
    for (int i = 0; i < 10000; ++i) {
        const double u = r.uniform(-3.0, 5.0);
        ASSERT_GE(u, -3.0);
        ASSERT_LT(u, 5.0);
    }
}

TEST(Rng, UniformBelowStaysBelow) {
    rng r{17};
    for (std::uint64_t n : {1ULL, 2ULL, 7ULL, 100ULL, 1'000'000ULL}) {
        for (int i = 0; i < 1000; ++i) {
            ASSERT_LT(r.uniform_below(n), n);
        }
    }
}

TEST(Rng, UniformBelowCoversAllValues) {
    rng r{19};
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        seen.insert(r.uniform_below(8));
    }
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, UniformBelowIsUnbiased) {
    rng r{23};
    std::vector<int> counts(5, 0);
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        ++counts[r.uniform_below(5)];
    }
    for (const int c : counts) {
        EXPECT_NEAR(static_cast<double>(c) / n, 0.2, 0.01);
    }
}

TEST(Rng, NormalMomentsMatch) {
    rng r{29};
    const int n = 200000;
    double sum = 0.0;
    double sum_sq = 0.0;
    for (int i = 0; i < n; ++i) {
        const double x = r.normal();
        sum += x;
        sum_sq += x * x;
    }
    const double mean = sum / n;
    const double variance = sum_sq / n - mean * mean;
    EXPECT_NEAR(mean, 0.0, 0.01);
    EXPECT_NEAR(variance, 1.0, 0.02);
}

TEST(Rng, NormalWithParameters) {
    rng r{31};
    const int n = 100000;
    double sum = 0.0;
    for (int i = 0; i < n; ++i) {
        sum += r.normal(0.01, 0.001);
    }
    EXPECT_NEAR(sum / n, 0.01, 0.0001);
}

TEST(Rng, ForkDecorrelatesStreams) {
    rng parent{37};
    rng child = parent.fork();
    int equal = 0;
    for (int i = 0; i < 100; ++i) {
        if (parent() == child()) {
            ++equal;
        }
    }
    EXPECT_LT(equal, 2);
}

/// Hash of the first draws of `r`: raw outputs, the bits of uniform()
/// and uniform_below() (normal() is left out: its libm calls may round
/// differently on another platform).
std::uint64_t hash_draws(rng& r) {
    stream_hash h;
    for (int i = 0; i < 1000; ++i) {
        h.add(r());
        h.add(std::bit_cast<std::uint64_t>(r.uniform()));
        h.add(r.uniform_below(1000 + static_cast<std::uint64_t>(i)));
    }
    return h.value;
}

TEST(Rng, StreamIsPinned) {
    // Every sampled bit of the system derives from this stream; a change
    // to it changes every pinned statistic downstream.
    rng base{12345};
    EXPECT_EQ(hash_draws(base), 0xbe7b0e240bdb6568ULL);
    rng substream{substream_seed(12345, substream_id(1, 3))};
    EXPECT_EQ(hash_draws(substream), 0x3ec9f8458ff1f429ULL);
    rng child = base.fork();
    EXPECT_EQ(hash_draws(child), 0xf8a791ff514b34e7ULL);
}

TEST(Rng, SplitmixIsDeterministic) {
    std::uint64_t s1 = 42;
    std::uint64_t s2 = 42;
    EXPECT_EQ(splitmix64_next(s1), splitmix64_next(s2));
    EXPECT_EQ(s1, s2);
}

}  // namespace
}  // namespace recloud
