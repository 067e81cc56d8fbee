/**
 * LRU strategy cache: exact hits, LRU eviction with recency refresh,
 * overwrite semantics, similarity search, and concurrent access.
 */

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "serve/strategy_cache.h"

namespace opdvfs::serve {
namespace {

CacheEntry
entryWith(std::uint64_t digest, double feature, double mhz = 1500.0)
{
    CacheEntry entry;
    entry.fingerprint.digest = digest;
    entry.fingerprint.features = {feature, 0.5};
    entry.ga.best_mhz = {mhz, mhz};
    entry.ga.best_score = static_cast<double>(digest);
    entry.perf_loss_target = 0.02;
    return entry;
}

TEST(StrategyCache, ExactHitReturnsTheStoredEntry)
{
    StrategyCache cache({.capacity = 8});
    cache.insert(entryWith(101, 0.1, 1300.0));
    auto hit = cache.findExact(101);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->fingerprint.digest, 101u);
    EXPECT_EQ(hit->ga.best_mhz, (std::vector<double>{1300.0, 1300.0}));
    EXPECT_FALSE(cache.findExact(999).has_value());
}

TEST(StrategyCache, InsertOverwritesSameDigest)
{
    StrategyCache cache({.capacity = 8});
    cache.insert(entryWith(7, 0.1, 1300.0));
    cache.insert(entryWith(7, 0.1, 1700.0));
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_DOUBLE_EQ(cache.findExact(7)->ga.best_mhz[0], 1700.0);
}

TEST(StrategyCache, EvictsLeastRecentlyUsed)
{
    StrategyCache cache({.capacity = 3});
    cache.insert(entryWith(1, 0.1));
    cache.insert(entryWith(2, 0.2));
    cache.insert(entryWith(3, 0.3));
    // Touch 1 so 2 becomes the LRU victim.
    EXPECT_TRUE(cache.findExact(1).has_value());
    cache.insert(entryWith(4, 0.4));
    EXPECT_EQ(cache.size(), 3u);
    EXPECT_TRUE(cache.findExact(1).has_value());
    EXPECT_FALSE(cache.findExact(2).has_value());
    EXPECT_TRUE(cache.findExact(3).has_value());
    EXPECT_TRUE(cache.findExact(4).has_value());
}

TEST(StrategyCache, FindSimilarPicksTheClosestAboveThreshold)
{
    StrategyCache cache({.capacity = 16});
    cache.insert(entryWith(1, 0.10));
    cache.insert(entryWith(2, 0.12));
    cache.insert(entryWith(3, 0.90));

    Fingerprint probe;
    probe.digest = 999;
    probe.features = {0.11, 0.5};
    auto hit = cache.findSimilar(probe, 0.5);
    ASSERT_TRUE(hit.has_value());
    // 0.12 is closer to 0.11 than 0.10? No: |0.12-0.11| = 0.01 =
    // |0.10-0.11|; exp symmetric, the tie resolves to the first found
    // with strictly-greater comparison — accept either near entry.
    EXPECT_TRUE(hit->entry.fingerprint.digest == 1u
                || hit->entry.fingerprint.digest == 2u);
    EXPECT_GT(hit->similarity, 0.9);

    // A tight threshold rejects everything but a near-identical probe.
    Fingerprint far_probe;
    far_probe.features = {0.5, 0.5};
    EXPECT_FALSE(cache.findSimilar(far_probe, 0.9).has_value());
}

TEST(StrategyCache, FindSimilarGatesOnTheLossTarget)
{
    StrategyCache cache({.capacity = 16});
    CacheEntry tight = entryWith(1, 0.10);
    tight.perf_loss_target = 0.02;
    CacheEntry loose = entryWith(2, 0.10);
    loose.perf_loss_target = 0.05;
    cache.insert(tight);
    cache.insert(loose);

    Fingerprint probe;
    probe.features = {0.10, 0.5};

    // A 2% probe must never seed from the 5% donor: identical
    // features, but the strategy optimises a different trade-off.
    auto hit = cache.findSimilar(probe, 0.5, 0.02);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->entry.fingerprint.digest, 1u);

    auto loose_hit = cache.findSimilar(probe, 0.5, 0.05);
    ASSERT_TRUE(loose_hit.has_value());
    EXPECT_EQ(loose_hit->entry.fingerprint.digest, 2u);

    // Within the tolerance (default 0.005) still matches.
    auto near_hit = cache.findSimilar(probe, 0.5, 0.024);
    ASSERT_TRUE(near_hit.has_value());
    EXPECT_EQ(near_hit->entry.fingerprint.digest, 1u);

    // A target between both envelopes but outside tolerance of either
    // finds nothing, however similar the features.
    EXPECT_FALSE(cache.findSimilar(probe, 0.5, 0.035).has_value());

    // No loss target = legacy behaviour: the gate is bypassed.
    EXPECT_TRUE(cache.findSimilar(probe, 0.5).has_value());
}

TEST(StrategyCache, ScanCountersTrackSimilarityEffort)
{
    StrategyCache cache({.capacity = 16});
    ScanCounters before = cache.scanCounters();
    EXPECT_EQ(before.similar_lookups, 0u);
    EXPECT_EQ(before.similar_scanned, 0u);
    EXPECT_EQ(before.similar_pruned, 0u);

    // Three far donors inserted first, one near-perfect donor last:
    // the MRU-first scan visits the near donor first, so every far
    // row is abandoned on its first feature by the incumbent bound.
    auto wide = [](std::uint64_t digest, double value) {
        CacheEntry entry;
        entry.fingerprint.digest = digest;
        entry.fingerprint.features.assign(8, value);
        entry.ga.best_mhz = {1500.0, 1500.0};
        entry.perf_loss_target = 0.02;
        return entry;
    };
    cache.insert(wide(1, 0.90));
    cache.insert(wide(2, 0.95));
    cache.insert(wide(3, 0.85));
    cache.insert(wide(4, 0.1001));

    Fingerprint probe;
    probe.digest = 999;
    probe.features.assign(8, 0.1);
    auto hit = cache.findSimilar(probe, 0.5);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->entry.fingerprint.digest, 4u);

    ScanCounters after = cache.scanCounters();
    EXPECT_EQ(after.similar_lookups, 1u);
    EXPECT_EQ(after.similar_scanned, 4u);
    EXPECT_EQ(after.similar_pruned, 3u);

    // A miss never primes the bound, so nothing is pruned — but every
    // visited entry is still counted.
    Fingerprint far;
    far.features.assign(8, -5.0);
    EXPECT_FALSE(cache.findSimilar(far, 0.9999).has_value());
    ScanCounters missed = cache.scanCounters();
    EXPECT_EQ(missed.similar_lookups, 2u);
    EXPECT_EQ(missed.similar_scanned, 8u);
    EXPECT_EQ(missed.similar_pruned, 3u);
}

TEST(StrategyCache, ZeroCapacityRejected)
{
    EXPECT_THROW(StrategyCache({.capacity = 0}),
                 std::invalid_argument);
}

TEST(StrategyCache, ConcurrentInsertAndLookupKeepsInvariants)
{
    StrategyCache cache({.capacity = 64});
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&cache, t] {
            for (int i = 0; i < 200; ++i) {
                auto digest =
                    static_cast<std::uint64_t>(t * 1000 + (i % 40));
                cache.insert(entryWith(digest, 0.1 * t));
                cache.findExact(digest);
                Fingerprint probe;
                probe.features = {0.1 * t, 0.5};
                cache.findSimilar(probe, 0.99);
            }
        });
    }
    for (auto &thread : threads)
        thread.join();
    EXPECT_LE(cache.size(), 64u);
    EXPECT_GT(cache.size(), 0u);
}

} // namespace
} // namespace opdvfs::serve
