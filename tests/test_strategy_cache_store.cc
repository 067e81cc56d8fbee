/**
 * Crash-safe cache persistence: entry/snapshot codec round-trips, CRC
 * rejection, WAL replay with torn-tail and bit-flip corruption (the
 * recover-or-truncate contract), file-level truncation repair, the
 * background CachePersister's flush/snapshot/crash-stop semantics, and
 * the startup restoreServiceCache path.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "dvfs/strategy_io.h"
#include "serve/cache_store.h"
#include "serve/service.h"

namespace opdvfs::serve {
namespace {

/** Fresh empty scratch directory for one test. */
std::string
freshTempDir(const std::string &name)
{
    std::filesystem::path dir =
        std::filesystem::temp_directory_path() / name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir.string();
}

dvfs::Strategy
sampleStrategy(double low_mhz)
{
    dvfs::Strategy strategy;
    for (int s = 0; s < 4; ++s) {
        dvfs::Stage stage;
        stage.start = s * 10 * kTicksPerMs;
        stage.duration = 10 * kTicksPerMs;
        stage.high_frequency = s % 2 == 0;
        strategy.stages.push_back(stage);
        strategy.mhz_per_stage.push_back(s % 2 == 0 ? 1800.0 : low_mhz);
    }
    strategy.plan.initial_mhz = 1800.0;
    strategy.plan.triggers.push_back({8, low_mhz});
    strategy.plan.triggers.push_back({18, 1800.0});
    return strategy;
}

CacheEntry
sampleEntry(std::uint64_t digest, double low_mhz = 1300.0)
{
    CacheEntry entry;
    entry.fingerprint.digest = digest;
    entry.fingerprint.features = {0.25, 0.5, 0.125};
    entry.fingerprint.model_epoch = 3;
    entry.strategy = sampleStrategy(low_mhz);
    entry.ga.best_mhz = {1800.0, low_mhz, 1800.0, low_mhz};
    entry.ga.best_score = 0.75 + static_cast<double>(digest) / 1024.0;
    entry.perf_loss_target = 0.02;
    if (digest % 2 == 1)
        entry.kind = CacheEntry::Kind::Donor;
    return entry;
}

std::string
strategyText(const dvfs::Strategy &strategy)
{
    std::ostringstream os;
    dvfs::saveStrategy(strategy, os);
    return os.str();
}

TEST(CacheStoreCodec, EntryRoundTripIsLossless)
{
    CacheEntry original = sampleEntry(0xDEADBEEFCAFE0001ull);
    std::ostringstream os;
    encodeCacheEntry(original, os);
    std::istringstream is(os.str());
    CacheEntry loaded = decodeCacheEntry(is);

    EXPECT_EQ(loaded.fingerprint.digest, original.fingerprint.digest);
    EXPECT_EQ(loaded.fingerprint.model_epoch,
              original.fingerprint.model_epoch);
    EXPECT_EQ(loaded.fingerprint.features, original.fingerprint.features);
    EXPECT_DOUBLE_EQ(loaded.perf_loss_target, original.perf_loss_target);
    EXPECT_DOUBLE_EQ(loaded.ga.best_score, original.ga.best_score);
    EXPECT_EQ(loaded.ga.best_mhz, original.ga.best_mhz);
    EXPECT_EQ(loaded.kind, original.kind);
    EXPECT_EQ(strategyText(loaded.strategy),
              strategyText(original.strategy));
}

TEST(CacheStoreCodec, EncodeRejectsUnserviceableFields)
{
    CacheEntry entry = sampleEntry(1);
    entry.perf_loss_target = 0.0;
    std::ostringstream os;
    EXPECT_THROW(encodeCacheEntry(entry, os), std::invalid_argument);

    entry = sampleEntry(1);
    entry.ga.best_score = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(encodeCacheEntry(entry, os), std::invalid_argument);
}

TEST(CacheStoreCodec, DecodeRejectsCorruptEntryBlock)
{
    std::ostringstream os;
    encodeCacheEntry(sampleEntry(2), os);
    std::string text = os.str();
    // A non-finite score must never load.
    std::size_t at = text.find("score ");
    ASSERT_NE(at, std::string::npos);
    text.replace(at, text.find('\n', at) - at, "score nan");
    std::istringstream is(text);
    EXPECT_THROW(decodeCacheEntry(is), std::invalid_argument);
}

TEST(CacheStoreSnapshot, RoundTripPreservesEpochAndEntries)
{
    CacheSnapshot snapshot;
    snapshot.model_epoch = 7;
    snapshot.entries = {sampleEntry(1), sampleEntry(2, 1000.0),
                        sampleEntry(3)};
    CacheSnapshot loaded = decodeCacheSnapshot(encodeCacheSnapshot(snapshot));
    EXPECT_EQ(loaded.model_epoch, 7u);
    ASSERT_EQ(loaded.entries.size(), 3u);
    for (std::size_t at = 0; at < 3; ++at) {
        EXPECT_EQ(loaded.entries[at].fingerprint.digest,
                  snapshot.entries[at].fingerprint.digest);
        EXPECT_EQ(strategyText(loaded.entries[at].strategy),
                  strategyText(snapshot.entries[at].strategy));
    }
}

TEST(CacheStoreSnapshot, CrcCatchesASingleFlippedByte)
{
    CacheSnapshot snapshot;
    snapshot.model_epoch = 1;
    snapshot.entries = {sampleEntry(4)};
    std::string text = encodeCacheSnapshot(snapshot);
    // Flip one strategy byte mid-file: the footer CRC must catch it
    // even when every record still parses.
    std::string corrupt = text;
    std::size_t at = corrupt.find("1800");
    ASSERT_NE(at, std::string::npos);
    corrupt[at] = '1' + 1;
    EXPECT_THROW(decodeCacheSnapshot(corrupt), std::invalid_argument);
}

TEST(CacheStoreSnapshot, FileRoundTripAndCorruptFileIsAbsent)
{
    std::string dir = freshTempDir("opdvfs_cache_snapfile");
    std::string path = dir + "/cache.snap";

    EXPECT_FALSE(loadCacheSnapshotFile(path).has_value());

    CacheSnapshot snapshot;
    snapshot.model_epoch = 5;
    snapshot.entries = {sampleEntry(10), sampleEntry(11)};
    saveCacheSnapshotFile(snapshot, path);
    auto loaded = loadCacheSnapshotFile(path);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->model_epoch, 5u);
    EXPECT_EQ(loaded->entries.size(), 2u);

    // Corrupt the file in place: a bad snapshot is treated as absent,
    // never as a crash or a partial load.
    {
        std::fstream file(path,
                          std::ios::in | std::ios::out | std::ios::binary);
        file.seekp(40);
        file.put('\xFF');
    }
    EXPECT_FALSE(loadCacheSnapshotFile(path).has_value());
    std::filesystem::remove_all(dir);
}

TEST(CacheStoreWal, ReplayRecoversAppendOrder)
{
    std::string wal = encodeWalRecord(sampleEntry(21))
                      + encodeWalRecord(sampleEntry(22, 1000.0))
                      + encodeWalRecord(sampleEntry(23));
    WalReplay replay = replayWalBuffer(wal);
    EXPECT_FALSE(replay.truncated_tail);
    EXPECT_EQ(replay.valid_bytes, wal.size());
    ASSERT_EQ(replay.entries.size(), 3u);
    EXPECT_EQ(replay.entries[0].fingerprint.digest, 21u);
    EXPECT_EQ(replay.entries[1].fingerprint.digest, 22u);
    EXPECT_EQ(replay.entries[2].fingerprint.digest, 23u);
}

TEST(CacheStoreWal, TornTailKeepsTheValidPrefix)
{
    std::string first = encodeWalRecord(sampleEntry(31));
    std::string second = encodeWalRecord(sampleEntry(32));
    // A crash mid-append tears the last record at any byte boundary;
    // replay must keep the prefix and flag the tail, at every cut.
    for (std::size_t cut = 1; cut < second.size(); cut += 7) {
        std::string torn = first + second.substr(0, second.size() - cut);
        WalReplay replay = replayWalBuffer(torn);
        EXPECT_TRUE(replay.truncated_tail) << "cut " << cut;
        EXPECT_EQ(replay.valid_bytes, first.size()) << "cut " << cut;
        ASSERT_EQ(replay.entries.size(), 1u) << "cut " << cut;
        EXPECT_EQ(replay.entries[0].fingerprint.digest, 31u);
    }
}

TEST(CacheStoreWal, BitFlipEndsReplayAtTheFlippedRecord)
{
    std::string first = encodeWalRecord(sampleEntry(41));
    std::string second = encodeWalRecord(sampleEntry(42));
    std::string wal = first + second;
    // Flip one payload byte of the second record: its CRC fails, the
    // first record survives, nothing corrupt loads.
    std::string corrupt = wal;
    corrupt[first.size() + 12 + 5] ^= 0x20;
    WalReplay replay = replayWalBuffer(corrupt);
    EXPECT_TRUE(replay.truncated_tail);
    EXPECT_EQ(replay.valid_bytes, first.size());
    ASSERT_EQ(replay.entries.size(), 1u);
    EXPECT_EQ(replay.entries[0].fingerprint.digest, 41u);

    // Flip the magic of the *first* record: replay is empty but calm.
    corrupt = wal;
    corrupt[0] ^= 0x01;
    replay = replayWalBuffer(corrupt);
    EXPECT_TRUE(replay.truncated_tail);
    EXPECT_EQ(replay.valid_bytes, 0u);
    EXPECT_TRUE(replay.entries.empty());
}

TEST(CacheStoreWal, FileReplayTruncatesTheTornTailOnDisk)
{
    std::string dir = freshTempDir("opdvfs_cache_walfile");
    std::string path = dir + "/cache.wal";

    // Missing file replays empty.
    WalReplay replay = replayWalFile(path);
    EXPECT_TRUE(replay.entries.empty());
    EXPECT_FALSE(replay.truncated_tail);

    std::string first = encodeWalRecord(sampleEntry(51));
    std::string second = encodeWalRecord(sampleEntry(52));
    {
        std::ofstream file(path, std::ios::binary);
        file << first << second.substr(0, second.size() / 2);
    }
    replay = replayWalFile(path, /*truncate_torn_tail=*/true);
    EXPECT_TRUE(replay.truncated_tail);
    ASSERT_EQ(replay.entries.size(), 1u);
    EXPECT_EQ(std::filesystem::file_size(path), first.size());

    // The repaired file now extends cleanly: append a fresh record
    // and replay both without any truncation.
    {
        std::ofstream file(path, std::ios::binary | std::ios::app);
        file << second;
    }
    replay = replayWalFile(path);
    EXPECT_FALSE(replay.truncated_tail);
    ASSERT_EQ(replay.entries.size(), 2u);
    EXPECT_EQ(replay.entries[1].fingerprint.digest, 52u);
    std::filesystem::remove_all(dir);
}

TEST(CachePersister, FlushMakesInsertsDurableInTheWal)
{
    std::string dir = freshTempDir("opdvfs_cache_persister");
    CachePersister::Options options;
    options.snapshot_path = dir + "/cache.snap";
    options.wal_path = dir + "/cache.wal";
    options.snapshot_interval_seconds = 0.0; // explicit snapshots only

    CacheSnapshot image;
    image.model_epoch = 2;
    CachePersister persister(options, [&image] { return image; });

    persister.onInsert(sampleEntry(61));
    persister.onInsert(sampleEntry(62));
    persister.flush();
    CachePersister::Stats stats = persister.stats();
    EXPECT_EQ(stats.wal_appends, 2u);
    EXPECT_EQ(stats.wal_dropped, 0u);
    EXPECT_EQ(stats.queue_depth, 0u);

    WalReplay replay = replayWalFile(options.wal_path);
    ASSERT_EQ(replay.entries.size(), 2u);
    EXPECT_EQ(replay.entries[0].fingerprint.digest, 61u);

    // A snapshot captures the image and truncates the WAL: recovery
    // state stays "snapshot + WAL since snapshot", never both copies.
    image.entries = {sampleEntry(61), sampleEntry(62)};
    persister.writeSnapshotNow();
    EXPECT_GE(persister.stats().snapshots_written, 1u);
    EXPECT_EQ(std::filesystem::file_size(options.wal_path), 0u);
    auto snapshot = loadCacheSnapshotFile(options.snapshot_path);
    ASSERT_TRUE(snapshot.has_value());
    EXPECT_EQ(snapshot->entries.size(), 2u);

    // Crash-stop: post-snapshot inserts live in the WAL only.
    persister.onInsert(sampleEntry(63));
    persister.flush();
    persister.stop(/*write_final_snapshot=*/false);
    replay = replayWalFile(options.wal_path);
    ASSERT_EQ(replay.entries.size(), 1u);
    EXPECT_EQ(replay.entries[0].fingerprint.digest, 63u);
    EXPECT_EQ(loadCacheSnapshotFile(options.snapshot_path)->entries.size(),
              2u);
    std::filesystem::remove_all(dir);
}

TEST(CachePersister, GracefulStopWritesAFinalSnapshot)
{
    std::string dir = freshTempDir("opdvfs_cache_persister_stop");
    CachePersister::Options options;
    options.snapshot_path = dir + "/cache.snap";
    options.wal_path = dir + "/cache.wal";
    options.snapshot_interval_seconds = 0.0;

    CacheSnapshot image;
    image.model_epoch = 9;
    image.entries = {sampleEntry(71), sampleEntry(72), sampleEntry(73)};
    CachePersister persister(options, [&image] { return image; });
    persister.onInsert(sampleEntry(71));
    persister.stop(/*write_final_snapshot=*/true);

    // The SIGTERM path: queue drained, one final snapshot, empty WAL.
    auto snapshot = loadCacheSnapshotFile(options.snapshot_path);
    ASSERT_TRUE(snapshot.has_value());
    EXPECT_EQ(snapshot->model_epoch, 9u);
    EXPECT_EQ(snapshot->entries.size(), 3u);
    EXPECT_EQ(std::filesystem::file_size(options.wal_path), 0u);

    // stop() is idempotent; a late crash-stop cannot undo it.
    persister.stop(false);
    persister.stop(true);
    std::filesystem::remove_all(dir);
}

TEST(CacheStoreRestore, ServiceRehydratesSnapshotThenWal)
{
    std::string dir = freshTempDir("opdvfs_cache_restore");
    std::string snapshot_path = dir + "/cache.snap";
    std::string wal_path = dir + "/cache.wal";

    CacheSnapshot snapshot;
    snapshot.model_epoch = 4;
    snapshot.entries = {sampleEntry(81), sampleEntry(82, 1000.0)};
    saveCacheSnapshotFile(snapshot, snapshot_path);
    {
        // The WAL re-logs digest 82 with a different strategy: replay
        // order must make the logged (newer) value win.
        std::ofstream file(wal_path, std::ios::binary);
        file << encodeWalRecord(sampleEntry(82, 1500.0))
             << encodeWalRecord(sampleEntry(83));
    }

    ServiceOptions options;
    options.workers = 1;
    StrategyService service(options);
    RestoreReport report =
        restoreServiceCache(service, snapshot_path, wal_path);
    EXPECT_TRUE(report.snapshot_loaded);
    EXPECT_EQ(report.snapshot_entries, 2u);
    EXPECT_EQ(report.wal_entries, 2u);
    // Four insert operations: the logged copy of 82 overwrites the
    // snapshot's, leaving three distinct entries.
    EXPECT_EQ(report.restored, 4u);
    EXPECT_FALSE(report.wal_truncated);
    EXPECT_EQ(service.stats().restored_entries, 4u);
    // The restore may not regress the model epoch below the snapshot's.
    EXPECT_GE(service.modelEpoch(), 4u);

    std::vector<CacheEntry> entries = service.snapshotCache();
    ASSERT_EQ(entries.size(), 3u);
    bool saw_updated_82 = false;
    for (const CacheEntry &entry : entries)
        if (entry.fingerprint.digest == 82) {
            EXPECT_DOUBLE_EQ(entry.ga.best_mhz[1], 1500.0);
            saw_updated_82 = true;
        }
    EXPECT_TRUE(saw_updated_82);

    service.drain();
    std::filesystem::remove_all(dir);
}

TEST(CacheStoreRestore, MissingFilesRestoreNothingCalmly)
{
    std::string dir = freshTempDir("opdvfs_cache_restore_empty");
    ServiceOptions options;
    options.workers = 1;
    StrategyService service(options);
    RestoreReport report = restoreServiceCache(
        service, dir + "/none.snap", dir + "/none.wal");
    EXPECT_FALSE(report.snapshot_loaded);
    EXPECT_EQ(report.restored, 0u);
    service.drain();
    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace opdvfs::serve
