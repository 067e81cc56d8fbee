/**
 * CRC-32 (IEEE 802.3): the standard check value, agreement with a
 * bitwise, table-free reference at every short length and start
 * alignment, streaming equivalence, and the checksums of persisted
 * artefacts.  Strategy files, snapshots, WAL records and wire frames
 * all carry this CRC, so any implementation must reproduce it bit for
 * bit; the pinned values were taken from the byte-at-a-time table
 * implementation.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>

#include "common/crc32.h"
#include "dvfs/strategy_io.h"
#include "models/transformer.h"
#include "net/wire.h"
#include "serve/cache_store.h"

namespace opdvfs {
namespace {

/** One bit at a time, straight from the reflected polynomial. */
std::uint32_t
bitwiseCrc32(std::string_view bytes)
{
    std::uint32_t crc = 0xFFFFFFFFu;
    for (unsigned char byte : bytes) {
        crc ^= byte;
        for (int bit = 0; bit < 8; ++bit)
            crc = (crc >> 1) ^ (0xEDB88320u & (0u - (crc & 1u)));
    }
    return crc ^ 0xFFFFFFFFu;
}

/** A deterministic byte pattern covering every byte value. */
std::string
patternBytes(std::size_t size)
{
    std::string bytes(size, '\0');
    std::uint32_t state = 2463534242u;
    for (char &byte : bytes) {
        state ^= state << 13;
        state ^= state >> 17;
        state ^= state << 5;
        byte = static_cast<char>(state >> 24);
    }
    return bytes;
}

dvfs::Strategy
pinnedStrategy()
{
    dvfs::Strategy strategy;
    for (int s = 0; s < 4; ++s) {
        dvfs::Stage stage;
        stage.start = s * 10 * kTicksPerMs;
        stage.duration = 10 * kTicksPerMs;
        stage.high_frequency = s % 2 == 0;
        strategy.stages.push_back(stage);
        strategy.mhz_per_stage.push_back(s % 2 == 0 ? 1800.0 : 1300.0);
    }
    strategy.plan.initial_mhz = 1800.0;
    strategy.plan.triggers.push_back({8, 1300.0});
    strategy.plan.triggers.push_back({18, 1800.0});
    dvfs::StrategyMeta meta;
    meta.score = 3.25e-16;
    meta.pre_refine_score = 3.1e-16;
    meta.converged_at = 37;
    meta.generations = 60;
    meta.provenance = "cold";
    meta.fingerprint = 0xdeadbeefcafe1234ULL;
    strategy.meta = meta;
    return strategy;
}

TEST(Crc32, StandardCheckValue)
{
    EXPECT_EQ(crc32("123456789"), 0xCBF43926u);
    EXPECT_EQ(crc32(""), 0u);
}

TEST(Crc32, MatchesABitwiseReferenceAtEveryLengthAndAlignment)
{
    const std::string bytes = patternBytes(300 + 8);
    const std::string_view view(bytes);
    for (std::size_t offset = 0; offset < 8; ++offset)
        for (std::size_t length = 0; length <= 300; ++length)
            ASSERT_EQ(crc32(view.substr(offset, length)),
                      bitwiseCrc32(view.substr(offset, length)))
                << "offset " << offset << " length " << length;
}

TEST(Crc32, StreamingSplitAtEveryOffsetEqualsOneShot)
{
    const std::string bytes = patternBytes(300);
    const std::string_view view(bytes);
    const std::uint32_t whole = crc32(view);
    for (std::size_t split = 0; split <= view.size(); ++split) {
        Crc32 crc;
        crc.update(view.substr(0, split));
        crc.update(view.substr(split));
        ASSERT_EQ(crc.value(), whole) << "split at " << split;
    }
    Crc32 bytewise;
    for (char byte : view)
        bytewise.update(std::string_view(&byte, 1));
    EXPECT_EQ(bytewise.value(), whole);
}

TEST(Crc32, PersistedArtefactsKeepTheirChecksums)
{
    std::ostringstream strategy_file;
    dvfs::saveStrategy(pinnedStrategy(), strategy_file);
    EXPECT_EQ(strategy_file.str().size(), 329u);
    EXPECT_EQ(crc32(strategy_file.str()), 0x23f36695u);

    serve::CacheEntry entry;
    entry.fingerprint.digest = 0xDEADBEEFCAFE0001ull;
    entry.fingerprint.features = {0.25, 0.5, 0.125};
    entry.fingerprint.model_epoch = 3;
    entry.strategy = pinnedStrategy();
    entry.ga.best_mhz = {1800.0, 1300.0, 1800.0, 1300.0};
    entry.ga.best_score = 0.75;
    entry.perf_loss_target = 0.02;
    std::string wal_record = serve::encodeWalRecord(entry);
    EXPECT_EQ(wal_record.size(), 485u);
    EXPECT_EQ(crc32(wal_record), 0xa97d6999u);

    npu::NpuConfig chip;
    npu::MemorySystem memory(chip.memory);
    models::TransformerConfig model;
    model.name = "crc-pin";
    model.layers = 2;
    model.hidden = 1024;
    model.heads = 8;
    model.seq = 300;
    net::WireRequest request;
    request.workload = models::buildTransformerTraining(memory, model, 5);
    request.perf_loss_target = 0.02;
    request.seed = 7;
    std::string frame = net::frameRequest(request);
    EXPECT_EQ(frame.size(), 12796u);
    EXPECT_EQ(crc32(frame), 0xed0f1ae6u);
}

} // namespace
} // namespace opdvfs
