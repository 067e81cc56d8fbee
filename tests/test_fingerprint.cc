/**
 * Workload fingerprinting: equal content hashes equal (independently
 * of object identity — no pointer/address leakage), every
 * strategy-relevant perturbation changes the digest, the similarity
 * metric orders near-misses sensibly, and the digests of three fixed
 * requests are pinned: snapshots, WALs and shard routing key on them,
 * so they must not move between builds.
 */

#include <gtest/gtest.h>

#include "models/model_zoo.h"
#include "models/transformer.h"
#include "serve/fingerprint.h"

namespace opdvfs::serve {
namespace {

models::Workload
smallTransformer(std::uint64_t seed, int seq = 256)
{
    npu::NpuConfig chip;
    npu::MemorySystem memory(chip.memory);
    models::TransformerConfig model;
    model.name = "fp-test";
    model.layers = 2;
    model.hidden = 1024;
    model.heads = 8;
    model.seq = seq;
    return models::buildTransformerTraining(memory, model, seed);
}

TEST(Fingerprint, EqualWorkloadsHashEqual)
{
    // Two independently built (separately allocated) copies of the
    // same workload: any pointer or container-address leakage into
    // the hash would separate them.
    models::Workload a = smallTransformer(11);
    models::Workload b = smallTransformer(11);
    npu::NpuConfig chip;
    Fingerprint fa = fingerprintRequest(a, chip, 0.02, 1);
    Fingerprint fb = fingerprintRequest(b, chip, 0.02, 1);
    EXPECT_EQ(fa.digest, fb.digest);
    EXPECT_EQ(fa.features, fb.features);
    EXPECT_DOUBLE_EQ(fingerprintSimilarity(fa, fb), 1.0);
}

TEST(Fingerprint, StableWithinProcessAcrossCalls)
{
    models::Workload w = smallTransformer(3);
    npu::NpuConfig chip;
    std::uint64_t first = fingerprintRequest(w, chip, 0.02, 9).digest;
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(fingerprintRequest(w, chip, 0.02, 9).digest, first);
}

TEST(Fingerprint, WorkloadNameDoesNotChangeIdentity)
{
    models::Workload a = smallTransformer(11);
    models::Workload b = smallTransformer(11);
    b.name = "renamed";
    npu::NpuConfig chip;
    EXPECT_EQ(fingerprintRequest(a, chip, 0.02, 1).digest,
              fingerprintRequest(b, chip, 0.02, 1).digest);
}

TEST(Fingerprint, OpShapePerturbationChangesDigest)
{
    models::Workload a = smallTransformer(11);
    npu::NpuConfig chip;
    std::uint64_t base = fingerprintRequest(a, chip, 0.02, 1).digest;

    models::Workload b = smallTransformer(11);
    b.iteration[b.iteration.size() / 2].hw.core_cycles += 1.0;
    EXPECT_NE(fingerprintRequest(b, chip, 0.02, 1).digest, base);

    models::Workload c = smallTransformer(11);
    c.iteration[0].hw.ld_volume_bytes *= 1.001;
    EXPECT_NE(fingerprintRequest(c, chip, 0.02, 1).digest, base);

    models::Workload d = smallTransformer(11);
    d.iteration[0].type += "X";
    EXPECT_NE(fingerprintRequest(d, chip, 0.02, 1).digest, base);
}

TEST(Fingerprint, FreqTableAndChipPerturbationsChangeDigest)
{
    models::Workload w = smallTransformer(11);
    npu::NpuConfig chip;
    std::uint64_t base = fingerprintRequest(w, chip, 0.02, 1).digest;

    npu::NpuConfig other_table = chip;
    other_table.freq.step_mhz = 50.0;
    EXPECT_NE(fingerprintRequest(w, other_table, 0.02, 1).digest, base);

    npu::NpuConfig other_mem = chip;
    other_mem.memory.hbm_bandwidth *= 1.1;
    EXPECT_NE(fingerprintRequest(w, other_mem, 0.02, 1).digest, base);

    npu::NpuConfig other_latency = chip;
    other_latency.set_freq_latency *= 2;
    EXPECT_NE(fingerprintRequest(w, other_latency, 0.02, 1).digest, base);
}

TEST(Fingerprint, TargetAndSeedChangeDigestButNotFeatures)
{
    models::Workload w = smallTransformer(11);
    npu::NpuConfig chip;
    Fingerprint base = fingerprintRequest(w, chip, 0.02, 1);

    Fingerprint other_target = fingerprintRequest(w, chip, 0.05, 1);
    EXPECT_NE(other_target.digest, base.digest);
    // The loss target is a similarity feature too (a 2% strategy is a
    // poor donor for a 10% request).
    EXPECT_NE(other_target.features, base.features);

    Fingerprint other_seed = fingerprintRequest(w, chip, 0.02, 2);
    EXPECT_NE(other_seed.digest, base.digest);
    EXPECT_EQ(other_seed.features, base.features);
    EXPECT_DOUBLE_EQ(fingerprintSimilarity(base, other_seed), 1.0);
}

TEST(Fingerprint, SimilarityOrdersNearMissesAboveStrangers)
{
    npu::NpuConfig chip;
    npu::MemorySystem memory(chip.memory);
    Fingerprint base =
        fingerprintRequest(smallTransformer(11, 256), chip, 0.02, 1);
    Fingerprint near =
        fingerprintRequest(smallTransformer(11, 288), chip, 0.02, 1);
    Fingerprint stranger = fingerprintRequest(
        models::buildWorkload("ResNet50", memory, 1), chip, 0.02, 1);

    double near_sim = fingerprintSimilarity(base, near);
    double far_sim = fingerprintSimilarity(base, stranger);
    EXPECT_GT(near_sim, far_sim);
    EXPECT_GT(near_sim, 0.85);
    EXPECT_LT(far_sim, 0.5);
    // Symmetry.
    EXPECT_DOUBLE_EQ(near_sim, fingerprintSimilarity(near, base));
}

TEST(Fingerprint, DigestsArePinnedAcrossBuilds)
{
    npu::NpuConfig chip;
    npu::MemorySystem memory(chip.memory);

    // A serve-mix hot-set transformer.
    models::TransformerConfig model;
    model.name = "mix-1024-500";
    model.layers = 2;
    model.hidden = 1024;
    model.heads = 8;
    model.seq = 500;
    models::Workload transformer =
        models::buildTransformerTraining(memory, model, 5);
    EXPECT_EQ(fingerprintRequest(transformer, chip, 0.02, 654321).digest,
              0x68fb873f6e3eff77ULL);

    EXPECT_EQ(fingerprintRequest(models::buildWorkload("ResNet50", memory, 1),
                                 chip, 0.02, 1)
                  .digest,
              0x117e9f6fbbf65d9aULL);

    // -0.0 in op fields and a chip field hashes as +0.0.
    model.hidden = 768;
    model.seq = 300;
    models::Workload positive =
        models::buildTransformerTraining(memory, model, 5);
    models::Workload negative = positive;
    for (ops::Op &op : negative.iteration) {
        if (op.hw.comm_bytes == 0.0)
            op.hw.comm_bytes = -0.0;
        if (op.hw.fixed_seconds == 0.0)
            op.hw.fixed_seconds = -0.0;
    }
    npu::NpuConfig positive_chip = chip;
    positive_chip.thermal.ambient_celsius = 0.0;
    npu::NpuConfig negative_chip = chip;
    negative_chip.thermal.ambient_celsius = -0.0;
    std::uint64_t signed_zero =
        fingerprintRequest(negative, negative_chip, 0.05, 9).digest;
    EXPECT_EQ(signed_zero, 0xb77d7a4d3ce66c0fULL);
    EXPECT_EQ(signed_zero,
              fingerprintRequest(positive, positive_chip, 0.05, 9).digest);
}

TEST(Fingerprint, CanonicalisesSignedZero)
{
    FingerprintHasher a;
    a.mixNumber(0.0);
    FingerprintHasher b;
    b.mixNumber(-0.0);
    EXPECT_EQ(a.digest(), b.digest());
}

} // namespace
} // namespace opdvfs::serve
