/**
 * @file
 * Canonical workload fingerprints for the strategy service.
 *
 * A fingerprint identifies one optimisation problem: the operator
 * sequence (types, shapes, per-op parameters), the chip configuration
 * (frequency table, memory system, power/thermal parameters), and the
 * request's performance-loss target and seed.  Two parts:
 *
 *  - `digest`: a 64-bit FNV-1a hash over the canonical field stream
 *    (`DigestStream`) — the exact-match cache key.  Only field *values*
 *    are hashed (never addresses or iteration order of unordered
 *    containers), so the digest is stable across processes, runs and
 *    builds; snapshots, WALs and shard routing key on it.
 *  - `features`: a small normalised feature vector (op-count scale,
 *    category mix, bottleneck-relevant volume totals, loss target)
 *    used to find *similar* cached problems whose strategies can
 *    warm-start the genetic search.
 */

#ifndef OPDVFS_SERVE_FINGERPRINT_H
#define OPDVFS_SERVE_FINGERPRINT_H

#include <cstdint>
#include <string_view>
#include <vector>

#include "models/workload.h"
#include "npu/npu_chip.h"

namespace opdvfs::serve {

/** Identity + similarity coordinates of one strategy request. */
struct Fingerprint
{
    /** Exact-match key (stable FNV-1a over the canonical stream). */
    std::uint64_t digest = 0;
    /** Normalised similarity features; same length for every request. */
    std::vector<double> features;
    /**
     * Model epoch the strategy was generated under (the service
     * stamps it).  Deliberately NOT part of the digest: a request is
     * the same problem across epochs, but a cached answer from an
     * older epoch is stale — still a warm-start donor, never an exact
     * hit.
     */
    std::uint64_t model_epoch = 0;
};

/** Streaming FNV-1a hasher over canonicalised values. */
class FingerprintHasher
{
  public:
    /** Mix a raw 64-bit word. */
    void mix(std::uint64_t word);
    /** Mix a double by bit pattern; -0.0 and all NaNs canonicalised. */
    void mixNumber(double value);
    /** Mix a string: length then bytes. */
    void mixString(std::string_view text);

    std::uint64_t digest() const { return state_; }

  private:
    /** FNV-1a 64-bit offset basis. */
    std::uint64_t state_ = 1469598103934665603ULL;
};

/**
 * The digest's canonical stream, in order: a version tag; per operator
 * its type string, then its numbers in `models::visitWorkloadFields`
 * order; then the chip fields, the loss target and the seed.
 * `fingerprintRequest` feeds it from a workload and `net::requestKey`
 * straight from a request's wire bytes, so both compute the same
 * digest by construction.
 */
class DigestStream
{
  public:
    DigestStream();

    /** An operator's type string; its numbers follow. */
    void opType(std::string_view type) { hasher_.mixString(type); }
    /** One of the operator's numbers, in visitor order. */
    void opNumber(double value) { hasher_.mixNumber(value); }

    /**
     * Mix the chip configuration (every field the performance/power
     * models or the executor depend on), the loss target and the seed
     * after the operators, and return the digest.
     */
    std::uint64_t finish(const npu::NpuConfig &chip, double perf_loss_target,
                         std::uint64_t seed);

  private:
    FingerprintHasher hasher_;
};

/**
 * Fingerprint one strategy request: workload content, chip
 * configuration (frequency table, memory, power, thermal, latencies),
 * and the performance-loss target.  The GA seed is mixed into the
 * digest (a different seed is a different request, keeping the service
 * path bit-reproducible) but not into the features (the same workload
 * under a different seed is still a perfect warm-start donor).
 */
Fingerprint fingerprintRequest(const models::Workload &workload,
                               const npu::NpuConfig &chip,
                               double perf_loss_target,
                               std::uint64_t seed);

/**
 * Similarity in [0, 1]: 1 for identical feature vectors, falling off
 * with their weighted Euclidean distance.  Vectors of different
 * lengths (different library versions) compare as 0.
 */
double fingerprintSimilarity(const Fingerprint &a, const Fingerprint &b);

} // namespace opdvfs::serve

#endif // OPDVFS_SERVE_FINGERPRINT_H
