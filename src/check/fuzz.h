/**
 * @file
 * Fuzz targets over the library's byte-level entry points, plus a
 * seeded fallback driver that runs them under plain ctest.
 *
 * Each target takes an arbitrary byte buffer and returns std::nullopt
 * when the library behaved acceptably (parsed cleanly, or rejected the
 * input with std::invalid_argument), and a failure message for every
 * crash-class misbehaviour: a foreign exception type, an accepted
 * input that does not survive a save/load round trip, or a
 * non-deterministic result.
 *
 * The same functions back the libFuzzer entry points in fuzz/ (built
 * with -DOPDVFS_BUILD_FUZZERS=ON under clang) and the seeded-random
 * driver below, so every finding reproduces in both harnesses.
 */

#ifndef OPDVFS_CHECK_FUZZ_H
#define OPDVFS_CHECK_FUZZ_H

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "net/wire.h"

namespace opdvfs::check {

/**
 * Feed @p data to dvfs::loadStrategy.  Accepted inputs must round-trip
 * byte-stably and reload deterministically; rejected inputs must throw
 * std::invalid_argument and nothing else.
 */
std::optional<std::string> fuzzStrategyIoOne(const std::uint8_t *data,
                                             std::size_t size);

/**
 * Derive a workload/request from @p data and fingerprint it: the
 * digest must be deterministic, self-similarity exactly 1.0, features
 * finite, and the workload *name* must not enter the digest.
 */
std::optional<std::string> fuzzFingerprintOne(const std::uint8_t *data,
                                              std::size_t size);

/**
 * Feed @p data to the wire-protocol decoder (net::peelFrame +
 * payload codecs) as one byte stream.  Malformed bytes must be
 * rejected with WireError (an std::invalid_argument) and nothing
 * else — never a crash, hang or over-allocation; request payloads
 * must pass checkWireRequest and accepted response payloads must be
 * encode -> decode -> encode stable.
 */
std::optional<std::string> fuzzWireOne(const std::uint8_t *data,
                                       std::size_t size);

/**
 * The request check fuzzWireOne runs on every peeled request payload
 * (prop_net runs it on its chaos-split frames too).  net::requestKey
 * and net::decodeRequest must both accept or both reject, with the
 * same WireError kind and message; an accepted payload's key must
 * carry the decoded request's fingerprint digest, its cache and
 * replica flags and its re-encoded chip block; and the payload must
 * re-encode byte for byte.
 */
std::optional<std::string> checkWireRequest(std::string_view payload,
                                            const net::WireLimits &limits);

/**
 * Where fields sit in @p request's encodeRequest payload: the one
 * copy of the request layout outside the codec, for tests and fuzz
 * inputs that damage a single field of a valid payload.
 */
struct RequestOffsets
{
    /** The deadline (on the wire only when `deadline_ms > 0`). */
    std::size_t deadline = 0;
    /** The op count; the numbers-per-op count follows it. */
    std::size_t op_count = 0;
    /** Each operator's first number. */
    std::vector<std::size_t> op_numbers;
};

RequestOffsets requestOffsets(const net::WireRequest &request);

/**
 * Feed @p data to serve::replayWalBuffer as a cache write-ahead-log
 * image.  Replay must never throw — a torn or corrupt tail ends it
 * with `truncated_tail` set and `valid_bytes` at the last good record
 * boundary (never past the buffer) — must be deterministic, and every
 * recovered entry must re-encode into a record that replays
 * byte-stably.
 */
std::optional<std::string> fuzzCacheWalOne(const std::uint8_t *data,
                                           std::size_t size);

/**
 * Feed @p data to tune::decodeCorpus as a surrogate-training-corpus
 * image.  The loader is strict (a corrupt corpus poisons every later
 * prediction): corruption must be rejected with std::invalid_argument
 * and nothing else, and an accepted corpus must re-encode into bytes
 * that decode to the same observations, stably and deterministically.
 */
std::optional<std::string> fuzzTuneCorpusOne(const std::uint8_t *data,
                                             std::size_t size);

/** Tallies from one seeded fuzz run. */
struct FuzzStats
{
    int executed = 0;
    /** Inputs the target parsed/processed successfully. */
    int accepted = 0;
    /** Inputs rejected with std::invalid_argument (strategy target). */
    int rejected = 0;
};

/** A fuzz target: bytes in, failure message out. */
using FuzzTarget = std::optional<std::string> (*)(const std::uint8_t *,
                                                  std::size_t);

/**
 * Seeded fallback driver: @p iterations buffers — mutated valid
 * strategy files, structured token soup and raw random bytes — fed to
 * @p target.  Returns the first failure, annotated with the iteration
 * and an escaped dump of the offending buffer.
 */
std::optional<std::string> runSeededFuzz(FuzzTarget target,
                                         std::uint64_t seed,
                                         int iterations,
                                         FuzzStats *stats = nullptr);

/**
 * Seeded driver for the wire target: valid request/response frames
 * (sometimes several concatenated; a refused one is a failure),
 * mutated frames (bit flips, truncations, header splices),
 * chaos-mutated frames (the single-bit corruptions and mid-frame cuts
 * net::ChaosProxy injects into live streams) and raw random bytes,
 * each iteration also feeding a request payload with damaged fields
 * re-framed under a valid CRC.  `executed` counts both inputs;
 * `accepted` counts inputs whose leading frame peeled and decoded;
 * `rejected` counts everything the decoder refused.
 */
std::optional<std::string> runSeededWireFuzz(std::uint64_t seed,
                                             int iterations,
                                             FuzzStats *stats = nullptr);

/**
 * Seeded driver for the WAL target: pristine logs of valid records
 * (which must replay in full), crash-mutated logs (bit flips,
 * truncations, deletions — recovered entries must be a digest-prefix
 * of the original log) and raw random bytes.  `accepted` counts
 * buffers that replayed without truncation.
 */
std::optional<std::string> runSeededWalFuzz(std::uint64_t seed,
                                            int iterations,
                                            FuzzStats *stats = nullptr);

/**
 * Seeded driver for the tune-corpus target: pristine corpora of valid
 * observations (which must be accepted in full), mutated corpora (bit
 * flips, truncations, record splices) and raw random bytes.
 * `accepted` counts buffers the loader parsed; `rejected` counts the
 * rest.
 */
std::optional<std::string> runSeededCorpusFuzz(std::uint64_t seed,
                                               int iterations,
                                               FuzzStats *stats = nullptr);

} // namespace opdvfs::check

#endif // OPDVFS_CHECK_FUZZ_H
