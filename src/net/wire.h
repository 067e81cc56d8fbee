/**
 * @file
 * Versioned, length-prefixed binary wire protocol for the strategy
 * service.
 *
 * A frame is a fixed 16-byte header followed by the payload:
 *
 *   offset  size  field
 *   0       4     magic "ODVF"
 *   4       1     protocol version (kWireVersion)
 *   5       1     message type (MsgType)
 *   6       2     reserved, must be zero
 *   8       4     payload length, little-endian
 *   12      4     CRC-32 (IEEE 802.3) of the payload bytes
 *   16      ...   payload
 *
 * Payloads are flat little-endian records (no alignment, no pointers);
 * doubles travel as their IEEE-754 bit pattern.  Every length and
 * element count is validated against `WireLimits` *before* any
 * allocation, so a malicious frame cannot make the decoder allocate
 * beyond the caps, and the CRC rejects torn or bit-flipped frames
 * before the payload decoder ever runs.
 *
 * The request codec serialises the workload through
 * `models::visitWorkloadFields` — the exact canonical stream the
 * service fingerprint hashes — so the codec and the fingerprint can
 * never disagree on field coverage: for every accepted request payload
 * `encodeRequest(decodeRequest(p)) == p` byte for byte, and the
 * server-side fingerprint of the decoded workload equals the
 * client-side fingerprint of the original.  One parser reads request
 * payloads, with two sinks: `decodeRequest` builds the workload, and
 * `requestKey` feeds each operator's fields to the fingerprint's
 * digest stream as they are read, so a server can answer a cached
 * request without building a workload at all.  Strategies in responses
 * reuse the `dvfs::strategy_io` text format (embedded as one
 * length-prefixed block), inheriting its validation and stability
 * guarantees.
 *
 * Version policy: the version byte is bumped on any layout change; a
 * decoder seeing a foreign version throws WireVersionError without
 * reading further (clients must not retry — the peer build differs).
 * The per-op field count transmitted in each request guards the
 * visitor-coverage contract the same way.
 */

#ifndef OPDVFS_NET_WIRE_H
#define OPDVFS_NET_WIRE_H

#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "dvfs/strategy_io.h"
#include "models/workload.h"
#include "npu/npu_chip.h"
#include "serve/service.h"

namespace opdvfs::net {

/**
 * Protocol version this build speaks.
 *
 * v2 added the optional request deadline (flag-gated `deadline_ms`
 * after the seed) and the mandatory `retry_after_ms` hint on Busy
 * responses.
 *
 * v3 added the cluster messages: the `NotOwner` response status
 * (carrying the owner address, the current map epoch and the full
 * encoded shard map so a stale client self-heals in one round trip)
 * and the shard-to-shard frame types `PeerDonorQuery`/`PeerDonorReply`
 * (cross-shard warm-start donors) and
 * `EpochInvalidate`/`EpochInvalidateAck` (cluster-wide model-epoch
 * coherence after a recalibration).
 *
 * v4 added the fault-tolerance messages: the shard-to-shard frame
 * types `PeerReplicate`/`PeerReplicateAck` (an owner pushing a cache
 * entry to its ring successors as a warm-start-only replica) and the
 * flag-gated `serve_replica` request bit (a failover router asking a
 * successor to answer a non-owned key from its replica set instead of
 * redirecting with NotOwner).
 *
 * v5 added the `Predicted` provenance value: a response served
 * straight from the surrogate pre-ranker on a first-contact miss,
 * while the full search refines it asynchronously (predict-first
 * serving mode).  The payload layout is unchanged — v4 decoders would
 * reject the new provenance byte, so the version gates it.
 */
inline constexpr std::uint8_t kWireVersion = 5;

/** Frame header size in bytes (magic..CRC). */
inline constexpr std::size_t kFrameHeaderBytes = 16;

/** Frame magic, on the wire as the bytes 'O' 'D' 'V' 'F'. */
inline constexpr char kWireMagic[4] = {'O', 'D', 'V', 'F'};

/** Frame message types. */
enum class MsgType : std::uint8_t
{
    Request = 1,
    Response = 2,
    /** Shard-to-shard: probe a peer's cache for a warm-start donor. */
    PeerDonorQuery = 3,
    /** Shard-to-shard: the (possibly empty) donor answer. */
    PeerDonorReply = 4,
    /** Shard-to-shard: a recalibration advanced the model epoch;
     *  raise yours so stale strategies stop being exact hits. */
    EpochInvalidate = 5,
    /** Shard-to-shard: the receiver's epoch after applying the
     *  invalidate — the broadcast's completion signal. */
    EpochInvalidateAck = 6,
    /** Shard-to-shard: an owner pushing a cache entry to a ring
     *  successor as a warm-start-only replica. */
    PeerReplicate = 7,
    /** Shard-to-shard: the successor's accept/reject of a replica. */
    PeerReplicateAck = 8,
};

/** Response status codes. */
enum class Status : std::uint8_t
{
    Ok = 0,
    /** Admission rejected; `reject` carries the structured cause.
     *  Retryable with backoff (requests are idempotent by
     *  fingerprint). */
    Busy = 1,
    /** The request failed to decode.  Never retry. */
    Malformed = 2,
    /** The request's chip differs from the one this service
     *  optimises for.  Never retry against this server. */
    ChipMismatch = 3,
    /** The pipeline threw while serving the request. */
    Internal = 4,
    /**
     * This shard does not own the request's fingerprint on the
     * cluster's consistent-hash ring.  The response carries the owner
     * address, the server's map epoch and the full encoded map; a
     * router retries at the owner after refreshing any stale map.
     * Never served past the redirect bound — a client that keeps
     * seeing NotOwner holds a map no server agrees with.
     */
    NotOwner = 5,
};

/** Whitespace-free token ("ok", "busy", ...). */
const char *statusToken(Status status);

/** Hard caps the decoder enforces before allocating. */
struct WireLimits
{
    /** Whole frame including the 16-byte header. */
    std::size_t max_frame_bytes = 4u << 20;
    /** Operators per request workload. */
    std::size_t max_ops = 100000;
    /** Any single string field (op type names). */
    std::size_t max_string_bytes = 256;
    /** Embedded strategy_io text block in a response. */
    std::size_t max_strategy_bytes = 1u << 20;
    /** Error-message string in a response. */
    std::size_t max_message_bytes = 4096;
    /** Encoded shard-map text in a NotOwner response. */
    std::size_t max_shard_map_bytes = 64u << 10;
    /** Fingerprint similarity features in a peer donor message. */
    std::size_t max_features = 64;
    /** Per-stage frequency entries in a peer donor reply. */
    std::size_t max_stages = 16384;
};

/** Malformed frame or payload; never retryable. */
class WireError : public std::invalid_argument
{
  public:
    using std::invalid_argument::invalid_argument;
};

/** The peer speaks a different protocol version (or field coverage). */
class WireVersionError : public WireError
{
  public:
    using WireError::WireError;
};

/** One optimisation request as it travels over the wire. */
struct WireRequest
{
    /**
     * The workload content.  The *name* is not transmitted (it is
     * excluded from the request identity, exactly as in the
     * fingerprint); decoded workloads come back with an empty name
     * and positional op ids.
     */
    models::Workload workload;
    /** The chip the caller wants the strategy for; the server rejects
     *  with ChipMismatch when it differs from the serving chip. */
    npu::NpuConfig chip;
    double perf_loss_target = 0.02;
    std::uint64_t seed = 1;
    bool use_cache = true;
    bool allow_warm_start = true;
    /**
     * Remaining caller budget in milliseconds; 0 = no deadline (the
     * field is then absent from the wire, guarded by a flag bit, so
     * deadline-less requests keep the v1 payload shape).  The server
     * refuses to start a search once the budget has elapsed and
     * answers Busy/Expired instead.
     */
    std::uint32_t deadline_ms = 0;
    /**
     * Failover bit: the caller knows this server is not the owner and
     * asks it to answer from its replica set (or compute locally)
     * instead of redirecting with NotOwner.  Set only by a router
     * whose owner dial failed; replica answers degrade exact hits to
     * warm starts, never to errors.
     */
    bool serve_replica = false;
};

/** One response as it travels over the wire. */
struct WireResponse
{
    Status status = Status::Ok;
    /** Structured cause for Status::Busy; None otherwise. */
    serve::RejectReason reject = serve::RejectReason::None;
    /**
     * Backpressure hint carried by every Busy response (and only
     * those): the server's estimate of when a retry is worth sending.
     * 0 = no estimate.  Clients must wait at least this long before
     * retrying — the fleet-wide contract that keeps a recovering
     * server from being re-stormed.
     */
    std::uint32_t retry_after_ms = 0;
    /** Human-readable context for non-Ok statuses. */
    std::string message;

    // --- Status::Ok payload -------------------------------------------
    /** The strategy with its meta (score/provenance/fingerprint). */
    dvfs::Strategy strategy;
    double best_score = 0.0;
    serve::Provenance provenance = serve::Provenance::Cold;
    double similarity = 0.0;
    std::uint32_t generations_run = 0;
    std::uint32_t generations_saved = 0;
    /** Wall time inside the service (server-side clock). */
    double service_seconds = 0.0;
    std::uint64_t fingerprint_digest = 0;
    std::uint64_t model_epoch = 0;

    // --- Status::NotOwner payload -------------------------------------
    /** "host:port" of the shard owning the request's fingerprint. */
    std::string owner_address;
    /** The answering server's shard-map epoch. */
    std::uint64_t map_epoch = 0;
    /** The full encoded shard map (shard::ShardMap::encode text) so a
     *  stale router self-heals from one redirect. */
    std::string shard_map_text;
};

// --- shard-to-shard messages -------------------------------------------

/** Probe of a peer shard's cache for a warm-start donor. */
struct PeerDonorQuery
{
    /** Fingerprint of the cold request (digest + features + epoch). */
    std::uint64_t digest = 0;
    std::vector<double> features;
    std::uint64_t model_epoch = 0;
    double perf_loss_target = 0.02;
    /** The asking shard (telemetry; not used for routing). */
    std::uint32_t origin_shard = 0;
};

/** Answer to a PeerDonorQuery; `found == false` carries no donor. */
struct PeerDonorReply
{
    bool found = false;
    /** Donor similarity to the probe, as the peer computed it. */
    double similarity = 0.0;
    /** Donor identity: enough to import it as a donor-only entry. */
    std::uint64_t fingerprint_digest = 0;
    std::vector<double> features;
    std::uint64_t model_epoch = 0;
    double perf_loss_target = 0.0;
    double best_score = 0.0;
    /** Per-stage frequencies seeding the warm start. */
    std::vector<double> best_mhz;
    /** The donor strategy in strategy_io text form. */
    std::string strategy_text;
};

/** A recalibration advanced the origin shard's model epoch. */
struct EpochInvalidate
{
    std::uint32_t origin_shard = 0;
    /** Raise your epoch to at least this value. */
    std::uint64_t model_epoch = 0;
};

/** The receiver's epoch after applying an EpochInvalidate. */
struct EpochInvalidateAck
{
    std::uint32_t shard_id = 0;
    std::uint64_t model_epoch = 0;
};

/**
 * An owner pushing one cache entry to a ring successor.  The
 * successor imports it exactly as a peer donor (a Donor entry), so
 * a replica can never shadow an owned exact hit; it additionally
 * becomes servable as a degraded answer when a failover request
 * carries the serve_replica flag.
 */
struct PeerReplicate
{
    /** The replicating owner (telemetry; not used for routing). */
    std::uint32_t origin_shard = 0;
    /** Donor identity, mirroring PeerDonorReply. */
    std::uint64_t fingerprint_digest = 0;
    std::vector<double> features;
    std::uint64_t model_epoch = 0;
    double perf_loss_target = 0.0;
    double best_score = 0.0;
    /** Per-stage frequencies seeding a warm start. */
    std::vector<double> best_mhz;
    /** The replicated strategy in strategy_io text form. */
    std::string strategy_text;
};

/** The successor's answer to a PeerReplicate. */
struct PeerReplicateAck
{
    std::uint32_t shard_id = 0;
    /** False when the successor refused the entry (e.g. stale epoch). */
    bool accepted = false;
};

/** One frame peeled off the front of a byte stream. */
struct FrameView
{
    MsgType type = MsgType::Request;
    std::string_view payload;
};

// --- payload codecs ----------------------------------------------------

/** Serialise a request payload (not framed). @throws WireError when a
 *  field exceeds the caps or is non-finite. */
std::string encodeRequest(const WireRequest &request,
                          const WireLimits &limits = {});

/** Parse a request payload. @throws WireError / WireVersionError. */
WireRequest decodeRequest(std::string_view payload,
                          const WireLimits &limits = {});

/** What the server needs of a request before it decides to decode it. */
struct RequestKey
{
    /** `serve::fingerprintRequest(...).digest` of the decoded request. */
    std::uint64_t digest = 0;
    bool use_cache = true;
    bool serve_replica = false;
    /** The chip block as it sits in the payload: byte-equal to
     *  `encodeChipConfig(decodeRequest(payload).chip)`. */
    std::string_view chip_block;
};

/**
 * Validate a request payload and digest it straight off its bytes,
 * without building the workload.  decodeRequest and requestKey share
 * one parser, so this accepts exactly the payloads decodeRequest
 * accepts and throws the same WireError / WireVersionError otherwise;
 * the digest comes from the same `serve::DigestStream` that
 * fingerprintRequest feeds.  `chip_block` views @p payload.
 */
RequestKey requestKey(std::string_view payload,
                      const WireLimits &limits = {});

/** Serialise a response payload (not framed). */
std::string encodeResponse(const WireResponse &response,
                           const WireLimits &limits = {});

/** Parse a response payload. @throws WireError. */
WireResponse decodeResponse(std::string_view payload,
                            const WireLimits &limits = {});

/** Peer-donor query codec. @throws WireError on malformed input. */
std::string encodePeerDonorQuery(const PeerDonorQuery &query,
                                 const WireLimits &limits = {});
PeerDonorQuery decodePeerDonorQuery(std::string_view payload,
                                    const WireLimits &limits = {});

/** Peer-donor reply codec. @throws WireError on malformed input. */
std::string encodePeerDonorReply(const PeerDonorReply &reply,
                                 const WireLimits &limits = {});
PeerDonorReply decodePeerDonorReply(std::string_view payload,
                                    const WireLimits &limits = {});

/** Epoch-invalidate codec. @throws WireError on malformed input. */
std::string encodeEpochInvalidate(const EpochInvalidate &invalidate);
EpochInvalidate decodeEpochInvalidate(std::string_view payload);

/** Epoch-invalidate-ack codec. @throws WireError on malformed input. */
std::string encodeEpochInvalidateAck(const EpochInvalidateAck &ack);
EpochInvalidateAck decodeEpochInvalidateAck(std::string_view payload);

/** Peer-replicate codec. @throws WireError on malformed input. */
std::string encodePeerReplicate(const PeerReplicate &replicate,
                                const WireLimits &limits = {});
PeerReplicate decodePeerReplicate(std::string_view payload,
                                  const WireLimits &limits = {});

/** Peer-replicate-ack codec. @throws WireError on malformed input. */
std::string encodePeerReplicateAck(const PeerReplicateAck &ack);
PeerReplicateAck decodePeerReplicateAck(std::string_view payload);

// --- framing -----------------------------------------------------------

/** Wrap @p payload in a frame header (version, length, CRC-32). */
std::string frameMessage(MsgType type, std::string_view payload,
                         const WireLimits &limits = {});

/**
 * Try to peel one frame off the front of @p buffer.  Returns nullopt
 * when more bytes are needed (an incomplete header or payload is never
 * an error), otherwise the frame view into @p buffer with @p consumed
 * set to the bytes to drop.  @throws WireError on bad magic, reserved
 * bits, an oversized declared length or a CRC mismatch, and
 * WireVersionError on a foreign version byte — all detectable from the
 * header alone except the CRC, so oversized frames are rejected before
 * they are ever buffered.
 */
std::optional<FrameView> peelFrame(std::string_view buffer,
                                   std::size_t *consumed,
                                   const WireLimits &limits = {});

/** Convenience: encode + frame in one call. */
std::string frameRequest(const WireRequest &request,
                         const WireLimits &limits = {});
std::string frameResponse(const WireResponse &response,
                          const WireLimits &limits = {});

// --- coverage helpers --------------------------------------------------

/**
 * Number of scalar fields `models::visitWorkloadFields` emits per
 * operator in this build.  Transmitted in every request and checked by
 * the decoder: a mismatch means the peer's field coverage differs and
 * the request must be rejected rather than silently misaligned.
 */
std::size_t workloadNumbersPerOp();

/**
 * The chip-configuration block exactly as the request codec transmits
 * it.  Two chips are "the same optimisation target" if and only if
 * their blocks are byte-equal — the server's mismatch check.
 */
std::string encodeChipConfig(const npu::NpuConfig &chip);

} // namespace opdvfs::net

#endif // OPDVFS_NET_WIRE_H
