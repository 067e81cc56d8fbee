/**
 * Wire-protocol codec tests: request/response round trips (byte
 * stability, fingerprint agreement), framing (magic, version policy,
 * reserved bits, CRC), decoder hardening against truncated, oversized
 * and corrupted frames, and the key pass (requestKey), which must
 * agree with decodeRequest on every payload.
 */

#include <gtest/gtest.h>

#include <bit>
#include <optional>
#include <sstream>
#include <string>

#include "check/fuzz.h"
#include "dvfs/strategy_io.h"
#include "models/transformer.h"
#include "net/wire.h"
#include "serve/fingerprint.h"

namespace opdvfs::net {
namespace {

models::Workload
testWorkload(int seq)
{
    npu::NpuConfig chip;
    npu::MemorySystem memory(chip.memory);
    models::TransformerConfig model;
    model.name = "wire-test";
    model.layers = 2;
    model.hidden = 1024;
    model.heads = 8;
    model.seq = seq;
    return models::buildTransformerTraining(memory, model, 5);
}

WireRequest
testRequest(int seq = 128)
{
    WireRequest request;
    request.workload = testWorkload(seq);
    request.perf_loss_target = 0.03;
    request.seed = 42;
    request.use_cache = true;
    request.allow_warm_start = false;
    return request;
}

dvfs::Strategy
testStrategy()
{
    dvfs::Strategy strategy;
    dvfs::Stage stage;
    stage.start = 0;
    stage.duration = 1000;
    stage.high_frequency = true;
    strategy.stages.push_back(stage);
    stage.start = 1000;
    stage.duration = 2500;
    stage.high_frequency = false;
    strategy.stages.push_back(stage);
    strategy.mhz_per_stage = {1800.0, 1200.0};
    strategy.plan.initial_mhz = 1800.0;
    strategy.plan.triggers.push_back({3, 1200.0});
    dvfs::StrategyMeta meta;
    meta.score = 0.125;
    meta.pre_refine_score = 0.120;
    meta.converged_at = 7;
    meta.generations = 24;
    meta.provenance = "cold";
    meta.fingerprint = 0xDEADBEEFCAFEF00Dull;
    strategy.meta = meta;
    return strategy;
}

WireResponse
testOkResponse()
{
    WireResponse response;
    response.status = Status::Ok;
    response.strategy = testStrategy();
    response.best_score = 0.125;
    response.provenance = serve::Provenance::WarmStart;
    response.similarity = 0.97;
    response.generations_run = 8;
    response.generations_saved = 16;
    response.service_seconds = 0.0125;
    response.fingerprint_digest = 0x1234567890ABCDEFull;
    response.model_epoch = 3;
    return response;
}

TEST(Wire, RequestRoundTripIsByteStable)
{
    WireRequest request = testRequest();
    std::string payload = encodeRequest(request);
    WireRequest decoded = decodeRequest(payload);

    EXPECT_EQ(decoded.perf_loss_target, request.perf_loss_target);
    EXPECT_EQ(decoded.seed, request.seed);
    EXPECT_EQ(decoded.use_cache, request.use_cache);
    EXPECT_EQ(decoded.allow_warm_start, request.allow_warm_start);
    EXPECT_EQ(decoded.workload.opCount(), request.workload.opCount());
    // The name is deliberately not transmitted (not part of identity).
    EXPECT_TRUE(decoded.workload.name.empty());

    // encode(decode(p)) == p: the codec loses nothing it transmits.
    EXPECT_EQ(encodeRequest(decoded), payload);
}

TEST(Wire, DecodedWorkloadFingerprintsIdentically)
{
    // The codec walks models::visitWorkloadFields — the same stream
    // the fingerprint hashes — so a decoded request must fingerprint
    // to the same digest as the original.
    WireRequest request = testRequest();
    WireRequest decoded = decodeRequest(encodeRequest(request));
    serve::Fingerprint original = serve::fingerprintRequest(
        request.workload, request.chip, request.perf_loss_target,
        request.seed);
    serve::Fingerprint round_tripped = serve::fingerprintRequest(
        decoded.workload, decoded.chip, decoded.perf_loss_target,
        decoded.seed);
    EXPECT_EQ(round_tripped.digest, original.digest);
}

TEST(Wire, ChipConfigBlockDetectsAnyFieldChange)
{
    npu::NpuConfig a;
    npu::NpuConfig b = a;
    EXPECT_EQ(encodeChipConfig(a), encodeChipConfig(b));
    b.uncore_power.idle_watts += 0.5;
    EXPECT_NE(encodeChipConfig(a), encodeChipConfig(b));
}

TEST(Wire, OkResponseRoundTrips)
{
    WireResponse response = testOkResponse();
    WireResponse decoded = decodeResponse(encodeResponse(response));

    EXPECT_EQ(decoded.status, Status::Ok);
    EXPECT_EQ(decoded.reject, serve::RejectReason::None);
    EXPECT_EQ(decoded.best_score, response.best_score);
    EXPECT_EQ(decoded.provenance, response.provenance);
    EXPECT_EQ(decoded.similarity, response.similarity);
    EXPECT_EQ(decoded.generations_run, response.generations_run);
    EXPECT_EQ(decoded.generations_saved, response.generations_saved);
    EXPECT_EQ(decoded.service_seconds, response.service_seconds);
    EXPECT_EQ(decoded.fingerprint_digest, response.fingerprint_digest);
    EXPECT_EQ(decoded.model_epoch, response.model_epoch);

    // The embedded strategy survives byte-for-byte through the
    // strategy_io text it travels as.
    std::ostringstream original_text;
    dvfs::saveStrategy(response.strategy, original_text);
    std::ostringstream decoded_text;
    dvfs::saveStrategy(decoded.strategy, decoded_text);
    EXPECT_EQ(decoded_text.str(), original_text.str());
}

TEST(Wire, BusyResponseCarriesStructuredCause)
{
    WireResponse busy;
    busy.status = Status::Busy;
    busy.reject = serve::RejectReason::QueueFull;
    busy.message = "net: admission rejected: queue-full";
    WireResponse decoded = decodeResponse(encodeResponse(busy));
    EXPECT_EQ(decoded.status, Status::Busy);
    EXPECT_EQ(decoded.reject, serve::RejectReason::QueueFull);
    EXPECT_EQ(decoded.message, busy.message);

    // Busy and only Busy carries a cause — both sides enforce it.
    WireResponse bad = busy;
    bad.reject = serve::RejectReason::None;
    EXPECT_THROW(encodeResponse(bad), WireError);
    WireResponse ok_with_cause;
    ok_with_cause.status = Status::Ok;
    ok_with_cause.reject = serve::RejectReason::ShuttingDown;
    EXPECT_THROW(encodeResponse(ok_with_cause), WireError);
}

TEST(Wire, FramePeelsExactlyAndLeavesTheRest)
{
    std::string first = frameRequest(testRequest(64));
    std::string second = frameRequest(testRequest(96));
    std::string stream = first + second;

    std::size_t consumed = 0;
    auto frame = peelFrame(stream, &consumed);
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->type, MsgType::Request);
    EXPECT_EQ(consumed, first.size());
    EXPECT_EQ(decodeRequest(frame->payload).workload.opCount(),
              testWorkload(64).opCount());

    std::string rest = stream.substr(consumed);
    auto next = peelFrame(rest, &consumed);
    ASSERT_TRUE(next.has_value());
    EXPECT_EQ(consumed, second.size());
}

TEST(Wire, IncompleteFramesAreNotErrors)
{
    std::string whole = frameRequest(testRequest(64));
    std::size_t consumed = 0;
    // Any strict prefix — header fragments and payload fragments
    // alike — asks for more bytes instead of failing.
    for (std::size_t cut : {std::size_t{0}, std::size_t{5},
                            kFrameHeaderBytes - 1, kFrameHeaderBytes,
                            whole.size() - 1}) {
        auto frame = peelFrame(std::string_view(whole).substr(0, cut),
                               &consumed);
        EXPECT_FALSE(frame.has_value()) << "cut=" << cut;
        EXPECT_EQ(consumed, 0u);
    }
}

TEST(Wire, ForeignVersionByteIsRejectedAsVersionError)
{
    std::string frame = frameRequest(testRequest(64));
    frame[4] = static_cast<char>(kWireVersion + 1);
    std::size_t consumed = 0;
    EXPECT_THROW(peelFrame(frame, &consumed), WireVersionError);
}

TEST(Wire, BadMagicAndReservedBitsAreRejected)
{
    std::string frame = frameRequest(testRequest(64));
    std::string bad_magic = frame;
    bad_magic[0] = 'X';
    std::size_t consumed = 0;
    EXPECT_THROW(peelFrame(bad_magic, &consumed), WireError);

    std::string bad_reserved = frame;
    bad_reserved[6] = 1;
    EXPECT_THROW(peelFrame(bad_reserved, &consumed), WireError);
}

TEST(Wire, CrcCorruptionIsDetected)
{
    std::string frame = frameRequest(testRequest(64));
    // Flip one payload bit; the header stays valid so only the CRC
    // can catch it.
    frame[kFrameHeaderBytes + 7] ^= 0x10;
    std::size_t consumed = 0;
    EXPECT_THROW(peelFrame(frame, &consumed), WireError);
}

TEST(Wire, OversizedDeclaredLengthIsRejectedFromTheHeaderAlone)
{
    WireLimits tight;
    tight.max_frame_bytes = 1024;
    std::string frame = frameRequest(testRequest(64)); // > 1 KiB
    std::size_t consumed = 0;
    // Rejected before the payload would ever be buffered: only the
    // 16-byte header has arrived.
    EXPECT_THROW(
        peelFrame(std::string_view(frame).substr(0, kFrameHeaderBytes),
                  &consumed, tight),
        WireError);
}

TEST(Wire, TruncatedPayloadsFailCleanly)
{
    std::string payload = encodeRequest(testRequest(64));
    for (std::size_t cut : {std::size_t{0}, std::size_t{1},
                            payload.size() / 2, payload.size() - 1})
        EXPECT_THROW(
            decodeRequest(std::string_view(payload).substr(0, cut)),
            WireError)
            << "cut=" << cut;
    // Trailing garbage is as malformed as missing bytes.
    EXPECT_THROW(decodeRequest(payload + "x"), WireError);
}

TEST(Wire, FieldCoverageMismatchIsAVersionError)
{
    // numbers_per_op sits right after the u32 op count; patch it and
    // the decoder must refuse rather than misalign the op stream.
    WireRequest request = testRequest(64);
    std::string payload = encodeRequest(request);
    std::size_t offset = check::requestOffsets(request).op_count + 4;
    ASSERT_LT(offset, payload.size());
    payload[offset] = static_cast<char>(workloadNumbersPerOp() + 1);
    EXPECT_THROW(decodeRequest(payload), WireVersionError);
}

TEST(Wire, NonFiniteAndOutOfRangeFieldsAreRejected)
{
    WireRequest bad_target = testRequest(64);
    bad_target.perf_loss_target = 1.5;
    EXPECT_THROW(encodeRequest(bad_target), std::exception);

    // Craft an on-wire NaN: encode a valid request, then overwrite
    // the perf_loss_target double (offset 1) with a NaN bit pattern.
    std::string payload = encodeRequest(testRequest(64));
    for (std::size_t byte = 0; byte < 8; ++byte)
        payload[1 + byte] = static_cast<char>(0xFF);
    EXPECT_THROW(decodeRequest(payload), WireError);
}

TEST(Wire, CapsAreEnforcedBeforeAllocation)
{
    WireLimits tight;
    tight.max_ops = 4;
    std::string payload = encodeRequest(testRequest(64));
    EXPECT_THROW(decodeRequest(payload, tight), WireError);

    // An op count far beyond the remaining bytes is rejected by
    // arithmetic, not by attempting the reads.
    WireRequest request = testRequest(64);
    std::string honest = encodeRequest(request);
    std::size_t count_offset = check::requestOffsets(request).op_count;
    honest[count_offset] = static_cast<char>(0xFF);
    honest[count_offset + 1] = static_cast<char>(0xFF);
    EXPECT_THROW(decodeRequest(honest), WireError);
}

TEST(Wire, DeadlineRoundTripsAndIsFlagGated)
{
    WireRequest with_deadline = testRequest(64);
    with_deadline.deadline_ms = 1234;
    std::string payload = encodeRequest(with_deadline);
    WireRequest decoded = decodeRequest(payload);
    EXPECT_EQ(decoded.deadline_ms, 1234u);
    EXPECT_EQ(encodeRequest(decoded), payload);

    // Without a deadline the flag is clear and the payload keeps the
    // v1 shape: exactly four bytes (the u32) shorter.
    WireRequest without = with_deadline;
    without.deadline_ms = 0;
    std::string bare = encodeRequest(without);
    EXPECT_EQ(bare.size() + 4, payload.size());
    EXPECT_EQ(bare[0] & 0x04, 0);
    EXPECT_EQ(payload[0] & 0x04, 0x04);
    EXPECT_EQ(decodeRequest(bare).deadline_ms, 0u);
}

TEST(Wire, DeadlineFlagWithZeroBudgetIsRejected)
{
    // A zero budget travels as an absent field; a frame claiming the
    // flag while carrying zero is internally inconsistent (and would
    // break encode(decode(p)) == p), so the decoder refuses it.
    WireRequest request = testRequest(64);
    request.deadline_ms = 750;
    std::string payload = encodeRequest(request);
    std::size_t deadline_offset = check::requestOffsets(request).deadline;
    for (std::size_t byte = 0; byte < 4; ++byte)
        payload[deadline_offset + byte] = 0;
    EXPECT_THROW(decodeRequest(payload), WireError);
}

TEST(Wire, BusyRetryAfterHintRoundTrips)
{
    WireResponse busy;
    busy.status = Status::Busy;
    busy.reject = serve::RejectReason::QueueFull;
    busy.message = "net: admission rejected: queue-full";
    busy.retry_after_ms = 1500;
    WireResponse decoded = decodeResponse(encodeResponse(busy));
    EXPECT_EQ(decoded.retry_after_ms, 1500u);

    busy.retry_after_ms = 0; // "no estimate" is a valid hint
    EXPECT_EQ(decodeResponse(encodeResponse(busy)).retry_after_ms, 0u);

    // Busy and only Busy carries the hint — the encoder enforces it.
    WireResponse ok_with_hint = testOkResponse();
    ok_with_hint.retry_after_ms = 100;
    EXPECT_THROW(encodeResponse(ok_with_hint), WireError);
}

TEST(Wire, ExpiredAndOverloadedRejectReasonsRoundTrip)
{
    for (serve::RejectReason reason : {serve::RejectReason::Expired,
                                       serve::RejectReason::Overloaded}) {
        WireResponse busy;
        busy.status = Status::Busy;
        busy.reject = reason;
        busy.message = "net: admission rejected";
        busy.retry_after_ms = 40;
        WireResponse decoded = decodeResponse(encodeResponse(busy));
        EXPECT_EQ(decoded.status, Status::Busy);
        EXPECT_EQ(decoded.reject, reason);
        EXPECT_EQ(decoded.retry_after_ms, 40u);
    }
}

TEST(Wire, StatusTokensAreStable)
{
    EXPECT_STREQ(statusToken(Status::Ok), "ok");
    EXPECT_STREQ(statusToken(Status::Busy), "busy");
    EXPECT_STREQ(statusToken(Status::Malformed), "malformed");
    EXPECT_STREQ(statusToken(Status::ChipMismatch), "chip-mismatch");
    EXPECT_STREQ(statusToken(Status::Internal), "internal");
    EXPECT_STREQ(statusToken(Status::NotOwner), "not-owner");
}

// --- wire v3: cluster messages -----------------------------------------

TEST(Wire, NotOwnerResponseRoundTrips)
{
    WireResponse redirect;
    redirect.status = Status::NotOwner;
    redirect.owner_address = "10.1.2.3:9401";
    redirect.map_epoch = 17;
    redirect.shard_map_text = "shardmap v1\nepoch 17\nvnodes 64\n"
                              "count 1\nshard 3 10.1.2.3:9401\n";

    std::string payload = encodeResponse(redirect);
    WireResponse decoded = decodeResponse(payload);
    EXPECT_EQ(decoded.status, Status::NotOwner);
    EXPECT_EQ(decoded.owner_address, redirect.owner_address);
    EXPECT_EQ(decoded.map_epoch, redirect.map_epoch);
    EXPECT_EQ(decoded.shard_map_text, redirect.shard_map_text);
    EXPECT_EQ(encodeResponse(decoded), payload);

    // A NotOwner without an owner address is self-contradictory: the
    // encoder refuses to produce it and the decoder refuses to accept
    // a hand-rolled one.
    redirect.owner_address.clear();
    EXPECT_THROW(encodeResponse(redirect), WireError);
}

// --- the key pass ------------------------------------------------------

/** @p request's payload with one operator number overwritten. */
std::string
withOpNumber(const WireRequest &request, std::size_t op, std::size_t field,
             double value)
{
    std::string payload = encodeRequest(request);
    std::uint64_t bits = std::bit_cast<std::uint64_t>(value);
    std::size_t at = check::requestOffsets(request).op_numbers[op] + 8 * field;
    for (std::size_t byte = 0; byte < 8; ++byte)
        payload[at + byte] = static_cast<char>(bits >> (8 * byte));
    return payload;
}

/**
 * requestKey's verdict on @p payload — "accepted" or its WireError
 * message — after checking it agrees with decodeRequest: the same
 * verdict and message, and for an accepted payload the decoded
 * request's digest, flags and chip block (check::checkWireRequest).
 */
std::string
keyVerdict(std::string_view payload, const WireLimits &limits = {})
{
    EXPECT_EQ(check::checkWireRequest(payload, limits), std::nullopt);
    try {
        requestKey(payload, limits);
    } catch (const WireError &error) {
        return error.what();
    }
    return "accepted";
}

constexpr std::size_t kCategoryField = 0;
constexpr std::size_t kNField = 3;
constexpr std::size_t kCommBytesField = 12;

TEST(WireKey, DigestFlagsAndChipBlockAreTheDecodedRequests)
{
    for (bool replica : {false, true}) {
        WireRequest request = testRequest();
        request.serve_replica = replica;
        request.use_cache = !replica;
        request.deadline_ms = replica ? 250 : 0;
        std::string payload = encodeRequest(request);
        RequestKey key = requestKey(payload);
        EXPECT_EQ(key.digest,
                  serve::fingerprintRequest(request.workload, request.chip,
                                            request.perf_loss_target,
                                            request.seed)
                      .digest);
        EXPECT_EQ(key.use_cache, request.use_cache);
        EXPECT_EQ(key.serve_replica, request.serve_replica);
        EXPECT_EQ(key.chip_block, encodeChipConfig(request.chip));
        // A view into the payload, not a copy.
        EXPECT_GE(key.chip_block.data(), payload.data());
        EXPECT_LE(key.chip_block.data() + key.chip_block.size(),
                  payload.data() + payload.size());
        EXPECT_EQ(keyVerdict(payload), "accepted");
    }
}

TEST(WireKey, NegativeZeroInANumericFieldDigestsAsPositiveZero)
{
    WireRequest request = testRequest(64);
    std::string positive = withOpNumber(request, 0, kCommBytesField, 0.0);
    std::string negative = withOpNumber(request, 0, kCommBytesField, -0.0);
    ASSERT_NE(positive, negative);
    EXPECT_EQ(keyVerdict(positive), "accepted");
    EXPECT_EQ(keyVerdict(negative), "accepted");
    EXPECT_EQ(requestKey(negative).digest, requestKey(positive).digest);
}

TEST(WireKey, NegativeZeroCategoryIsRefusedByBoth)
{
    // The encoder writes integral fields as +0.0, so -0.0 has no
    // canonical encoding and would break encode(decode(p)) == p.
    WireRequest request = testRequest(64);
    EXPECT_EQ(keyVerdict(withOpNumber(request, 0, kCategoryField, 0.0)),
              "accepted");
    EXPECT_EQ(keyVerdict(withOpNumber(request, 0, kCategoryField, -0.0)),
              "wire: op category is not an integer in range");
}

TEST(WireKey, OpRepetitionsAreCheckedAtBothEnds)
{
    WireRequest request = testRequest(64);
    std::size_t last = request.workload.opCount() - 1;
    for (double n : {1.0, 2147483647.0})
        EXPECT_EQ(keyVerdict(withOpNumber(request, last, kNField, n)),
                  "accepted")
            << n;
    for (double n : {0.0, -0.0, 2147483648.0, 1.5, -1.0})
        EXPECT_EQ(keyVerdict(withOpNumber(request, last, kNField, n)),
                  "wire: op n is not an integer in range")
            << n;
}

TEST(WireKey, HeaderDefectsAreRefusedByBoth)
{
    WireRequest request = testRequest(64);
    request.deadline_ms = 750;
    std::string zero_deadline = encodeRequest(request);
    for (std::size_t byte = 0; byte < 4; ++byte)
        zero_deadline[check::requestOffsets(request).deadline + byte] = 0;
    EXPECT_EQ(keyVerdict(zero_deadline),
              "wire: deadline flag set with zero budget");

    std::string unknown_flag = encodeRequest(testRequest(64));
    unknown_flag[0] = static_cast<char>(unknown_flag[0] | 0x10);
    EXPECT_EQ(keyVerdict(unknown_flag), "wire: unknown request flags");

    EXPECT_EQ(keyVerdict(encodeRequest(testRequest(64)) + '\0'),
              "wire: trailing bytes after request payload");
}

TEST(WireKey, OpCountCapAppliesToBoth)
{
    WireRequest request = testRequest(64);
    std::string payload = encodeRequest(request);
    WireLimits at_cap;
    at_cap.max_ops = request.workload.opCount();
    EXPECT_EQ(keyVerdict(payload, at_cap), "accepted");
    WireLimits below_cap;
    below_cap.max_ops = request.workload.opCount() - 1;
    EXPECT_EQ(keyVerdict(payload, below_cap),
              "wire: op count exceeds the cap");
}

TEST(WireKey, EmptyAndOneOpWorkloadsKeyLikeTheirFingerprints)
{
    WireRequest request = testRequest(64);
    for (std::size_t ops : {0u, 1u}) {
        WireRequest small = request;
        small.workload.iteration.resize(ops);
        std::string payload = encodeRequest(small);
        EXPECT_EQ(keyVerdict(payload), "accepted");
        EXPECT_EQ(requestKey(payload).digest,
                  serve::fingerprintRequest(small.workload, small.chip,
                                            small.perf_loss_target,
                                            small.seed)
                      .digest);
    }
}

TEST(Wire, PeerDonorQueryRoundTrips)
{
    PeerDonorQuery query;
    query.digest = 0xFEEDFACE12345678ull;
    query.features = {0.25, 0.5, 1.0, 0.125};
    query.model_epoch = 9;
    query.perf_loss_target = 0.03;
    query.origin_shard = 4;

    std::string payload = encodePeerDonorQuery(query);
    PeerDonorQuery decoded = decodePeerDonorQuery(payload);
    EXPECT_EQ(decoded.digest, query.digest);
    EXPECT_EQ(decoded.features, query.features);
    EXPECT_EQ(decoded.model_epoch, query.model_epoch);
    EXPECT_EQ(decoded.perf_loss_target, query.perf_loss_target);
    EXPECT_EQ(decoded.origin_shard, query.origin_shard);
    EXPECT_EQ(encodePeerDonorQuery(decoded), payload);

    // The feature-count cap is enforced before allocation.
    PeerDonorQuery oversized = query;
    oversized.features.assign(WireLimits{}.max_features + 1, 0.5);
    EXPECT_THROW(encodePeerDonorQuery(oversized), WireError);
}

TEST(Wire, PeerDonorReplyRoundTripsHitAndMiss)
{
    PeerDonorReply miss;
    std::string miss_payload = encodePeerDonorReply(miss);
    PeerDonorReply miss_decoded = decodePeerDonorReply(miss_payload);
    EXPECT_FALSE(miss_decoded.found);
    EXPECT_EQ(encodePeerDonorReply(miss_decoded), miss_payload);

    PeerDonorReply hit;
    hit.found = true;
    hit.similarity = 0.94;
    hit.fingerprint_digest = 0xABCDEF0123456789ull;
    hit.features = {0.1, 0.9, 0.5};
    hit.model_epoch = 12;
    hit.perf_loss_target = 0.02;
    hit.best_score = 0.0625;
    hit.best_mhz = {1800.0, 1200.0, 1500.0};
    std::ostringstream os;
    dvfs::saveStrategy(testStrategy(), os);
    hit.strategy_text = os.str();

    std::string payload = encodePeerDonorReply(hit);
    PeerDonorReply decoded = decodePeerDonorReply(payload);
    EXPECT_TRUE(decoded.found);
    EXPECT_EQ(decoded.similarity, hit.similarity);
    EXPECT_EQ(decoded.fingerprint_digest, hit.fingerprint_digest);
    EXPECT_EQ(decoded.features, hit.features);
    EXPECT_EQ(decoded.model_epoch, hit.model_epoch);
    EXPECT_EQ(decoded.perf_loss_target, hit.perf_loss_target);
    EXPECT_EQ(decoded.best_score, hit.best_score);
    EXPECT_EQ(decoded.best_mhz, hit.best_mhz);
    EXPECT_EQ(decoded.strategy_text, hit.strategy_text);
    EXPECT_EQ(encodePeerDonorReply(decoded), payload);

    // Similarity outside [0, 1] is rejected on decode.
    PeerDonorReply bogus = hit;
    bogus.similarity = 1.5;
    EXPECT_THROW(decodePeerDonorReply(encodePeerDonorReply(bogus)),
                 WireError);
}

TEST(Wire, EpochInvalidateAndAckRoundTrip)
{
    EpochInvalidate invalidate;
    invalidate.origin_shard = 2;
    invalidate.model_epoch = 41;
    std::string payload = encodeEpochInvalidate(invalidate);
    EpochInvalidate decoded = decodeEpochInvalidate(payload);
    EXPECT_EQ(decoded.origin_shard, invalidate.origin_shard);
    EXPECT_EQ(decoded.model_epoch, invalidate.model_epoch);
    EXPECT_EQ(encodeEpochInvalidate(decoded), payload);
    EXPECT_THROW(decodeEpochInvalidate(payload.substr(0, 4)), WireError);

    EpochInvalidateAck ack;
    ack.shard_id = 5;
    ack.model_epoch = 41;
    std::string ack_payload = encodeEpochInvalidateAck(ack);
    EpochInvalidateAck ack_decoded =
        decodeEpochInvalidateAck(ack_payload);
    EXPECT_EQ(ack_decoded.shard_id, ack.shard_id);
    EXPECT_EQ(ack_decoded.model_epoch, ack.model_epoch);
    EXPECT_EQ(encodeEpochInvalidateAck(ack_decoded), ack_payload);
}

TEST(Wire, PeerFrameTypesFrameAndPeel)
{
    EpochInvalidate invalidate;
    invalidate.origin_shard = 1;
    invalidate.model_epoch = 3;
    std::string stream =
        frameMessage(MsgType::PeerDonorQuery,
                     encodePeerDonorQuery(PeerDonorQuery{}))
        + frameMessage(MsgType::PeerDonorReply,
                       encodePeerDonorReply(PeerDonorReply{}))
        + frameMessage(MsgType::EpochInvalidate,
                       encodeEpochInvalidate(invalidate))
        + frameMessage(MsgType::EpochInvalidateAck,
                       encodeEpochInvalidateAck(EpochInvalidateAck{}));

    std::string_view rest = stream;
    for (MsgType expected :
         {MsgType::PeerDonorQuery, MsgType::PeerDonorReply,
          MsgType::EpochInvalidate, MsgType::EpochInvalidateAck}) {
        std::size_t consumed = 0;
        std::optional<FrameView> view = peelFrame(rest, &consumed);
        ASSERT_TRUE(view.has_value());
        EXPECT_EQ(view->type, expected);
        rest.remove_prefix(consumed);
    }
    EXPECT_TRUE(rest.empty());
}

} // namespace
} // namespace opdvfs::net
