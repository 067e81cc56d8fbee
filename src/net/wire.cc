#include "net/wire.h"

#include <array>
#include <bit>
#include <cmath>
#include <cstring>
#include <sstream>
#include <vector>

#include "common/crc32.h"
#include "serve/fingerprint.h"

namespace opdvfs::net {

namespace {

// --- flat little-endian primitives -------------------------------------

/** @p value with its bytes in wire (little-endian) order and back: the
 *  identity on little-endian hosts. */
template <class Word>
Word
wireOrder(Word value)
{
    if constexpr (std::endian::native == std::endian::big) {
        Word swapped = 0;
        for (std::size_t byte = 0; byte < sizeof(Word); ++byte) {
            swapped = static_cast<Word>((swapped << 8) | (value & 0xFFu));
            value = static_cast<Word>(value >> 8);
        }
        return swapped;
    }
    return value;
}

class ByteWriter
{
  public:
    void u8(std::uint8_t value) { out_.push_back(static_cast<char>(value)); }
    void u16(std::uint16_t value) { word(value); }
    void u32(std::uint32_t value) { word(value); }
    void u64(std::uint64_t value) { word(value); }

    void i64(std::int64_t value) { u64(static_cast<std::uint64_t>(value)); }

    /** IEEE-754 bit pattern; NaN/-0.0 travel verbatim. */
    void f64(double value) { u64(std::bit_cast<std::uint64_t>(value)); }

    void str16(std::string_view text, std::size_t cap, const char *what)
    {
        if (text.size() > cap || text.size() > 0xFFFF)
            throw WireError(std::string("wire: ") + what
                            + " exceeds the string cap");
        u16(static_cast<std::uint16_t>(text.size()));
        out_.append(text);
    }

    void str32(std::string_view text, std::size_t cap, const char *what)
    {
        if (text.size() > cap)
            throw WireError(std::string("wire: ") + what
                            + " exceeds its block cap");
        u32(static_cast<std::uint32_t>(text.size()));
        out_.append(text);
    }

    std::string take() { return std::move(out_); }

  private:
    template <class Word>
    void word(Word value)
    {
        char bytes[sizeof(Word)];
        value = wireOrder(value);
        std::memcpy(bytes, &value, sizeof bytes);
        out_.append(bytes, sizeof bytes);
    }

    std::string out_;
};

class ByteReader
{
  public:
    explicit ByteReader(std::string_view data) : data_(data) {}

    std::size_t position() const { return pos_; }
    std::size_t remaining() const { return data_.size() - pos_; }
    bool atEnd() const { return pos_ == data_.size(); }

    std::uint8_t u8()
    {
        need(1, "byte");
        return static_cast<std::uint8_t>(data_[pos_++]);
    }

    std::uint16_t u16() { return word<std::uint16_t>("u16"); }
    std::uint32_t u32() { return word<std::uint32_t>("u32"); }
    std::uint64_t u64() { return word<std::uint64_t>("u64"); }

    std::int64_t i64() { return static_cast<std::int64_t>(u64()); }

    double f64() { return std::bit_cast<double>(u64()); }

    /** A double that must be finite (every numeric protocol field). */
    double finite(const char *what)
    {
        double value = f64();
        if (!std::isfinite(value))
            throw WireError(std::string("wire: non-finite ") + what);
        return value;
    }

    /** A u16-length-prefixed string, as a view into the payload. */
    std::string_view view16(std::size_t cap, const char *what)
    {
        std::size_t length = u16();
        if (length > cap)
            throw WireError(std::string("wire: ") + what
                            + " exceeds the string cap");
        return bytes(length, what);
    }

    std::string str16(std::size_t cap, const char *what)
    {
        return std::string(view16(cap, what));
    }

    std::string str32(std::size_t cap, const char *what)
    {
        std::size_t length = u32();
        if (length > cap)
            throw WireError(std::string("wire: ") + what
                            + " exceeds its block cap");
        return std::string(bytes(length, what));
    }

    void expectEnd(const char *what)
    {
        if (!atEnd())
            throw WireError(std::string("wire: trailing bytes after ")
                            + what);
    }

  private:
    void need(std::size_t count, const char *what)
    {
        if (remaining() < count)
            throw WireError(std::string("wire: truncated ") + what);
    }

    std::string_view bytes(std::size_t count, const char *what)
    {
        need(count, what);
        std::string_view view = data_.substr(pos_, count);
        pos_ += count;
        return view;
    }

    template <class Word>
    Word word(const char *what)
    {
        need(sizeof(Word), what);
        Word value;
        std::memcpy(&value, data_.data() + pos_, sizeof value);
        pos_ += sizeof value;
        return wireOrder(value);
    }

    std::string_view data_;
    std::size_t pos_ = 0;
};

/**
 * Refuse anything but a finite double holding an integral value in
 * [lo, hi] (lo >= 0).  -0.0 is refused too: the encoder writes integral
 * fields as +0.0, and a field with two encodings would break
 * encode(decode(p)) == p, exactly like a zero deadline.
 */
void
requireIntegral(double value, std::int64_t lo, std::int64_t hi,
                const char *what)
{
    if (!std::isfinite(value) || value != std::floor(value)
        || std::signbit(value) || value < static_cast<double>(lo)
        || value > static_cast<double>(hi))
        throw WireError(std::string("wire: ") + what
                        + " is not an integer in range");
}

// --- chip configuration block ------------------------------------------

/**
 * Only identity-relevant fields travel: exactly the set the service
 * fingerprint hashes.  FaultPlan (runtime misbehaviour) and
 * max_energy_segment (integration granularity) are not a different
 * optimisation problem and stay local.
 */
void
writeChip(ByteWriter &writer, const npu::NpuConfig &chip)
{
    const npu::FreqTableConfig &freq = chip.freq;
    for (double value : {freq.min_mhz, freq.max_mhz, freq.step_mhz,
                         freq.knee_mhz, freq.base_volts,
                         freq.volts_per_mhz})
        writer.f64(value);
    const npu::MemorySystemConfig &memory = chip.memory;
    writer.u64(memory.core_num);
    for (double value : {memory.bytes_per_cycle_per_core,
                         memory.l2_bandwidth, memory.hbm_bandwidth,
                         memory.bandwidth_scale})
        writer.f64(value);
    for (double value : {chip.aicore_power.beta, chip.aicore_power.theta,
                         chip.aicore_power.gamma})
        writer.f64(value);
    for (double value :
         {chip.uncore_power.idle_watts, chip.uncore_power.active_watts,
          chip.uncore_power.gamma, chip.uncore_power.dynamic_fraction})
        writer.f64(value);
    for (double value : {chip.thermal.ambient_celsius,
                         chip.thermal.k_per_watt,
                         chip.thermal.time_constant_s})
        writer.f64(value);
    writer.i64(chip.set_freq_latency);
    writer.f64(chip.initial_mhz);
    writer.f64(chip.uncore_scale);
}

npu::NpuConfig
readChip(ByteReader &reader)
{
    npu::NpuConfig chip;
    chip.freq.min_mhz = reader.finite("freq.min_mhz");
    chip.freq.max_mhz = reader.finite("freq.max_mhz");
    chip.freq.step_mhz = reader.finite("freq.step_mhz");
    chip.freq.knee_mhz = reader.finite("freq.knee_mhz");
    chip.freq.base_volts = reader.finite("freq.base_volts");
    chip.freq.volts_per_mhz = reader.finite("freq.volts_per_mhz");
    std::uint64_t core_num = reader.u64();
    if (core_num == 0 || core_num > 1000000)
        throw WireError("wire: core_num out of range");
    chip.memory.core_num = static_cast<std::size_t>(core_num);
    chip.memory.bytes_per_cycle_per_core =
        reader.finite("memory.bytes_per_cycle_per_core");
    chip.memory.l2_bandwidth = reader.finite("memory.l2_bandwidth");
    chip.memory.hbm_bandwidth = reader.finite("memory.hbm_bandwidth");
    chip.memory.bandwidth_scale = reader.finite("memory.bandwidth_scale");
    chip.aicore_power.beta = reader.finite("aicore_power.beta");
    chip.aicore_power.theta = reader.finite("aicore_power.theta");
    chip.aicore_power.gamma = reader.finite("aicore_power.gamma");
    chip.uncore_power.idle_watts =
        reader.finite("uncore_power.idle_watts");
    chip.uncore_power.active_watts =
        reader.finite("uncore_power.active_watts");
    chip.uncore_power.gamma = reader.finite("uncore_power.gamma");
    chip.uncore_power.dynamic_fraction =
        reader.finite("uncore_power.dynamic_fraction");
    chip.thermal.ambient_celsius =
        reader.finite("thermal.ambient_celsius");
    chip.thermal.k_per_watt = reader.finite("thermal.k_per_watt");
    chip.thermal.time_constant_s =
        reader.finite("thermal.time_constant_s");
    chip.set_freq_latency = reader.i64();
    if (chip.set_freq_latency < 0)
        throw WireError("wire: negative set_freq_latency");
    chip.initial_mhz = reader.finite("initial_mhz");
    chip.uncore_scale = reader.finite("uncore_scale");
    return chip;
}

constexpr std::uint8_t kFlagUseCache = 0x01;
constexpr std::uint8_t kFlagAllowWarmStart = 0x02;
/** v2: a u32 deadline_ms follows the seed when set. */
constexpr std::uint8_t kFlagHasDeadline = 0x04;
/** v4: answer a non-owned key from the replica set (failover). */
constexpr std::uint8_t kFlagServeReplica = 0x08;

} // namespace

const char *
statusToken(Status status)
{
    switch (status) {
    case Status::Ok: return "ok";
    case Status::Busy: return "busy";
    case Status::Malformed: return "malformed";
    case Status::ChipMismatch: return "chip-mismatch";
    case Status::Internal: return "internal";
    case Status::NotOwner: return "not-owner";
    }
    return "unknown";
}

std::size_t
workloadNumbersPerOp()
{
    // Probe the canonical visitor itself so the answer tracks its
    // coverage automatically: one default operator, count the scalar
    // fields it emits.
    static const std::size_t count = [] {
        models::Workload probe;
        probe.iteration.resize(1);
        std::size_t strings = 0;
        std::size_t numbers = 0;
        models::WorkloadFieldVisitor visitor;
        visitor.string_field = [&strings](std::string_view) { ++strings; };
        visitor.number_field = [&numbers](double) { ++numbers; };
        models::visitWorkloadFields(probe, visitor);
        if (strings != 1)
            throw std::logic_error(
                "wire: visitWorkloadFields no longer emits exactly one "
                "string per op; the wire layout must be revised");
        return numbers;
    }();
    return count;
}

std::string
encodeChipConfig(const npu::NpuConfig &chip)
{
    ByteWriter writer;
    writeChip(writer, chip);
    return writer.take();
}

std::string
encodeRequest(const WireRequest &request, const WireLimits &limits)
{
    if (request.workload.opCount() > limits.max_ops)
        throw WireError("wire: workload exceeds the op cap");
    if (!std::isfinite(request.perf_loss_target)
        || request.perf_loss_target <= 0.0
        || request.perf_loss_target >= 1.0)
        throw WireError("wire: perf_loss_target outside (0, 1)");
    ByteWriter writer;
    std::uint8_t flags = 0;
    if (request.use_cache)
        flags |= kFlagUseCache;
    if (request.allow_warm_start)
        flags |= kFlagAllowWarmStart;
    if (request.deadline_ms > 0)
        flags |= kFlagHasDeadline;
    if (request.serve_replica)
        flags |= kFlagServeReplica;
    writer.u8(flags);
    writer.f64(request.perf_loss_target);
    writer.u64(request.seed);
    if (request.deadline_ms > 0)
        writer.u32(request.deadline_ms);
    writeChip(writer, request.chip);

    writer.u32(static_cast<std::uint32_t>(request.workload.opCount()));
    writer.u32(static_cast<std::uint32_t>(workloadNumbersPerOp()));
    // The op stream is emitted through the canonical field visitor —
    // the same stream the fingerprint hashes — so wire coverage and
    // cache-identity coverage are one definition, not two.
    models::WorkloadFieldVisitor visitor;
    const WireLimits *caps = &limits;
    visitor.string_field = [&writer, caps](std::string_view text) {
        writer.str16(text, caps->max_string_bytes, "op type");
    };
    visitor.number_field = [&writer](double value) { writer.f64(value); };
    models::visitWorkloadFields(request.workload, visitor);
    return writer.take();
}

namespace {

/** The per-op numbers the request mapping consumes, in visitor order.
 *  workloadNumbersPerOp() is probed from the visitor at run time, so
 *  a build whose visitor changed is rejected before any op is read. */
constexpr std::size_t kMappedNumbersPerOp = 15;
using OpNumbers = std::array<double, kMappedNumbersPerOp>;

/**
 * The one request parser.  It validates every field once, in wire
 * order, writes the fields around the operator list into @p request
 * and hands each operator to @p sink: `sink.reserve(count)` once, then
 * `sink.op(type, numbers)` per operator, with the four integral fields
 * already range-checked.  decodeRequest's sink builds the workload,
 * requestKey's feeds the digest stream, so the two accept and reject
 * exactly the same payloads with the same errors.  Returns the chip
 * block's bytes inside @p payload.
 */
template <class Sink>
std::string_view
parseRequest(std::string_view payload, const WireLimits &limits,
             WireRequest &request, Sink &sink)
{
    ByteReader reader(payload);
    std::uint8_t flags = reader.u8();
    if (flags
        & ~(kFlagUseCache | kFlagAllowWarmStart | kFlagHasDeadline
            | kFlagServeReplica))
        throw WireError("wire: unknown request flags");
    request.use_cache = (flags & kFlagUseCache) != 0;
    request.allow_warm_start = (flags & kFlagAllowWarmStart) != 0;
    request.serve_replica = (flags & kFlagServeReplica) != 0;
    request.perf_loss_target = reader.finite("perf_loss_target");
    if (request.perf_loss_target <= 0.0 || request.perf_loss_target >= 1.0)
        throw WireError("wire: perf_loss_target outside (0, 1)");
    request.seed = reader.u64();
    if (flags & kFlagHasDeadline) {
        request.deadline_ms = reader.u32();
        // A present-but-zero deadline has no canonical encoding (the
        // encoder omits the field for 0), so reject it to preserve
        // encode(decode(p)) == p.
        if (request.deadline_ms == 0)
            throw WireError("wire: deadline flag set with zero budget");
    }
    std::size_t chip_start = reader.position();
    request.chip = readChip(reader);
    std::string_view chip_block =
        payload.substr(chip_start, reader.position() - chip_start);

    std::size_t op_count = reader.u32();
    if (op_count > limits.max_ops)
        throw WireError("wire: op count exceeds the cap");
    std::size_t numbers_per_op = reader.u32();
    if (numbers_per_op != workloadNumbersPerOp())
        throw WireVersionError(
            "wire: per-op field coverage differs from this build");
    if (numbers_per_op != kMappedNumbersPerOp)
        throw WireVersionError(
            "wire: per-op field count differs from this build's request "
            "mapping");
    // Every op needs at least its string length prefix plus the scalar
    // block; reject counts the remaining bytes cannot possibly satisfy
    // before reserving anything.
    if (op_count > 0
        && reader.remaining() / (2 + 8 * numbers_per_op) < op_count)
        throw WireError("wire: op count exceeds the remaining payload");
    sink.reserve(op_count);

    OpNumbers numbers;
    for (std::size_t index = 0; index < op_count; ++index) {
        std::string_view type =
            reader.view16(limits.max_string_bytes, "op type");
        for (double &value : numbers)
            value = reader.finite("op field");
        requireIntegral(numbers[0], 0, 3, "op category");
        requireIntegral(numbers[1], 0, 3, "op scenario");
        requireIntegral(numbers[2], 0, 3, "op core_pipe");
        requireIntegral(numbers[3], 1, 0x7FFFFFFF, "op n");
        sink.op(type, numbers);
    }
    reader.expectEnd("request payload");
    return chip_block;
}

/** decodeRequest's sink: rebuild the operators, ids positional. */
struct WorkloadSink
{
    ops::OpSequence &ops;

    void reserve(std::size_t count) { ops.reserve(count); }

    void op(std::string_view type, const OpNumbers &numbers)
    {
        ops::Op &op = ops.emplace_back();
        op.id = ops.size() - 1;
        op.type = type;
        // Positional mapping back into HwOpParams, mirroring the
        // visitor's emission order.
        op.hw.category =
            static_cast<npu::OpCategory>(static_cast<int>(numbers[0]));
        op.hw.scenario =
            static_cast<npu::Scenario>(static_cast<int>(numbers[1]));
        op.hw.core_pipe =
            static_cast<npu::CorePipe>(static_cast<int>(numbers[2]));
        op.hw.n = static_cast<int>(numbers[3]);
        op.hw.core_cycles = numbers[4];
        op.hw.ld_volume_bytes = numbers[5];
        op.hw.ld_l2_hit = numbers[6];
        op.hw.st_volume_bytes = numbers[7];
        op.hw.st_l2_hit = numbers[8];
        op.hw.t0_seconds = numbers[9];
        op.hw.overhead_seconds = numbers[10];
        op.hw.fixed_seconds = numbers[11];
        op.hw.comm_bytes = numbers[12];
        op.hw.alpha_core = numbers[13];
        op.hw.uncore_activity = numbers[14];
        static_assert(kMappedNumbersPerOp == 15,
                      "map every per-op number into HwOpParams");
    }
};

/**
 * requestKey's sink: the wire's numbers are the visitor's values (the
 * integral fields were checked to be canonical integers, and
 * mixNumber folds -0.0 in the others as it does for a decoded
 * workload), so they feed the digest stream as they arrive.
 */
struct DigestSink
{
    serve::DigestStream &stream;

    void reserve(std::size_t) {}

    void op(std::string_view type, const OpNumbers &numbers)
    {
        stream.opType(type);
        for (double value : numbers)
            stream.opNumber(value);
    }
};

} // namespace

WireRequest
decodeRequest(std::string_view payload, const WireLimits &limits)
{
    WireRequest request;
    WorkloadSink sink{request.workload.iteration};
    parseRequest(payload, limits, request, sink);
    return request;
}

RequestKey
requestKey(std::string_view payload, const WireLimits &limits)
{
    // The workload stays empty: the sink digests the operators.
    WireRequest request;
    serve::DigestStream stream;
    DigestSink sink{stream};
    RequestKey key;
    key.chip_block = parseRequest(payload, limits, request, sink);
    key.digest = stream.finish(request.chip, request.perf_loss_target,
                               request.seed);
    key.use_cache = request.use_cache;
    key.serve_replica = request.serve_replica;
    return key;
}

std::string
encodeResponse(const WireResponse &response, const WireLimits &limits)
{
    if ((response.status == Status::Busy)
        != (response.reject != serve::RejectReason::None))
        throw WireError("wire: Busy responses (and only those) carry a "
                        "reject cause");
    if (response.status != Status::Busy && response.retry_after_ms != 0)
        throw WireError("wire: retry_after_ms is only carried by Busy "
                        "responses");
    if ((response.status == Status::NotOwner)
        != !response.owner_address.empty())
        throw WireError("wire: NotOwner responses (and only those) carry "
                        "an owner address");
    ByteWriter writer;
    writer.u8(static_cast<std::uint8_t>(response.status));
    writer.u8(static_cast<std::uint8_t>(response.reject));
    writer.str16(response.message, limits.max_message_bytes,
                 "response message");
    if (response.status == Status::Busy)
        writer.u32(response.retry_after_ms);
    if (response.status == Status::NotOwner) {
        writer.str16(response.owner_address, limits.max_string_bytes,
                     "owner address");
        writer.u64(response.map_epoch);
        writer.str32(response.shard_map_text, limits.max_shard_map_bytes,
                     "shard map block");
        return writer.take();
    }
    if (response.status != Status::Ok)
        return writer.take();

    writer.u64(response.fingerprint_digest);
    writer.u64(response.model_epoch);
    writer.u8(static_cast<std::uint8_t>(response.provenance));
    writer.f64(response.similarity);
    writer.u32(response.generations_run);
    writer.u32(response.generations_saved);
    writer.f64(response.service_seconds);
    writer.f64(response.best_score);
    // The strategy travels in the strategy_io text format: one
    // serialisation shared with on-disk persistence, so wire responses
    // inherit its validation and byte-stability guarantees.
    std::ostringstream strategy_text;
    dvfs::saveStrategy(response.strategy, strategy_text);
    writer.str32(strategy_text.str(), limits.max_strategy_bytes,
                 "strategy block");
    return writer.take();
}

WireResponse
decodeResponse(std::string_view payload, const WireLimits &limits)
{
    ByteReader reader(payload);
    WireResponse response;
    std::uint8_t status = reader.u8();
    if (status > static_cast<std::uint8_t>(Status::NotOwner))
        throw WireError("wire: unknown response status");
    response.status = static_cast<Status>(status);
    std::uint8_t reject = reader.u8();
    if (reject > static_cast<std::uint8_t>(
            serve::RejectReason::Overloaded))
        throw WireError("wire: unknown reject reason");
    response.reject = static_cast<serve::RejectReason>(reject);
    if ((response.status == Status::Busy)
        != (response.reject != serve::RejectReason::None))
        throw WireError("wire: Busy responses (and only those) carry a "
                        "reject cause");
    response.message =
        reader.str16(limits.max_message_bytes, "response message");
    if (response.status == Status::Busy)
        response.retry_after_ms = reader.u32();
    if (response.status == Status::NotOwner) {
        response.owner_address =
            reader.str16(limits.max_string_bytes, "owner address");
        if (response.owner_address.empty())
            throw WireError("wire: NotOwner without an owner address");
        response.map_epoch = reader.u64();
        response.shard_map_text = reader.str32(limits.max_shard_map_bytes,
                                               "shard map block");
        reader.expectEnd("response payload");
        return response;
    }
    if (response.status != Status::Ok) {
        reader.expectEnd("response payload");
        return response;
    }

    response.fingerprint_digest = reader.u64();
    response.model_epoch = reader.u64();
    std::uint8_t provenance = reader.u8();
    if (provenance > static_cast<std::uint8_t>(
            serve::Provenance::Predicted))
        throw WireError("wire: unknown provenance");
    response.provenance = static_cast<serve::Provenance>(provenance);
    response.similarity = reader.finite("similarity");
    if (response.similarity < 0.0 || response.similarity > 1.0)
        throw WireError("wire: similarity outside [0, 1]");
    response.generations_run = reader.u32();
    response.generations_saved = reader.u32();
    response.service_seconds = reader.finite("service_seconds");
    if (response.service_seconds < 0.0)
        throw WireError("wire: negative service_seconds");
    response.best_score = reader.finite("best_score");
    std::string strategy_text =
        reader.str32(limits.max_strategy_bytes, "strategy block");
    try {
        std::istringstream is(strategy_text);
        response.strategy = dvfs::loadStrategy(is);
    } catch (const std::invalid_argument &error) {
        throw WireError(std::string("wire: embedded strategy rejected: ")
                        + error.what());
    }
    reader.expectEnd("response payload");
    return response;
}

namespace {

/** u16 count + IEEE-754 doubles; every element must be finite. */
void
writeDoubles(ByteWriter &writer, const std::vector<double> &values,
             std::size_t cap, const char *what)
{
    if (values.size() > cap)
        throw WireError(std::string("wire: ") + what
                        + " exceeds its element cap");
    writer.u16(static_cast<std::uint16_t>(values.size()));
    for (double value : values) {
        if (!std::isfinite(value))
            throw WireError(std::string("wire: non-finite ") + what);
        writer.f64(value);
    }
}

std::vector<double>
readDoubles(ByteReader &reader, std::size_t cap, const char *what)
{
    std::size_t count = reader.u16();
    if (count > cap)
        throw WireError(std::string("wire: ") + what
                        + " exceeds its element cap");
    std::vector<double> values(count);
    for (double &value : values)
        value = reader.finite(what);
    return values;
}

} // namespace

std::string
encodePeerDonorQuery(const PeerDonorQuery &query, const WireLimits &limits)
{
    if (!std::isfinite(query.perf_loss_target)
        || query.perf_loss_target <= 0.0 || query.perf_loss_target >= 1.0)
        throw WireError("wire: perf_loss_target outside (0, 1)");
    ByteWriter writer;
    writer.u64(query.digest);
    writer.u64(query.model_epoch);
    writer.f64(query.perf_loss_target);
    writer.u32(query.origin_shard);
    writeDoubles(writer, query.features, limits.max_features,
                 "query features");
    return writer.take();
}

PeerDonorQuery
decodePeerDonorQuery(std::string_view payload, const WireLimits &limits)
{
    ByteReader reader(payload);
    PeerDonorQuery query;
    query.digest = reader.u64();
    query.model_epoch = reader.u64();
    query.perf_loss_target = reader.finite("perf_loss_target");
    if (query.perf_loss_target <= 0.0 || query.perf_loss_target >= 1.0)
        throw WireError("wire: perf_loss_target outside (0, 1)");
    query.origin_shard = reader.u32();
    query.features =
        readDoubles(reader, limits.max_features, "query features");
    reader.expectEnd("peer donor query");
    return query;
}

std::string
encodePeerDonorReply(const PeerDonorReply &reply, const WireLimits &limits)
{
    ByteWriter writer;
    writer.u8(reply.found ? 1 : 0);
    if (!reply.found) {
        // A miss carries nothing: the canonical empty reply.
        return writer.take();
    }
    if (!std::isfinite(reply.similarity) || reply.similarity < 0.0
        || reply.similarity > 1.0)
        throw WireError("wire: similarity outside [0, 1]");
    writer.f64(reply.similarity);
    writer.u64(reply.fingerprint_digest);
    writer.u64(reply.model_epoch);
    writer.f64(reply.perf_loss_target);
    writer.f64(reply.best_score);
    writeDoubles(writer, reply.features, limits.max_features,
                 "donor features");
    writeDoubles(writer, reply.best_mhz, limits.max_stages,
                 "donor best_mhz");
    writer.str32(reply.strategy_text, limits.max_strategy_bytes,
                 "donor strategy block");
    return writer.take();
}

PeerDonorReply
decodePeerDonorReply(std::string_view payload, const WireLimits &limits)
{
    ByteReader reader(payload);
    PeerDonorReply reply;
    std::uint8_t found = reader.u8();
    if (found > 1)
        throw WireError("wire: bad donor-found flag");
    reply.found = found == 1;
    if (!reply.found) {
        reader.expectEnd("peer donor reply");
        return reply;
    }
    reply.similarity = reader.finite("similarity");
    if (reply.similarity < 0.0 || reply.similarity > 1.0)
        throw WireError("wire: similarity outside [0, 1]");
    reply.fingerprint_digest = reader.u64();
    reply.model_epoch = reader.u64();
    reply.perf_loss_target = reader.finite("perf_loss_target");
    reply.best_score = reader.finite("best_score");
    reply.features =
        readDoubles(reader, limits.max_features, "donor features");
    reply.best_mhz =
        readDoubles(reader, limits.max_stages, "donor best_mhz");
    reply.strategy_text = reader.str32(limits.max_strategy_bytes,
                                       "donor strategy block");
    reader.expectEnd("peer donor reply");
    return reply;
}

std::string
encodeEpochInvalidate(const EpochInvalidate &invalidate)
{
    ByteWriter writer;
    writer.u32(invalidate.origin_shard);
    writer.u64(invalidate.model_epoch);
    return writer.take();
}

EpochInvalidate
decodeEpochInvalidate(std::string_view payload)
{
    ByteReader reader(payload);
    EpochInvalidate invalidate;
    invalidate.origin_shard = reader.u32();
    invalidate.model_epoch = reader.u64();
    reader.expectEnd("epoch invalidate");
    return invalidate;
}

std::string
encodeEpochInvalidateAck(const EpochInvalidateAck &ack)
{
    ByteWriter writer;
    writer.u32(ack.shard_id);
    writer.u64(ack.model_epoch);
    return writer.take();
}

EpochInvalidateAck
decodeEpochInvalidateAck(std::string_view payload)
{
    ByteReader reader(payload);
    EpochInvalidateAck ack;
    ack.shard_id = reader.u32();
    ack.model_epoch = reader.u64();
    reader.expectEnd("epoch invalidate ack");
    return ack;
}

std::string
encodePeerReplicate(const PeerReplicate &replicate,
                    const WireLimits &limits)
{
    if (!std::isfinite(replicate.perf_loss_target)
        || replicate.perf_loss_target <= 0.0
        || replicate.perf_loss_target >= 1.0)
        throw WireError("wire: perf_loss_target outside (0, 1)");
    ByteWriter writer;
    writer.u32(replicate.origin_shard);
    writer.u64(replicate.fingerprint_digest);
    writer.u64(replicate.model_epoch);
    writer.f64(replicate.perf_loss_target);
    writer.f64(replicate.best_score);
    writeDoubles(writer, replicate.features, limits.max_features,
                 "replica features");
    writeDoubles(writer, replicate.best_mhz, limits.max_stages,
                 "replica best_mhz");
    writer.str32(replicate.strategy_text, limits.max_strategy_bytes,
                 "replica strategy block");
    return writer.take();
}

PeerReplicate
decodePeerReplicate(std::string_view payload, const WireLimits &limits)
{
    ByteReader reader(payload);
    PeerReplicate replicate;
    replicate.origin_shard = reader.u32();
    replicate.fingerprint_digest = reader.u64();
    replicate.model_epoch = reader.u64();
    replicate.perf_loss_target = reader.finite("perf_loss_target");
    if (replicate.perf_loss_target <= 0.0
        || replicate.perf_loss_target >= 1.0)
        throw WireError("wire: perf_loss_target outside (0, 1)");
    replicate.best_score = reader.finite("best_score");
    replicate.features =
        readDoubles(reader, limits.max_features, "replica features");
    replicate.best_mhz =
        readDoubles(reader, limits.max_stages, "replica best_mhz");
    replicate.strategy_text = reader.str32(limits.max_strategy_bytes,
                                           "replica strategy block");
    reader.expectEnd("peer replicate");
    return replicate;
}

std::string
encodePeerReplicateAck(const PeerReplicateAck &ack)
{
    ByteWriter writer;
    writer.u32(ack.shard_id);
    writer.u8(ack.accepted ? 1 : 0);
    return writer.take();
}

PeerReplicateAck
decodePeerReplicateAck(std::string_view payload)
{
    ByteReader reader(payload);
    PeerReplicateAck ack;
    ack.shard_id = reader.u32();
    std::uint8_t accepted = reader.u8();
    if (accepted > 1)
        throw WireError("wire: bad replica-accepted flag");
    ack.accepted = accepted == 1;
    reader.expectEnd("peer replicate ack");
    return ack;
}

std::string
frameMessage(MsgType type, std::string_view payload,
             const WireLimits &limits)
{
    if (limits.max_frame_bytes < kFrameHeaderBytes
        || payload.size() > limits.max_frame_bytes - kFrameHeaderBytes)
        throw WireError("wire: payload exceeds the frame cap");
    ByteWriter writer;
    for (char byte : kWireMagic)
        writer.u8(static_cast<std::uint8_t>(byte));
    writer.u8(kWireVersion);
    writer.u8(static_cast<std::uint8_t>(type));
    writer.u16(0); // reserved
    writer.u32(static_cast<std::uint32_t>(payload.size()));
    writer.u32(crc32(payload));
    std::string frame = writer.take();
    frame.append(payload);
    return frame;
}

std::optional<FrameView>
peelFrame(std::string_view buffer, std::size_t *consumed,
          const WireLimits &limits)
{
    if (consumed)
        *consumed = 0;
    if (buffer.size() < kFrameHeaderBytes)
        return std::nullopt;
    if (std::memcmp(buffer.data(), kWireMagic, sizeof(kWireMagic)) != 0)
        throw WireError("wire: bad frame magic");
    ByteReader reader(buffer.substr(sizeof(kWireMagic),
                                    kFrameHeaderBytes
                                        - sizeof(kWireMagic)));
    std::uint8_t version = reader.u8();
    if (version != kWireVersion)
        throw WireVersionError("wire: unsupported protocol version "
                               + std::to_string(version));
    std::uint8_t type = reader.u8();
    if (type < static_cast<std::uint8_t>(MsgType::Request)
        || type > static_cast<std::uint8_t>(MsgType::PeerReplicateAck))
        throw WireError("wire: unknown message type");
    if (reader.u16() != 0)
        throw WireError("wire: reserved header bits set");
    std::size_t length = reader.u32();
    std::uint32_t declared_crc = reader.u32();
    if (limits.max_frame_bytes < kFrameHeaderBytes
        || length > limits.max_frame_bytes - kFrameHeaderBytes)
        throw WireError("wire: declared frame length exceeds the cap");
    if (buffer.size() < kFrameHeaderBytes + length)
        return std::nullopt; // wait for the rest of the payload
    std::string_view payload = buffer.substr(kFrameHeaderBytes, length);
    if (crc32(payload) != declared_crc)
        throw WireError("wire: frame CRC mismatch");
    if (consumed)
        *consumed = kFrameHeaderBytes + length;
    return FrameView{static_cast<MsgType>(type), payload};
}

std::string
frameRequest(const WireRequest &request, const WireLimits &limits)
{
    return frameMessage(MsgType::Request, encodeRequest(request, limits),
                        limits);
}

std::string
frameResponse(const WireResponse &response, const WireLimits &limits)
{
    return frameMessage(MsgType::Response,
                        encodeResponse(response, limits), limits);
}

} // namespace opdvfs::net
