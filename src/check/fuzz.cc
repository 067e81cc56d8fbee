#include "check/fuzz.h"

#include <bit>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "check/generators.h"
#include "dvfs/strategy_io.h"
#include "net/wire.h"
#include "npu/memory_system.h"
#include "npu/npu_chip.h"
#include "serve/cache_store.h"
#include "serve/fingerprint.h"
#include "tune/corpus.h"

namespace opdvfs::check {

namespace {

/** Printable dump of a fuzz buffer (non-ASCII bytes escaped). */
std::string
escapeBuffer(const std::uint8_t *data, std::size_t size)
{
    std::ostringstream os;
    std::size_t limit = std::min<std::size_t>(size, 2048);
    for (std::size_t i = 0; i < limit; ++i) {
        std::uint8_t byte = data[i];
        if (byte == '\n' || byte == '\t'
            || (byte >= 0x20 && byte < 0x7f)) {
            os << static_cast<char>(byte);
        } else {
            static const char hex[] = "0123456789abcdef";
            os << "\\x" << hex[byte >> 4] << hex[byte & 0xf];
        }
    }
    if (limit < size)
        os << "... (" << size - limit << " more bytes)";
    return os.str();
}

std::uint64_t
bufferSeed(const std::uint8_t *data, std::size_t size)
{
    // FNV-1a over the buffer: a deterministic seed for derived inputs.
    std::uint64_t h = 1469598103934665603ULL;
    for (std::size_t i = 0; i < size; ++i) {
        h ^= data[i];
        h *= 1099511628211ULL;
    }
    return h;
}

} // namespace

std::optional<std::string>
fuzzStrategyIoOne(const std::uint8_t *data, std::size_t size)
{
    std::string text(reinterpret_cast<const char *>(data), size);

    dvfs::Strategy loaded;
    try {
        std::istringstream is(text);
        loaded = dvfs::loadStrategy(is);
    } catch (const std::invalid_argument &) {
        return std::nullopt; // clean rejection is the expected path
    } catch (const std::exception &error) {
        return "loadStrategy threw a non-invalid_argument exception: "
            + std::string(error.what());
    } catch (...) {
        return std::string("loadStrategy threw a non-standard exception");
    }

    // The loader accepted the bytes: the parsed strategy must be
    // internally consistent and survive save -> load -> save.
    if (loaded.stages.size() != loaded.mhz_per_stage.size())
        return std::string("accepted strategy has mismatched stage and "
                           "frequency vectors");
    std::string first;
    try {
        std::ostringstream os;
        dvfs::saveStrategy(loaded, os);
        first = os.str();
    } catch (const std::exception &error) {
        return "accepted strategy fails to save: "
            + std::string(error.what());
    }
    dvfs::Strategy reloaded;
    try {
        std::istringstream is(first);
        reloaded = dvfs::loadStrategy(is);
    } catch (const std::exception &error) {
        return "re-saved strategy fails to load: "
            + std::string(error.what());
    }
    std::ostringstream second;
    dvfs::saveStrategy(reloaded, second);
    if (first != second.str())
        return std::string("save -> load -> save is not byte-stable");

    // Determinism: parsing the same bytes twice gives the same text.
    std::istringstream again_is(text);
    dvfs::Strategy again = dvfs::loadStrategy(again_is);
    std::ostringstream again_os;
    dvfs::saveStrategy(again, again_os);
    if (again_os.str() != first)
        return std::string("loadStrategy is not deterministic");
    return std::nullopt;
}

std::optional<std::string>
fuzzFingerprintOne(const std::uint8_t *data, std::size_t size)
{
    // The buffer drives a deterministic request: same bytes, same
    // workload, same parameters.
    std::uint64_t seed = bufferSeed(data, size);
    npu::NpuConfig chip;
    npu::MemorySystem memory(chip.memory);
    Rng rng(seed);
    models::Workload workload = genWorkload(rng, memory, 1, 12);
    double loss_target = 0.005 + 0.095 * (seed % 1000) / 1000.0;
    std::uint64_t ga_seed = seed ^ 0x5bd1e995;

    serve::Fingerprint fp = serve::fingerprintRequest(workload, chip,
                                                      loss_target, ga_seed);
    for (double feature : fp.features) {
        if (!std::isfinite(feature))
            return std::string("non-finite fingerprint feature");
    }
    if (serve::fingerprintSimilarity(fp, fp) != 1.0)
        return std::string("self-similarity is not exactly 1.0");

    serve::Fingerprint fp2 = serve::fingerprintRequest(workload, chip,
                                                       loss_target, ga_seed);
    if (fp2.digest != fp.digest || fp2.features != fp.features)
        return std::string("fingerprint is not deterministic");

    // The workload *name* is presentation, not identity.
    models::Workload renamed = workload;
    renamed.name = workload.name + "-renamed";
    serve::Fingerprint fp3 = serve::fingerprintRequest(renamed, chip,
                                                       loss_target, ga_seed);
    if (fp3.digest != fp.digest)
        return std::string("workload name leaks into the digest");

    // The GA seed is identity (bit-reproducible service) but must not
    // move the similarity features (warm-start donors ignore it).
    serve::Fingerprint fp4 = serve::fingerprintRequest(
        workload, chip, loss_target, ga_seed + 1);
    if (fp4.digest == fp.digest)
        return std::string("GA seed does not enter the digest");
    if (fp4.features != fp.features)
        return std::string("GA seed moved the similarity features");
    return std::nullopt;
}

namespace {

/** Tight caps: the fuzzer exercises validation, not allocation. */
net::WireLimits
wireFuzzLimits()
{
    net::WireLimits limits;
    limits.max_frame_bytes = 64u << 10;
    limits.max_ops = 512;
    limits.max_strategy_bytes = 32u << 10;
    return limits;
}

/** What a decoder threw: its WireError kind and message. */
std::string
rejection(const std::invalid_argument &error)
{
    bool version = dynamic_cast<const net::WireVersionError *>(&error);
    bool wire = dynamic_cast<const net::WireError *>(&error);
    return std::string(version ? "WireVersionError"
                       : wire  ? "WireError"
                               : "invalid_argument")
        + ": " + error.what();
}

} // namespace

std::optional<std::string>
checkWireRequest(std::string_view payload, const net::WireLimits &limits)
{
    // The key pass and the decoder share one parser: they must accept
    // and reject the same payloads, with the same error.
    std::optional<net::RequestKey> key;
    std::string key_rejection;
    try {
        key = net::requestKey(payload, limits);
    } catch (const std::invalid_argument &error) {
        key_rejection = rejection(error);
    } catch (const std::exception &error) {
        return "requestKey threw a non-invalid_argument exception: "
            + std::string(error.what());
    } catch (...) {
        return std::string("requestKey threw a non-standard exception");
    }

    net::WireRequest decoded;
    try {
        decoded = net::decodeRequest(payload, limits);
    } catch (const std::invalid_argument &error) {
        if (key)
            return "requestKey accepted a payload decodeRequest rejects ("
                + rejection(error) + ")";
        if (key_rejection != rejection(error))
            return "requestKey and decodeRequest reject differently: "
                + key_rejection + " vs " + rejection(error);
        return std::nullopt; // clean rejection is the expected path
    } catch (const std::exception &error) {
        return "decodeRequest threw a non-invalid_argument exception: "
            + std::string(error.what());
    } catch (...) {
        return std::string(
            "decodeRequest threw a non-standard exception");
    }
    if (!key)
        return "requestKey rejected a payload decodeRequest accepts ("
            + key_rejection + ")";

    // The key is the decoded request's identity, read off the bytes.
    if (key->digest
        != serve::fingerprintRequest(decoded.workload, decoded.chip,
                                     decoded.perf_loss_target, decoded.seed)
               .digest)
        return std::string(
            "requestKey digest differs from the decoded request's "
            "fingerprint");
    if (key->use_cache != decoded.use_cache
        || key->serve_replica != decoded.serve_replica)
        return std::string(
            "requestKey flags differ from the decoded request's");
    if (key->chip_block != net::encodeChipConfig(decoded.chip))
        return std::string(
            "requestKey chip block differs from the re-encoded chip");

    // Accepted requests re-encode byte-identically: the codec
    // transmits exactly the canonical field stream, nothing else.
    std::string encoded;
    try {
        encoded = net::encodeRequest(decoded, limits);
    } catch (const std::exception &error) {
        return "accepted request fails to re-encode: "
            + std::string(error.what());
    }
    if (encoded != payload)
        return std::string(
            "request decode -> encode is not byte-identical");
    net::WireRequest again = net::decodeRequest(payload, limits);
    if (net::encodeRequest(again, limits) != encoded)
        return std::string("decodeRequest is not deterministic");
    return std::nullopt;
}

RequestOffsets
requestOffsets(const net::WireRequest &request)
{
    // Flags, loss target and seed, the optional deadline, the chip
    // block, the op count and numbers per op, then per operator its
    // length-prefixed type and its numbers.
    RequestOffsets offsets;
    offsets.deadline = 1 + 8 + 8;
    offsets.op_count = offsets.deadline + (request.deadline_ms > 0 ? 4 : 0)
                       + net::encodeChipConfig(request.chip).size();
    std::size_t at = offsets.op_count + 4 + 4;
    for (const ops::Op &op : request.workload.iteration) {
        at += 2 + op.type.size();
        offsets.op_numbers.push_back(at);
        at += 8 * net::workloadNumbersPerOp();
    }
    return offsets;
}

namespace {

std::optional<std::string>
checkResponsePayload(std::string_view payload,
                     const net::WireLimits &limits)
{
    net::WireResponse decoded;
    try {
        decoded = net::decodeResponse(payload, limits);
    } catch (const std::invalid_argument &) {
        return std::nullopt;
    } catch (const std::exception &error) {
        return "decodeResponse threw a non-invalid_argument exception: "
            + std::string(error.what());
    } catch (...) {
        return std::string(
            "decodeResponse threw a non-standard exception");
    }

    // The embedded strategy text is normalised by its load -> save
    // round trip, so responses promise encode -> decode -> encode
    // stability rather than strict byte identity.
    std::string first;
    try {
        first = net::encodeResponse(decoded, limits);
    } catch (const std::exception &error) {
        return "accepted response fails to re-encode: "
            + std::string(error.what());
    }
    net::WireResponse reloaded;
    try {
        reloaded = net::decodeResponse(first, limits);
    } catch (const std::exception &error) {
        return "re-encoded response fails to decode: "
            + std::string(error.what());
    }
    if (net::encodeResponse(reloaded, limits) != first)
        return std::string(
            "response encode -> decode -> encode is not byte-stable");
    return std::nullopt;
}

} // namespace

std::optional<std::string>
fuzzWireOne(const std::uint8_t *data, std::size_t size)
{
    const net::WireLimits limits = wireFuzzLimits();
    std::string_view stream(reinterpret_cast<const char *>(data), size);

    // Walk the stream frame by frame, exactly as the server's read
    // loop does; a peeled frame always consumes at least its header,
    // so the walk terminates.
    while (!stream.empty()) {
        std::size_t consumed = 0;
        std::optional<net::FrameView> frame;
        try {
            frame = net::peelFrame(stream, &consumed, limits);
        } catch (const std::invalid_argument &) {
            return std::nullopt; // clean rejection
        } catch (const std::exception &error) {
            return "peelFrame threw a non-invalid_argument exception: "
                + std::string(error.what());
        } catch (...) {
            return std::string("peelFrame threw a non-standard exception");
        }
        if (!frame)
            return std::nullopt; // incomplete tail: wait for more bytes
        std::optional<std::string> failure =
            frame->type == net::MsgType::Request
                ? checkWireRequest(frame->payload, limits)
                : checkResponsePayload(frame->payload, limits);
        if (failure)
            return failure;
        stream.remove_prefix(consumed);
    }
    return std::nullopt;
}

std::optional<std::string>
fuzzCacheWalOne(const std::uint8_t *data, std::size_t size)
{
    std::string_view buffer(reinterpret_cast<const char *>(data), size);
    serve::WalReplay replay;
    try {
        replay = serve::replayWalBuffer(buffer);
    } catch (const std::exception &error) {
        return "replayWalBuffer threw (recover-or-truncate violated): "
            + std::string(error.what());
    } catch (...) {
        return std::string("replayWalBuffer threw a non-standard "
                           "exception");
    }
    if (replay.valid_bytes > size)
        return std::string("valid prefix longer than the buffer");
    if (replay.truncated_tail != (replay.valid_bytes != size))
        return std::string(
            "truncated_tail inconsistent with the valid prefix");

    // Determinism: replaying the same bytes finds the same prefix.
    serve::WalReplay again = serve::replayWalBuffer(buffer);
    if (again.valid_bytes != replay.valid_bytes
        || again.entries.size() != replay.entries.size())
        return std::string("replay is not deterministic");

    // Every recovered entry must be re-loggable, and its record must
    // replay back byte-stably — nothing semi-corrupt may be recovered.
    for (const serve::CacheEntry &entry : replay.entries) {
        std::string record;
        try {
            record = serve::encodeWalRecord(entry);
        } catch (const std::exception &error) {
            return "recovered entry fails to re-encode: "
                + std::string(error.what());
        }
        serve::WalReplay one = serve::replayWalBuffer(record);
        if (one.entries.size() != 1 || one.truncated_tail)
            return std::string(
                "re-encoded record does not replay cleanly");
        if (one.entries[0].fingerprint.digest != entry.fingerprint.digest)
            return std::string(
                "re-encoded record replays a different digest");
        if (serve::encodeWalRecord(one.entries[0]) != record)
            return std::string(
                "encode -> replay -> encode is not byte-stable");
    }
    return std::nullopt;
}

namespace {

/** Mutate a valid strategy file into a near-valid buffer. */
std::vector<std::uint8_t>
mutatedStrategyBuffer(Rng &rng)
{
    npu::FreqTable table(genFreqTableConfig(rng));
    dvfs::Strategy strategy = genStrategy(rng, table);
    std::ostringstream os;
    dvfs::saveStrategy(strategy, os);
    std::string text = os.str();

    int mutations = static_cast<int>(rng.uniformInt(0, 8));
    for (int m = 0; m < mutations && !text.empty(); ++m) {
        switch (rng.uniformInt(0, 4)) {
        case 0: // flip one byte
            text[rng.index(text.size())] =
                static_cast<char>(rng.uniformInt(0, 255));
            break;
        case 1: // truncate
            text.resize(rng.index(text.size() + 1));
            break;
        case 2: { // duplicate a line
            std::size_t from = rng.index(text.size());
            std::size_t line_start = text.rfind('\n', from);
            line_start = line_start == std::string::npos ? 0 : line_start + 1;
            std::size_t line_end = text.find('\n', from);
            line_end = line_end == std::string::npos ? text.size()
                                                     : line_end + 1;
            text.insert(line_start,
                        text.substr(line_start, line_end - line_start));
            break;
        }
        case 3: // insert a random byte
            text.insert(text.begin()
                            + static_cast<std::ptrdiff_t>(
                                rng.index(text.size() + 1)),
                        static_cast<char>(rng.uniformInt(0, 255)));
            break;
        default: { // delete a short span
            std::size_t at = rng.index(text.size());
            std::size_t len = std::min<std::size_t>(
                static_cast<std::size_t>(rng.uniformInt(1, 12)),
                text.size() - at);
            text.erase(at, len);
            break;
        }
        }
    }
    return {text.begin(), text.end()};
}

/** Lines assembled from the format's own vocabulary. */
std::vector<std::uint8_t>
tokenSoupBuffer(Rng &rng)
{
    static const char *tokens[] = {
        "strategy", "v1",      "counts",  "meta",    "score",
        "provenance", "stage", "trigger", "initial", "crc32",
        "hfc",      "lfc",     "cold",    "0",       "1",
        "-1",       "1800",    "1e308",   "nan",     "inf",
        "999999999999999999999999", "#",  "deadbeef",
    };
    std::ostringstream os;
    if (rng.chance(0.7))
        os << "strategy v1\n";
    int lines = static_cast<int>(rng.uniformInt(0, 12));
    for (int l = 0; l < lines; ++l) {
        int words = static_cast<int>(rng.uniformInt(1, 6));
        for (int w = 0; w < words; ++w) {
            if (w)
                os << ' ';
            os << tokens[rng.index(sizeof(tokens) / sizeof(tokens[0]))];
        }
        os << '\n';
    }
    std::string text = os.str();
    return {text.begin(), text.end()};
}

std::vector<std::uint8_t>
randomBuffer(Rng &rng)
{
    std::vector<std::uint8_t> buffer(
        static_cast<std::size_t>(rng.uniformInt(0, 400)));
    for (std::uint8_t &byte : buffer)
        byte = static_cast<std::uint8_t>(rng.uniformInt(0, 255));
    return buffer;
}

/** Valid frame(s), then byte-level mutations. */
std::vector<std::uint8_t>
mutatedWireBuffer(Rng &rng, const net::WireLimits &limits)
{
    std::string bytes = genWireFrame(rng, limits);
    if (rng.chance(0.2))
        bytes += genWireFrame(rng, limits);

    int mutations = static_cast<int>(rng.uniformInt(0, 6));
    for (int m = 0; m < mutations && !bytes.empty(); ++m) {
        switch (rng.uniformInt(0, 3)) {
        case 0: // flip one byte (header, CRC or payload alike)
            bytes[rng.index(bytes.size())] =
                static_cast<char>(rng.uniformInt(0, 255));
            break;
        case 1: // truncate
            bytes.resize(rng.index(bytes.size() + 1));
            break;
        case 2: // insert a random byte
            bytes.insert(bytes.begin()
                             + static_cast<std::ptrdiff_t>(
                                 rng.index(bytes.size() + 1)),
                         static_cast<char>(rng.uniformInt(0, 255)));
            break;
        default: { // delete a short span
            std::size_t at = rng.index(bytes.size());
            std::size_t len = std::min<std::size_t>(
                static_cast<std::size_t>(rng.uniformInt(1, 12)),
                bytes.size() - at);
            bytes.erase(at, len);
            break;
        }
        }
    }
    return {bytes.begin(), bytes.end()};
}

/**
 * A valid request payload with one to three fields damaged, re-framed
 * under a correct CRC so that the payload decoders, not the frame
 * check, meet the damage: an operator number set to a boundary value
 * (signed zero, fractions, the ends of the integral ranges, non-finite
 * values), a random flag byte, a wrong op count or numbers-per-op, a
 * cut or a trailing byte.
 */
std::vector<std::uint8_t>
reframedRequestBuffer(Rng &rng, const net::WireLimits &limits)
{
    net::WireRequest request = genWireRequest(rng);
    std::string payload = net::encodeRequest(request, limits);
    const std::size_t encoded_size = payload.size();
    const RequestOffsets offsets = requestOffsets(request);

    static const double kBoundaries[] = {
        -0.0, 0.0, 0.5, 1.0, 3.0, 4.0, -1.0, 2147483647.0, 2147483648.0,
        std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity(), 1e300};
    auto put_u32 = [&payload](std::size_t offset, std::uint32_t value) {
        for (int byte = 0; byte < 4; ++byte)
            payload[offset + byte] = static_cast<char>(value >> (8 * byte));
    };
    int edits = static_cast<int>(rng.uniformInt(1, 3));
    for (int e = 0; e < edits && !payload.empty(); ++e) {
        switch (rng.uniformInt(0, 4)) {
        case 0:
        case 1: { // one operator number
            if (offsets.op_numbers.empty() || payload.size() < encoded_size)
                break;
            std::size_t offset =
                offsets.op_numbers[rng.index(offsets.op_numbers.size())]
                + 8 * rng.index(net::workloadNumbersPerOp());
            double value =
                kBoundaries[rng.index(std::size(kBoundaries))];
            std::uint64_t bits = std::bit_cast<std::uint64_t>(value);
            for (int byte = 0; byte < 8; ++byte)
                payload[offset + byte] =
                    static_cast<char>(bits >> (8 * byte));
            break;
        }
        case 2: // the flag byte
            payload[0] = static_cast<char>(rng.uniformInt(0, 255));
            break;
        case 3: // the op count or the numbers per op
            if (payload.size() < offsets.op_count + 8)
                break;
            if (rng.chance(0.5))
                put_u32(offsets.op_count,
                        static_cast<std::uint32_t>(
                            request.workload.opCount()
                            + rng.uniformInt(-1, 1)));
            else
                put_u32(offsets.op_count + 4,
                        static_cast<std::uint32_t>(rng.uniformInt(14, 16)));
            break;
        default: // a cut or a trailing byte
            if (rng.chance(0.5))
                payload.resize(rng.index(payload.size() + 1));
            else
                payload.push_back(
                    static_cast<char>(rng.uniformInt(0, 255)));
            break;
        }
    }
    std::string frame =
        net::frameMessage(net::MsgType::Request, payload, limits);
    return {frame.begin(), frame.end()};
}

/**
 * Valid frame(s) put through exactly the mutations net::ChaosProxy
 * injects into a live stream: a single bit flip at one byte offset
 * (its corruption fault) and/or a cut at an exact offset (its
 * mid-frame reset).  Deliberately narrower than mutatedWireBuffer so
 * the decoder states the chaos tests drive are also fuzz-covered.
 */
std::vector<std::uint8_t>
chaosWireBuffer(Rng &rng, const net::WireLimits &limits)
{
    std::string bytes = genWireFrame(rng, limits);
    if (rng.chance(0.25))
        bytes += genWireFrame(rng, limits);
    if (!bytes.empty() && rng.chance(0.6)) {
        std::size_t at = rng.index(bytes.size());
        bytes[at] = static_cast<char>(
            static_cast<unsigned char>(bytes[at])
            ^ (1u << rng.index(8)));
    }
    if (!bytes.empty() && rng.chance(0.5))
        bytes.resize(rng.index(bytes.size() + 1));
    return {bytes.begin(), bytes.end()};
}

} // namespace

std::optional<std::string>
runSeededFuzz(FuzzTarget target, std::uint64_t seed, int iterations,
              FuzzStats *stats)
{
    for (int i = 0; i < iterations; ++i) {
        Rng rng(seed + static_cast<std::uint64_t>(i) * 0x9e3779b97f4a7c15ULL);
        std::vector<std::uint8_t> buffer;
        double kind = rng.uniform(0.0, 1.0);
        if (kind < 0.5)
            buffer = mutatedStrategyBuffer(rng);
        else if (kind < 0.8)
            buffer = tokenSoupBuffer(rng);
        else
            buffer = randomBuffer(rng);

        if (stats)
            ++stats->executed;
        std::optional<std::string> failure =
            target(buffer.data(), buffer.size());
        if (failure) {
            std::ostringstream os;
            os << "fuzz iteration " << i << " (seed " << seed
               << ") failed: " << *failure << "\nbuffer ("
               << buffer.size() << " bytes):\n"
               << escapeBuffer(buffer.data(), buffer.size());
            return os.str();
        }
        if (stats) {
            // Re-run cheaply to classify accept/reject for the stats.
            std::string text(buffer.begin(), buffer.end());
            std::istringstream is(text);
            try {
                dvfs::loadStrategy(is);
                ++stats->accepted;
            } catch (...) {
                ++stats->rejected;
            }
        }
    }
    return std::nullopt;
}

namespace {

/** Whether @p input's leading frame peels and its payload decodes. */
bool
leadingFrameDecodes(const std::vector<std::uint8_t> &input,
                    const net::WireLimits &limits)
{
    std::string_view view(reinterpret_cast<const char *>(input.data()),
                          input.size());
    try {
        std::size_t consumed = 0;
        auto frame = net::peelFrame(view, &consumed, limits);
        if (!frame)
            return false; // incomplete: not servable
        if (frame->type == net::MsgType::Request)
            net::decodeRequest(frame->payload, limits);
        else
            net::decodeResponse(frame->payload, limits);
        return true;
    } catch (...) {
        return false;
    }
}

} // namespace

std::optional<std::string>
runSeededWireFuzz(std::uint64_t seed, int iterations, FuzzStats *stats)
{
    const net::WireLimits limits = wireFuzzLimits();
    for (int i = 0; i < iterations; ++i) {
        const std::uint64_t iteration_seed =
            seed + static_cast<std::uint64_t>(i) * 0x9e3779b97f4a7c15ULL;
        Rng rng(iteration_seed);
        std::vector<std::uint8_t> buffer;
        double kind = rng.uniform(0.0, 1.0);
        const bool pristine = kind < 0.3;
        if (pristine) {
            std::string bytes = genWireFrame(rng, limits);
            buffer.assign(bytes.begin(), bytes.end());
        } else if (kind < 0.7) {
            buffer = mutatedWireBuffer(rng, limits);
        } else if (kind < 0.85) {
            buffer = chaosWireBuffer(rng, limits);
        } else {
            buffer = randomBuffer(rng);
        }
        // Beside it, a request with damaged fields under a valid CRC,
        // from its own generator: the kinds above keep their shares
        // and a seed's buffer does not depend on this input.
        Rng reframe_rng(iteration_seed ^ 0x7e3a5f1dc0de2badULL);
        std::vector<std::uint8_t> reframed =
            reframedRequestBuffer(reframe_rng, limits);

        for (const std::vector<std::uint8_t> *input : {&buffer, &reframed}) {
            if (stats)
                ++stats->executed;
            std::optional<std::string> failure =
                fuzzWireOne(input->data(), input->size());
            bool decodes = leadingFrameDecodes(*input, limits);
            if (!failure && pristine && input == &buffer && !decodes)
                failure = "a pristine frame was refused";
            if (failure) {
                std::ostringstream os;
                os << "wire fuzz iteration " << i << " (seed " << seed
                   << (input == &reframed ? ", reframed request" : "")
                   << ") failed: " << *failure << "\nbuffer ("
                   << input->size() << " bytes):\n"
                   << escapeBuffer(input->data(), input->size());
                return os.str();
            }
            if (stats)
                ++(decodes ? stats->accepted : stats->rejected);
        }
    }
    return std::nullopt;
}

namespace {

/** Random but encodable cache entry (the WAL corpus element). */
serve::CacheEntry
genCacheEntry(Rng &rng)
{
    serve::CacheEntry entry;
    entry.fingerprint.digest =
        (static_cast<std::uint64_t>(rng.uniformInt(0, 0x7FFFFFFF)) << 32)
        | static_cast<std::uint64_t>(rng.uniformInt(0, 0x7FFFFFFF));
    int features = static_cast<int>(rng.uniformInt(1, 8));
    for (int f = 0; f < features; ++f)
        entry.fingerprint.features.push_back(rng.uniform(0.0, 1.0));
    entry.fingerprint.model_epoch =
        static_cast<std::uint64_t>(rng.uniformInt(0, 12));
    npu::FreqTable table(genFreqTableConfig(rng));
    entry.strategy = genStrategy(rng, table);
    for (double mhz : entry.strategy.mhz_per_stage)
        entry.ga.best_mhz.push_back(mhz);
    entry.ga.best_score = rng.uniform(0.0, 2.0);
    entry.perf_loss_target = rng.uniform(0.005, 0.2);
    if (rng.chance(0.3))
        entry.kind = serve::CacheEntry::Kind::Donor;
    return entry;
}

/** A pristine WAL image of 1..3 valid records. */
std::string
genWalImage(Rng &rng, std::vector<std::uint64_t> *digests)
{
    std::string image;
    int records = static_cast<int>(rng.uniformInt(1, 3));
    for (int r = 0; r < records; ++r) {
        serve::CacheEntry entry = genCacheEntry(rng);
        if (digests)
            digests->push_back(entry.fingerprint.digest);
        image += serve::encodeWalRecord(entry);
    }
    return image;
}

/** The crash-shaped mutations a WAL actually suffers: torn tails
 *  (truncation), bit flips (bad sectors) and dropped spans. */
std::string
mutatedWalImage(Rng &rng, std::vector<std::uint64_t> *digests)
{
    std::string image = genWalImage(rng, digests);
    int mutations = static_cast<int>(rng.uniformInt(1, 4));
    for (int m = 0; m < mutations && !image.empty(); ++m) {
        switch (rng.uniformInt(0, 2)) {
        case 0: { // flip one bit
            std::size_t at = rng.index(image.size());
            image[at] = static_cast<char>(
                static_cast<unsigned char>(image[at])
                ^ (1u << rng.index(8)));
            break;
        }
        case 1: // torn tail
            image.resize(rng.index(image.size() + 1));
            break;
        default: { // delete a span
            std::size_t at = rng.index(image.size());
            std::size_t len = std::min<std::size_t>(
                static_cast<std::size_t>(rng.uniformInt(1, 24)),
                image.size() - at);
            image.erase(at, len);
            break;
        }
        }
    }
    return image;
}

} // namespace

std::optional<std::string>
runSeededWalFuzz(std::uint64_t seed, int iterations, FuzzStats *stats)
{
    for (int i = 0; i < iterations; ++i) {
        Rng rng(seed
                + static_cast<std::uint64_t>(i) * 0x9e3779b97f4a7c15ULL);
        std::vector<std::uint8_t> buffer;
        std::vector<std::uint64_t> digests;
        bool pristine = false;
        bool mutated = false;
        double kind = rng.uniform(0.0, 1.0);
        if (kind < 0.3) {
            pristine = true;
            std::string image = genWalImage(rng, &digests);
            buffer.assign(image.begin(), image.end());
        } else if (kind < 0.8) {
            mutated = true;
            std::string image = mutatedWalImage(rng, &digests);
            buffer.assign(image.begin(), image.end());
        } else {
            buffer = randomBuffer(rng);
        }

        if (stats)
            ++stats->executed;
        std::optional<std::string> failure =
            fuzzCacheWalOne(buffer.data(), buffer.size());
        std::string_view view(reinterpret_cast<const char *>(buffer.data()),
                              buffer.size());
        serve::WalReplay replay;
        if (!failure)
            replay = serve::replayWalBuffer(view);
        if (!failure && pristine
            && (replay.truncated_tail
                || replay.entries.size() != digests.size()))
            failure = "a pristine WAL image did not replay in full";
        if (!failure && mutated) {
            // Replay never resynchronises past damage, so whatever it
            // recovers must be a prefix of the original record set.
            if (replay.entries.size() > digests.size()) {
                failure = "replay recovered more entries than were "
                          "logged";
            } else {
                for (std::size_t at = 0; at < replay.entries.size(); ++at)
                    if (replay.entries[at].fingerprint.digest
                        != digests[at]) {
                        failure = "recovered entries are not a prefix "
                                  "of the logged sequence";
                        break;
                    }
            }
        }
        if (failure) {
            std::ostringstream os;
            os << "wal fuzz iteration " << i << " (seed " << seed
               << ") failed: " << *failure << "\nbuffer ("
               << buffer.size() << " bytes):\n"
               << escapeBuffer(buffer.data(), buffer.size());
            return os.str();
        }
        if (stats) {
            if (replay.truncated_tail)
                ++stats->rejected;
            else
                ++stats->accepted;
        }
    }
    return std::nullopt;
}

std::optional<std::string>
fuzzTuneCorpusOne(const std::uint8_t *data, std::size_t size)
{
    std::string bytes(reinterpret_cast<const char *>(data), size);

    std::vector<tune::Observation> corpus;
    try {
        corpus = tune::decodeCorpus(bytes);
    } catch (const std::invalid_argument &) {
        return std::nullopt; // strict rejection is the expected path
    } catch (const std::exception &error) {
        return "decodeCorpus threw a non-invalid_argument exception: "
            + std::string(error.what());
    } catch (...) {
        return std::string("decodeCorpus threw a non-standard exception");
    }

    // Accepted: every observation must re-encode, and the rebuilt
    // image must decode back to the same observations, byte-stably.
    std::string rebuilt = tune::corpusHeader();
    try {
        for (const tune::Observation &observation : corpus)
            rebuilt += tune::encodeObservation(observation);
    } catch (const std::exception &error) {
        return "accepted observation fails to re-encode: "
            + std::string(error.what());
    }
    std::vector<tune::Observation> again;
    try {
        again = tune::decodeCorpus(rebuilt);
    } catch (const std::exception &error) {
        return "re-encoded corpus fails to decode: "
            + std::string(error.what());
    }
    if (again.size() != corpus.size())
        return std::string("re-encoded corpus changes the record count");
    for (std::size_t at = 0; at < corpus.size(); ++at) {
        if (again[at].size() != corpus[at].size())
            return std::string("re-encoded corpus changes a row count");
        for (std::size_t row = 0; row < corpus[at].size(); ++row) {
            // The loader rejects non-finite values, so == is exact.
            if (again[at][row].features != corpus[at][row].features
                || again[at][row].target_mhz
                       != corpus[at][row].target_mhz)
                return std::string(
                    "re-encoded corpus changes a sample");
        }
    }
    std::string stable = tune::corpusHeader();
    for (const tune::Observation &observation : again)
        stable += tune::encodeObservation(observation);
    if (stable != rebuilt)
        return std::string(
            "encode -> decode -> encode is not byte-stable");

    // Determinism: decoding the same bytes twice gives the same image.
    std::vector<tune::Observation> third = tune::decodeCorpus(bytes);
    if (third.size() != corpus.size())
        return std::string("decodeCorpus is not deterministic");
    return std::nullopt;
}

namespace {

/** A pristine corpus image of 1..4 valid observations. */
std::string
genCorpusImage(Rng &rng, std::size_t *records)
{
    std::string image = tune::corpusHeader();
    int count = static_cast<int>(rng.uniformInt(1, 4));
    if (records)
        *records = static_cast<std::size_t>(count);
    for (int r = 0; r < count; ++r) {
        tune::Observation observation;
        int rows = static_cast<int>(rng.uniformInt(1, 6));
        int features = static_cast<int>(rng.uniformInt(1, 40));
        for (int row = 0; row < rows; ++row) {
            tune::StageSample sample;
            for (int f = 0; f < features; ++f)
                sample.features.push_back(rng.uniform(-4.0, 4.0));
            sample.target_mhz = rng.uniform(200.0, 2000.0);
            observation.push_back(std::move(sample));
        }
        image += tune::encodeObservation(observation);
    }
    return image;
}

/** Bit flips, torn tails, dropped spans and spliced records. */
std::string
mutatedCorpusImage(Rng &rng)
{
    std::string image = genCorpusImage(rng, nullptr);
    int mutations = static_cast<int>(rng.uniformInt(1, 4));
    for (int m = 0; m < mutations && !image.empty(); ++m) {
        switch (rng.uniformInt(0, 3)) {
        case 0: { // flip one bit
            std::size_t at = rng.index(image.size());
            image[at] = static_cast<char>(
                static_cast<unsigned char>(image[at])
                ^ (1u << rng.index(8)));
            break;
        }
        case 1: // torn tail
            image.resize(rng.index(image.size() + 1));
            break;
        case 2: { // splice a random length/CRC header mid-stream
            std::size_t at = rng.index(image.size() + 1);
            for (int b = 0; b < 8; ++b)
                image.insert(image.begin()
                                 + static_cast<std::ptrdiff_t>(at),
                             static_cast<char>(rng.uniformInt(0, 255)));
            break;
        }
        default: { // delete a span
            std::size_t at = rng.index(image.size());
            std::size_t len = std::min<std::size_t>(
                static_cast<std::size_t>(rng.uniformInt(1, 24)),
                image.size() - at);
            image.erase(at, len);
            break;
        }
        }
    }
    return image;
}

} // namespace

std::optional<std::string>
runSeededCorpusFuzz(std::uint64_t seed, int iterations, FuzzStats *stats)
{
    for (int i = 0; i < iterations; ++i) {
        Rng rng(seed
                + static_cast<std::uint64_t>(i) * 0x9e3779b97f4a7c15ULL);
        std::vector<std::uint8_t> buffer;
        bool pristine = false;
        std::size_t records = 0;
        double kind = rng.uniform(0.0, 1.0);
        if (kind < 0.3) {
            pristine = true;
            std::string image = genCorpusImage(rng, &records);
            buffer.assign(image.begin(), image.end());
        } else if (kind < 0.8) {
            std::string image = mutatedCorpusImage(rng);
            buffer.assign(image.begin(), image.end());
        } else {
            buffer = randomBuffer(rng);
        }

        if (stats)
            ++stats->executed;
        std::optional<std::string> failure =
            fuzzTuneCorpusOne(buffer.data(), buffer.size());
        if (!failure && pristine) {
            // Strictness cuts both ways: a clean image must load.
            std::string image(buffer.begin(), buffer.end());
            if (tune::decodeCorpus(image).size() != records)
                failure = "a pristine corpus image did not load in "
                          "full";
        }
        if (failure) {
            std::ostringstream os;
            os << "corpus fuzz iteration " << i << " (seed " << seed
               << ") failed: " << *failure << "\nbuffer ("
               << buffer.size() << " bytes):\n"
               << escapeBuffer(buffer.data(), buffer.size());
            return os.str();
        }
        if (stats) {
            std::string image(buffer.begin(), buffer.end());
            try {
                tune::decodeCorpus(image);
                ++stats->accepted;
            } catch (...) {
                ++stats->rejected;
            }
        }
    }
    return std::nullopt;
}

} // namespace opdvfs::check
