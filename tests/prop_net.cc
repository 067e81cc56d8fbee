/**
 * @file
 * Property suite over the client's retry policy and the wire framing
 * under chaos-shaped delivery:
 *
 *  - the nominal backoff schedule is non-decreasing and capped for
 *    every options shape and retry index;
 *  - the actual retry delay always respects the server's
 *    retry_after_ms hint (a floor even past the backoff ceiling),
 *    stays inside the jitter band otherwise, and is a pure function
 *    of (options, index, hint, jitter state);
 *  - a frame stream delivered in arbitrary chunks — the exact shapes
 *    net::ChaosProxy's splitter produces — peels into the same frame
 *    sequence as the unsplit stream, and every peeled payload
 *    re-encodes byte-identically (the same identity oracle the wire
 *    fuzz target enforces, here covering the v2 deadline and
 *    retry-after fields); request payloads are accepted by both the
 *    decoder and the key pass and pass the fuzz target's key-pass
 *    check (check::checkWireRequest).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "check/fuzz.h"
#include "check/generators.h"
#include "check/prop.h"
#include "net/client.h"
#include "net/wire.h"

namespace {

using namespace opdvfs;
using namespace opdvfs::check;

/** One backoff-policy shape plus a retry position to inspect. */
struct BackoffCase
{
    net::ClientOptions options;
    int horizon = 10;
};

TEST(PropNet, NominalBackoffIsNonDecreasingAndCapped)
{
    Property<BackoffCase> prop(
        "backoff-monotone-capped",
        [](Rng &rng) {
            BackoffCase bc;
            bc.options.backoff_initial_seconds = rng.uniform(1e-4, 2.0);
            bc.options.backoff_max_seconds = rng.uniform(1e-4, 5.0);
            bc.horizon = static_cast<int>(rng.uniformInt(2, 40));
            return bc;
        },
        [](const BackoffCase &bc) -> std::optional<std::string> {
            double cap = bc.options.backoff_max_seconds;
            double previous = 0.0;
            for (int retry = 1; retry <= bc.horizon; ++retry) {
                double nominal =
                    net::backoffNominalSeconds(bc.options, retry);
                if (nominal < previous) {
                    std::ostringstream os;
                    os << "backoff decreased at retry " << retry << ": "
                       << previous << " -> " << nominal;
                    return os.str();
                }
                if (nominal > cap && nominal
                        > bc.options.backoff_initial_seconds) {
                    std::ostringstream os;
                    os << "backoff " << nominal << " above cap " << cap
                       << " at retry " << retry;
                    return os.str();
                }
                previous = nominal;
            }
            return std::nullopt;
        });
    prop.withPrinter([](const BackoffCase &bc) {
        std::ostringstream os;
        os << "BackoffCase{initial="
           << bc.options.backoff_initial_seconds
           << ", max=" << bc.options.backoff_max_seconds
           << ", horizon=" << bc.horizon << "}";
        return os.str();
    });
    OPDVFS_CHECK_PROP(prop);
}

/** One concrete retry decision. */
struct DelayCase
{
    net::ClientOptions options;
    int retry_index = 1;
    std::uint32_t retry_after_ms = 0;
    std::uint64_t jitter_state = 1;
};

TEST(PropNet, RetryDelayRespectsTheHintAndTheJitterBand)
{
    Property<DelayCase> prop(
        "retry-after-always-respected",
        [](Rng &rng) {
            DelayCase dc;
            dc.options.backoff_initial_seconds = rng.uniform(1e-4, 1.0);
            dc.options.backoff_max_seconds = rng.uniform(1e-3, 3.0);
            dc.retry_index = static_cast<int>(rng.uniformInt(1, 20));
            // Hints from zero to well past the backoff ceiling.
            dc.retry_after_ms = static_cast<std::uint32_t>(
                rng.uniformInt(0, 120000));
            dc.jitter_state = static_cast<std::uint64_t>(
                rng.uniformInt(0, std::numeric_limits<std::int64_t>::max()));
            return dc;
        },
        [](const DelayCase &dc) -> std::optional<std::string> {
            std::uint64_t state = dc.jitter_state;
            double delay = net::retryDelaySeconds(
                dc.options, dc.retry_index, dc.retry_after_ms, state);
            std::uint64_t replay_state = dc.jitter_state;
            double replay = net::retryDelaySeconds(
                dc.options, dc.retry_index, dc.retry_after_ms,
                replay_state);
            double nominal =
                net::backoffNominalSeconds(dc.options, dc.retry_index);
            double hint =
                static_cast<double>(dc.retry_after_ms) / 1000.0;
            std::ostringstream os;
            if (delay != replay) {
                os << "delay is not a pure function of its inputs: "
                   << delay << " vs " << replay;
                return os.str();
            }
            if (delay < hint) {
                os << "delay " << delay << " under the retry-after floor "
                   << hint;
                return os.str();
            }
            if (delay + 1e-12 < 0.5 * nominal) {
                os << "delay " << delay << " below the jitter band of "
                   << nominal;
                return os.str();
            }
            double ceiling = nominal > hint ? nominal : hint;
            if (delay > ceiling + 1e-12) {
                os << "delay " << delay << " above max(nominal, hint) "
                   << ceiling;
                return os.str();
            }
            return std::nullopt;
        });
    prop.withPrinter([](const DelayCase &dc) {
        std::ostringstream os;
        os << "DelayCase{initial=" << dc.options.backoff_initial_seconds
           << ", max=" << dc.options.backoff_max_seconds
           << ", retry=" << dc.retry_index
           << ", retry_after_ms=" << dc.retry_after_ms
           << ", jitter_state=" << dc.jitter_state << "}";
        return os.str();
    });
    OPDVFS_CHECK_PROP(prop);
}

/** A frame stream and the chunk schedule it is delivered under. */
struct SplitCase
{
    std::vector<std::string> frames;
    /** Chunk sizes applied cyclically (chaos splitter shapes). */
    std::vector<std::size_t> chunks;
};

/** Peel every complete frame, collecting (type, payload). */
std::vector<std::pair<net::MsgType, std::string>>
peelAll(std::string &buffer)
{
    std::vector<std::pair<net::MsgType, std::string>> out;
    for (;;) {
        std::size_t consumed = 0;
        std::optional<net::FrameView> frame =
            net::peelFrame(buffer, &consumed);
        if (!frame)
            return out;
        out.emplace_back(frame->type, std::string(frame->payload));
        buffer.erase(0, consumed);
    }
}

TEST(PropNet, ChaosSplitStreamsDecodeIdenticallyToUnsplit)
{
    Property<SplitCase> prop(
        "chaos-split-decode-identity",
        [](Rng &rng) {
            SplitCase sc;
            int frames = static_cast<int>(rng.uniformInt(1, 3));
            for (int f = 0; f < frames; ++f)
                sc.frames.push_back(genWireFrame(rng, {}));
            int chunks = static_cast<int>(rng.uniformInt(1, 16));
            for (int c = 0; c < chunks; ++c)
                sc.chunks.push_back(
                    static_cast<std::size_t>(rng.uniformInt(1, 9)));
            return sc;
        },
        [](const SplitCase &sc) -> std::optional<std::string> {
            std::string full;
            for (const std::string &frame : sc.frames)
                full += frame;

            std::string whole_buffer = full;
            auto whole = peelAll(whole_buffer);

            // The same bytes, arriving in the chaos chunk schedule.
            std::string trickle_buffer;
            std::vector<std::pair<net::MsgType, std::string>> split;
            std::size_t at = 0;
            for (std::size_t k = 0; at < full.size(); ++k) {
                std::size_t take = std::min(
                    sc.chunks[k % sc.chunks.size()], full.size() - at);
                trickle_buffer.append(full, at, take);
                at += take;
                for (auto &frame : peelAll(trickle_buffer))
                    split.push_back(std::move(frame));
            }

            if (!whole_buffer.empty() || !trickle_buffer.empty())
                return "leftover bytes after peeling every frame";
            if (whole.size() != sc.frames.size())
                return "whole-buffer peel lost frames";
            if (split != whole)
                return "split stream decoded differently from unsplit";

            // Every peeled payload must survive decode -> re-encode
            // byte-identically (covers the v2 deadline and retry-after
            // fields).  A request payload came from a valid request, so
            // the decoder and the key pass must both accept it; then the
            // wire fuzz target's request check holds net::requestKey to
            // the decoded request.
            for (const auto &[type, payload] : whole) {
                if (type == net::MsgType::Request) {
                    try {
                        net::decodeRequest(payload);
                        net::requestKey(payload);
                    } catch (const std::exception &error) {
                        return "valid request payload was rejected: "
                            + std::string(error.what());
                    }
                    if (auto failure = checkWireRequest(payload, {}))
                        return *failure;
                } else if (net::encodeResponse(net::decodeResponse(payload))
                           != payload) {
                    return "payload did not re-encode byte-identically";
                }
            }
            return std::nullopt;
        });
    prop.withShrinker([](const SplitCase &sc) {
            std::vector<SplitCase> out;
            for (auto &frames : shrinkVector(sc.frames))
                out.push_back({frames, sc.chunks});
            for (auto &chunks : shrinkVector(sc.chunks)) {
                if (!chunks.empty())
                    out.push_back({sc.frames, chunks});
            }
            return out;
        })
        .withPrinter([](const SplitCase &sc) {
            std::ostringstream os;
            os << "SplitCase{frame_bytes=[";
            for (const std::string &frame : sc.frames)
                os << frame.size() << ",";
            os << "], chunks=[";
            for (std::size_t chunk : sc.chunks)
                os << chunk << ",";
            os << "]}";
            return os.str();
        });
    OPDVFS_CHECK_PROP(prop);
}

} // namespace
