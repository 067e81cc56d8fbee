/**
 * Loopback end-to-end tests for the strategy server and client: a
 * cold request and its exact hit answered over TCP byte-identical to
 * the in-process service, structured Busy backpressure under a
 * one-slot admission queue, client retry-after-Busy, request
 * deadlines against a stalled server, malformed-frame handling, chip
 * mismatch, the plaintext admin endpoint, and graceful shutdown
 * (server stop drains the service).
 */

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "models/transformer.h"
#include "net/client.h"
#include "net/server.h"
#include "power/offline_calibration.h"

namespace opdvfs::net {
namespace {

models::Workload
testWorkload(int seq)
{
    npu::NpuConfig chip;
    npu::MemorySystem memory(chip.memory);
    models::TransformerConfig model;
    model.name = "net-test";
    model.layers = 2;
    model.hidden = 1024;
    model.heads = 8;
    model.seq = seq;
    return models::buildTransformerTraining(memory, model, 5);
}

const power::CalibratedConstants &
constants()
{
    static const power::CalibratedConstants value =
        power::calibrateOffline(npu::NpuConfig{});
    return value;
}

serve::ServiceOptions
fastOptions(std::size_t workers)
{
    serve::ServiceOptions options;
    options.pipeline.warmup_seconds = 2.0;
    options.pipeline.profile_freqs_mhz = {1000.0, 1800.0};
    options.pipeline.ga.population = 30;
    options.pipeline.ga.generations = 24;
    options.pipeline.ga.refine_sweeps = 2;
    options.pipeline.constants = constants();
    options.workers = workers;
    options.cache.capacity = 32;
    return options;
}

WireRequest
testWireRequest(int seq, std::uint64_t seed)
{
    WireRequest request;
    request.workload = testWorkload(seq);
    request.seed = seed;
    return request;
}

/** Strategy text with the provenance token pinned, so cold and
 *  exact-hit strategies (which differ only in that token) compare. */
std::string
normalisedStrategyText(dvfs::Strategy strategy)
{
    if (strategy.meta)
        strategy.meta->provenance = "normalised";
    std::ostringstream os;
    dvfs::saveStrategy(strategy, os);
    return os.str();
}

TEST(NetServer, ColdAndExactHitMatchTheInProcessService)
{
    serve::ServiceOptions options = fastOptions(2);
    serve::StrategyService in_process(options);
    serve::StrategyService served(options);
    StrategyServer server(served, {});
    server.start();

    StrategyClient client("127.0.0.1", server.port());
    WireRequest request = testWireRequest(256, 3);

    // Ground truth: the same request answered without any network.
    serve::StrategyRequest direct;
    direct.workload = request.workload;
    direct.perf_loss_target = request.perf_loss_target;
    direct.seed = request.seed;
    serve::StrategyResponse local = in_process.submit(direct).get();

    WireResponse cold = client.call(request);
    EXPECT_EQ(cold.status, Status::Ok);
    EXPECT_EQ(cold.provenance, serve::Provenance::Cold);
    EXPECT_EQ(cold.fingerprint_digest, local.fingerprint.digest);
    EXPECT_EQ(cold.best_score, local.ga.best_score);
    EXPECT_EQ(normalisedStrategyText(cold.strategy),
              normalisedStrategyText(local.strategy));

    // The second identical request is an exact hit with the same
    // strategy, byte for byte.
    WireResponse hit = client.call(request);
    EXPECT_EQ(hit.status, Status::Ok);
    EXPECT_EQ(hit.provenance, serve::Provenance::ExactHit);
    EXPECT_EQ(hit.fingerprint_digest, cold.fingerprint_digest);
    EXPECT_EQ(hit.best_score, cold.best_score);
    EXPECT_EQ(normalisedStrategyText(hit.strategy),
              normalisedStrategyText(cold.strategy));

    ServerStats stats = server.stats();
    EXPECT_EQ(stats.frames_in, 2u);
    EXPECT_EQ(stats.responses_ok, 2u);
    EXPECT_EQ(stats.responses_malformed, 0u);
    EXPECT_EQ(client.retries(), 0u);
    server.stop();
}

TEST(NetServer, BusyRejectionCarriesTheStructuredCause)
{
    serve::ServiceOptions options = fastOptions(1);
    options.admission_capacity = 1;
    serve::StrategyService service(options);
    StrategyServer server(service, {});
    server.start();

    // Occupy the single admission slot with a cold uncached run (it
    // holds the slot for the whole pipeline, hundreds of ms).
    serve::StrategyRequest occupier;
    occupier.workload = testWorkload(512);
    occupier.use_cache = false;
    serve::Admission admitted = service.trySubmit(occupier);
    ASSERT_TRUE(admitted.accepted());

    ClientOptions no_retry;
    no_retry.max_attempts = 1;
    StrategyClient client("127.0.0.1", server.port(), no_retry);
    try {
        client.call(testWireRequest(256, 7));
        FAIL() << "expected BusyError";
    } catch (const BusyError &busy) {
        EXPECT_EQ(busy.reason(), serve::RejectReason::QueueFull);
        // Queue-full rejections always carry a backpressure hint (the
        // service clamps its estimate to at least 1 ms).
        EXPECT_GE(busy.retry_after_ms(), 1u);
    }
    EXPECT_GE(server.stats().responses_busy, 1u);

    // The connection survived the rejection: once the slot frees,
    // the same client completes on the same connection.
    admitted.future->get();
    EXPECT_TRUE(client.connected());
    WireResponse ok = client.call(testWireRequest(256, 7));
    EXPECT_EQ(ok.status, Status::Ok);
    server.stop();
}

TEST(NetServer, ClientRetriesAfterBusyAndCompletes)
{
    serve::ServiceOptions options = fastOptions(1);
    options.admission_capacity = 1;
    serve::StrategyService service(options);
    StrategyServer server(service, {});
    server.start();

    serve::StrategyRequest occupier;
    occupier.workload = testWorkload(512);
    occupier.use_cache = false;
    serve::Admission admitted = service.trySubmit(occupier);
    ASSERT_TRUE(admitted.accepted());

    ClientOptions retrying;
    retrying.max_attempts = 200;
    retrying.backoff_initial_seconds = 0.02;
    retrying.backoff_max_seconds = 0.05;
    StrategyClient client("127.0.0.1", server.port(), retrying);

    // First attempt happens while the slot is held: the client backs
    // off on the structured Busy and keeps trying until admitted.
    WireResponse response = client.call(testWireRequest(256, 11));
    EXPECT_EQ(response.status, Status::Ok);
    EXPECT_GE(client.retries(), 1u);
    EXPECT_GE(server.stats().responses_busy, 1u);
    admitted.future->get();
    server.stop();
}

TEST(NetServer, DeadlineFiresAgainstAStalledServer)
{
    // A listener that accepts into its backlog and never answers.
    int stall_fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(stall_fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    ASSERT_EQ(::bind(stall_fd, reinterpret_cast<sockaddr *>(&addr),
                     sizeof(addr)),
              0);
    ASSERT_EQ(::listen(stall_fd, 4), 0);
    socklen_t addr_len = sizeof(addr);
    ASSERT_EQ(::getsockname(stall_fd, reinterpret_cast<sockaddr *>(&addr),
                            &addr_len),
              0);

    ClientOptions options;
    options.request_timeout_seconds = 0.3;
    options.max_attempts = 5; // deadlines must NOT consume retries
    StrategyClient client("127.0.0.1", ntohs(addr.sin_port), options);
    EXPECT_THROW(client.call(testWireRequest(64, 1)), DeadlineError);
    EXPECT_EQ(client.retries(), 0u);
    EXPECT_FALSE(client.connected());
    ::close(stall_fd);
}

TEST(NetServer, MalformedStreamIsAnsweredThenClosed)
{
    serve::StrategyService service(fastOptions(1));
    StrategyServer server(service, {});
    server.start();

    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(server.port());
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof(addr)),
              0);
    // 'O' routes into frame mode; the rest is not a valid header.
    std::string garbage = "OXXXXXXXXXXXXXXXXXXXXXXX";
    ASSERT_EQ(::send(fd, garbage.data(), garbage.size(), 0),
              static_cast<ssize_t>(garbage.size()));

    std::string bytes;
    char chunk[4096];
    ssize_t got;
    while ((got = ::recv(fd, chunk, sizeof(chunk), 0)) > 0)
        bytes.append(chunk, static_cast<std::size_t>(got));
    ::close(fd);

    // One well-formed Malformed response, then an orderly close.
    std::size_t consumed = 0;
    auto frame = peelFrame(bytes, &consumed);
    ASSERT_TRUE(frame.has_value());
    WireResponse response = decodeResponse(frame->payload);
    EXPECT_EQ(response.status, Status::Malformed);
    EXPECT_EQ(consumed, bytes.size());
    EXPECT_GE(server.stats().responses_malformed, 1u);
    server.stop();
}

TEST(NetServer, ChipMismatchIsStructuredAndNotRetried)
{
    serve::StrategyService service(fastOptions(1));
    StrategyServer server(service, {});
    server.start();

    StrategyClient client("127.0.0.1", server.port());
    WireRequest request = testWireRequest(128, 1);
    request.chip.uncore_power.idle_watts += 1.0;
    try {
        client.call(request);
        FAIL() << "expected RemoteError";
    } catch (const RemoteError &remote) {
        EXPECT_EQ(remote.status(), Status::ChipMismatch);
    }
    EXPECT_EQ(client.retries(), 0u);
    EXPECT_GE(server.stats().responses_chip_mismatch, 1u);
    server.stop();
}

TEST(NetServer, AdminEndpointServesHealthAndStats)
{
    serve::StrategyService service(fastOptions(2));
    StrategyServer server(service, {});
    server.start();

    EXPECT_EQ(adminQuery("127.0.0.1", server.port(), "HEALTH"), "ok\n");

    StrategyClient client("127.0.0.1", server.port());
    client.call(testWireRequest(128, 2));

    std::string stats = adminQuery("127.0.0.1", server.port(), "STATS");
    EXPECT_NE(stats.find("responses_ok 1\n"), std::string::npos) << stats;
    EXPECT_NE(stats.find("service_requests 1\n"), std::string::npos);
    EXPECT_NE(stats.find("p95_service_seconds "), std::string::npos);
    EXPECT_NE(stats.find("service_draining 0\n"), std::string::npos);
    // Overload-control observability: uptime, the deadline/shedding
    // counters and the live EWMAs/hint all surface through STATS.
    EXPECT_NE(stats.find("uptime_seconds "), std::string::npos);
    EXPECT_NE(stats.find("responses_expired 0\n"), std::string::npos);
    EXPECT_NE(stats.find("service_expired_in_queue 0\n"),
              std::string::npos);
    EXPECT_NE(stats.find("service_shed_early 0\n"), std::string::npos);
    EXPECT_NE(stats.find("service_ga_runs_past_deadline 0\n"),
              std::string::npos);
    EXPECT_NE(stats.find("sojourn_ewma_seconds "), std::string::npos);
    EXPECT_NE(stats.find("cold_ewma_seconds "), std::string::npos);
    EXPECT_NE(stats.find("retry_after_hint_ms "), std::string::npos);
    // Predict-then-refine and similarity-scan observability.
    EXPECT_NE(stats.find("service_predicted_served 0\n"),
              std::string::npos);
    EXPECT_NE(stats.find("service_refine_upgrades 0\n"),
              std::string::npos);
    EXPECT_NE(stats.find("service_refine_discards 0\n"),
              std::string::npos);
    EXPECT_NE(stats.find("service_refines_in_flight 0\n"),
              std::string::npos);
    EXPECT_NE(stats.find("cache_similar_scanned "), std::string::npos);
    EXPECT_NE(stats.find("cache_similar_pruned "), std::string::npos);

    EXPECT_EQ(adminQuery("127.0.0.1", server.port(), "NOPE"),
              "error unknown-command\n");
    server.stop();
}

/** Loopback socket connected to @p port, or -1. */
int
connectLoopback(std::uint16_t port)
{
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr))
        != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

/** Read until @p count responses decoded or EOF; sets @p eof. */
std::vector<WireResponse>
readResponses(int fd, std::size_t count, bool *eof)
{
    std::vector<WireResponse> responses;
    std::string buffer;
    char chunk[4096];
    *eof = false;
    while (responses.size() < count) {
        ssize_t got = ::recv(fd, chunk, sizeof(chunk), 0);
        if (got <= 0) {
            *eof = true;
            return responses;
        }
        buffer.append(chunk, static_cast<std::size_t>(got));
        for (;;) {
            std::size_t consumed = 0;
            auto frame = peelFrame(buffer, &consumed);
            if (!frame)
                break;
            responses.push_back(decodeResponse(frame->payload));
            buffer.erase(0, consumed);
        }
    }
    return responses;
}

// A peer spewing intact frames whose payloads never decode cannot
// hold a connection slot forever: after max_payload_errors
// *consecutive* payload errors the connection is answered then
// closed — but one good frame resets the streak.
TEST(NetServer, PayloadErrorStreakClosesTheConnection)
{
    serve::StrategyService service(fastOptions(1));
    ServerOptions server_options;
    server_options.max_payload_errors = 2;
    StrategyServer server(service, server_options);
    server.start();

    // Valid framing (magic, version, CRC) around a garbage payload:
    // a payload error, not a framing error.
    std::string bad = frameMessage(MsgType::Request, "not-a-request");
    // Decodes cleanly but for the wrong chip: a "good" frame that
    // resets the streak without costing a GA run.
    WireRequest mismatched = testWireRequest(64, 23);
    mismatched.chip.uncore_power.idle_watts += 1.0;
    std::string good = frameRequest(mismatched);

    // Two consecutive bad payloads: both answered, then closed.
    int fd = connectLoopback(server.port());
    ASSERT_GE(fd, 0);
    std::string burst = bad + bad;
    ASSERT_EQ(::send(fd, burst.data(), burst.size(), 0),
              static_cast<ssize_t>(burst.size()));
    bool eof = false;
    std::vector<WireResponse> responses = readResponses(fd, 3, &eof);
    ASSERT_EQ(responses.size(), 2u);
    EXPECT_EQ(responses[0].status, Status::Malformed);
    EXPECT_EQ(responses[1].status, Status::Malformed);
    EXPECT_TRUE(eof);
    ::close(fd);

    // A good frame between bad ones resets the count: bad, good,
    // bad, bad is answered in full before the close.
    fd = connectLoopback(server.port());
    ASSERT_GE(fd, 0);
    burst = bad + good + bad + bad;
    ASSERT_EQ(::send(fd, burst.data(), burst.size(), 0),
              static_cast<ssize_t>(burst.size()));
    responses = readResponses(fd, 5, &eof);
    ASSERT_EQ(responses.size(), 4u);
    EXPECT_EQ(responses[0].status, Status::Malformed);
    EXPECT_EQ(responses[1].status, Status::ChipMismatch);
    EXPECT_EQ(responses[2].status, Status::Malformed);
    EXPECT_EQ(responses[3].status, Status::Malformed);
    EXPECT_TRUE(eof);
    ::close(fd);
    server.stop();
}

// While stop() drains in-flight work the listener stays open, so a
// load balancer probing HEALTH sees `draining` instead of a refused
// connection — and can fail the instance over gracefully.
TEST(NetServer, HealthReportsDrainingWhileStopDrains)
{
    serve::ServiceOptions options = fastOptions(1);
    serve::StrategyService service(options);
    StrategyServer server(service, {});
    server.start();

    // The slow request must be server-admitted (not submitted straight
    // to the service): stop() only waits out completions the server
    // itself owes, so a direct submit would drain instantly.
    WireRequest slow = testWireRequest(512, 47);
    slow.use_cache = false;
    std::thread requester([&] {
        StrategyClient client("127.0.0.1", server.port());
        try {
            client.call(slow);
        } catch (const std::exception &) {
            // The stop() below may cut the response path; the drain
            // behaviour is what this test observes.
        }
    });
    for (int spin = 0; spin < 500 && service.stats().in_flight == 0;
         ++spin)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    ASSERT_GE(service.stats().in_flight, 1u);

    EXPECT_EQ(adminQuery("127.0.0.1", server.port(), "HEALTH"), "ok\n");

    std::thread stopper([&] { server.stop(); });
    bool saw_draining = false;
    for (int spin = 0; spin < 200 && !saw_draining; ++spin) {
        try {
            saw_draining = adminQuery("127.0.0.1", server.port(),
                                      "HEALTH", 0.5)
                           == "draining\n";
        } catch (const std::exception &) {
            break; // listener already closed: the drain beat us
        }
    }
    stopper.join();
    requester.join();
    EXPECT_TRUE(saw_draining);
}

// Deadline propagation end to end: the client stamps its remaining
// budget into the frame, and a request whose budget expires while
// queued behind a busy worker is answered Busy/Expired without the
// GA ever running for it.
TEST(NetServer, QueuedRequestPastItsDeadlineExpiresWithoutAGaRun)
{
    serve::ServiceOptions options = fastOptions(1);
    serve::StrategyService service(options);
    StrategyServer server(service, {});
    server.start();

    // Hold the single worker well past the client's budget: one cold
    // search lasts a few tens of milliseconds, so a wall of twelve
    // keeps the worker busy for ~0.4 s against a 0.2 s deadline.
    std::vector<serve::Admission> wall;
    for (std::uint64_t seed = 41; seed < 53; ++seed) {
        serve::StrategyRequest occupier;
        occupier.workload = testWorkload(768);
        occupier.use_cache = false;
        occupier.seed = seed;
        wall.push_back(service.trySubmit(occupier));
        ASSERT_TRUE(wall.back().accepted());
    }

    ClientOptions one_shot;
    one_shot.max_attempts = 1;
    one_shot.request_timeout_seconds = 0.2;
    StrategyClient client("127.0.0.1", server.port(), one_shot);
    try {
        client.call(testWireRequest(256, 31));
        FAIL() << "expected the deadline to fire";
    } catch (const DeadlineError &) {
        // The usual outcome: the caller gives up first; the server
        // must still expire the queued work instead of running it.
    } catch (const BusyError &busy) {
        // The server's expiry answer can also win the race.
        EXPECT_EQ(busy.reason(), serve::RejectReason::Expired);
    }
    for (serve::Admission &admitted : wall)
        admitted.future->get();

    for (int spin = 0;
         spin < 500 && service.stats().expired_in_queue == 0; ++spin)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    serve::ServiceStats stats = service.stats();
    EXPECT_EQ(stats.expired_in_queue, 1u);
    EXPECT_EQ(stats.ga_runs_past_deadline, 0u);
    for (int spin = 0;
         spin < 100 && server.stats().responses_expired == 0; ++spin)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    EXPECT_GE(server.stats().responses_expired, 1u);
    server.stop();
}

// Regression: the service releases its admission slot before the
// completion callback runs, so drain() alone does not fence callbacks
// capturing the server.  With the requester's connection already reset
// the loop sees nothing in flight and can exit — stop() must still
// wait for the callback (use-after-free otherwise; caught by the
// asan/tsan presets).
TEST(NetServer, StopWaitsForCompletionsAfterPeerReset)
{
    serve::ServiceOptions options = fastOptions(1);
    serve::StrategyService service(options);
    StrategyServer server(service, {});
    server.start();

    int fd = connectLoopback(server.port());
    ASSERT_GE(fd, 0);
    std::string framed = frameRequest(testWireRequest(128, 21));
    ASSERT_EQ(::send(fd, framed.data(), framed.size(), 0),
              static_cast<ssize_t>(framed.size()));

    // Wait until the request is admitted (the pipeline holds the slot
    // for the whole search, hundreds of ms).
    for (int spin = 0; spin < 500 && service.stats().in_flight == 0;
         ++spin)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    ASSERT_GE(service.stats().in_flight, 1u);

    // Reset the connection mid-request, then stop immediately: the
    // completion callback races the teardown.
    linger hard_reset{1, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &hard_reset,
                 sizeof(hard_reset));
    ::close(fd);
    server.stop();

    serve::ServiceStats stats = service.stats();
    EXPECT_EQ(stats.in_flight, 0u);
    EXPECT_EQ(stats.requests, 1u);
}

// Regression: stop() must stay bounded when a peer neither finishes
// its request nor reads anything.
TEST(NetServer, StopIsBoundedWithAnUnresponsivePeer)
{
    serve::StrategyService service(fastOptions(1));
    ServerOptions server_options;
    server_options.shutdown_flush_seconds = 0.2;
    StrategyServer server(service, server_options);
    server.start();

    int fd = connectLoopback(server.port());
    ASSERT_GE(fd, 0);
    // Half a frame header: the server waits for more bytes forever.
    ASSERT_EQ(::send(fd, kWireMagic, sizeof(kWireMagic), 0),
              static_cast<ssize_t>(sizeof(kWireMagic)));

    auto started = std::chrono::steady_clock::now();
    server.stop();
    double stop_seconds = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - started)
                              .count();
    EXPECT_LT(stop_seconds, 5.0);
    ::close(fd);
}

TEST(NetServer, StopDrainsTheServiceAndIsIdempotent)
{
    serve::StrategyService service(fastOptions(2));
    StrategyServer server(service, {});
    server.start();

    StrategyClient client("127.0.0.1", server.port());
    EXPECT_EQ(client.call(testWireRequest(128, 4)).status, Status::Ok);

    server.stop();
    EXPECT_TRUE(service.draining());
    serve::StrategyRequest late;
    late.workload = testWorkload(128);
    EXPECT_EQ(service.trySubmit(late, [](serve::StrategyResponse,
                                         std::exception_ptr) {}),
              serve::RejectReason::ShuttingDown);
    server.stop(); // idempotent

    // The port is gone: a fresh call fails in transport (refused),
    // which the client classifies as retryable-but-exhausted.
    ClientOptions one_shot;
    one_shot.max_attempts = 1;
    one_shot.connect_timeout_seconds = 0.5;
    StrategyClient late_client("127.0.0.1", server.port(), one_shot);
    EXPECT_THROW(late_client.call(testWireRequest(128, 4)), NetError);
}

} // namespace
} // namespace opdvfs::net
