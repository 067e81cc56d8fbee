/**
 * Chaos tests: the serving stack driven through the seeded
 * fault-injecting ChaosProxy.  Every plan here uses a fixed seed, so
 * each fault schedule — which bytes are split, corrupted, stalled or
 * cut — replays identically run to run: a failure reproduces, and the
 * expected outcome of each fault mode is asserted exactly (split
 * streams still decode, corruption is caught by the CRC and answered
 * `Malformed`, stalls surface as client deadlines, mid-frame resets as
 * transport errors).  Also covers the circuit breaker against a dead
 * port — a 16-client fleet's aggregate connect attempts are bounded by
 * the breaker, not by the number of calls — and that ChaosProxy::stop()
 * stays bounded under every fault mode.  An optional soak (gated on
 * OPDVFS_CHAOS_SOAK_SECONDS, wired to a manual CI job) hammers a
 * server through a mixed-fault proxy and requires it healthy after.
 */

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "models/transformer.h"
#include "net/chaos.h"
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
    model.name = "chaos-test";
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

/**
 * A loopback port guaranteed dead for the test's lifetime: bound (so
 * nothing else can take it) but never listened on, so every connect is
 * refused immediately.  Caller owns the returned fd.
 */
int
deadPort(std::uint16_t *port)
{
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    if (fd < 0
        || ::bind(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr))
               < 0)
        return -1;
    socklen_t len = sizeof(addr);
    if (::getsockname(fd, reinterpret_cast<sockaddr *>(&addr), &len) < 0)
        return -1;
    *port = ntohs(addr.sin_port);
    return fd;
}

TEST(NetChaos, PassthroughProxyIsTransparent)
{
    serve::StrategyService service(fastOptions(2));
    StrategyServer server(service, {});
    server.start();
    ChaosProxy proxy("127.0.0.1", server.port()); // default: no faults
    proxy.start();

    StrategyClient client("127.0.0.1", proxy.port());
    WireResponse response = client.call(testWireRequest(128, 3));
    EXPECT_EQ(response.status, Status::Ok);

    ChaosCounters counters = proxy.counters();
    EXPECT_EQ(counters.connections, 1u);
    EXPECT_GT(counters.bytes_up, 0u);
    EXPECT_GT(counters.bytes_down, 0u);
    EXPECT_EQ(counters.bytes_corrupted, 0u);
    EXPECT_EQ(counters.stalls, 0u);
    EXPECT_EQ(counters.resets, 0u);
    proxy.stop();
    server.stop();
}

// A frame split at every byte boundary — the worst case for the
// server's frame peeler and the client's response reader — must decode
// exactly as the unsplit stream does.
TEST(NetChaos, ByteAtATimeSplitStillServes)
{
    serve::StrategyService service(fastOptions(2));
    StrategyServer server(service, {});
    server.start();

    ChaosPlan plan;
    plan.seed = 11;
    plan.min_chunk_bytes = 1;
    plan.max_chunk_bytes = 1;
    ChaosProxy proxy("127.0.0.1", server.port(), plan);
    proxy.start();

    StrategyClient client("127.0.0.1", proxy.port());
    WireRequest request = testWireRequest(128, 5);
    WireResponse cold = client.call(request);
    EXPECT_EQ(cold.status, Status::Ok);
    EXPECT_EQ(cold.provenance, serve::Provenance::Cold);
    WireResponse hit = client.call(request);
    EXPECT_EQ(hit.status, Status::Ok);
    EXPECT_EQ(hit.provenance, serve::Provenance::ExactHit);
    EXPECT_EQ(hit.best_score, cold.best_score);

    // With one-byte chunks every forwarded byte is its own write;
    // both counters move under one lock, so this holds at any moment.
    ChaosCounters counters = proxy.counters();
    EXPECT_EQ(counters.chunks, counters.bytes_up + counters.bytes_down);
    EXPECT_GT(counters.bytes_up,
              frameRequest(request).size()); // two requests forwarded
    proxy.stop();
    server.stop();
}

// One flipped bit inside the payload must be caught by the frame CRC:
// the server answers a well-formed `Malformed` and closes — never a
// crash, never a garbage strategy.
TEST(NetChaos, TargetedCorruptionIsCaughtByTheCrc)
{
    serve::StrategyService service(fastOptions(1));
    StrategyServer server(service, {});
    server.start();

    ChaosPlan plan;
    plan.seed = 13;
    plan.corrupt_byte_index = 24; // past the 16-byte header: payload
    plan.apply_downstream = false; // leave the response intact
    ChaosProxy proxy("127.0.0.1", server.port(), plan);
    proxy.start();

    ClientOptions one_shot;
    one_shot.max_attempts = 1;
    StrategyClient client("127.0.0.1", proxy.port(), one_shot);
    try {
        client.call(testWireRequest(128, 7));
        FAIL() << "expected RemoteError(Malformed)";
    } catch (const RemoteError &remote) {
        EXPECT_EQ(remote.status(), Status::Malformed);
    }
    EXPECT_EQ(proxy.counters().bytes_corrupted, 1u);
    EXPECT_GE(server.stats().responses_malformed, 1u);
    EXPECT_EQ(service.stats().requests, 0u); // nothing reached the GA
    proxy.stop();
    server.stop();
}

// A mid-response stall (a hung middlebox) must surface as the
// client's own deadline, not a hang.
TEST(NetChaos, StallSurfacesAsClientDeadline)
{
    serve::StrategyService service(fastOptions(1));
    StrategyServer server(service, {});
    server.start();

    // Pre-warm straight against the server so the proxied request is
    // an exact hit and the only slow path is the injected stall.
    StrategyClient warm("127.0.0.1", server.port());
    WireRequest request = testWireRequest(128, 9);
    ASSERT_EQ(warm.call(request).status, Status::Ok);

    ChaosPlan plan;
    plan.seed = 17;
    plan.apply_upstream = false;
    plan.stall_after_bytes = 8; // freeze mid-way through the header
    plan.stall_seconds = 5.0;
    ChaosProxy proxy("127.0.0.1", server.port(), plan);
    proxy.start();

    ClientOptions options;
    options.max_attempts = 1;
    options.request_timeout_seconds = 0.5;
    StrategyClient client("127.0.0.1", proxy.port(), options);
    EXPECT_THROW(client.call(request), DeadlineError);
    EXPECT_EQ(proxy.counters().stalls, 1u);
    proxy.stop(); // abandons the stall: bounded despite stall_seconds
    server.stop();
}

// A connection cut by an RST at an arbitrary point inside the request
// frame must surface as a transport error at the client (retryable),
// whichever byte the cut lands on.
TEST(NetChaos, MidFrameResetSurfacesAsTransportError)
{
    serve::StrategyService service(fastOptions(1));
    StrategyServer server(service, {});
    server.start();

    for (std::size_t cut : {std::size_t{1}, std::size_t{8},
                            std::size_t{17}, std::size_t{200}}) {
        ChaosPlan plan;
        plan.seed = 19 + cut;
        plan.reset_after_bytes = cut;
        plan.apply_downstream = false;
        ChaosProxy proxy("127.0.0.1", server.port(), plan);
        proxy.start();

        ClientOptions one_shot;
        one_shot.max_attempts = 1;
        StrategyClient client("127.0.0.1", proxy.port(), one_shot);
        try {
            client.call(testWireRequest(64, cut));
            FAIL() << "expected NetError at cut offset " << cut;
        } catch (const DeadlineError &) {
            FAIL() << "reset surfaced as a deadline at cut " << cut;
        } catch (const NetError &) {
            // expected: reset / torn connection
        }
        EXPECT_EQ(proxy.counters().resets, 1u) << "cut " << cut;
        proxy.stop();
    }
    server.stop();
}

// A four-reactor server behind the proxy upholds exactly the
// single-loop contracts: byte-at-a-time splits still serve (the hit
// now coming off a reactor's fast path), a flipped payload bit is
// caught by the CRC and answered `Malformed` by whichever reactor owns
// the connection, and a mid-response stall surfaces as the client's
// deadline.  Multi-reactor ownership must be invisible on the wire.
TEST(NetChaos, FourReactorServerMatchesSingleLoopContracts)
{
    serve::StrategyService service(fastOptions(2));
    ServerOptions server_options;
    server_options.reactor_threads = 4;
    StrategyServer server(service, server_options);
    server.start();

    // Split: one-byte chunks both ways; cold computes, the replay is
    // an exact hit with the same score — served on the event loop.
    {
        ChaosPlan plan;
        plan.seed = 29;
        plan.min_chunk_bytes = 1;
        plan.max_chunk_bytes = 1;
        ChaosProxy proxy("127.0.0.1", server.port(), plan);
        proxy.start();
        StrategyClient client("127.0.0.1", proxy.port());
        WireRequest request = testWireRequest(128, 21);
        WireResponse cold = client.call(request);
        EXPECT_EQ(cold.status, Status::Ok);
        EXPECT_EQ(cold.provenance, serve::Provenance::Cold);
        WireResponse hit = client.call(request);
        EXPECT_EQ(hit.provenance, serve::Provenance::ExactHit);
        EXPECT_EQ(hit.best_score, cold.best_score);
        proxy.stop();
        EXPECT_EQ(server.stats().fast_path_hits, 1u);
    }

    // Bit-flip: the CRC catches it on whichever reactor owns the
    // connection; the GA is never reached by the corrupted frame.
    {
        std::uint64_t requests_before = service.stats().requests;
        ChaosPlan plan;
        plan.seed = 31;
        plan.corrupt_byte_index = 24;
        plan.apply_downstream = false;
        ChaosProxy proxy("127.0.0.1", server.port(), plan);
        proxy.start();
        ClientOptions one_shot;
        one_shot.max_attempts = 1;
        StrategyClient client("127.0.0.1", proxy.port(), one_shot);
        try {
            client.call(testWireRequest(128, 23));
            FAIL() << "expected RemoteError(Malformed)";
        } catch (const RemoteError &remote) {
            EXPECT_EQ(remote.status(), Status::Malformed);
        }
        EXPECT_EQ(service.stats().requests, requests_before);
        EXPECT_GE(server.stats().responses_malformed, 1u);
        proxy.stop();
    }

    // Stall: an exact hit frozen mid-header downstream surfaces as
    // the client's own deadline, exactly as with one loop.
    {
        ChaosPlan plan;
        plan.seed = 37;
        plan.apply_upstream = false;
        plan.stall_after_bytes = 8;
        plan.stall_seconds = 5.0;
        ChaosProxy proxy("127.0.0.1", server.port(), plan);
        proxy.start();
        ClientOptions options;
        options.max_attempts = 1;
        options.request_timeout_seconds = 0.5;
        StrategyClient client("127.0.0.1", proxy.port(), options);
        EXPECT_THROW(client.call(testWireRequest(128, 21)),
                     DeadlineError);
        EXPECT_EQ(proxy.counters().stalls, 1u);
        proxy.stop();
    }
    server.stop();
}

// With the server dead, a fleet of breaker-equipped clients stops
// hammering the port: total connect attempts are a function of the
// breaker threshold, not of how many calls the fleet makes, and once
// the cool-down elapses exactly one half-open probe goes out per
// client before the breaker re-opens.
TEST(NetChaos, BreakerBoundsAFleetAgainstADeadServer)
{
    std::uint16_t port = 0;
    int reserved = deadPort(&port);
    ASSERT_GE(reserved, 0);

    constexpr int kClients = 16;
    constexpr int kCallsPerClient = 50;
    std::vector<std::unique_ptr<StrategyClient>> fleet;
    ClientOptions options;
    options.max_attempts = 1;
    options.connect_timeout_seconds = 0.5;
    options.breaker_failure_threshold = 2;
    options.breaker_open_seconds = 30.0; // no probe inside this test
    WireRequest request = testWireRequest(64, 1);
    for (int i = 0; i < kClients; ++i) {
        options.seed = static_cast<std::uint64_t>(i + 1);
        fleet.push_back(std::make_unique<StrategyClient>(
            "127.0.0.1", port, options));
        for (int call = 0; call < kCallsPerClient; ++call)
            EXPECT_THROW(fleet.back()->call(request), NetError);
    }

    std::uint64_t attempts = 0;
    for (auto &client : fleet) {
        EXPECT_EQ(client->breakerState(), BreakerState::Open);
        EXPECT_EQ(client->breakerOpens(), 1u);
        EXPECT_EQ(client->connectAttempts(), 2u); // == threshold
        attempts += client->connectAttempts();
    }
    // 800 calls, 32 connect attempts: the breaker, not the call rate,
    // sets the load on the dead server.
    EXPECT_EQ(attempts,
              static_cast<std::uint64_t>(kClients)
                  * static_cast<std::uint64_t>(
                      options.breaker_failure_threshold));

    // After the cool-down, exactly one half-open probe per call burst.
    ClientOptions probing = options;
    probing.breaker_open_seconds = 0.2;
    StrategyClient prober("127.0.0.1", port, probing);
    for (int call = 0; call < 10; ++call)
        EXPECT_THROW(prober.call(request), NetError);
    EXPECT_EQ(prober.connectAttempts(), 2u);
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    for (int call = 0; call < 10; ++call)
        EXPECT_THROW(prober.call(request), NetError);
    EXPECT_EQ(prober.connectAttempts(), 3u); // the probe, re-opened
    EXPECT_EQ(prober.breakerOpens(), 2u);
    ::close(reserved);
}

// stop() must stay bounded whatever fault is mid-flight — including a
// relay thread asleep inside a configured 30 s stall.
TEST(NetChaos, StopIsBoundedUnderEveryFaultMode)
{
    ChaosPlan split;
    split.min_chunk_bytes = 1;
    split.max_chunk_bytes = 1;
    split.inter_chunk_delay_us = 20000;
    ChaosPlan corrupt;
    corrupt.corrupt_rate = 1.0;
    ChaosPlan stall;
    stall.stall_after_bytes = 1;
    stall.stall_seconds = 30.0;
    ChaosPlan reset;
    reset.reset_after_bytes = 3;

    for (const ChaosPlan &plan : {split, corrupt, stall, reset}) {
        // A bound-and-listening upstream that never reads: enough for
        // the proxy to connect and buffer its forwards.
        std::uint16_t upstream_port = 0;
        int upstream = ::socket(AF_INET, SOCK_STREAM, 0);
        ASSERT_GE(upstream, 0);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port = 0;
        ASSERT_EQ(::bind(upstream, reinterpret_cast<sockaddr *>(&addr),
                         sizeof(addr)),
                  0);
        ASSERT_EQ(::listen(upstream, 4), 0);
        socklen_t len = sizeof(addr);
        ASSERT_EQ(::getsockname(upstream,
                                reinterpret_cast<sockaddr *>(&addr),
                                &len),
                  0);
        upstream_port = ntohs(addr.sin_port);

        ChaosProxy proxy("127.0.0.1", upstream_port, plan);
        proxy.start();
        int fd = connectLoopback(proxy.port());
        ASSERT_GE(fd, 0);
        ASSERT_EQ(::send(fd, "hello", 5, 0), 5);
        // Let the relay pick the bytes up and enter its fault path.
        std::this_thread::sleep_for(std::chrono::milliseconds(150));

        auto started = std::chrono::steady_clock::now();
        proxy.stop();
        double stop_seconds =
            std::chrono::duration<double>(std::chrono::steady_clock::now()
                                          - started)
                .count();
        EXPECT_LT(stop_seconds, 2.0);
        ::close(fd);
        ::close(upstream);
    }
}

// Manual soak (wired to the chaos-soak CI job): hammer a live server
// through a mixed-fault proxy for OPDVFS_CHAOS_SOAK_SECONDS, then
// require the server itself still healthy and serving.
TEST(NetChaos, SoakSurvivesMixedFaults)
{
    const char *env = std::getenv("OPDVFS_CHAOS_SOAK_SECONDS");
    if (env == nullptr || *env == '\0')
        GTEST_SKIP()
            << "set OPDVFS_CHAOS_SOAK_SECONDS to run the chaos soak";
    double budget = std::atof(env);
    if (budget < 1.0)
        budget = 1.0;
    if (budget > 300.0)
        budget = 300.0;

    serve::StrategyService service(fastOptions(2));
    StrategyServer server(service, {});
    server.start();

    ChaosPlan plan;
    plan.seed = 29;
    plan.min_chunk_bytes = 1;
    plan.max_chunk_bytes = 9;
    plan.corrupt_rate = 2e-4;
    ChaosProxy proxy("127.0.0.1", server.port(), plan);
    proxy.start();

    auto deadline = std::chrono::steady_clock::now()
                    + std::chrono::duration_cast<
                        std::chrono::steady_clock::duration>(
                        std::chrono::duration<double>(budget));
    std::atomic<std::uint64_t> completed{0};
    std::vector<std::thread> drivers;
    for (int t = 0; t < 4; ++t) {
        drivers.emplace_back([&, t] {
            ClientOptions options;
            options.max_attempts = 3;
            options.request_timeout_seconds = 5.0;
            options.backoff_initial_seconds = 0.01;
            options.backoff_max_seconds = 0.1;
            options.seed = static_cast<std::uint64_t>(t + 1);
            StrategyClient client("127.0.0.1", proxy.port(), options);
            int i = 0;
            while (std::chrono::steady_clock::now() < deadline) {
                try {
                    WireRequest request =
                        testWireRequest(64 + 64 * (i % 3),
                                        static_cast<std::uint64_t>(
                                            t * 1000 + i % 5));
                    if (client.call(request).status == Status::Ok)
                        ++completed;
                } catch (const std::exception &) {
                    // corruption / resets land here by design
                }
                if (++i % 17 == 0)
                    client.disconnect();
            }
        });
    }
    for (auto &driver : drivers)
        driver.join();
    proxy.stop();

    // The server itself must have survived the weather: still
    // healthy, still serving clean requests directly.
    EXPECT_EQ(adminQuery("127.0.0.1", server.port(), "HEALTH"), "ok\n");
    StrategyClient direct("127.0.0.1", server.port());
    EXPECT_EQ(direct.call(testWireRequest(128, 999)).status, Status::Ok);
    EXPECT_GT(completed.load(), 0u);
    server.stop();
}

} // namespace
} // namespace opdvfs::net
