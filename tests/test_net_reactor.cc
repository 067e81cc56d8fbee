/**
 * Deterministic multi-reactor server suite: exact hits served by every
 * reactor byte-identical to the in-process worker-path ground truth,
 * round-robin connection distribution asserted through STATS and the
 * per-reactor counter slices, epoch invalidation gating the fast path
 * (a demoted epoch is never served as exact, and the fast path
 * repopulates at the new epoch), graceful stop() draining all
 * reactors, and the idle-reaping / payload-error-streak contracts
 * holding per reactor.  Reactor 0 accepts and deals connections
 * round-robin (connection k lands on reactor k mod N), so distribution
 * assertions are exact.
 *
 * The fast path serves straight from the service's cache, so its
 * answer follows the cache entry: a refined first contact is answered
 * with the refinement, a restored entry is on the loop from the first
 * request, a donor import never is, and the server leaves the
 * service's upgrade listener alone.
 *
 * A pipelined burst — hits, a cache bypass and a malformed payload in
 * one send — is answered in request order with each hit byte-identical
 * to the ground truth, and a sharded server still answers NotOwner
 * before it compares chips.
 */

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "models/transformer.h"
#include "net/client.h"
#include "net/server.h"
#include "power/offline_calibration.h"
#include "serve/fingerprint.h"
#include "shard/shard_map.h"
#include "tune/surrogate.h"

namespace opdvfs::net {
namespace {

models::Workload
testWorkload(int seq, int hidden = 1024)
{
    npu::NpuConfig chip;
    npu::MemorySystem memory(chip.memory);
    models::TransformerConfig model;
    model.name = "reactor-test";
    model.layers = 2;
    model.hidden = hidden;
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

/**
 * The suites' predict-first service (test_golden_run's predict+refine
 * row): a surrogate that fits from its first row, refinements at half
 * the GA budget.
 */
serve::ServiceOptions
predictFirstOptions()
{
    tune::SurrogateOptions surrogate;
    surrogate.min_rows = 1;
    surrogate.refit_interval_rows = 1;
    surrogate.boost_rounds = 6;
    surrogate.quantile_cuts = 4;
    serve::ServiceOptions options = fastOptions(2);
    options.surrogate = std::make_shared<tune::Surrogate>(surrogate);
    options.predict_first = true;
    options.refine_generation_fraction = 0.5;
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

serve::StrategyRequest
serviceRequest(const WireRequest &request)
{
    serve::StrategyRequest direct;
    direct.workload = request.workload;
    direct.perf_loss_target = request.perf_loss_target;
    direct.seed = request.seed;
    return direct;
}

/**
 * Train @p service's surrogate with one cold search, then send six
 * never-seen first contacts over the wire one after another and wait
 * for their refinements.  Returns the contacts.
 */
std::vector<WireRequest>
sendFirstContacts(serve::StrategyService &service, std::uint16_t port)
{
    serve::StrategyRequest trainer;
    trainer.workload = testWorkload(256);
    trainer.seed = 3;
    service.submit(trainer).get();

    const double targets[] = {0.02, 0.04, 0.06};
    std::vector<WireRequest> contacts;
    StrategyClient client("127.0.0.1", port);
    for (int i = 0; i < 6; ++i) {
        WireRequest request;
        request.workload = testWorkload(300 + 8 * i, 768);
        request.seed = static_cast<std::uint64_t>(5 + i);
        request.perf_loss_target = targets[i % 3];
        EXPECT_EQ(client.call(request).status, Status::Ok);
        contacts.push_back(std::move(request));
    }
    service.waitForRefines();
    return contacts;
}

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

/** Send @p frame and read exactly one response frame's raw bytes. */
std::string
roundTripRaw(int fd, const std::string &frame)
{
    if (::send(fd, frame.data(), frame.size(), 0)
        != static_cast<ssize_t>(frame.size()))
        return {};
    std::string buffer;
    char chunk[4096];
    for (;;) {
        std::size_t consumed = 0;
        if (auto peeled = peelFrame(buffer, &consumed)) {
            (void)peeled;
            return buffer.substr(0, consumed);
        }
        ssize_t got = ::recv(fd, chunk, sizeof(chunk), 0);
        if (got <= 0)
            return {};
        buffer.append(chunk, static_cast<std::size_t>(got));
    }
}

/**
 * The frame the worker path would encode for an in-process exact hit
 * on @p service, with service_seconds pinned to 0.0 — the fast path's
 * documented contract.  Built from the service response directly
 * (not via encodeExactHitFrame) so the comparison is an independent
 * oracle, not the implementation checked against itself.
 */
std::string
groundTruthHitFrame(serve::StrategyService &service,
                    const WireRequest &request)
{
    serve::StrategyResponse local =
        service.submit(serviceRequest(request)).get();
    EXPECT_EQ(local.provenance, serve::Provenance::ExactHit);
    WireResponse wire;
    wire.status = Status::Ok;
    wire.strategy = local.strategy;
    wire.best_score = local.ga.best_score;
    wire.provenance = local.provenance;
    wire.similarity = local.similarity;
    wire.generations_run = static_cast<std::uint32_t>(
        local.generations_run < 0 ? 0 : local.generations_run);
    wire.generations_saved = static_cast<std::uint32_t>(
        local.generations_saved < 0 ? 0 : local.generations_saved);
    wire.service_seconds = 0.0;
    wire.fingerprint_digest = local.fingerprint.digest;
    wire.model_epoch = service.modelEpoch();
    return frameResponse(wire);
}

/** Read @p count response frames off @p fd, in arrival order. */
std::vector<std::string>
readFrames(int fd, std::size_t count)
{
    std::vector<std::string> frames;
    std::string buffer;
    char chunk[16384];
    while (frames.size() < count) {
        std::size_t consumed = 0;
        if (peelFrame(buffer, &consumed)) {
            frames.push_back(buffer.substr(0, consumed));
            buffer.erase(0, consumed);
            continue;
        }
        ssize_t got = ::recv(fd, chunk, sizeof(chunk), 0);
        if (got <= 0)
            break;
        buffer.append(chunk, static_cast<std::size_t>(got));
    }
    return frames;
}

std::uint64_t
digestOf(const WireRequest &request)
{
    return serve::fingerprintRequest(request.workload, request.chip,
                                     request.perf_loss_target, request.seed)
        .digest;
}

TEST(NetReactor, PipelinedBurstIsAnsweredInRequestOrder)
{
    serve::StrategyService service(fastOptions(2));
    StrategyServer server(service, ServerOptions{});
    server.start();

    std::vector<WireRequest> hot = {testWireRequest(256, 3),
                                    testWireRequest(320, 3),
                                    testWireRequest(384, 7)};
    {
        StrategyClient primer("127.0.0.1", server.port());
        for (const WireRequest &request : hot)
            ASSERT_EQ(primer.call(request).status, Status::Ok);
    }
    std::vector<std::string> expected;
    for (const WireRequest &request : hot)
        expected.push_back(groundTruthHitFrame(service, request));
    const std::uint64_t misses_before = server.stats().fast_path_misses;

    // 17 frames in one send: 15 hits on three digests, a valid-CRC
    // frame whose payload does not decode, and a cache bypass that
    // takes the worker path while the hits behind it wait.
    constexpr int kMalformed = -1;
    constexpr int kBypass = -2;
    const std::vector<int> order = {0, 1, 2, 0, 1, 2, 0, kMalformed, 1,
                                    2, 0, kBypass, 1, 2, 0, 1, 2};
    WireRequest bypass = hot[1];
    bypass.use_cache = false;
    std::string burst;
    for (int which : order) {
        if (which == kMalformed)
            burst += frameMessage(MsgType::Request, "not-a-request");
        else if (which == kBypass)
            burst += frameRequest(bypass);
        else
            burst += frameRequest(hot[static_cast<std::size_t>(which)]);
    }

    int fd = connectLoopback(server.port());
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::send(fd, burst.data(), burst.size(), 0),
              static_cast<ssize_t>(burst.size()));
    std::vector<std::string> replies = readFrames(fd, order.size());
    ASSERT_EQ(replies.size(), order.size());
    for (std::size_t i = 0; i < order.size(); ++i) {
        if (order[i] >= 0) {
            EXPECT_EQ(replies[i],
                      expected[static_cast<std::size_t>(order[i])])
                << "reply " << i << " is not its request's hit frame";
            continue;
        }
        std::size_t consumed = 0;
        auto frame = peelFrame(replies[i], &consumed);
        ASSERT_TRUE(frame.has_value());
        WireResponse response = decodeResponse(frame->payload);
        if (order[i] == kMalformed) {
            EXPECT_EQ(response.status, Status::Malformed) << "reply " << i;
        } else {
            EXPECT_EQ(response.status, Status::Ok) << "reply " << i;
            EXPECT_NE(response.provenance, serve::Provenance::ExactHit);
            EXPECT_EQ(response.fingerprint_digest, digestOf(bypass));
        }
    }

    // One bad payload does not end the connection: the next hit on it
    // is answered too.
    EXPECT_EQ(roundTripRaw(fd, frameRequest(hot[2])), expected[2]);
    ::close(fd);

    ServerStats stats = server.stats();
    EXPECT_EQ(stats.fast_path_hits, 16u);
    EXPECT_EQ(stats.fast_path_misses, misses_before);
    EXPECT_EQ(stats.responses_malformed, 1u);
    server.stop();
}

TEST(NetReactor, ShardedServerAnswersNotOwnerBeforeChipMismatch)
{
    serve::StrategyService service(fastOptions(1));
    ServerOptions server_options;
    server_options.shard_id = 0;
    server_options.shard_map = std::make_shared<shard::SharedShardMap>(
        shard::ShardMap({{0, "127.0.0.1:7"}, {1, "127.0.0.1:9"}}));
    StrategyServer server(service, server_options);
    server.start();

    // Two requests for a chip this server does not serve: one whose
    // digest shard 1 owns, one whose digest this shard owns.
    std::shared_ptr<const shard::ShardMap> map =
        server_options.shard_map->snapshot();
    std::optional<WireRequest> foreign;
    std::optional<WireRequest> owned;
    for (std::uint64_t seed = 1; !(foreign && owned) && seed < 200;
         ++seed) {
        WireRequest request = testWireRequest(64, seed);
        request.chip.uncore_power.idle_watts += 1.0;
        auto &slot = map->ownerOf(digestOf(request)).id == 1 ? foreign
                                                              : owned;
        if (!slot)
            slot = std::move(request);
    }
    ASSERT_TRUE(foreign && owned);

    std::string burst = frameRequest(*foreign) + frameRequest(*owned);
    int fd = connectLoopback(server.port());
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::send(fd, burst.data(), burst.size(), 0),
              static_cast<ssize_t>(burst.size()));
    std::vector<std::string> replies = readFrames(fd, 2);
    ::close(fd);
    ASSERT_EQ(replies.size(), 2u);
    std::size_t consumed = 0;
    WireResponse first =
        decodeResponse(peelFrame(replies[0], &consumed)->payload);
    EXPECT_EQ(first.status, Status::NotOwner);
    EXPECT_EQ(first.owner_address, "127.0.0.1:9");
    WireResponse second =
        decodeResponse(peelFrame(replies[1], &consumed)->payload);
    EXPECT_EQ(second.status, Status::ChipMismatch);
    server.stop();
}

TEST(NetReactor, ExactHitsFromEveryReactorAreByteIdentical)
{
    serve::StrategyService service(fastOptions(2));
    ServerOptions server_options;
    server_options.reactor_threads = 4;
    StrategyServer server(service, server_options);
    server.start();

    // Prime two workloads through the worker path; their cache entries
    // get their frames from the first fast-path hit below.
    std::vector<WireRequest> requests = {testWireRequest(256, 3),
                                         testWireRequest(384, 3)};
    {
        StrategyClient primer("127.0.0.1", server.port());
        for (const WireRequest &request : requests)
            ASSERT_EQ(primer.call(request).status, Status::Ok);
    }

    // Ground truth: the same requests answered in-process by the same
    // service (exact hits off the strategy cache), re-encoded the way
    // the worker path serves them.
    std::vector<std::string> expected;
    for (const WireRequest &request : requests)
        expected.push_back(groundTruthHitFrame(service, request));

    // Eight connections deal round-robin onto the four reactors (the
    // primer was connection 1), so every reactor owns exactly two;
    // each connection replays both workloads.
    std::vector<int> fds;
    for (int i = 0; i < 8; ++i) {
        int fd = connectLoopback(server.port());
        ASSERT_GE(fd, 0);
        fds.push_back(fd);
    }
    for (int fd : fds)
        for (std::size_t w = 0; w < requests.size(); ++w) {
            std::string raw = roundTripRaw(fd, frameRequest(requests[w]));
            EXPECT_EQ(raw, expected[w])
                << "fast-path frame differs from the worker-path "
                   "ground truth";
        }
    for (int fd : fds)
        ::close(fd);

    // All 16 storm responses came off the fast path, spread exactly
    // two connections / four hits per reactor.
    ServerStats stats = server.stats();
    EXPECT_EQ(stats.fast_path_hits, 16u);
    ASSERT_EQ(stats.reactors.size(), 4u);
    for (const ReactorStats &reactor : stats.reactors) {
        EXPECT_GE(reactor.connections_accepted, 2u);
        EXPECT_EQ(reactor.fast_path_hits, 4u);
    }

    // The same distribution surfaces through the admin STATS text.
    std::string text = adminQuery("127.0.0.1", server.port(), "STATS");
    EXPECT_NE(text.find("reactor_threads 4\n"), std::string::npos);
    EXPECT_NE(text.find("fast_path_hits 16\n"), std::string::npos);
    for (int i = 0; i < 4; ++i) {
        std::string line = "reactor " + std::to_string(i) + " accepted ";
        EXPECT_NE(text.find(line), std::string::npos) << text;
    }
    server.stop();
}

TEST(NetReactor, EpochInvalidateGatesAndRepopulatesTheFastPath)
{
    serve::StrategyService service(fastOptions(2));
    ServerOptions server_options;
    server_options.reactor_threads = 2;
    StrategyServer server(service, server_options);
    server.start();

    StrategyClient client("127.0.0.1", server.port());
    WireRequest request = testWireRequest(256, 5);

    WireResponse cold = client.call(request);
    ASSERT_EQ(cold.status, Status::Ok);
    EXPECT_EQ(cold.provenance, serve::Provenance::Cold);
    EXPECT_EQ(cold.model_epoch, 0u);

    WireResponse hit = client.call(request);
    EXPECT_EQ(hit.provenance, serve::Provenance::ExactHit);
    EXPECT_EQ(hit.service_seconds, 0.0);
    EXPECT_EQ(server.stats().fast_path_hits, 1u);

    // RECAL advances the model epoch: the very next identical request
    // must not be served as an exact hit at the demoted epoch — it
    // recomputes (warm-started by the demoted entry) under epoch 1.
    std::string recal = adminQuery("127.0.0.1", server.port(), "RECAL");
    EXPECT_EQ(recal.rfind("ok epoch 1", 0), 0u) << recal;

    WireResponse recomputed = client.call(request);
    ASSERT_EQ(recomputed.status, Status::Ok);
    EXPECT_NE(recomputed.provenance, serve::Provenance::ExactHit);
    EXPECT_EQ(recomputed.model_epoch, 1u);
    EXPECT_EQ(server.stats().fast_path_hits, 1u); // no new fast hit

    // The recomputation's completion republished at epoch 1: the next
    // identical request is on the loop again.
    WireResponse rehit = client.call(request);
    EXPECT_EQ(rehit.provenance, serve::Provenance::ExactHit);
    EXPECT_EQ(rehit.model_epoch, 1u);
    EXPECT_EQ(server.stats().fast_path_hits, 2u);
    server.stop();
}

TEST(NetReactor, GracefulStopDrainsEveryReactor)
{
    serve::StrategyService service(fastOptions(1));
    ServerOptions server_options;
    server_options.reactor_threads = 4;
    server_options.shutdown_flush_seconds = 10.0;
    StrategyServer server(service, server_options);
    server.start();

    // Idle connections parked on three reactors while a slow cold
    // request is in flight on the fourth: stop() must drain the
    // in-flight work, flush its response, and close every reactor's
    // connections.
    std::vector<int> idlers;
    for (int i = 0; i < 3; ++i) {
        int fd = connectLoopback(server.port());
        ASSERT_GE(fd, 0);
        idlers.push_back(fd);
    }
    WireRequest slow = testWireRequest(512, 47);
    slow.use_cache = false;
    WireResponse answered;
    std::thread requester([&] {
        StrategyClient client("127.0.0.1", server.port());
        answered = client.call(slow);
    });
    for (int spin = 0; spin < 500 && service.stats().in_flight == 0;
         ++spin)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    ASSERT_GE(service.stats().in_flight, 1u);

    auto begun = std::chrono::steady_clock::now();
    server.stop();
    double stop_seconds = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - begun)
                              .count();
    requester.join();

    // The admitted request completed and its response was flushed
    // before the reactors exited.
    EXPECT_EQ(answered.status, Status::Ok);
    EXPECT_LT(stop_seconds, server_options.shutdown_flush_seconds);
    ServerStats stats = server.stats();
    EXPECT_EQ(stats.open_connections, 0u);
    for (const ReactorStats &reactor : stats.reactors)
        EXPECT_EQ(reactor.open_connections, 0u);
    for (int fd : idlers)
        ::close(fd);
    server.stop(); // idempotent
}

TEST(NetReactor, IdleReapingAndPayloadStreakHoldPerReactor)
{
    serve::StrategyService service(fastOptions(1));
    ServerOptions server_options;
    server_options.reactor_threads = 2;
    server_options.idle_timeout_seconds = 0.3;
    server_options.max_payload_errors = 2;
    StrategyServer server(service, server_options);
    server.start();

    // Four idle connections, two per reactor, all reaped.
    std::vector<int> idlers;
    for (int i = 0; i < 4; ++i) {
        int fd = connectLoopback(server.port());
        ASSERT_GE(fd, 0);
        idlers.push_back(fd);
    }
    for (int spin = 0;
         spin < 500 && server.stats().connections_reaped < 4; ++spin)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    ServerStats stats = server.stats();
    EXPECT_EQ(stats.connections_reaped, 4u);
    ASSERT_EQ(stats.reactors.size(), 2u);
    EXPECT_EQ(stats.reactors[0].connections_reaped, 2u);
    EXPECT_EQ(stats.reactors[1].connections_reaped, 2u);
    for (int fd : idlers)
        ::close(fd);

    // The payload-error streak closes connections on both reactors:
    // two intact-but-undecodable frames each, answered then closed.
    std::string bad = frameMessage(MsgType::Request, "not-a-request");
    for (int i = 0; i < 2; ++i) {
        int fd = connectLoopback(server.port());
        ASSERT_GE(fd, 0);
        std::string burst = bad + bad;
        ASSERT_EQ(::send(fd, burst.data(), burst.size(), 0),
                  static_cast<ssize_t>(burst.size()));
        std::string bytes;
        char chunk[4096];
        ssize_t got;
        while ((got = ::recv(fd, chunk, sizeof(chunk), 0)) > 0)
            bytes.append(chunk, static_cast<std::size_t>(got));
        ::close(fd);
        std::size_t consumed = 0;
        std::size_t responses = 0;
        while (auto frame = peelFrame(bytes, &consumed)) {
            EXPECT_EQ(decodeResponse(frame->payload).status,
                      Status::Malformed);
            bytes.erase(0, consumed);
            ++responses;
        }
        EXPECT_EQ(responses, 2u);
    }
    EXPECT_GE(server.stats().responses_malformed, 4u);
    server.stop();
}

TEST(NetReactor, RefinedFirstContactsAreAnsweredRefinedOnTheWire)
{
    serve::StrategyService service(predictFirstOptions());
    StrategyServer server(service, ServerOptions{});
    server.start();
    std::vector<WireRequest> contacts =
        sendFirstContacts(service, server.port());
    ASSERT_GT(service.stats().refine_upgrades, 0u);

    // Once the refinements settled, the wire answer is whatever the
    // cache holds — the refined strategy for every upgraded digest,
    // never the prediction it replaced — exactly as in-process.
    StrategyClient client("127.0.0.1", server.port());
    for (std::size_t i = 0; i < contacts.size(); ++i) {
        WireResponse wire = client.call(contacts[i]);
        serve::StrategyResponse local =
            service.submit(serviceRequest(contacts[i])).get();
        ASSERT_EQ(wire.status, Status::Ok);
        ASSERT_EQ(local.provenance, serve::Provenance::ExactHit);
        EXPECT_EQ(wire.provenance, serve::Provenance::ExactHit);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(wire.best_score),
                  std::bit_cast<std::uint64_t>(local.ga.best_score))
            << "first contact " << i;
        EXPECT_EQ(wire.strategy.mhz_per_stage,
                  local.strategy.mhz_per_stage)
            << "first contact " << i;
    }
    server.stop();
}

TEST(NetReactor, UpgradeListenerInstalledBeforeTheServerStillFires)
{
    serve::StrategyService service(predictFirstOptions());
    std::atomic<std::uint64_t> heard{0};
    service.setUpgradeListener(
        [&heard](std::uint64_t) { heard.fetch_add(1); });
    StrategyServer server(service, ServerOptions{});
    server.start();
    sendFirstContacts(service, server.port());

    std::uint64_t upgrades = service.stats().refine_upgrades;
    ASSERT_GT(upgrades, 0u);
    EXPECT_EQ(heard.load(), upgrades);
    server.stop();
}

TEST(NetReactor, RestoredEntryIsOnTheFastPathFromTheFirstRequest)
{
    WireRequest request = testWireRequest(256, 11);
    std::vector<serve::CacheEntry> persisted;
    {
        serve::StrategyService origin(fastOptions(1));
        origin.submit(serviceRequest(request)).get();
        persisted = origin.snapshotCache();
    }
    serve::StrategyService service(fastOptions(1));
    ASSERT_EQ(service.restoreEntries(persisted), 1u);
    StrategyServer server(service, ServerOptions{});
    server.start();

    int fd = connectLoopback(server.port());
    ASSERT_GE(fd, 0);
    std::string raw = roundTripRaw(fd, frameRequest(request));
    ::close(fd);
    EXPECT_EQ(server.stats().fast_path_hits, 1u);
    EXPECT_EQ(service.stats().requests, 0u);
    EXPECT_EQ(raw, groundTruthHitFrame(service, request));
    server.stop();
}

TEST(NetReactor, DonorEntryIsNeverServedOnTheFastPath)
{
    WireRequest request = testWireRequest(256, 13);
    serve::PeerDonor donor;
    {
        serve::StrategyService origin(fastOptions(1));
        serve::StrategyResponse owned =
            origin.submit(serviceRequest(request)).get();
        donor.fingerprint = owned.fingerprint;
        donor.strategy = owned.strategy;
        donor.best_mhz = owned.ga.best_mhz;
        donor.best_score = owned.ga.best_score;
        donor.similarity = 1.0;
        donor.perf_loss_target = request.perf_loss_target;
    }
    serve::StrategyService service(fastOptions(1));
    service.importDonor(donor);
    StrategyServer server(service, ServerOptions{});
    server.start();

    // The donor names this very digest at the current epoch, yet the
    // request is searched (warm-started by the donor), not served.
    StrategyClient client("127.0.0.1", server.port());
    WireResponse first = client.call(request);
    ASSERT_EQ(first.status, Status::Ok);
    EXPECT_EQ(first.provenance, serve::Provenance::WarmStart);
    EXPECT_EQ(server.stats().fast_path_hits, 0u);

    // The owned result replaced the donor and is on the loop now.
    EXPECT_EQ(client.call(request).provenance,
              serve::Provenance::ExactHit);
    EXPECT_EQ(server.stats().fast_path_hits, 1u);
    server.stop();
}

} // namespace
} // namespace opdvfs::net
