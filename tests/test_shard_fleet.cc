/**
 * @file
 * In-process multi-shard fleet tests: every shard is a real
 * StrategyService + StrategyServer on loopback with its own shard map
 * and peer client, exactly as `strategy_server --shard-id` wires them.
 *
 * Covered contracts:
 *
 *  - a router holding a wrong map is answered NotOwner, self-heals
 *    from the carried map, and the redirected exact hit is
 *    byte-identical to the owner's answer;
 *  - a cold request whose owner has no local donor converts to a
 *    warm start through the peer-donor protocol (and the import is
 *    never served as an exact hit);
 *  - after one shard recalibrates (admin RECAL), no shard in the
 *    fleet answers an exact hit with a stale-epoch strategy — the
 *    epoch-invalidate broadcast blocks until every peer acked,
 *    including when the invalidate frame crawls through a stalling
 *    chaos proxy;
 *  - killing one shard of a replicated 3-shard fleet is invisible to
 *    clients: every key answers through router failover (the dead
 *    shard's keys as warm replicas from its ring successors), and the
 *    restarted shard rehydrates from snapshot + WAL so its keys are
 *    exact hits again;
 *  - with failover disabled the owner's failure propagates unchanged
 *    (the pre-failover fail-fast contract, pinned);
 *  - a RECAL whose peer is dead names that peer's address in the
 *    admin reply;
 *  - the health monitor walks a dead peer Alive → Suspect → Down and
 *    the admin HEALTH reply carries the table.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "models/transformer.h"
#include "net/chaos.h"
#include "net/client.h"
#include "net/health.h"
#include "net/peer.h"
#include "net/router.h"
#include "net/server.h"
#include "power/offline_calibration.h"
#include "serve/cache_store.h"
#include "shard/shard_map.h"

namespace opdvfs::net {
namespace {

models::Workload
testWorkload(int seq)
{
    npu::NpuConfig chip;
    npu::MemorySystem memory(chip.memory);
    models::TransformerConfig model;
    model.name = "fleet-test";
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

/** One in-process shard: service + server + its own map and peers. */
struct TestShard
{
    std::shared_ptr<shard::SharedShardMap> map;
    std::shared_ptr<ShardPeers> peers;
    // Declared before the service: the insert listener targets them,
    // so they must outlive it.  Both stop() hooks are idempotent and
    // safe against late calls.
    std::shared_ptr<ShardReplicator> replicator;
    std::shared_ptr<HealthMonitor> health;
    std::unique_ptr<serve::CachePersister> persister;
    std::unique_ptr<serve::StrategyService> service;
    std::unique_ptr<StrategyServer> server;
    std::uint32_t id = 0;
    std::string snapshot_path;
    std::string wal_path;
};

/** A loopback fleet whose shards all know each other. */
struct TestFleet
{
    TestFleet() = default;
    TestFleet(TestFleet &&) = default;
    TestFleet &operator=(TestFleet &&) = default;

    std::vector<std::unique_ptr<TestShard>> shards;

    /** The full membership, as a client would hold it. */
    shard::ShardMap clientMap() const
    {
        return *shards.front()->map->snapshot();
    }

    TestShard &shardOwning(const WireRequest &request)
    {
        std::uint32_t id =
            clientMap()
                .ownerOf(ShardRouter::requestDigest(request))
                .id;
        for (auto &entry : shards)
            if (entry->id == id)
                return *entry;
        throw std::logic_error("fleet: owner not in fleet");
    }

    std::uint16_t portOf(std::uint32_t id) const
    {
        for (const auto &entry : shards)
            if (entry->id == id)
                return entry->server->port();
        throw std::logic_error("fleet: unknown shard id");
    }

    ~TestFleet()
    {
        // Servers first (they reference services and maps).
        for (auto &entry : shards)
            entry->server->stop();
    }
};

/** Fault-tolerance wiring for makeFleet. */
struct FleetConfig
{
    /** Total copies per entry; > 1 wires a ShardReplicator. */
    std::size_t replication_factor = 1;
    /** Non-empty: wire a CachePersister writing under this directory. */
    std::string persist_dir;
    /** Wire a HealthMonitor (manual probeOnce; no probe thread). */
    bool health = false;
};

serve::ServiceOptions
fleetServiceOptions()
{
    serve::ServiceOptions options;
    options.pipeline.warmup_seconds = 2.0;
    options.pipeline.profile_freqs_mhz = {1000.0, 1800.0};
    options.pipeline.ga.population = 30;
    options.pipeline.ga.generations = 24;
    options.pipeline.ga.refine_sweeps = 2;
    options.pipeline.constants = constants();
    options.workers = 2;
    return options;
}

TestFleet
makeFleet(std::size_t count, const FleetConfig &config = {})
{
    TestFleet fleet;
    for (std::size_t at = 0; at < count; ++at) {
        auto shard = std::make_unique<TestShard>();
        shard->id = static_cast<std::uint32_t>(at + 1);
        shard->map = std::make_shared<shard::SharedShardMap>();
        shard->peers =
            std::make_shared<ShardPeers>(shard->id, shard->map);

        serve::ServiceOptions options = fleetServiceOptions();
        options.peer_donor_lookup = makePeerDonorLookup(shard->peers);
        if (config.replication_factor > 1) {
            ReplicatorOptions replication;
            replication.replication_factor = config.replication_factor;
            shard->replicator = std::make_shared<ShardReplicator>(
                shard->id, shard->map, replication);
        }
        if (config.health) {
            HealthOptions health;
            health.probe_interval_seconds = 0.0; // probeOnce only
            health.suspect_after_failures = 1;
            health.down_after_failures = 2;
            shard->health = std::make_shared<HealthMonitor>(
                shard->id, shard->map, health);
        }
        shard->service =
            std::make_unique<serve::StrategyService>(options);
        if (!config.persist_dir.empty()) {
            std::string stem = config.persist_dir + "/shard"
                               + std::to_string(shard->id);
            shard->snapshot_path = stem + ".snap";
            shard->wal_path = stem + ".wal";
            serve::CachePersister::Options persist;
            persist.snapshot_path = shard->snapshot_path;
            persist.wal_path = shard->wal_path;
            persist.snapshot_interval_seconds = 0.0; // explicit only
            serve::StrategyService *service = shard->service.get();
            shard->persister = std::make_unique<serve::CachePersister>(
                persist, [service] {
                    serve::CacheSnapshot snapshot;
                    snapshot.model_epoch = service->modelEpoch();
                    snapshot.entries = service->snapshotCache();
                    return snapshot;
                });
        }
        if (shard->persister || shard->replicator) {
            serve::CachePersister *persister = shard->persister.get();
            ShardReplicator *replicator = shard->replicator.get();
            shard->service->setInsertListener(
                [persister, replicator](const serve::CacheEntry &entry) {
                    if (persister)
                        persister->onInsert(entry);
                    if (replicator)
                        replicator->onInsert(entry);
                });
        }

        ServerOptions server_options;
        server_options.shard_id = shard->id;
        server_options.shard_map = shard->map;
        server_options.peers = shard->peers;
        server_options.replicator = shard->replicator;
        server_options.health = shard->health;
        shard->server = std::make_unique<StrategyServer>(
            *shard->service, server_options);
        shard->server->start();
        fleet.shards.push_back(std::move(shard));
    }
    // Every shard learns the whole membership (the bound ports exist
    // only now, hence the second pass).
    for (auto &owner : fleet.shards)
        for (auto &member : fleet.shards)
            owner->map->join(
                {member->id, "127.0.0.1:"
                                 + std::to_string(member->server->port())});
    return fleet;
}

/** A request pair (similar workloads) owned by two different shards,
 *  found by scanning seq variants; the fleet routing is deterministic
 *  so the scan always converges quickly for a 2-shard fleet. */
std::pair<WireRequest, WireRequest>
crossShardSimilarPair(TestFleet &fleet)
{
    WireRequest base = testWireRequest(256, 3);
    std::uint32_t base_owner = fleet.shardOwning(base).id;
    for (int seq = 264; seq <= 512; seq += 8) {
        WireRequest variant = testWireRequest(seq, 3);
        if (fleet.shardOwning(variant).id != base_owner)
            return {base, variant};
    }
    throw std::logic_error("fleet: no cross-shard similar pair found");
}

TEST(ShardFleet, RedirectedExactHitIsByteIdentical)
{
    TestFleet fleet = makeFleet(2);
    WireRequest request = testWireRequest(256, 3);

    RouterOptions options;
    options.client.request_timeout_seconds = 120.0;
    ShardRouter router(fleet.clientMap(), options);

    WireResponse cold = router.call(request);
    EXPECT_EQ(cold.provenance, serve::Provenance::Cold);
    WireResponse hit = router.call(request);
    ASSERT_EQ(hit.provenance, serve::Provenance::ExactHit);
    EXPECT_EQ(router.redirectsFollowed(), 0u);

    // A router whose map swaps the two addresses dials the non-owner
    // first; the NotOwner answer must carry enough to self-heal and
    // land the byte-identical exact hit on the second hop.
    shard::ShardMap fleet_map = fleet.clientMap();
    std::vector<shard::ShardInfo> swapped = fleet_map.shards();
    std::swap(swapped[0].address, swapped[1].address);
    shard::ShardMap stale(swapped, fleet_map.vnodesPerShard(),
                          /*epoch=*/1);
    ShardRouter misrouted(stale, options);

    WireResponse redirected = misrouted.call(request);
    EXPECT_GE(misrouted.redirectsFollowed(), 1u);
    EXPECT_GE(misrouted.mapRefreshes(), 1u);
    EXPECT_EQ(misrouted.map().epoch(), fleet_map.epoch());
    ASSERT_EQ(redirected.provenance, serve::Provenance::ExactHit);
    EXPECT_EQ(redirected.fingerprint_digest, hit.fingerprint_digest);
    EXPECT_EQ(redirected.best_score, hit.best_score);
    EXPECT_EQ(normalisedStrategyText(redirected.strategy),
              normalisedStrategyText(hit.strategy));

    // The wrong first hop was counted by the non-owner.
    std::uint64_t not_owner = 0;
    for (auto &entry : fleet.shards)
        not_owner += entry->server->stats().responses_not_owner;
    EXPECT_GE(not_owner, 1u);
}

TEST(ShardFleet, PeerDonorConvertsColdToWarmStart)
{
    TestFleet fleet = makeFleet(2);
    auto [base, variant] = crossShardSimilarPair(fleet);

    RouterOptions options;
    options.client.request_timeout_seconds = 120.0;
    ShardRouter router(fleet.clientMap(), options);

    // Prime the base on its owner.
    WireResponse primed = router.call(base);
    EXPECT_EQ(primed.provenance, serve::Provenance::Cold);

    // The variant's owner has an empty cache: without peers this
    // would be a cold search; the donor from the other shard makes it
    // a warm start.
    TestShard &owner = fleet.shardOwning(variant);
    WireResponse warmed = router.call(variant);
    EXPECT_EQ(warmed.provenance, serve::Provenance::WarmStart);

    serve::ServiceStats service_stats = owner.service->stats();
    EXPECT_GE(service_stats.peer_donor_queries, 1u);
    EXPECT_GE(service_stats.peer_donor_hits, 1u);
    EXPECT_GE(service_stats.donors_imported, 1u);

    TestShard &donor_shard = fleet.shardOwning(base);
    ServerStats donor_stats = donor_shard.server->stats();
    EXPECT_GE(donor_stats.peer_donor_queries_served, 1u);
    EXPECT_GE(donor_stats.peer_donors_exported, 1u);

    // The import is a warm-start donor, never an exact hit: asking
    // the owner for the *base* fingerprint directly (bypassing the
    // router's ownership routing) must not be answered from the
    // imported copy.
    StrategyClient direct("127.0.0.1", owner.server->port(),
                          options.client);
    try {
        WireResponse shadow = direct.call(base);
        FAIL() << "non-owner served an owned digest: "
               << serve::provenanceToken(shadow.provenance);
    } catch (const NotOwnerError &) {
        // Ownership checking already prevents the shadow read — the
        // cache-level Donor guarantee is covered by the service tests.
    }

    // The variant's own answer is now cached at its owner.
    WireResponse again = router.call(variant);
    EXPECT_EQ(again.provenance, serve::Provenance::ExactHit);
}

TEST(ShardFleet, RecalInvalidatesExactHitsFleetWide)
{
    TestFleet fleet = makeFleet(2);
    auto [base, variant] = crossShardSimilarPair(fleet);

    RouterOptions options;
    options.client.request_timeout_seconds = 120.0;
    ShardRouter router(fleet.clientMap(), options);

    // Prime an exact hit on both shards.
    router.call(base);
    router.call(variant);
    ASSERT_EQ(router.call(base).provenance, serve::Provenance::ExactHit);
    ASSERT_EQ(router.call(variant).provenance,
              serve::Provenance::ExactHit);

    // One shard recalibrates; the admin reply arrives only after the
    // peer acked the epoch invalidate.
    std::uint32_t recal_id = fleet.shardOwning(base).id;
    std::string reply = adminQuery(
        "127.0.0.1", fleet.portOf(recal_id), "RECAL");
    std::istringstream fields(reply);
    std::string ok;
    std::string epoch_word;
    std::uint64_t epoch = 0;
    std::string acks_word;
    std::size_t acks = 0;
    ASSERT_TRUE(fields >> ok >> epoch_word >> epoch >> acks_word >> acks)
        << "unparseable RECAL reply: " << reply;
    EXPECT_EQ(ok, "ok");
    EXPECT_EQ(acks, 1u);
    // Full coverage: no timed-out peers to name.
    EXPECT_EQ(reply.find("timeouts"), std::string::npos) << reply;

    // No shard may answer an exact hit with a stale-epoch strategy —
    // the primed entries demote to warm-start donors everywhere.
    WireResponse base_after = router.call(base);
    EXPECT_NE(base_after.provenance, serve::Provenance::ExactHit);
    EXPECT_EQ(base_after.model_epoch, epoch);
    WireResponse variant_after = router.call(variant);
    EXPECT_NE(variant_after.provenance, serve::Provenance::ExactHit);
    EXPECT_EQ(variant_after.model_epoch, epoch);

    for (auto &entry : fleet.shards)
        EXPECT_EQ(entry->service->modelEpoch(), epoch);

    // Recomputed entries are exact-hittable again at the new epoch.
    EXPECT_EQ(router.call(base).provenance, serve::Provenance::ExactHit);
    EXPECT_EQ(router.call(variant).provenance,
              serve::Provenance::ExactHit);
}

TEST(ShardFleet, DelayedInvalidateFrameStillBlocksUntilCoherent)
{
    TestFleet fleet = makeFleet(2);
    auto [base, variant] = crossShardSimilarPair(fleet);

    RouterOptions options;
    options.client.request_timeout_seconds = 120.0;
    ShardRouter router(fleet.clientMap(), options);
    router.call(base);
    router.call(variant);

    TestShard &recal = fleet.shardOwning(base);
    TestShard &peer = fleet.shardOwning(variant);

    // Route the recalibrating shard's view of its peer through a
    // chaos proxy that stalls mid-frame: the invalidate crawls, but
    // the broadcast must keep blocking until the ack.
    ChaosPlan plan;
    plan.stall_after_bytes = 8; // mid-header, upstream
    plan.stall_seconds = 0.5;
    plan.apply_downstream = false;
    ChaosProxy proxy("127.0.0.1", peer.server->port(), plan);
    proxy.start();
    recal.map->join(
        {peer.id, "127.0.0.1:" + std::to_string(proxy.port())});

    std::string reply = adminQuery(
        "127.0.0.1", recal.server->port(), "RECAL");
    std::istringstream fields(reply);
    std::string ok;
    std::string epoch_word;
    std::uint64_t epoch = 0;
    std::string acks_word;
    std::size_t acks = 0;
    ASSERT_TRUE(fields >> ok >> epoch_word >> epoch >> acks_word >> acks)
        << "unparseable RECAL reply: " << reply;
    EXPECT_EQ(ok, "ok");
    EXPECT_EQ(acks, 1u) << "the stalled invalidate was not acked";
    EXPECT_GE(proxy.counters().stalls, 1u);

    // The delayed frame arrived before the admin reply: the peer is
    // already coherent.
    EXPECT_EQ(peer.service->modelEpoch(), epoch);
    EXPECT_NE(router.call(variant).provenance,
              serve::Provenance::ExactHit);

    proxy.stop();
}

/** Fresh empty scratch directory for one test. */
std::string
freshTempDir(const std::string &name)
{
    std::filesystem::path dir =
        std::filesystem::temp_directory_path() / name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir.string();
}

/**
 * The tentpole chaos drill: a 3-shard fleet with replication factor 2,
 * health probing and snapshot+WAL persistence.  One shard is killed
 * mid-traffic (sockets torn down, no graceful persister drain — the
 * crash path).  Every key must keep answering with zero client-visible
 * errors: the dead shard's keys come back byte-identical from its ring
 * successors' replica sets.  A fresh service then rehydrates from the
 * victim's snapshot + WAL and answers the victim's keys as local exact
 * hits — the crash lost nothing that was durable.
 */
TEST(ShardFleet, ChaosKillFailoverAndRecovery)
{
    std::string dir = freshTempDir("opdvfs_fleet_chaos");
    FleetConfig config;
    config.replication_factor = 2;
    config.persist_dir = dir;
    config.health = true;
    TestFleet fleet = makeFleet(3, config);

    // Deterministic key set: whoever owns seq 256 is the victim; scan
    // seq variants until the victim owns two keys and the survivors
    // own two between them.
    struct DrillKey
    {
        int seq = 0;
        WireRequest request;
        bool victim_owned = false;
        std::string primed_text;
    };
    std::vector<DrillKey> keys;
    keys.push_back({256, testWireRequest(256, 3), true, ""});
    TestShard &victim = fleet.shardOwning(keys.front().request);
    std::size_t victim_owned = 1;
    std::size_t other_owned = 0;
    for (int seq = 264; seq <= 768 && (victim_owned < 2 || other_owned < 2);
         seq += 8) {
        DrillKey key{seq, testWireRequest(seq, 3), false, ""};
        key.victim_owned =
            fleet.shardOwning(key.request).id == victim.id;
        if (key.victim_owned) {
            if (victim_owned >= 2)
                continue;
            ++victim_owned;
        } else {
            if (other_owned >= 2)
                continue;
            ++other_owned;
        }
        keys.push_back(std::move(key));
    }
    ASSERT_GE(victim_owned, 2u) << "seq scan found too few victim keys";
    ASSERT_GE(other_owned, 2u) << "seq scan found too few other keys";

    RouterOptions prime_options;
    prime_options.client.request_timeout_seconds = 120.0;
    ShardRouter primer(fleet.clientMap(), prime_options);

    // Prime the first victim key, then snapshot: recovery must read
    // this entry from the snapshot and every later one from the WAL
    // (both restore paths exercised).
    keys.front().primed_text =
        normalisedStrategyText(primer.call(keys.front().request).strategy);
    ASSERT_TRUE(victim.persister);
    victim.persister->flush();
    victim.persister->writeSnapshotNow();
    for (std::size_t at = 1; at < keys.size(); ++at)
        keys[at].primed_text = normalisedStrategyText(
            primer.call(keys[at].request).strategy);

    // Make the victim's inserts durable (WAL) and replicated before
    // the kill; survivors' replicas of *their* keys are irrelevant.
    ASSERT_TRUE(victim.replicator);
    victim.replicator->flush();
    victim.persister->flush();
    serve::CachePersister::Stats persist_stats = victim.persister->stats();
    EXPECT_GE(persist_stats.wal_appends, victim_owned - 1);
    EXPECT_EQ(persist_stats.wal_dropped, 0u);
    EXPECT_GE(persist_stats.snapshots_written, 1u);
    ReplicatorStats replication = victim.replicator->stats();
    EXPECT_GE(replication.acked, victim_owned);
    EXPECT_EQ(replication.dropped, 0u);

    // Kill: sockets die, the persister stops WITHOUT a final snapshot
    // (crash semantics — only the snapshot + WAL written so far
    // survive).
    victim.server->stop();
    victim.replicator->stop();
    victim.persister->stop(/*write_final_snapshot=*/false);

    // A survivor's health monitor walks the victim to Down.
    TestShard &observer = *fleet.shards[victim.id == 1 ? 1 : 0];
    ASSERT_NE(observer.id, victim.id);
    ASSERT_TRUE(observer.health);
    observer.health->probeOnce();
    observer.health->probeOnce();
    EXPECT_EQ(observer.health->healthOf(victim.id), PeerHealth::Down);

    // Failover traffic: every key answers, zero errors.  The victim's
    // keys come from a successor's replica set as warm starts,
    // byte-identical to the primed strategies.
    RouterOptions failover_options = prime_options;
    failover_options.client.connect_timeout_seconds = 0.3;
    failover_options.client.max_attempts = 2;
    failover_options.failover = true;
    failover_options.max_failover_successors = 2;
    failover_options.peer_health = [&observer](std::uint32_t id) {
        return observer.health->healthOf(id);
    };
    ShardRouter failover_router(fleet.clientMap(), failover_options);
    for (const DrillKey &key : keys) {
        WireResponse response;
        ASSERT_NO_THROW(response = failover_router.call(key.request))
            << "client-visible error for seq " << key.seq;
        if (key.victim_owned) {
            EXPECT_EQ(response.provenance, serve::Provenance::WarmStart)
                << "seq " << key.seq;
            EXPECT_EQ(normalisedStrategyText(response.strategy),
                      key.primed_text)
                << "replica answer diverged for seq " << key.seq;
        } else {
            EXPECT_EQ(response.provenance, serve::Provenance::ExactHit)
                << "seq " << key.seq;
        }
    }
    EXPECT_GE(failover_router.failoversServed(), victim_owned);
    std::uint64_t replica_hits = 0;
    std::uint64_t replicas_received = 0;
    for (auto &entry : fleet.shards) {
        if (entry->id == victim.id)
            continue;
        replica_hits += entry->service->stats().replica_hits;
        replicas_received +=
            entry->server->stats().peer_replicas_received;
    }
    EXPECT_GE(replica_hits, victim_owned);
    EXPECT_GE(replicas_received, victim_owned);

    // Restart: a fresh service rehydrates from the victim's snapshot +
    // WAL.  Both restore paths must have carried entries, and every
    // victim key must answer as a local exact hit, byte-identical.
    serve::StrategyService restored(fleetServiceOptions());
    serve::RestoreReport report = serve::restoreServiceCache(
        restored, victim.snapshot_path, victim.wal_path);
    EXPECT_TRUE(report.snapshot_loaded);
    EXPECT_GE(report.snapshot_entries, 1u);
    EXPECT_GE(report.wal_entries, 1u);
    EXPECT_GE(report.restored, victim_owned);
    EXPECT_FALSE(report.wal_truncated);
    EXPECT_GE(restored.stats().restored_entries, victim_owned);
    for (const DrillKey &key : keys) {
        if (!key.victim_owned)
            continue;
        serve::StrategyRequest request;
        request.workload = testWorkload(key.seq);
        request.seed = 3;
        serve::StrategyResponse answer =
            restored.submit(request).get();
        EXPECT_EQ(answer.provenance, serve::Provenance::ExactHit)
            << "restart lost seq " << key.seq;
        EXPECT_EQ(normalisedStrategyText(answer.strategy),
                  key.primed_text)
            << "restored strategy diverged for seq " << key.seq;
    }
    restored.drain();
    std::filesystem::remove_all(dir);
}

/** The pre-failover contract, pinned: with failover disabled the
 *  owner's failure propagates unchanged, and the circuit breaker still
 *  fails the next call fast. */
TEST(ShardFleet, RouterFailsFastWhenFailoverDisabled)
{
    TestFleet fleet = makeFleet(2);
    shard::ShardMap map = fleet.clientMap();
    for (auto &entry : fleet.shards)
        entry->server->stop();

    RouterOptions options;
    options.failover = false;
    options.client.connect_timeout_seconds = 0.2;
    options.client.max_attempts = 1;
    options.client.breaker_failure_threshold = 1;
    ShardRouter router(map, options);

    WireRequest request = testWireRequest(256, 3);
    EXPECT_THROW(router.call(request), NetError);
    // The breaker opened after that single failure: the immediate
    // retry fails fast without touching the network.
    EXPECT_THROW(router.call(request), CircuitOpenError);
    EXPECT_EQ(router.failoversServed(), 0u);
}

/** A RECAL with a dead peer names that peer's address in the admin
 *  reply — operators see *who* is incoherent, not just a count. */
TEST(ShardFleet, RecalReplyListsTimedOutPeers)
{
    TestFleet fleet = makeFleet(2);
    TestShard &alive = *fleet.shards[0];
    TestShard &dead = *fleet.shards[1];
    std::string dead_address =
        "127.0.0.1:" + std::to_string(dead.server->port());
    dead.server->stop();

    std::string reply =
        adminQuery("127.0.0.1", alive.server->port(), "RECAL", 10.0);
    std::istringstream fields(reply);
    std::string ok;
    std::string epoch_word;
    std::uint64_t epoch = 0;
    std::string acks_word;
    std::size_t acks = 0;
    std::string timeouts_word;
    std::string addresses;
    ASSERT_TRUE(fields >> ok >> epoch_word >> epoch >> acks_word >> acks
                >> timeouts_word >> addresses)
        << "unparseable RECAL reply: " << reply;
    EXPECT_EQ(ok, "ok");
    EXPECT_EQ(acks, 0u);
    EXPECT_EQ(timeouts_word, "timeouts");
    EXPECT_EQ(addresses, dead_address);
}

/** The health monitor walks a dead peer Alive → Suspect → Down (one
 *  miss suspects, two confirm), keeps unknown ids optimistic, and the
 *  admin HEALTH reply carries the per-peer table. */
TEST(ShardFleet, HealthMonitorWalksAliveSuspectDown)
{
    FleetConfig config;
    config.health = true;
    TestFleet fleet = makeFleet(2, config);
    TestShard &observer = *fleet.shards[0];
    TestShard &target = *fleet.shards[1];
    ASSERT_TRUE(observer.health);

    // Not yet probed: optimistic.
    EXPECT_EQ(observer.health->healthOf(target.id), PeerHealth::Alive);
    observer.health->probeOnce();
    EXPECT_EQ(observer.health->healthOf(target.id), PeerHealth::Alive);

    target.server->stop();
    observer.health->probeOnce();
    EXPECT_EQ(observer.health->healthOf(target.id), PeerHealth::Suspect);
    observer.health->probeOnce();
    EXPECT_EQ(observer.health->healthOf(target.id), PeerHealth::Down);

    // Ids the monitor has never seen stay optimistic.
    EXPECT_EQ(observer.health->healthOf(99), PeerHealth::Alive);

    std::string reply =
        adminQuery("127.0.0.1", observer.server->port(), "HEALTH");
    EXPECT_NE(reply.find("peer_health " + std::to_string(target.id)),
              std::string::npos)
        << reply;
    EXPECT_NE(reply.find("down"), std::string::npos) << reply;
}

} // namespace
} // namespace opdvfs::net
