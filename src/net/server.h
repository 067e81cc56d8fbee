/**
 * @file
 * TCP front end for the strategy service.
 *
 * The server runs `ServerOptions::reactor_threads` poll(2)-based
 * reactor threads.  Each reactor exclusively owns its connections'
 * sockets: it peels wire frames off per-connection read buffers,
 * admits decoded requests into the StrategyService through its
 * non-blocking callback API, and flushes encoded responses.  No
 * socket is ever touched by two threads; service worker completions
 * encode off the loop, push framed bytes onto the owning reactor's
 * queue and wake it through that reactor's self-pipe.
 *
 * Connections are distributed at accept time: reactor 0 owns the one
 * listener and hands accepted sockets round-robin to its peers
 * (deterministic — tests assert the distribution).
 *
 * Exact cache hits are served directly on the reactor from the
 * service's one strategy cache (serve/strategy_cache.h): each reactor
 * holds a wait-free reader slot on the cache's RCU index, and each
 * cache entry carries its own exact-hit wire frame, encoded by the
 * first reactor that serves the entry.  A repeat request costs the
 * reactor one CRC pass (peelFrame) and one key pass over its bytes
 * (requestKey: validate and digest, no workload), then the ownership
 * check by digest, the chip check as a byte comparison of chip blocks,
 * and a wait-free lookup whose frame is appended to the write buffer —
 * no worker hop, no completion-queue round trip, no lock and, after
 * the first hit, no re-encode (the frame's CRC is computed once and
 * reused verbatim).  Only a fast-path miss decodes the workload.
 * A read pass peels frames at an offset, erases the consumed bytes
 * once and flushes once, so a pipelined burst of hits leaves in one
 * send, in request order.
 * A fast-path hit is byte-identical to the worker path's exact-hit
 * response except `service_seconds`, which it pins to 0.0 (no
 * service time is spent).  An entry is served only when the worker
 * path would answer it as an exact hit: not a donor, and computed at
 * the service's current model epoch, so a recalibration instantly
 * gates every pre-epoch entry.  An upgrade or recompute inserts a new
 * entry, so there is nothing to invalidate.  Misses fall through to
 * the StrategyService admission path unchanged.
 *
 * Backpressure is structured end to end: when the service's admission
 * queue is full (or the service is draining) the request is answered
 * with a `Busy` frame carrying the serve::RejectReason — the
 * connection is never dropped to signal overload.  The server itself
 * bounds connections (globally, across reactors) and accepts at most
 * one in-flight request per connection (the protocol is strictly
 * request/response; a frame that arrives while the previous one is
 * being served simply waits in the read buffer).
 *
 * The same port also answers a plaintext admin protocol: connections
 * whose first byte is not the frame magic's 'O' are read as one text
 * line — `STATS` returns service + server counters (including p50/p95
 * service latency and per-reactor lines), `HEALTH` returns `ok` or
 * `draining` — then the connection closes.  In cluster mode four more
 * commands manage the shard: `SHARDMAP` (the encoded map), `JOIN <id>
 * <host:port>` / `LEAVE <id>` (membership changes, bumping the map
 * epoch), and `RECAL` (advance the model epoch and broadcast an
 * epoch-invalidate to every peer; the reply reports the new epoch and
 * the ack count only after the broadcast completed, so `ok`+reply
 * implies no reachable shard still serves pre-epoch exact hits).
 *
 * In cluster mode (`ServerOptions::shard_map` set) the server also
 * ownership-checks every request against the consistent-hash ring and
 * answers `NotOwner` for digests another shard owns, and it serves the
 * shard-to-shard frames (`PeerDonorQuery`, `EpochInvalidate`) directly
 * on the owning reactor — both are sub-millisecond cache/epoch
 * operations, far cheaper than the GA work that goes through the
 * service pool.
 *
 * stop() is graceful: buffered-but-unserved frames are answered
 * `Busy (shutting-down)`, the service drains (every admitted request
 * completes), every pending response is flushed, and only then do the
 * reactors exit.  Listeners stay open through the drain window
 * (bounded by shutdown_flush_seconds) so HEALTH probes can observe
 * `draining`; they are closed by the time stop() returns.
 */

#ifndef OPDVFS_NET_SERVER_H
#define OPDVFS_NET_SERVER_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "net/health.h"
#include "net/peer.h"
#include "net/wire.h"
#include "serve/service.h"
#include "shard/shard_map.h"

namespace opdvfs::net {

/** Server configuration. */
struct ServerOptions
{
    /** Bind address (tests and the bench stay on loopback). */
    std::string bind_address = "127.0.0.1";
    /** Port to bind; 0 picks an ephemeral port (see port()). */
    std::uint16_t port = 0;
    /** Event-loop threads, each owning its connections' sockets. */
    std::size_t reactor_threads = 1;
    /**
     * Serve exact cache hits directly on the reactor from the cache
     * entries' exact-hit frames (see the file comment).  Off: every
     * request takes the worker path (the pre-fast-path behaviour, kept
     * as a bench baseline and an escape hatch).
     */
    bool fast_exact_hits = true;
    /** Accepted connections beyond this (across all reactors) are
     *  closed immediately. */
    std::size_t max_connections = 64;
    /** listen(2) backlog. */
    int backlog = 16;
    /** Idle connections (no in-flight work) are reaped after this.
     *  Also bounds write stalls: a peer that stops reading its socket
     *  makes no write progress, so its connection is reaped too
     *  instead of pinning a max_connections slot forever. */
    double idle_timeout_seconds = 60.0;
    /** During stop(), connections whose responses still cannot be
     *  flushed this long after shutdown began are force-closed, so a
     *  peer that stopped reading cannot hang graceful shutdown.  The
     *  listeners also stay open this long into shutdown so admin
     *  probes (HEALTH) can observe `draining` while the service
     *  finishes in-flight work. */
    double shutdown_flush_seconds = 5.0;
    /**
     * Close a connection after this many *consecutive* payload errors
     * (intact frames whose payload fails to decode; the count resets
     * on a good frame).  Framing errors always close immediately; this
     * bounds how long a peer spewing valid-CRC garbage can hold a
     * max_connections slot.  0 = never close on payload errors.
     */
    std::size_t max_payload_errors = 3;
    /** Decoder caps applied to every inbound frame. */
    WireLimits limits;

    // --- cluster mode -------------------------------------------------
    /**
     * This server's shard identity on the cluster ring.  Meaningful
     * only when `shard_map` is set.
     */
    std::uint32_t shard_id = 0;
    /**
     * Live cluster membership shared with the admin JOIN/LEAVE
     * commands and the peer client.  When set and non-empty, every
     * request is ownership-checked: a fingerprint owned by another
     * shard is answered `NotOwner` (owner address + map epoch + full
     * encoded map) instead of being served.  Null: single-shard mode,
     * no checks, wire-compatible with a non-clustered client.
     */
    std::shared_ptr<shard::SharedShardMap> shard_map;
    /**
     * Shard-to-shard client used to broadcast epoch invalidates when
     * the admin RECAL command advances the model epoch.  Null: RECAL
     * still recalibrates locally but tells no one.
     */
    std::shared_ptr<ShardPeers> peers;
    /**
     * Successor replicator whose counters STATS surfaces (the
     * replicator itself hangs off the service's insert listener, not
     * the server).  Null: no replication lines.
     */
    std::shared_ptr<ShardReplicator> replicator;
    /**
     * Peer health monitor; when set, STATS and HEALTH append per-peer
     * `peer_health <id> <address> <state>` lines.  Null: liveness is
     * not tracked and the extra lines are absent (the bare `ok` /
     * `draining` HEALTH reply is unchanged either way — probes and
     * old tooling parse only the first line).
     */
    std::shared_ptr<HealthMonitor> health;
};

/** Per-reactor slice of the counters (see ServerStats::reactors). */
struct ReactorStats
{
    std::uint64_t connections_accepted = 0;
    std::uint64_t connections_reaped = 0;
    std::uint64_t frames_in = 0;
    std::uint64_t fast_path_hits = 0;
    std::size_t open_connections = 0;
};

/**
 * Monotonic counters, aggregated across reactors on read.  Each
 * reactor bumps its own cache-line-padded relaxed atomics; nothing on
 * the hot path shares a line between reactors.
 */
struct ServerStats
{
    std::uint64_t connections_accepted = 0;
    std::uint64_t connections_refused = 0;
    std::uint64_t connections_reaped = 0;
    std::uint64_t frames_in = 0;
    /** Exact hits served on a reactor from a cache entry's frame
     *  (subset of responses_ok; these never reach the service, so
     *  they appear in no service_* counter). */
    std::uint64_t fast_path_hits = 0;
    /** Fast-path probes that missed and took the worker path. */
    std::uint64_t fast_path_misses = 0;
    std::uint64_t responses_ok = 0;
    std::uint64_t responses_busy = 0;
    /** Busy responses whose cause was an expired deadline (subset of
     *  responses_busy). */
    std::uint64_t responses_expired = 0;
    std::uint64_t responses_malformed = 0;
    std::uint64_t responses_chip_mismatch = 0;
    std::uint64_t responses_internal = 0;
    /** Requests answered NotOwner (another shard owns the digest). */
    std::uint64_t responses_not_owner = 0;
    /** Peer donor queries answered (hit or miss). */
    std::uint64_t peer_donor_queries_served = 0;
    /** Peer donor queries answered with a donor (subset of served). */
    std::uint64_t peer_donors_exported = 0;
    /** Epoch invalidates received from recalibrating peers. */
    std::uint64_t epoch_invalidates_received = 0;
    /** Replica entries received from owners and imported. */
    std::uint64_t peer_replicas_received = 0;
    /** Replica frames refused (decode/import failure). */
    std::uint64_t peer_replicas_refused = 0;
    std::uint64_t admin_requests = 0;
    std::size_t open_connections = 0;
    /** One slice per reactor, index-aligned. */
    std::vector<ReactorStats> reactors;
};

/**
 * The frame the reactor fast path serves for a cached entry:
 * byte-for-byte what the worker path encodes for an exact hit on that
 * entry, with `service_seconds` pinned to 0.0.  Built from any Ok
 * worker-path response (@p ok) for a cache-eligible request:
 * provenance becomes ExactHit, generations_run 0, generations_saved
 * the full GA budget, similarity 0, and the model epoch is stamped
 * from the cache entry.  Exposed so tests and benches can rebuild the
 * frame from a reply they received (the re-encode identity oracle).
 * @throws WireError when the response exceeds the encoder caps.
 */
std::string encodeExactHitFrame(const WireResponse &ok,
                                std::uint32_t full_generations,
                                std::uint64_t entry_model_epoch,
                                const WireLimits &limits);

/** The same frame built straight from the cache entry — what the
 *  first reactor to serve @p entry installs on it. */
std::string encodeExactHitFrame(const serve::CacheEntry &entry,
                                std::uint32_t full_generations,
                                const WireLimits &limits);

/**
 * Serves one StrategyService over TCP.  The service must outlive the
 * server; stop() (also run by the destructor) drains it.
 */
class StrategyServer
{
  public:
    StrategyServer(serve::StrategyService &service, ServerOptions options);
    ~StrategyServer();

    StrategyServer(const StrategyServer &) = delete;
    StrategyServer &operator=(const StrategyServer &) = delete;

    /**
     * Bind, listen and launch the reactors.
     * @throws std::runtime_error when the sockets cannot be set up.
     */
    void start();

    /** Graceful shutdown; idempotent.  See the file comment. */
    void stop();

    /** The bound port (after start(); resolves port 0 bindings). */
    std::uint16_t port() const { return bound_port_; }

    /** Snapshot of the aggregated counters. */
    ServerStats stats() const;

    /** The admin STATS text, exactly as served over the socket. */
    std::string statsText() const;

  private:
    struct Connection
    {
        int fd = -1;
        std::string read_buffer;
        std::string write_buffer;
        /** A request frame was admitted and not yet answered. */
        bool in_flight = false;
        /** First byte was not the frame magic: plaintext admin mode. */
        bool admin = false;
        /** Flush the write buffer, then close (frame desync or admin
         *  reply: no further frame can be trusted / is expected). */
        bool close_after_flush = false;
        /** Loop-clock timestamp of the last read or write. */
        double last_activity = 0.0;
        /** Consecutive intact-frame payload decode failures; the
         *  connection closes at ServerOptions::max_payload_errors. */
        std::size_t payload_error_streak = 0;
    };

    /** Hot counters, one padded block per reactor.  The owning
     *  reactor (or a completion it spawned) writes with relaxed
     *  atomics; stats() sums across blocks. */
    struct alignas(64) ReactorCounters
    {
        std::atomic<std::uint64_t> connections_accepted{0};
        std::atomic<std::uint64_t> connections_refused{0};
        std::atomic<std::uint64_t> connections_reaped{0};
        std::atomic<std::uint64_t> frames_in{0};
        std::atomic<std::uint64_t> fast_path_hits{0};
        std::atomic<std::uint64_t> fast_path_misses{0};
        std::atomic<std::uint64_t> responses_ok{0};
        std::atomic<std::uint64_t> responses_busy{0};
        std::atomic<std::uint64_t> responses_expired{0};
        std::atomic<std::uint64_t> responses_malformed{0};
        std::atomic<std::uint64_t> responses_chip_mismatch{0};
        std::atomic<std::uint64_t> responses_internal{0};
        std::atomic<std::uint64_t> responses_not_owner{0};
        std::atomic<std::uint64_t> peer_donor_queries_served{0};
        std::atomic<std::uint64_t> peer_donors_exported{0};
        std::atomic<std::uint64_t> epoch_invalidates_received{0};
        std::atomic<std::uint64_t> peer_replicas_received{0};
        std::atomic<std::uint64_t> peer_replicas_refused{0};
        std::atomic<std::uint64_t> admin_requests{0};
        std::atomic<std::size_t> open_connections{0};
    };

    /**
     * One event loop and everything it exclusively owns.  Only the
     * reactor's thread touches `connections`, the fds and the id
     * counter; the queues are the cross-thread seams (mutex-guarded,
     * drained by the loop after a self-pipe wake).
     */
    struct Reactor
    {
        std::size_t index = 0;
        /** The listener on reactor 0, -1 on every other reactor. */
        int listen_fd = -1;
        int wake_read_fd = -1;
        int wake_write_fd = -1;
        std::thread thread;
        std::map<std::uint64_t, Connection> connections;
        std::uint64_t next_connection_id = 1;
        /** Framed response bytes finished by service workers. */
        std::mutex completion_mutex;
        std::deque<std::pair<std::uint64_t, std::string>> completions;
        /** Sockets accepted by reactor 0 awaiting adoption here. */
        std::mutex handoff_mutex;
        std::deque<int> handoff;
        /** This reactor's reader slot on the service's cache. */
        std::size_t cache_reader = 0;
        ReactorCounters counters;
    };

    void eventLoop(Reactor &reactor);
    void acceptPending(Reactor &reactor);
    /** Take ownership of an accepted socket on this reactor. */
    void adoptConnection(Reactor &reactor, int fd);
    void drainHandoff(Reactor &reactor);
    void handleReadable(Reactor &reactor, std::uint64_t id,
                        Connection &conn);
    /** Serve every complete frame in the read buffer that the
     *  request/response order allows, then flush once. */
    void serveFrames(Reactor &reactor, std::uint64_t id,
                     Connection &conn);
    void serveRequest(Reactor &reactor, std::uint64_t id,
                      Connection &conn, std::string_view payload);
    /** Peer frames (donor query / epoch invalidate / replicate) are
     *  answered directly on the owning reactor: all are cheap
     *  cache/epoch operations. */
    void servePeerDonorQuery(Reactor &reactor, Connection &conn,
                             std::string_view payload);
    void serveEpochInvalidate(Reactor &reactor, Connection &conn,
                              std::string_view payload);
    void servePeerReplicate(Reactor &reactor, Connection &conn,
                            std::string_view payload);
    /** Answer an intact frame whose payload failed to decode
     *  Malformed, closing after a streak of them. */
    void refusePayload(Reactor &reactor, Connection &conn,
                       const WireError &error);
    void serveAdminLine(Reactor &reactor, Connection &conn);
    /** Append an encoded response; serveFrames flushes it. */
    void queueResponse(Connection &conn, const WireResponse &response);
    void flushWritable(Reactor &reactor, std::uint64_t id,
                       Connection &conn);
    void drainCompletions(Reactor &reactor);
    void closeConnection(Reactor &reactor, std::uint64_t id);
    void wakeReactor(Reactor &reactor);
    /** Open, bind and listen the socket; fills bound_port_. */
    int openListener();
    void teardownPartialStart();
    double loopNow() const;

    serve::StrategyService &service_;
    ServerOptions options_;
    /** The serving chip's canonical block; requests must match it. */
    std::string chip_block_;
    /** The full GA budget an exact hit saves (fast-path frames report
     *  it as generations_saved, like the worker path). */
    std::uint32_t full_generations_ = 0;
    /** Builds a cache entry's exact-hit frame for the fast path. */
    serve::StrategyCache::FrameEncoder encode_hit_;

    std::uint16_t bound_port_ = 0;
    /** Loop-clock timestamp of start(); statsText reports uptime. */
    double started_at_ = 0.0;

    /** 0 running, 1 stop requested, 2 stopped. */
    std::atomic<int> phase_{0};

    std::vector<std::unique_ptr<Reactor>> reactors_;
    /** Round-robin cursor for accept-and-distribute (reactor 0's
     *  thread only). */
    std::size_t accept_robin_ = 0;
    /** Open connections across all reactors (max_connections is a
     *  global bound). */
    std::atomic<std::size_t> total_open_{0};

    /**
     * Completion callbacks handed to the service and not yet returned.
     * The service releases its admission slot *before* the callback
     * runs, so drain() alone does not fence callbacks that capture
     * `this`; stop() additionally waits for this count to reach zero
     * before tearing anything down.
     */
    std::mutex callback_mutex_;
    std::condition_variable callback_idle_;
    std::size_t outstanding_callbacks_ = 0;
};

} // namespace opdvfs::net

#endif // OPDVFS_NET_SERVER_H
