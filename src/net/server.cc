#include "net/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <sstream>
#include <stdexcept>

namespace opdvfs::net {

namespace {

void
setNonBlocking(int fd)
{
    int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0)
        throw std::runtime_error("net: fcntl(O_NONBLOCK) failed");
}

void
closeFd(int &fd)
{
    if (fd >= 0) {
        ::close(fd);
        fd = -1;
    }
}

void
bump(std::atomic<std::uint64_t> &counter)
{
    counter.fetch_add(1, std::memory_order_relaxed);
}

/** Admin connections hold at most one short command line. */
constexpr std::size_t kAdminLineCap = 4096;

} // namespace

std::string
encodeExactHitFrame(const WireResponse &ok,
                    std::uint32_t full_generations,
                    std::uint64_t entry_model_epoch,
                    const WireLimits &limits)
{
    WireResponse hit = ok;
    hit.status = Status::Ok;
    hit.reject = serve::RejectReason::None;
    hit.retry_after_ms = 0;
    hit.message.clear();
    hit.provenance = serve::Provenance::ExactHit;
    hit.similarity = 0.0;
    hit.generations_run = 0;
    hit.generations_saved = full_generations;
    hit.service_seconds = 0.0;
    hit.model_epoch = entry_model_epoch;
    // The cached strategy's meta still names the provenance that
    // *computed* it (cold / warm-start); the worker exact-hit path
    // restamps the copy it serves, so the frame must match.
    if (hit.strategy.meta)
        hit.strategy.meta->provenance =
            serve::provenanceToken(serve::Provenance::ExactHit);
    return frameResponse(hit, limits);
}

std::string
encodeExactHitFrame(const serve::CacheEntry &entry,
                    std::uint32_t full_generations,
                    const WireLimits &limits)
{
    WireResponse ok;
    ok.strategy = entry.strategy;
    ok.best_score = entry.ga.best_score;
    ok.fingerprint_digest = entry.fingerprint.digest;
    return encodeExactHitFrame(ok, full_generations,
                               entry.fingerprint.model_epoch, limits);
}

StrategyServer::StrategyServer(serve::StrategyService &service,
                               ServerOptions options)
    : service_(service), options_(std::move(options)),
      chip_block_(encodeChipConfig(service.options().pipeline.chip)),
      full_generations_(static_cast<std::uint32_t>(
          service.options().pipeline.ga.generations < 0
              ? 0
              : service.options().pipeline.ga.generations)),
      encode_hit_([this](const serve::CacheEntry &entry) {
          return encodeExactHitFrame(entry, full_generations_,
                                     options_.limits);
      })
{
    if (options_.reactor_threads == 0)
        options_.reactor_threads = 1;
}

StrategyServer::~StrategyServer()
{
    stop();
}

int
StrategyServer::openListener()
{
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        throw std::runtime_error("net: socket() failed");
    int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(options_.port);
    if (::inet_pton(AF_INET, options_.bind_address.c_str(),
                    &addr.sin_addr) != 1) {
        ::close(fd);
        throw std::runtime_error("net: bad bind address "
                                 + options_.bind_address);
    }
    if (::bind(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) < 0
        || ::listen(fd, options_.backlog) < 0) {
        ::close(fd);
        throw std::runtime_error("net: cannot bind/listen on "
                                 + options_.bind_address + ":"
                                 + std::to_string(options_.port));
    }
    socklen_t addr_len = sizeof(addr);
    if (::getsockname(fd, reinterpret_cast<sockaddr *>(&addr), &addr_len)
        < 0) {
        ::close(fd);
        throw std::runtime_error("net: getsockname() failed");
    }
    bound_port_ = ntohs(addr.sin_port);
    try {
        setNonBlocking(fd);
    } catch (...) {
        ::close(fd);
        throw;
    }
    return fd;
}

void
StrategyServer::teardownPartialStart()
{
    for (auto &reactor : reactors_) {
        closeFd(reactor->listen_fd);
        closeFd(reactor->wake_read_fd);
        closeFd(reactor->wake_write_fd);
    }
    reactors_.clear();
    bound_port_ = 0;
}

void
StrategyServer::start()
{
    if (!reactors_.empty())
        throw std::runtime_error("net: server already started");

    std::size_t count = options_.reactor_threads;
    reactors_.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        auto reactor = std::make_unique<Reactor>();
        reactor->index = i;
        reactor->cache_reader = service_.registerCacheReader();
        reactors_.push_back(std::move(reactor));
    }

    try {
        // One listener, on reactor 0, which deals connections
        // round-robin.
        reactors_[0]->listen_fd = openListener();

        for (auto &reactor : reactors_) {
            int pipe_fds[2];
            if (::pipe(pipe_fds) < 0)
                throw std::runtime_error("net: pipe() failed");
            reactor->wake_read_fd = pipe_fds[0];
            reactor->wake_write_fd = pipe_fds[1];
            setNonBlocking(reactor->wake_read_fd);
            setNonBlocking(reactor->wake_write_fd);
        }
    } catch (...) {
        teardownPartialStart();
        throw;
    }

    phase_.store(0);
    total_open_.store(0);
    started_at_ = loopNow();
    for (auto &reactor : reactors_) {
        Reactor *raw = reactor.get();
        reactor->thread = std::thread([this, raw] { eventLoop(*raw); });
    }
}

void
StrategyServer::stop()
{
    int expected = 0;
    if (phase_.compare_exchange_strong(expected, 1)) {
        for (auto &reactor : reactors_)
            wakeReactor(*reactor);
        // Every admitted request completes before drain() returns;
        // the reactors keep running to flush those responses out.
        service_.drain();
        // drain() fences the service's work, not our completion
        // callbacks (the admission slot is released before a callback
        // runs).  Wait until every callback has returned before any
        // teardown: a late callback touches options_, per-reactor
        // counters and queues, and a wake pipe fd.
        {
            std::unique_lock<std::mutex> lock(callback_mutex_);
            callback_idle_.wait(
                lock, [this] { return outstanding_callbacks_ == 0; });
        }
        for (auto &reactor : reactors_)
            wakeReactor(*reactor);
    }
    for (auto &reactor : reactors_) {
        if (reactor->thread.joinable())
            reactor->thread.join();
        // Sockets dealt to this reactor but never adopted.
        std::lock_guard<std::mutex> lock(reactor->handoff_mutex);
        while (!reactor->handoff.empty()) {
            int fd = reactor->handoff.front();
            reactor->handoff.pop_front();
            ::close(fd);
            total_open_.fetch_sub(1, std::memory_order_relaxed);
        }
    }
    for (auto &reactor : reactors_) {
        closeFd(reactor->wake_write_fd);
        closeFd(reactor->wake_read_fd);
        closeFd(reactor->listen_fd);
    }
    if (!reactors_.empty())
        phase_.store(2);
}

double
StrategyServer::loopNow() const
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

void
StrategyServer::wakeReactor(Reactor &reactor)
{
    if (reactor.wake_write_fd < 0)
        return;
    char byte = 'w';
    [[maybe_unused]] ssize_t ignored =
        ::write(reactor.wake_write_fd, &byte, 1); // EAGAIN: wakes anyway
}

void
StrategyServer::eventLoop(Reactor &reactor)
{
    bool listener_open = reactor.listen_fd >= 0;
    double flush_deadline = 0.0;
    while (true) {
        bool stopping = phase_.load() != 0;
        if (stopping && flush_deadline == 0.0)
            flush_deadline = loopNow() + options_.shutdown_flush_seconds;
        // Listeners stay open through the drain window so load
        // balancers probing HEALTH observe `draining` and eject the
        // instance; new request frames are answered Busy
        // (shutting-down) by the draining service.  They close at the
        // flush deadline so a slow peer cannot extend the window.
        if (stopping && listener_open && loopNow() >= flush_deadline) {
            closeFd(reactor.listen_fd);
            listener_open = false;
        }

        drainHandoff(reactor);
        drainCompletions(reactor);

        if (stopping) {
            bool idle = true;
            {
                std::lock_guard<std::mutex> lock(
                    reactor.completion_mutex);
                idle = reactor.completions.empty();
            }
            for (const auto &[id, conn] : reactor.connections)
                if (conn.in_flight || !conn.write_buffer.empty())
                    idle = false;
            if (idle)
                break;
        }

        std::vector<pollfd> fds;
        std::vector<std::uint64_t> ids;
        if (listener_open) {
            fds.push_back({reactor.listen_fd, POLLIN, 0});
            ids.push_back(0);
        }
        fds.push_back({reactor.wake_read_fd, POLLIN, 0});
        ids.push_back(0);
        for (auto &[id, conn] : reactor.connections) {
            short events = 0;
            // Stop reading once a full max-size frame is buffered:
            // strict request/response means the buffer only drains as
            // responses go out, so this bounds memory per connection.
            if (!conn.close_after_flush
                && conn.read_buffer.size() < options_.limits.max_frame_bytes)
                events |= POLLIN;
            if (!conn.write_buffer.empty())
                events |= POLLOUT;
            fds.push_back({conn.fd, events, 0});
            ids.push_back(id);
        }

        ::poll(fds.data(), fds.size(), 200);

        double now = loopNow();
        std::vector<std::uint64_t> to_close;
        for (std::size_t i = 0; i < fds.size(); ++i) {
            if (fds[i].revents == 0)
                continue;
            if (fds[i].fd == reactor.wake_read_fd) {
                char scratch[64];
                while (::read(reactor.wake_read_fd, scratch,
                              sizeof(scratch))
                       > 0)
                    ;
                continue;
            }
            if (listener_open && fds[i].fd == reactor.listen_fd) {
                acceptPending(reactor);
                continue;
            }
            auto it = reactor.connections.find(ids[i]);
            if (it == reactor.connections.end())
                continue;
            Connection &conn = it->second;
            if (fds[i].revents & (POLLERR | POLLHUP | POLLNVAL)) {
                // Flush what we can (a half-closed peer may still
                // read), then drop the connection.
                if (!conn.write_buffer.empty())
                    flushWritable(reactor, ids[i], conn);
                to_close.push_back(ids[i]);
                continue;
            }
            if (fds[i].revents & POLLIN) {
                conn.last_activity = now;
                handleReadable(reactor, ids[i], conn);
            }
            auto again = reactor.connections.find(ids[i]);
            if (again == reactor.connections.end())
                continue;
            if ((fds[i].revents & POLLOUT)
                && !again->second.write_buffer.empty()) {
                again->second.last_activity = now;
                flushWritable(reactor, ids[i], again->second);
            }
        }
        for (std::uint64_t id : to_close)
            closeConnection(reactor, id);

        // Reap connections past the idle timeout.  Write progress
        // advances last_activity, so this covers both quiet peers and
        // write-stalled ones (a peer that stopped reading its socket
        // must not pin a max_connections slot forever).  During
        // stop(), additionally force-close any connection whose
        // response still cannot be flushed once the shutdown flush
        // deadline passes — otherwise such a peer would hang stop().
        std::vector<std::uint64_t> idle_ids;
        for (const auto &[id, conn] : reactor.connections) {
            bool timed_out =
                !conn.in_flight
                && now - conn.last_activity > options_.idle_timeout_seconds;
            bool stalled_at_stop = stopping && now >= flush_deadline
                                   && !conn.write_buffer.empty();
            if (timed_out || stalled_at_stop)
                idle_ids.push_back(id);
        }
        for (std::uint64_t id : idle_ids) {
            closeConnection(reactor, id);
            bump(reactor.counters.connections_reaped);
        }
    }

    for (auto &[id, conn] : reactor.connections) {
        closeFd(conn.fd);
        total_open_.fetch_sub(1, std::memory_order_relaxed);
    }
    reactor.connections.clear();
    reactor.counters.open_connections.store(0,
                                            std::memory_order_relaxed);
}

void
StrategyServer::acceptPending(Reactor &reactor)
{
    while (true) {
        int fd = ::accept(reactor.listen_fd, nullptr, nullptr);
        if (fd < 0)
            return; // EAGAIN or a transient error: nothing to accept
        if (total_open_.load(std::memory_order_relaxed)
            >= options_.max_connections) {
            ::close(fd);
            bump(reactor.counters.connections_refused);
            continue;
        }
        try {
            setNonBlocking(fd);
        } catch (const std::runtime_error &) {
            ::close(fd);
            continue;
        }
        int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        total_open_.fetch_add(1, std::memory_order_relaxed);
        // Reactor 0 deals sockets round-robin (deterministic:
        // connection k lands on reactor k mod N).
        Reactor *target = &reactor;
        if (reactors_.size() > 1) {
            target = reactors_[accept_robin_ % reactors_.size()].get();
            accept_robin_++;
        }
        if (target == &reactor) {
            adoptConnection(reactor, fd);
        } else {
            {
                std::lock_guard<std::mutex> lock(target->handoff_mutex);
                target->handoff.push_back(fd);
            }
            wakeReactor(*target);
        }
    }
}

void
StrategyServer::adoptConnection(Reactor &reactor, int fd)
{
    Connection conn;
    conn.fd = fd;
    conn.last_activity = loopNow();
    reactor.connections.emplace(reactor.next_connection_id++,
                                std::move(conn));
    bump(reactor.counters.connections_accepted);
    reactor.counters.open_connections.store(
        reactor.connections.size(), std::memory_order_relaxed);
}

void
StrategyServer::drainHandoff(Reactor &reactor)
{
    std::deque<int> pending;
    {
        std::lock_guard<std::mutex> lock(reactor.handoff_mutex);
        pending.swap(reactor.handoff);
    }
    bool stopping = phase_.load() != 0;
    for (int fd : pending) {
        if (stopping) {
            // Too late to serve: the deal happened, the adoption won't.
            ::close(fd);
            total_open_.fetch_sub(1, std::memory_order_relaxed);
            continue;
        }
        adoptConnection(reactor, fd);
    }
}

void
StrategyServer::handleReadable(Reactor &reactor, std::uint64_t id,
                               Connection &conn)
{
    char chunk[16384];
    while (conn.read_buffer.size() < options_.limits.max_frame_bytes) {
        ssize_t got = ::recv(conn.fd, chunk, sizeof(chunk), 0);
        if (got > 0) {
            if (conn.read_buffer.empty() && !conn.admin
                && chunk[0] != kWireMagic[0])
                conn.admin = true;
            conn.read_buffer.append(chunk, static_cast<std::size_t>(got));
            continue;
        }
        if (got == 0) { // orderly peer close
            closeConnection(reactor, id);
            return;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)
            break;
        closeConnection(reactor, id);
        return;
    }
    if (conn.admin)
        serveAdminLine(reactor, conn);
    else
        serveFrames(reactor, id, conn);
}

void
StrategyServer::serveFrames(Reactor &reactor, std::uint64_t id,
                            Connection &conn)
{
    // Strict request/response: the next frame is decoded only after
    // the previous one was answered, so responses always arrive in
    // request order and per-connection state stays trivial.  An
    // on-loop answer leaves in_flight false, so a buffer of pipelined
    // exact hits drains in this one pass.  Frames are peeled at an
    // offset and every answer is appended to the write buffer; the
    // pass then drops the consumed bytes once and flushes once, so a
    // burst of hits costs one erase and one send, not one per frame.
    // Nothing in the pass closes the connection, so the payload views
    // into the read buffer stay valid until the erase.
    std::size_t offset = 0;
    while (!conn.in_flight && !conn.close_after_flush) {
        std::size_t consumed = 0;
        std::optional<FrameView> frame;
        try {
            std::string_view unread =
                std::string_view(conn.read_buffer).substr(offset);
            frame = peelFrame(unread, &consumed, options_.limits);
            if (frame && frame->type != MsgType::Request
                && frame->type != MsgType::PeerDonorQuery
                && frame->type != MsgType::EpochInvalidate
                && frame->type != MsgType::PeerReplicate)
                throw WireError("net: client sent a frame type servers "
                                "do not accept");
        } catch (const WireError &error) {
            // Framing is broken: the stream cannot be re-synchronised,
            // so answer once and hang up after the flush.
            conn.close_after_flush = true;
            offset = conn.read_buffer.size();
            bump(reactor.counters.responses_malformed);
            WireResponse response;
            response.status = Status::Malformed;
            response.message = error.what();
            queueResponse(conn, response);
            break;
        }
        if (!frame)
            break; // incomplete: wait for more bytes
        bump(reactor.counters.frames_in);
        if (frame->type == MsgType::PeerDonorQuery)
            servePeerDonorQuery(reactor, conn, frame->payload);
        else if (frame->type == MsgType::EpochInvalidate)
            serveEpochInvalidate(reactor, conn, frame->payload);
        else if (frame->type == MsgType::PeerReplicate)
            servePeerReplicate(reactor, conn, frame->payload);
        else
            serveRequest(reactor, id, conn, frame->payload);
        offset += consumed;
    }
    conn.read_buffer.erase(0, offset);
    // May close the connection: nothing touches it afterwards.
    flushWritable(reactor, id, conn);
}

void
StrategyServer::refusePayload(Reactor &reactor, Connection &conn,
                              const WireError &error)
{
    // The frame itself was intact (CRC passed), so the stream is still
    // in sync: report and keep the connection — but only for a bounded
    // streak, so a peer spewing valid-CRC garbage cannot hold a
    // max_connections slot forever.  Counters bump before the response
    // flushes so a client that reads the answer never observes a stale
    // count.
    bump(reactor.counters.responses_malformed);
    ++conn.payload_error_streak;
    if (options_.max_payload_errors > 0
        && conn.payload_error_streak >= options_.max_payload_errors)
        conn.close_after_flush = true;
    WireResponse response;
    response.status = Status::Malformed;
    response.message = error.what();
    queueResponse(conn, response);
}

void
StrategyServer::serveRequest(Reactor &reactor, std::uint64_t id,
                             Connection &conn, std::string_view payload)
{
    // The key pass validates the whole payload and digests it straight
    // off its bytes; the workload is built only when the fast path
    // misses.
    RequestKey key;
    try {
        key = requestKey(payload, options_.limits);
    } catch (const WireError &error) {
        refusePayload(reactor, conn, error);
        return;
    }
    conn.payload_error_streak = 0;

    // One canonical digest per request, shared by the ownership check
    // and the fast path — the same fingerprint the router computed
    // client-side, so all sides always name the same owner/entry.
    //
    // Routing is the outer concern: a mis-routed request is answered
    // NotOwner before any local check (even chip mismatch) — the
    // owner, not this shard, is the authority on serving it.  The
    // serve_replica flag is the router's declaration that the owner is
    // unreachable and it *knows* this shard is a ring successor: the
    // ownership check is waived so the replica set (or a locally
    // computed donor-only answer) can serve the key.
    if (options_.shard_map && !key.serve_replica) {
        auto map = options_.shard_map->snapshot();
        if (!map->empty()) {
            const shard::ShardInfo &owner = map->ownerOf(key.digest);
            if (owner.id != options_.shard_id) {
                bump(reactor.counters.responses_not_owner);
                WireResponse response;
                response.status = Status::NotOwner;
                response.owner_address = owner.address;
                response.map_epoch = map->epoch();
                response.shard_map_text = map->encode();
                response.message =
                    "net: shard " + std::to_string(options_.shard_id)
                    + " does not own this fingerprint";
                queueResponse(conn, response);
                return;
            }
        }
    }

    // The chip codec re-encodes byte for byte, so the request's chip
    // equals the serving chip exactly when their blocks do.
    if (key.chip_block != chip_block_) {
        bump(reactor.counters.responses_chip_mismatch);
        WireResponse response;
        response.status = Status::ChipMismatch;
        response.message =
            "net: request chip differs from the serving chip";
        queueResponse(conn, response);
        return;
    }

    // --- reactor fast path -------------------------------------------
    // A cache entry for this digest that the worker path would answer
    // as an exact hit is served straight off the loop: wait-free
    // lookup, one buffer append, no worker hop.  Deliberately after
    // the ownership and chip checks (identical refusal semantics
    // either path) and gated on the same conditions under which the
    // worker path may answer ExactHit — replica reads and cache-bypass
    // requests always take the worker path.  Exact hits are served
    // even past the client's deadline, exactly like the worker path.
    if (options_.fast_exact_hits && key.use_cache && !key.serve_replica) {
        std::shared_ptr<const std::string> frame;
        try {
            frame = service_.exactHitFrame(reactor.cache_reader, key.digest,
                                           encode_hit_);
        } catch (const WireError &) {
            // An entry over the encoder caps never joins the fast
            // path; the worker path answers it.
        }
        if (frame) {
            bump(reactor.counters.fast_path_hits);
            bump(reactor.counters.responses_ok);
            conn.write_buffer += *frame;
            return;
        }
        bump(reactor.counters.fast_path_misses);
    }

    // The key pass accepted these bytes, and decodeRequest runs the
    // same parser, so this cannot throw a WireError.
    WireRequest request = decodeRequest(payload, options_.limits);
    serve::StrategyRequest service_request;
    service_request.workload = std::move(request.workload);
    service_request.perf_loss_target = request.perf_loss_target;
    service_request.seed = request.seed;
    service_request.use_cache = request.use_cache;
    service_request.allow_warm_start = request.allow_warm_start;
    service_request.serve_replica = request.serve_replica;
    service_request.deadline_seconds = request.deadline_ms / 1000.0;

    // Counted before the submit attempt so stop() can never observe a
    // window where an admitted callback is neither counted nor done.
    {
        std::lock_guard<std::mutex> lock(callback_mutex_);
        ++outstanding_callbacks_;
    }
    Reactor *home = &reactor;
    serve::RejectReason reject = service_.trySubmit(
        std::move(service_request),
        [this, home, id](
            serve::StrategyResponse response,
            std::exception_ptr error) {
            // Worker thread: encode off the loop, enqueue, wake.
            WireResponse wire;
            if (error) {
                wire.status = Status::Internal;
                try {
                    std::rethrow_exception(error);
                } catch (const serve::RequestExpired &exception) {
                    // The caller's own deadline lapsed in our queue:
                    // that is backpressure, not a server fault.
                    wire.status = Status::Busy;
                    wire.reject = serve::RejectReason::Expired;
                    wire.message = exception.what();
                } catch (const std::exception &exception) {
                    wire.message = exception.what();
                } catch (...) {
                    wire.message = "net: pipeline failed";
                }
            } else {
                wire.status = Status::Ok;
                wire.strategy = std::move(response.strategy);
                wire.best_score = response.ga.best_score;
                wire.provenance = response.provenance;
                wire.similarity = response.similarity;
                wire.generations_run = static_cast<std::uint32_t>(
                    response.generations_run < 0
                        ? 0
                        : response.generations_run);
                wire.generations_saved = static_cast<std::uint32_t>(
                    response.generations_saved < 0
                        ? 0
                        : response.generations_saved);
                wire.service_seconds = response.service_seconds;
                wire.fingerprint_digest = response.fingerprint.digest;
                wire.model_epoch = service_.modelEpoch();
            }
            std::string framed;
            try {
                framed = frameResponse(wire, options_.limits);
            } catch (const WireError &encode_error) {
                WireResponse fallback;
                fallback.status = Status::Internal;
                fallback.message = encode_error.what();
                framed = frameResponse(fallback, options_.limits);
                wire.status = Status::Internal;
            }
            if (wire.status == Status::Ok) {
                bump(home->counters.responses_ok);
            } else if (wire.status == Status::Busy) {
                bump(home->counters.responses_busy);
                bump(home->counters.responses_expired);
            } else {
                bump(home->counters.responses_internal);
            }
            {
                std::lock_guard<std::mutex> lock(home->completion_mutex);
                home->completions.emplace_back(id, std::move(framed));
            }
            wakeReactor(*home);
            // Last touch of the server: once this count drops to
            // zero, stop() may proceed to tear everything down.
            std::lock_guard<std::mutex> lock(callback_mutex_);
            --outstanding_callbacks_;
            callback_idle_.notify_all();
        });

    if (reject != serve::RejectReason::None) {
        {
            // Not admitted: no callback will ever run.
            std::lock_guard<std::mutex> lock(callback_mutex_);
            --outstanding_callbacks_;
            callback_idle_.notify_all();
        }
        // Structured backpressure: the connection stays up and the
        // client learns whether to back off (queue-full) or fail over
        // (shutting-down).
        bump(reactor.counters.responses_busy);
        WireResponse response;
        response.status = Status::Busy;
        response.reject = reject;
        // Transient rejections hint when a retry is worth sending; a
        // shutting-down server hints nothing (clients should fail
        // over, not wait).
        if (reject == serve::RejectReason::QueueFull
            || reject == serve::RejectReason::Overloaded)
            response.retry_after_ms = service_.retryAfterMs();
        response.message = std::string("net: admission rejected: ")
                           + serve::rejectReasonToken(reject);
        queueResponse(conn, response);
        return;
    }
    conn.in_flight = true;
}

void
StrategyServer::servePeerDonorQuery(Reactor &reactor, Connection &conn,
                                    std::string_view payload)
{
    PeerDonorQuery query;
    try {
        query = decodePeerDonorQuery(payload, options_.limits);
    } catch (const WireError &error) {
        refusePayload(reactor, conn, error);
        return;
    }
    conn.payload_error_streak = 0;

    // A cache probe plus one serialisation: cheap enough to answer
    // directly on the loop, keeping peer latency one round trip.
    serve::Fingerprint probe;
    probe.digest = query.digest;
    probe.features = query.features;
    probe.model_epoch = query.model_epoch;
    PeerDonorReply reply;
    if (auto hit = service_.exportDonor(probe, query.perf_loss_target)) {
        reply.found = true;
        reply.similarity = hit->similarity;
        reply.fingerprint_digest = hit->entry.fingerprint.digest;
        reply.features = hit->entry.fingerprint.features;
        reply.model_epoch = hit->entry.fingerprint.model_epoch;
        reply.perf_loss_target = hit->entry.perf_loss_target;
        reply.best_score = hit->entry.ga.best_score;
        reply.best_mhz = hit->entry.ga.best_mhz;
        std::ostringstream strategy_text;
        dvfs::saveStrategy(hit->entry.strategy, strategy_text);
        reply.strategy_text = strategy_text.str();
    }
    bump(reactor.counters.peer_donor_queries_served);
    if (reply.found)
        bump(reactor.counters.peer_donors_exported);
    std::string framed;
    try {
        framed =
            frameMessage(MsgType::PeerDonorReply,
                         encodePeerDonorReply(reply, options_.limits),
                         options_.limits);
    } catch (const WireError &) {
        // A donor too large for the caps degrades to a miss; the peer
        // just runs cold, exactly as if we had nothing.
        framed = frameMessage(
            MsgType::PeerDonorReply,
            encodePeerDonorReply(PeerDonorReply{}, options_.limits),
            options_.limits);
    }
    conn.write_buffer += framed;
}

void
StrategyServer::serveEpochInvalidate(Reactor &reactor, Connection &conn,
                                     std::string_view payload)
{
    EpochInvalidate invalidate;
    try {
        invalidate = decodeEpochInvalidate(payload);
    } catch (const WireError &error) {
        refusePayload(reactor, conn, error);
        return;
    }
    conn.payload_error_streak = 0;

    // Raise *before* the ack goes out: once the origin shard has our
    // ack, no request on this shard can see a pre-epoch exact hit —
    // the coherence guarantee the broadcast blocks for.  The raised
    // epoch gates the fast path too (every hit checks epoch equality).
    std::uint64_t epoch =
        service_.raiseModelEpoch(invalidate.model_epoch);
    bump(reactor.counters.epoch_invalidates_received);
    EpochInvalidateAck ack;
    ack.shard_id = options_.shard_id;
    ack.model_epoch = epoch;
    conn.write_buffer += frameMessage(MsgType::EpochInvalidateAck,
                                      encodeEpochInvalidateAck(ack),
                                      options_.limits);
}

void
StrategyServer::servePeerReplicate(Reactor &reactor, Connection &conn,
                                   std::string_view payload)
{
    PeerReplicate replicate;
    try {
        replicate = decodePeerReplicate(payload, options_.limits);
    } catch (const WireError &error) {
        bump(reactor.counters.peer_replicas_refused);
        refusePayload(reactor, conn, error);
        return;
    }
    conn.payload_error_streak = 0;

    // Import through the peer-donor path: the copy lands as a Donor
    // entry, so it can serve failover reads and similarity
    // lookups but never shadows an entry this shard owns.  A cache
    // insert is cheap enough for the event loop.
    PeerReplicateAck ack;
    ack.shard_id = options_.shard_id;
    try {
        serve::PeerDonor donor;
        donor.fingerprint.digest = replicate.fingerprint_digest;
        donor.fingerprint.features = replicate.features;
        donor.fingerprint.model_epoch = replicate.model_epoch;
        donor.best_mhz = replicate.best_mhz;
        donor.best_score = replicate.best_score;
        donor.similarity = 1.0;
        donor.perf_loss_target = replicate.perf_loss_target;
        std::istringstream strategy_is(replicate.strategy_text);
        donor.strategy = dvfs::loadStrategy(strategy_is);
        service_.importDonor(donor);
        ack.accepted = true;
    } catch (const std::exception &) {
        // An unparsable strategy is an owner bug; refuse the replica
        // rather than poisoning the local cache.
        ack.accepted = false;
    }
    if (ack.accepted)
        bump(reactor.counters.peer_replicas_received);
    else
        bump(reactor.counters.peer_replicas_refused);
    conn.write_buffer += frameMessage(MsgType::PeerReplicateAck,
                                      encodePeerReplicateAck(ack),
                                      options_.limits);
}

void
StrategyServer::serveAdminLine(Reactor &reactor, Connection &conn)
{
    if (conn.close_after_flush)
        return;
    std::size_t newline = conn.read_buffer.find('\n');
    if (newline == std::string::npos) {
        if (conn.read_buffer.size() > kAdminLineCap)
            conn.close_after_flush = true;
        return;
    }
    std::string line = conn.read_buffer.substr(0, newline);
    if (!line.empty() && line.back() == '\r')
        line.pop_back();
    bump(reactor.counters.admin_requests);
    std::istringstream fields(line);
    std::string command;
    fields >> command;
    if (command == "STATS") {
        conn.write_buffer += statsText();
    } else if (command == "HEALTH") {
        // phase_ covers the instant between stop() being requested and
        // service_.drain() raising its flag.
        conn.write_buffer +=
            (phase_.load() != 0 || service_.draining()) ? "draining\n"
                                                        : "ok\n";
        // Probes and old tooling read only the first line; the peer
        // table rides along for operators when a monitor is wired.
        if (options_.health)
            for (const auto &peer : options_.health->snapshot())
                conn.write_buffer += "peer_health "
                                     + std::to_string(peer.id) + " "
                                     + peer.address + " "
                                     + peerHealthToken(peer.health)
                                     + "\n";
    } else if (command == "SHARDMAP") {
        if (options_.shard_map)
            conn.write_buffer += options_.shard_map->snapshot()->encode();
        else
            conn.write_buffer += "error no-shard-map\n";
    } else if (command == "JOIN") {
        std::uint64_t shard_id = 0;
        std::string address;
        if (!options_.shard_map) {
            conn.write_buffer += "error no-shard-map\n";
        } else if (!(fields >> shard_id >> address)
                   || shard_id > 0xFFFFFFFFull
                   || !(fields >> std::ws).eof()) {
            conn.write_buffer += "error bad-join-arguments\n";
        } else {
            try {
                std::uint64_t epoch = options_.shard_map->join(
                    {static_cast<std::uint32_t>(shard_id), address});
                conn.write_buffer +=
                    "ok epoch " + std::to_string(epoch) + "\n";
            } catch (const std::invalid_argument &error) {
                conn.write_buffer +=
                    std::string("error ") + error.what() + "\n";
            }
        }
    } else if (command == "LEAVE") {
        std::uint64_t shard_id = 0;
        if (!options_.shard_map) {
            conn.write_buffer += "error no-shard-map\n";
        } else if (!(fields >> shard_id) || shard_id > 0xFFFFFFFFull
                   || !(fields >> std::ws).eof()) {
            conn.write_buffer += "error bad-leave-arguments\n";
        } else {
            std::uint64_t epoch = options_.shard_map->leave(
                static_cast<std::uint32_t>(shard_id));
            conn.write_buffer +=
                "ok epoch " + std::to_string(epoch) + "\n";
        }
    } else if (command == "RECAL") {
        if (!(fields >> std::ws).eof()) {
            conn.write_buffer += "error bad-recal-arguments\n";
        } else {
            // Advance locally, then broadcast and *block* for the acks
            // before replying: when the admin reply arrives, no acked
            // peer can still answer a pre-epoch exact hit.  Blocking
            // this reactor is deliberate — recalibration is rare and
            // the broadcast deadline bounds the stall.  The epoch
            // advance gates the fast path on every reactor at once
            // (each hit re-checks the epoch).
            std::uint64_t epoch = service_.advanceModelEpoch();
            ShardPeers::InvalidateResult broadcast;
            if (options_.peers)
                broadcast =
                    options_.peers->broadcastEpochInvalidate(epoch);
            std::string reply = "ok epoch " + std::to_string(epoch)
                                + " acks "
                                + std::to_string(broadcast.acks);
            // Name the peers that never acked: an operator chasing a
            // partial recalibration needs the address, not a count.
            // The suffix is additive — old parsers that stop at the
            // ack count still read the same prefix.
            if (!broadcast.failed_addresses.empty()) {
                reply += " timeouts ";
                for (std::size_t i = 0;
                     i < broadcast.failed_addresses.size(); ++i) {
                    if (i > 0)
                        reply += ",";
                    reply += broadcast.failed_addresses[i];
                }
            }
            conn.write_buffer += reply + "\n";
        }
    } else {
        conn.write_buffer += "error unknown-command\n";
    }
    conn.read_buffer.clear();
    conn.close_after_flush = true; // one command per connection
}

void
StrategyServer::queueResponse(Connection &conn,
                              const WireResponse &response)
{
    conn.write_buffer += frameResponse(response, options_.limits);
}

void
StrategyServer::flushWritable(Reactor &reactor, std::uint64_t id,
                              Connection &conn)
{
    while (!conn.write_buffer.empty()) {
        ssize_t sent = ::send(conn.fd, conn.write_buffer.data(),
                              conn.write_buffer.size(), MSG_NOSIGNAL);
        if (sent > 0) {
            // Progress counts as activity: only a genuinely stalled
            // write (peer not reading) lets the idle reaper fire.
            conn.last_activity = loopNow();
            conn.write_buffer.erase(0, static_cast<std::size_t>(sent));
            continue;
        }
        if (sent < 0
            && (errno == EAGAIN || errno == EWOULDBLOCK
                || errno == EINTR))
            return; // kernel buffer full; POLLOUT resumes the flush
        closeConnection(reactor, id);
        return;
    }
    if (conn.close_after_flush)
        closeConnection(reactor, id);
}

void
StrategyServer::drainCompletions(Reactor &reactor)
{
    std::deque<std::pair<std::uint64_t, std::string>> ready;
    {
        std::lock_guard<std::mutex> lock(reactor.completion_mutex);
        ready.swap(reactor.completions);
    }
    for (auto &[id, framed] : ready) {
        auto it = reactor.connections.find(id);
        if (it == reactor.connections.end())
            continue; // the requester hung up; drop the response
        Connection &conn = it->second;
        conn.in_flight = false;
        conn.write_buffer += framed;
        // Serves the next buffered requests, then flushes this answer
        // and theirs in one send.
        serveFrames(reactor, id, conn);
    }
}

void
StrategyServer::closeConnection(Reactor &reactor, std::uint64_t id)
{
    auto it = reactor.connections.find(id);
    if (it == reactor.connections.end())
        return;
    closeFd(it->second.fd);
    reactor.connections.erase(it);
    reactor.counters.open_connections.store(
        reactor.connections.size(), std::memory_order_relaxed);
    total_open_.fetch_sub(1, std::memory_order_relaxed);
}

ServerStats
StrategyServer::stats() const
{
    auto load64 = [](const std::atomic<std::uint64_t> &v) {
        return v.load(std::memory_order_relaxed);
    };
    ServerStats out;
    out.reactors.reserve(reactors_.size());
    for (const auto &reactor : reactors_) {
        const ReactorCounters &c = reactor->counters;
        ReactorStats slice;
        slice.connections_accepted = load64(c.connections_accepted);
        slice.connections_reaped = load64(c.connections_reaped);
        slice.frames_in = load64(c.frames_in);
        slice.fast_path_hits = load64(c.fast_path_hits);
        slice.open_connections =
            c.open_connections.load(std::memory_order_relaxed);
        out.reactors.push_back(slice);

        out.connections_accepted += slice.connections_accepted;
        out.connections_refused += load64(c.connections_refused);
        out.connections_reaped += slice.connections_reaped;
        out.frames_in += slice.frames_in;
        out.fast_path_hits += slice.fast_path_hits;
        out.fast_path_misses += load64(c.fast_path_misses);
        out.responses_ok += load64(c.responses_ok);
        out.responses_busy += load64(c.responses_busy);
        out.responses_expired += load64(c.responses_expired);
        out.responses_malformed += load64(c.responses_malformed);
        out.responses_chip_mismatch += load64(c.responses_chip_mismatch);
        out.responses_internal += load64(c.responses_internal);
        out.responses_not_owner += load64(c.responses_not_owner);
        out.peer_donor_queries_served +=
            load64(c.peer_donor_queries_served);
        out.peer_donors_exported += load64(c.peer_donors_exported);
        out.epoch_invalidates_received +=
            load64(c.epoch_invalidates_received);
        out.peer_replicas_received += load64(c.peer_replicas_received);
        out.peer_replicas_refused += load64(c.peer_replicas_refused);
        out.admin_requests += load64(c.admin_requests);
        out.open_connections += slice.open_connections;
    }
    return out;
}

std::string
StrategyServer::statsText() const
{
    ServerStats server = stats();
    serve::ServiceStats service = service_.stats();
    std::ostringstream os;
    os << "uptime_seconds " << (loopNow() - started_at_) << '\n'
       << "reactor_threads " << reactors_.size() << '\n'
       << "connections_accepted " << server.connections_accepted << '\n'
       << "connections_refused " << server.connections_refused << '\n'
       << "connections_reaped " << server.connections_reaped << '\n'
       << "open_connections " << server.open_connections << '\n'
       << "frames_in " << server.frames_in << '\n'
       << "fast_path_hits " << server.fast_path_hits << '\n'
       << "fast_path_misses " << server.fast_path_misses << '\n'
       << "responses_ok " << server.responses_ok << '\n'
       << "responses_busy " << server.responses_busy << '\n'
       << "responses_expired " << server.responses_expired << '\n'
       << "responses_malformed " << server.responses_malformed << '\n'
       << "responses_chip_mismatch " << server.responses_chip_mismatch
       << '\n'
       << "responses_internal " << server.responses_internal << '\n'
       << "responses_not_owner " << server.responses_not_owner << '\n'
       << "peer_donor_queries_served "
       << server.peer_donor_queries_served << '\n'
       << "peer_donors_exported " << server.peer_donors_exported << '\n'
       << "epoch_invalidates_received "
       << server.epoch_invalidates_received << '\n'
       << "peer_replicas_received " << server.peer_replicas_received
       << '\n'
       << "peer_replicas_refused " << server.peer_replicas_refused
       << '\n'
       << "admin_requests " << server.admin_requests << '\n'
       << "service_requests " << service.requests << '\n'
       << "service_exact_hits " << service.exact_hits << '\n'
       << "service_coalesced " << service.coalesced << '\n'
       << "service_warm_hits " << service.warm_hits << '\n'
       << "service_cold_misses " << service.cold_misses << '\n'
       << "service_rejected " << service.rejected << '\n'
       << "service_expired_in_queue " << service.expired_in_queue << '\n'
       << "service_shed_early " << service.shed_early << '\n'
       << "service_ga_runs_past_deadline "
       << service.ga_runs_past_deadline << '\n'
       << "service_generations_saved " << service.generations_saved
       << '\n'
       << "service_model_epoch " << service.model_epoch << '\n'
       << "service_queue_depth " << service.queue_depth << '\n'
       << "service_in_flight " << service.in_flight << '\n'
       << "service_cache_size " << service.cache_size << '\n'
       << "service_draining " << (service.draining ? 1 : 0) << '\n'
       << "p50_service_seconds " << service.p50_service_seconds << '\n'
       << "p95_service_seconds " << service.p95_service_seconds << '\n'
       << "sojourn_ewma_seconds " << service.sojourn_ewma_seconds << '\n'
       << "cold_ewma_seconds " << service.cold_ewma_seconds << '\n'
       << "service_replica_hits " << service.replica_hits << '\n'
       << "service_restored_entries " << service.restored_entries << '\n'
       << "service_predicted_served " << service.predicted_served << '\n'
       << "service_refine_upgrades " << service.refine_upgrades << '\n'
       << "service_refine_discards " << service.refine_discards << '\n'
       << "service_refines_in_flight " << service.refines_in_flight
       << '\n'
       << "cache_similar_scanned " << service.similar_scanned << '\n'
       << "cache_similar_pruned " << service.similar_pruned << '\n'
       << "retry_after_hint_ms " << service_.retryAfterMs() << '\n';
    if (options_.replicator) {
        ReplicatorStats replication = options_.replicator->stats();
        os << "replication_sent " << replication.sent << '\n'
           << "replication_acked " << replication.acked << '\n'
           << "replication_failed " << replication.failed << '\n'
           << "replication_dropped " << replication.dropped << '\n'
           << "replication_queue_depth " << replication.queue_depth
           << '\n';
    }
    if (options_.health)
        for (const auto &peer : options_.health->snapshot())
            os << "peer_health " << peer.id << ' ' << peer.address << ' '
               << peerHealthToken(peer.health) << '\n';
    // Per-reactor slices last: additive lines old parsers skip.
    for (std::size_t i = 0; i < server.reactors.size(); ++i) {
        const ReactorStats &r = server.reactors[i];
        os << "reactor " << i << " accepted " << r.connections_accepted
           << " open " << r.open_connections << " frames_in "
           << r.frames_in << " fast_path_hits " << r.fast_path_hits
           << " reaped " << r.connections_reaped << '\n';
    }
    return os.str();
}

} // namespace opdvfs::net
