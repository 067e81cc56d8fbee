/**
 * @file
 * StrategyService: concurrent, fingerprint-cached DVFS strategy
 * generation.
 *
 * The paper's strategy generator runs once per workload, offline; a
 * production fleet instead sees a stream of optimisation requests,
 * most of them for workloads it has already solved (long-lived
 * training jobs resubmit, tenants run the same model zoo).  The
 * service amortises the search:
 *
 *   request -> bounded admission -> worker pool -> fingerprint
 *     -> exact cache hit?   return the cached plan (microseconds)
 *     -> identical request already in flight?  coalesce onto it
 *     -> similar cached problem?  warm-start the GA from its strategy
 *        (prior individual + reduced generation budget)
 *     -> otherwise run the full pipeline cold
 *
 * Each request's search runs serially on the worker that picked the
 * request up, and nothing else joins in, so every path is
 * bit-deterministic: the same request + seed yields the same GaResult
 * regardless of worker count (cold and exact/coalesced paths; a
 * warm-started result additionally depends on which donor the cache
 * held, which the response records via provenance + similarity).
 */

#ifndef OPDVFS_SERVE_SERVICE_H
#define OPDVFS_SERVE_SERVICE_H

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <stdexcept>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "dvfs/pipeline.h"
#include "serve/fingerprint.h"
#include "serve/sharded_counter.h"
#include "serve/strategy_cache.h"
#include "serve/thread_pool.h"
#include "tune/surrogate.h"

namespace opdvfs::serve {

/** How a response was produced. */
enum class Provenance
{
    /** Full pipeline run, no cache involvement. */
    Cold,
    /** Answered from the cache without any computation. */
    ExactHit,
    /** Attached to an identical request already in flight. */
    Coalesced,
    /** GA warm-started from a similar cached strategy. */
    WarmStart,
    /**
     * Served straight from the surrogate pre-ranker on first contact:
     * a table-snapped, loss-target-feasible prediction validated by
     * one model evaluation, while the full search refines it
     * asynchronously (ServiceOptions::predict_first).
     */
    Predicted,
};

/** Whitespace-free token for persistence ("cold", "exact-hit", ...). */
const char *provenanceToken(Provenance provenance);

/**
 * Why a non-blocking admission attempt was refused.  Shared with the
 * network wire protocol: an RPC `Busy` response carries this value so
 * callers can distinguish transient backpressure (retry with backoff)
 * from a service that is going away (fail over).
 */
enum class RejectReason : std::uint8_t
{
    /** Admitted; not a rejection. */
    None = 0,
    /** The admission queue is at capacity (transient; retryable). */
    QueueFull = 1,
    /** drain() ran: the service no longer admits work. */
    ShuttingDown = 2,
    /** The request's propagated deadline passed before a worker could
     *  start it; retrying with the same budget is futile. */
    Expired = 3,
    /** Shed pre-queue: queue sojourn exceeds the overload target and
     *  the request would miss the cache (transient; retry after the
     *  hinted delay). */
    Overloaded = 4,
};

/** Whitespace-free token ("none", "queue-full", "shutting-down",
 *  "expired", "overloaded"). */
const char *rejectReasonToken(RejectReason reason);

/**
 * Thrown through the completion path (future or CompletionFn error
 * slot) when an admitted request's deadline expired before any search
 * ran: the caller has already given up, so no GA budget is spent and
 * no answer exists.  The network front end maps this to a Busy
 * response with RejectReason::Expired.
 */
class RequestExpired : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * A warm-start donor obtained from a peer shard.  Carries everything
 * needed both to seed the GA (`best_mhz`) and to import the strategy
 * into the local cache as a Donor entry so later similar requests
 * find it without another peer round-trip.
 */
struct PeerDonor
{
    Fingerprint fingerprint;
    dvfs::Strategy strategy;
    /** The donor's per-stage frequencies; seeds `prior_individuals`. */
    std::vector<double> best_mhz;
    double best_score = 0.0;
    /** Similarity of the donor to the probe, as the peer computed it. */
    double similarity = 0.0;
    /** The loss target the donor was generated for. */
    double perf_loss_target = 0.0;
};

/**
 * Cross-shard donor lookup, supplied by the network layer (the serve
 * layer never opens sockets).  Called on a worker thread when a cold
 * request found no local donor; may block briefly (bounded peer
 * deadlines) and returns the best peer donor, if any.
 */
using DonorLookupFn = std::function<std::optional<PeerDonor>(
    const Fingerprint &probe, double perf_loss_target)>;

/** Service configuration. */
struct ServiceOptions
{
    /**
     * Base pipeline configuration (chip, profile frequencies, GA
     * budget...).  Per-request fields (seed, loss target) are
     * overridden from each request.  When `pipeline.constants` is
     * unset the offline calibration runs once at service start.
     */
    dvfs::PipelineOptions pipeline;
    /** Worker threads serving requests (>= 1). */
    std::size_t workers = 4;
    /** Max requests admitted (queued + executing) before rejecting. */
    std::size_t admission_capacity = 64;
    StrategyCache::Options cache;
    /** Min fingerprint similarity for a warm-start donor. */
    double warm_similarity = 0.90;
    /** Fraction of the full generation budget a warm-started GA runs. */
    double warm_generation_fraction = 1.0 / 3.0;
    /**
     * Optional cross-shard donor lookup, consulted only when a cold
     * request has no local donor (exact hit, coalesce and local
     * similarity all missed).  Unset: single-shard behaviour.
     */
    DonorLookupFn peer_donor_lookup;

    // --- overload control (CoDel-style sojourn admission) ------------
    /**
     * Enforce propagated deadlines: expired requests are refused at
     * worker pickup and immediately before the GA would start.  Off,
     * deadlines are still measured (`ga_runs_past_deadline`) but never
     * enforced — the bench's control arm.
     */
    bool enforce_deadlines = true;
    /**
     * Shed a new cold request when the queue-sojourn EWMA exceeds
     * `shed_sojourn_factor` x the cold-latency EWMA (likely cache hits
     * are always admitted: the fingerprint probe is cheap and runs
     * pre-queue).  0 disables shedding.
     */
    double shed_sojourn_factor = 0.5;
    /** Sojourn floor below which shedding never triggers. */
    double min_shed_sojourn_seconds = 0.02;
    /** Cold-latency prior used until the first cold search completes. */
    double assumed_cold_seconds = 0.25;

    /**
     * Fires on every owned leader insert into the cache (never for
     * imported donors or restored entries) with a copy of the entry —
     * the hook the replication queue and the WAL writer hang off.
     * Runs on the worker thread that produced the entry; must be
     * cheap and must not call back into the service.  Also settable
     * after construction via setInsertListener (the embedder builds
     * the persister/replicator after the service).
     */
    std::function<void(const CacheEntry &)> insert_listener;

    // --- predict-then-refine (surrogate cold-path attack) ------------
    /**
     * First-contact misses return the surrogate's table-snapped
     * prediction immediately (provenance "predicted") while the full
     * GA refines asynchronously on the same pool, upgrading the cache
     * entry when it beats the prediction.  Requires `surrogate`; a
     * not-yet-ready surrogate (or one whose prediction fails) falls
     * back to the normal cold/warm path.  Predictions are only served
     * for cacheable requests that allow warm starts — a caller
     * demanding full cold quality gets it.
     */
    bool predict_first = false;
    /**
     * The shared surrogate model.  Finished full searches train it
     * (see `learn_from_searches`); the predict path reads it.  Shared
     * so an embedder can persist/inspect it or share one model across
     * services.
     */
    std::shared_ptr<tune::Surrogate> surrogate;
    /** Fraction of the full generation budget the async refinement
     *  search runs (it is seeded with the prediction, so a reduced
     *  budget usually suffices).  1.0 = full budget. */
    double refine_generation_fraction = 1.0;
    /** Append every finished cold/warm search to the surrogate corpus
     *  (features + winning per-stage frequencies). */
    bool learn_from_searches = true;
};

/** One optimisation request. */
struct StrategyRequest
{
    models::Workload workload;
    /** Allowed relative performance loss. */
    double perf_loss_target = 0.02;
    /** Reproducibility seed; part of the request identity. */
    std::uint64_t seed = 1;
    /** Exact-hit lookup, coalescing and insertion. */
    bool use_cache = true;
    /** Permit warm-starting from similar cached strategies. */
    bool allow_warm_start = true;
    /**
     * Remaining caller budget, measured from admission; 0 = no
     * deadline.  A request whose budget elapses before any search ran
     * completes with RequestExpired instead of burning GA time for an
     * abandoned caller.  Exact cache hits are still served past the
     * deadline — they are effectively free and the response may yet
     * arrive in time.
     */
    double deadline_seconds = 0.0;
    /**
     * Failover read: the caller knows this shard is not the owner and
     * accepts a degraded answer from the replica set.  An exact-digest
     * replica (including Donor entries) at the current model epoch is
     * served as a WarmStart; otherwise the request
     * computes locally.  Never set on the normal owner path.
     */
    bool serve_replica = false;
};

/** One optimisation response. */
struct StrategyResponse
{
    /** The strategy, with meta (score/provenance/fingerprint) set. */
    dvfs::Strategy strategy;
    /** Search output (cached or fresh). */
    dvfs::GaResult ga;
    Fingerprint fingerprint;
    Provenance provenance = Provenance::Cold;
    /** Donor similarity for warm starts; 0 otherwise. */
    double similarity = 0.0;
    /** GA generations actually run for this response. */
    int generations_run = 0;
    /** Generations the cache/warm start avoided vs. a cold search. */
    int generations_saved = 0;
    /** Wall time inside the service for this request. */
    double service_seconds = 0.0;
};

/** Outcome of a non-blocking admission attempt. */
struct Admission
{
    /** Engaged exactly when the request was admitted. */
    std::optional<std::future<StrategyResponse>> future;
    /** Why admission was refused; None when `future` is engaged. */
    RejectReason reject = RejectReason::None;

    bool accepted() const { return future.has_value(); }
};

/** Monotonic counters + latency snapshot. */
struct ServiceStats
{
    std::uint64_t requests = 0;
    std::uint64_t exact_hits = 0;
    std::uint64_t coalesced = 0;
    std::uint64_t warm_hits = 0;
    std::uint64_t cold_misses = 0;
    std::uint64_t rejected = 0;
    /** Admitted requests refused because their deadline passed before
     *  any search ran (subset of neither `rejected` nor `requests`). */
    std::uint64_t expired_in_queue = 0;
    /** Requests shed pre-queue by sojourn-based admission (subset of
     *  `rejected`). */
    std::uint64_t shed_early = 0;
    /** GA searches that started after their request's deadline had
     *  already passed.  With `enforce_deadlines` this stays 0 — the
     *  bench's tripwire for wasted search budget. */
    std::uint64_t ga_runs_past_deadline = 0;
    std::uint64_t generations_saved = 0;
    /** Exact hits demoted to warm-start donors by an epoch advance. */
    std::uint64_t stale_demotions = 0;
    /** Cold requests that consulted the peer-donor lookup. */
    std::uint64_t peer_donor_queries = 0;
    /** Peer-donor lookups that returned a usable donor (the request
     *  became a warm start instead of a cold search). */
    std::uint64_t peer_donor_hits = 0;
    /** Peer strategies imported into the cache as donor-only entries. */
    std::uint64_t donors_imported = 0;
    /** Failover requests answered from the replica set. */
    std::uint64_t replica_hits = 0;
    /** Entries rehydrated from a snapshot/WAL at startup. */
    std::uint64_t restored_entries = 0;
    /** Responses served straight from the surrogate (predict-first). */
    std::uint64_t predicted_served = 0;
    /** Async refinements whose search beat the prediction and
     *  upgraded the cache entry. */
    std::uint64_t refine_upgrades = 0;
    /** Async refinements that could not beat the prediction (the
     *  predicted entry stays). */
    std::uint64_t refine_discards = 0;
    /** Async refinement searches currently queued or running. */
    std::size_t refines_in_flight = 0;
    /** Entries visited by similarity scans (donor searches). */
    std::uint64_t similar_scanned = 0;
    /** Similarity-scan rows abandoned by the best-so-far bound. */
    std::uint64_t similar_pruned = 0;
    /** Current model epoch (recalibrations seen by the service). */
    std::uint64_t model_epoch = 0;
    /** Tasks admitted but not yet started. */
    std::size_t queue_depth = 0;
    /** Requests admitted and not yet answered. */
    std::size_t in_flight = 0;
    std::size_t cache_size = 0;
    double p50_service_seconds = 0.0;
    double p95_service_seconds = 0.0;
    /** EWMA of admission-to-worker-pickup wait (the CoDel signal). */
    double sojourn_ewma_seconds = 0.0;
    /** EWMA of cold-search latency (0 until a cold search completes). */
    double cold_ewma_seconds = 0.0;
    /** drain() ran: admission is closed for good. */
    bool draining = false;
};

/** In-process strategy-generation service. */
class StrategyService
{
  public:
    explicit StrategyService(ServiceOptions options);
    /** Completes all admitted requests, then joins the workers. */
    ~StrategyService();

    StrategyService(const StrategyService &) = delete;
    StrategyService &operator=(const StrategyService &) = delete;

    /**
     * Exactly-once completion delivery for callback admissions: runs
     * on the worker thread that finished the request, with either the
     * response or the pipeline's exception (never both).  The
     * admission slot is released *before* the callback fires, so a
     * delivered completion implies capacity for the next attempt.
     */
    using CompletionFn =
        std::function<void(StrategyResponse response,
                           std::exception_ptr error)>;

    /**
     * Admit a request, blocking while the service is at admission
     * capacity.  The future carries the response or the pipeline's
     * exception.
     * @throws std::runtime_error once drain() has run.
     */
    std::future<StrategyResponse> submit(StrategyRequest request);

    /** Non-blocking admission; carries the reject cause when refused
     *  (`rejected`++ on either cause). */
    Admission trySubmit(StrategyRequest request);

    /**
     * Non-blocking admission with callback delivery instead of a
     * future (the network front end's path: no thread blocks on a
     * future).  Returns RejectReason::None when admitted, in which
     * case @p done fires exactly once on a worker thread.
     */
    RejectReason trySubmit(StrategyRequest request, CompletionFn done);

    /**
     * Graceful shutdown: permanently stop admission (submit throws,
     * trySubmit rejects with ShuttingDown) and block until every
     * already-admitted request has completed.  Idempotent and safe to
     * call concurrently; the destructor calls it.
     */
    void drain();

    /** True once drain() has started. */
    bool draining() const;

    ServiceStats stats() const;

    /**
     * Backpressure hint for Busy responses: the estimated wait, in
     * milliseconds, before a retried request is likely to be admitted
     * and served — current occupancy expressed in units of cold-search
     * time per worker, clamped to [1 ms, 30 s].
     */
    std::uint32_t retryAfterMs() const;

    /**
     * Advance the model epoch (a drift recalibration changed the
     * models every cached strategy was searched on).  Cached entries
     * from earlier epochs stop being served as exact hits: the next
     * identical request recomputes on the new models, using the stale
     * strategy only to warm-start the search.  Entries are demoted
     * lazily — no cache sweep, no lock across shards.
     */
    std::uint64_t advanceModelEpoch();

    /**
     * Raise the model epoch to at least @p epoch (monotone: a lower or
     * equal value is a no-op).  This is the receive side of a
     * cluster-wide epoch invalidate: when a peer shard recalibrates to
     * epoch E, every other shard raises to E so none of them can keep
     * serving pre-E strategies as exact hits — they demote to
     * warm-start donors exactly as under advanceModelEpoch().  Returns
     * the resulting epoch.
     */
    std::uint64_t raiseModelEpoch(std::uint64_t epoch);

    /** Current model epoch (starts at 0). */
    std::uint64_t modelEpoch() const;

    /**
     * Probe the local cache for a donor on behalf of a peer shard.
     * Donor imports are skipped (relaying second-hand copies would let
     * a donor hop shard to shard unboundedly); owned and predicted
     * entries are exported.
     * Returns the best entry reaching the service's warm similarity
     * threshold within the loss-target tolerance.
     */
    std::optional<SimilarHit> exportDonor(const Fingerprint &probe,
                                          double perf_loss_target);

    /**
     * Insert a peer-supplied strategy as a Donor cache entry: visible
     * to similarity lookups, invisible to exact-hit lookups (worker
     * and reactor alike), and never replacing a non-donor entry.
     */
    void importDonor(const PeerDonor &donor);

    /**
     * Install (or replace) the insert listener after construction.
     * The persister and replicator are built around a live service,
     * so the wiring is circular if the listener must exist at
     * construction; late binding breaks the cycle.  Thread-safe.
     */
    void setInsertListener(std::function<void(const CacheEntry &)> listener);

    /**
     * Install (or clear) the refine-upgrade listener: fires with the
     * entry's digest after an async refinement replaced a predicted
     * cache entry with a better searched one.  Observation only —
     * the refined entry already serves every path, the reactor fast
     * path included, when it fires; benches use it to time
     * refinements.  Runs on the worker thread that finished the
     * refinement; must be cheap.
     */
    void setUpgradeListener(std::function<void(std::uint64_t)> listener);

    /**
     * Block until no async refinement is queued or running.  Benches
     * and tests use it to observe the final (refined) cache state;
     * drain() implies it.
     */
    void waitForRefines();

    /** A copy of every cache entry — the persistence snapshot. */
    std::vector<CacheEntry> snapshotCache() const;

    /**
     * Rehydrate the cache from persisted entries (snapshot + WAL
     * replay at startup).  Entries keep their persisted kind — owned
     * entries stay exact-hittable after a restart, on the reactor
     * fast path too — and the model epoch is raised to the highest
     * epoch seen, so a restored shard never serves pre-crash entries
     * the fleet has since invalidated as exact hits.  Does not fire
     * the insert listener (restored entries are already persisted).
     * Returns the number of entries inserted.
     */
    std::size_t restoreEntries(std::vector<CacheEntry> entries);

    /** Claim a reactor's wait-free reader slot on the cache (at most
     *  ReadIndex::kMaxReaders per service). */
    std::size_t registerCacheReader() { return cache_.registerReader(); }

    /**
     * The reactor fast path: @p digest's exact-hit frame when the
     * cache holds an entry the worker path would answer as an exact
     * hit right now (not a Donor, computed at the current model
     * epoch), null otherwise.  Wait-free, counted in no service
     * statistic, and leaves LRU recency alone; see
     * StrategyCache::exactHitFrame.
     */
    std::shared_ptr<const std::string>
    exactHitFrame(std::size_t reader, std::uint64_t digest,
                  const StrategyCache::FrameEncoder &encode)
    {
        return cache_.exactHitFrame(
            reader, digest, model_epoch_.load(std::memory_order_acquire),
            encode);
    }

    const ServiceOptions &options() const { return options_; }

  private:
    std::future<StrategyResponse> dispatch(StrategyRequest request);
    /** Enqueue the admitted request; @p done fires exactly once. */
    void dispatchWith(StrategyRequest request, CompletionFn done);
    /** Locked admission check shared by every submit path; increments
     *  `admitted_` on None.  @p request drives the shed probe. */
    RejectReason admitOne(const StrategyRequest &request);
    /** True when sojourn-based shedding would refuse a cold request
     *  right now (queue backlogged and sojourn EWMA above target). */
    bool shouldShedCold() const;
    void recordSojourn(double seconds);
    void recordColdLatency(double seconds);
    /** Cold EWMA, falling back to the configured prior when unset. */
    double coldEwmaOrPrior() const;
    /**
     * @p expires_at: absolute steady-clock expiry, or
     * `time_point::max()` for no deadline.
     */
    StrategyResponse
    process(const StrategyRequest &request,
            std::chrono::steady_clock::time_point expires_at);
    /**
     * Full pipeline run; @p stale_donor, when set, is a demoted
     * same-digest entry from an earlier model epoch used as a forced
     * warm-start donor (similarity 1.0 by construction).
     */
    StrategyResponse
    computeFresh(const StrategyRequest &request,
                 const Fingerprint &fingerprint,
                 std::chrono::steady_clock::time_point expires_at,
                 const CacheEntry *stale_donor = nullptr);
    /** True when this request should try the surrogate first. */
    bool predictEligible(const StrategyRequest &request,
                         const CacheEntry *stale_donor) const;
    /**
     * Surrogate fast path: prepare (profile + models, no search),
     * predict, snap, repair, validate with one evaluation.  On
     * success @p prepared carries the profiling half for the async
     * refinement to reuse.  Throws when the surrogate cannot predict
     * (caller falls back to computeFresh).
     */
    StrategyResponse
    computePredicted(const StrategyRequest &request,
                     const Fingerprint &fingerprint,
                     std::shared_ptr<const dvfs::PreparedWorkload>
                         &prepared,
                     tune::PredictedStrategy &predicted);
    /** Enqueue the async refinement for a served prediction. */
    void scheduleRefine(StrategyRequest request, Fingerprint fingerprint,
                        std::shared_ptr<const dvfs::PreparedWorkload>
                            prepared,
                        tune::PredictedStrategy predicted);
    /** The refinement body (runs on the pool). */
    void runRefine(const StrategyRequest &request,
                   const Fingerprint &fingerprint,
                   const dvfs::PreparedWorkload &prepared,
                   const tune::PredictedStrategy &predicted);
    /** Feed a finished search into the surrogate corpus. */
    void observeSearch(const StrategyRequest &request,
                       const dvfs::PreprocessResult &prep,
                       const std::vector<double> &best_mhz);
    void recordLatency(double seconds);

    ServiceOptions options_;
    StrategyCache cache_;

    // Admission accounting.
    mutable std::mutex admission_mutex_;
    std::condition_variable admission_open_;
    std::size_t admitted_ = 0;
    /** Set (permanently) by drain(); guarded by admission_mutex_. */
    bool draining_ = false;

    // Identical in-flight requests coalesce onto one computation.
    std::mutex inflight_mutex_;
    std::unordered_map<std::uint64_t, std::shared_future<StrategyResponse>>
        inflight_;

    // Metrics.  The per-request hot counters are sharded across cache
    // lines (ShardedCounter) so concurrent workers never contend on a
    // shared line; the cold/rare ones stay plain atomics.
    ShardedCounter requests_;
    ShardedCounter exact_hits_;
    ShardedCounter coalesced_;
    ShardedCounter warm_hits_;
    ShardedCounter cold_misses_;
    ShardedCounter generations_saved_;
    std::atomic<std::uint64_t> rejected_{0};
    std::atomic<std::uint64_t> expired_in_queue_{0};
    std::atomic<std::uint64_t> shed_early_{0};
    std::atomic<std::uint64_t> ga_runs_past_deadline_{0};
    std::atomic<std::uint64_t> stale_demotions_{0};
    std::atomic<std::uint64_t> peer_donor_queries_{0};
    std::atomic<std::uint64_t> peer_donor_hits_{0};
    std::atomic<std::uint64_t> donors_imported_{0};
    std::atomic<std::uint64_t> replica_hits_{0};
    std::atomic<std::uint64_t> restored_entries_{0};
    std::atomic<std::uint64_t> model_epoch_{0};

    std::atomic<std::uint64_t> predicted_served_{0};
    std::atomic<std::uint64_t> refine_upgrades_{0};
    std::atomic<std::uint64_t> refine_discards_{0};

    /** Async refinements queued or running; waitForRefines() blocks
     *  on this reaching zero. */
    mutable std::mutex refine_mutex_;
    std::condition_variable refines_done_;
    std::size_t refines_in_flight_ = 0;

    /** Insert listener, swappable at runtime: readers copy the
     *  shared_ptr under the mutex, then invoke outside it. */
    mutable std::mutex listener_mutex_;
    std::shared_ptr<const std::function<void(const CacheEntry &)>>
        insert_listener_;
    /** Refine-upgrade listener (same swap discipline). */
    std::shared_ptr<const std::function<void(std::uint64_t)>>
        upgrade_listener_;
    mutable std::mutex latency_mutex_;
    std::vector<double> latencies_;

    // Overload signals (EWMAs; one mutex, touched O(1) per request).
    mutable std::mutex overload_mutex_;
    double sojourn_ewma_ = 0.0;
    /** 0 until the first cold search completes (prior applies). */
    double cold_ewma_ = 0.0;

    /** Last member: destroyed (joined) first, while the rest live. */
    ThreadPool pool_;
};

} // namespace opdvfs::serve

#endif // OPDVFS_SERVE_SERVICE_H
