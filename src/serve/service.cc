#include "serve/service.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>

#include "common/statistics.h"
#include "dvfs/evaluator.h"
#include "npu/freq_table.h"
#include "power/offline_calibration.h"
#include "power/power_model.h"
#include "tune/features.h"

namespace opdvfs::serve {

namespace {

double
elapsedSeconds(std::chrono::steady_clock::time_point since)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now()
                                         - since)
        .count();
}

} // namespace

const char *
provenanceToken(Provenance provenance)
{
    switch (provenance) {
    case Provenance::Cold: return "cold";
    case Provenance::ExactHit: return "exact-hit";
    case Provenance::Coalesced: return "coalesced";
    case Provenance::WarmStart: return "warm-start";
    case Provenance::Predicted: return "predicted";
    }
    return "unknown";
}

const char *
rejectReasonToken(RejectReason reason)
{
    switch (reason) {
    case RejectReason::None: return "none";
    case RejectReason::QueueFull: return "queue-full";
    case RejectReason::ShuttingDown: return "shutting-down";
    case RejectReason::Expired: return "expired";
    case RejectReason::Overloaded: return "overloaded";
    }
    return "unknown";
}

StrategyService::StrategyService(ServiceOptions options)
    : options_(std::move(options)),
      cache_(options_.cache),
      pool_(options_.workers == 0 ? 1 : options_.workers)
{
    if (options_.admission_capacity == 0)
        throw std::invalid_argument("StrategyService: zero admission "
                                    "capacity");
    if (options_.warm_generation_fraction <= 0.0
        || options_.warm_generation_fraction > 1.0) {
        throw std::invalid_argument("StrategyService: warm generation "
                                    "fraction must be in (0, 1]");
    }
    if (options_.refine_generation_fraction <= 0.0
        || options_.refine_generation_fraction > 1.0) {
        throw std::invalid_argument("StrategyService: refine generation "
                                    "fraction must be in (0, 1]");
    }
    if (options_.predict_first && !options_.surrogate)
        throw std::invalid_argument("StrategyService: predict_first "
                                    "needs a surrogate");
    // One offline calibration for every request (the paper's offline
    // half of Fig. 11 depends only on the chip).
    if (!options_.pipeline.constants) {
        options_.pipeline.constants =
            power::calibrateOffline(options_.pipeline.chip);
    }
    if (options_.insert_listener) {
        insert_listener_ = std::make_shared<
            const std::function<void(const CacheEntry &)>>(
            options_.insert_listener);
    }
}

StrategyService::~StrategyService()
{
    // drain() waits out every admitted request; the pool destructor
    // (pool_ is the last member) then joins idle workers while the
    // remaining members are still alive, which member declaration
    // order guarantees.
    drain();
}

void
StrategyService::drain()
{
    {
        std::unique_lock<std::mutex> lock(admission_mutex_);
        draining_ = true;
        // Wake submit() blockers so they observe the shutdown and throw.
        admission_open_.notify_all();
        admission_open_.wait(lock, [this] { return admitted_ == 0; });
    }
    // Every admitted request has completed, so every refinement it
    // scheduled is registered; queued ones observe draining_ and bail.
    waitForRefines();
}

void
StrategyService::waitForRefines()
{
    std::unique_lock<std::mutex> lock(refine_mutex_);
    refines_done_.wait(lock, [this] { return refines_in_flight_ == 0; });
}

bool
StrategyService::draining() const
{
    std::lock_guard<std::mutex> lock(admission_mutex_);
    return draining_;
}

std::future<StrategyResponse>
StrategyService::submit(StrategyRequest request)
{
    {
        std::unique_lock<std::mutex> lock(admission_mutex_);
        admission_open_.wait(lock, [this] {
            return draining_ || admitted_ < options_.admission_capacity;
        });
        if (draining_) {
            rejected_.fetch_add(1, std::memory_order_relaxed);
            throw std::runtime_error("StrategyService: shutting down");
        }
        ++admitted_;
    }
    return dispatch(std::move(request));
}

Admission
StrategyService::trySubmit(StrategyRequest request)
{
    RejectReason reject = admitOne(request);
    if (reject != RejectReason::None)
        return {std::nullopt, reject};
    return {dispatch(std::move(request)), RejectReason::None};
}

RejectReason
StrategyService::trySubmit(StrategyRequest request, CompletionFn done)
{
    RejectReason reject = admitOne(request);
    if (reject != RejectReason::None)
        return reject;
    dispatchWith(std::move(request), std::move(done));
    return RejectReason::None;
}

RejectReason
StrategyService::admitOne(const StrategyRequest &request)
{
    // The shed decision hinges on a fingerprint probe that must not
    // run under the admission lock (it hashes the whole op stream), so
    // evaluate it first.  The EWMA signals it reads are monotonic-ish
    // over the microseconds until the lock is taken; a slightly stale
    // read sheds one request early or late, never incorrectly forever.
    bool shed_candidate = shouldShedCold();
    bool likely_hit = false;
    if (shed_candidate && request.use_cache) {
        Fingerprint probe =
            fingerprintRequest(request.workload, options_.pipeline.chip,
                               request.perf_loss_target, request.seed);
        likely_hit = cache_.containsFresh(
            probe.digest, model_epoch_.load(std::memory_order_acquire));
    }
    std::lock_guard<std::mutex> lock(admission_mutex_);
    if (draining_) {
        rejected_.fetch_add(1, std::memory_order_relaxed);
        return RejectReason::ShuttingDown;
    }
    if (admitted_ >= options_.admission_capacity) {
        rejected_.fetch_add(1, std::memory_order_relaxed);
        return RejectReason::QueueFull;
    }
    if (shed_candidate && !likely_hit) {
        shed_early_.fetch_add(1, std::memory_order_relaxed);
        rejected_.fetch_add(1, std::memory_order_relaxed);
        return RejectReason::Overloaded;
    }
    ++admitted_;
    return RejectReason::None;
}

bool
StrategyService::shouldShedCold() const
{
    if (options_.shed_sojourn_factor <= 0.0)
        return false;
    // No backlog means new work starts immediately; sojourn history is
    // then a memory of a burst that already cleared.
    if (pool_.queueDepth() == 0)
        return false;
    double sojourn;
    double cold;
    {
        std::lock_guard<std::mutex> lock(overload_mutex_);
        sojourn = sojourn_ewma_;
        cold = cold_ewma_;
    }
    if (cold <= 0.0)
        cold = options_.assumed_cold_seconds;
    double target = std::max(options_.min_shed_sojourn_seconds,
                             options_.shed_sojourn_factor * cold);
    return sojourn > target;
}

std::future<StrategyResponse>
StrategyService::dispatch(StrategyRequest request)
{
    auto promise = std::make_shared<std::promise<StrategyResponse>>();
    std::future<StrategyResponse> future = promise->get_future();
    dispatchWith(std::move(request),
                 [promise](StrategyResponse response,
                           std::exception_ptr error) {
                     if (error)
                         promise->set_exception(error);
                     else
                         promise->set_value(std::move(response));
                 });
    return future;
}

void
StrategyService::dispatchWith(StrategyRequest request, CompletionFn done)
{
    auto admitted_at = std::chrono::steady_clock::now();
    auto expires_at = std::chrono::steady_clock::time_point::max();
    if (std::isfinite(request.deadline_seconds)
        && request.deadline_seconds > 0.0) {
        expires_at =
            admitted_at
            + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                std::chrono::duration<double>(request.deadline_seconds));
    }
    auto shared_request =
        std::make_shared<StrategyRequest>(std::move(request));
    auto shared_done = std::make_shared<CompletionFn>(std::move(done));
    pool_.submit([this, shared_request, shared_done, admitted_at,
                  expires_at] {
        recordSojourn(elapsedSeconds(admitted_at));
        StrategyResponse response;
        std::exception_ptr error;
        if (options_.enforce_deadlines
            && std::chrono::steady_clock::now() >= expires_at) {
            // The caller's budget is gone before any work started:
            // refuse outright rather than burn a GA run nobody reads.
            expired_in_queue_.fetch_add(1, std::memory_order_relaxed);
            error = std::make_exception_ptr(
                RequestExpired("StrategyService: deadline expired while "
                               "queued"));
        } else try {
            response = process(*shared_request, expires_at);
        } catch (...) {
            error = std::current_exception();
        }
        // Release the admission slot before publishing: a delivered
        // completion always implies capacity for the next submit.
        {
            std::lock_guard<std::mutex> lock(admission_mutex_);
            --admitted_;
        }
        admission_open_.notify_all();
        (*shared_done)(std::move(response), error);
    });
}

StrategyResponse
StrategyService::process(const StrategyRequest &request,
                         std::chrono::steady_clock::time_point expires_at)
{
    auto started = std::chrono::steady_clock::now();
    requests_.add();

    Fingerprint fingerprint =
        fingerprintRequest(request.workload, options_.pipeline.chip,
                           request.perf_loss_target, request.seed);
    fingerprint.model_epoch = model_epoch_.load(std::memory_order_acquire);
    int full_generations = options_.pipeline.ga.generations;

    if (request.use_cache) {
        // A same-digest entry from an earlier model epoch: its
        // strategy was searched on superseded models, so it must not
        // be served — but it is still the perfect warm-start donor
        // for the recomputation.
        std::optional<CacheEntry> stale_donor;

        // --- exact hit -----------------------------------------------------
        if (auto hit = cache_.findExact(fingerprint.digest)) {
            if (hit->fingerprint.model_epoch == fingerprint.model_epoch) {
                StrategyResponse response;
                response.strategy = hit->strategy;
                response.ga = hit->ga;
                response.fingerprint = hit->fingerprint;
                response.provenance = Provenance::ExactHit;
                response.generations_saved = full_generations;
                if (response.strategy.meta) {
                    response.strategy.meta->provenance =
                        provenanceToken(response.provenance);
                }
                exact_hits_.add();
                generations_saved_.add(
                    static_cast<std::uint64_t>(full_generations));
                response.service_seconds = elapsedSeconds(started);
                recordLatency(response.service_seconds);
                return response;
            }
            stale_demotions_.fetch_add(1, std::memory_order_relaxed);
            stale_donor = std::move(*hit);
        }

        // --- failover replica read -----------------------------------------
        // A successor answering for a dead owner: serve the replica
        // copy (including Donor imports) as a degraded
        // WarmStart — identical problem, similarity 1.0 — instead of
        // recomputing.  Stale-epoch replicas are not served; the
        // request falls through and computes locally, so failover
        // never degrades to an error either way.
        if (request.serve_replica && !stale_donor) {
            if (auto replica = cache_.findReplica(fingerprint.digest);
                replica
                && replica->fingerprint.model_epoch
                       == fingerprint.model_epoch) {
                StrategyResponse response;
                response.strategy = replica->strategy;
                response.ga = replica->ga;
                response.fingerprint = replica->fingerprint;
                response.provenance = Provenance::WarmStart;
                response.similarity = 1.0;
                response.generations_saved = full_generations;
                if (response.strategy.meta) {
                    response.strategy.meta->provenance =
                        provenanceToken(response.provenance);
                }
                replica_hits_.fetch_add(1, std::memory_order_relaxed);
                warm_hits_.add();
                generations_saved_.add(
                    static_cast<std::uint64_t>(full_generations));
                response.service_seconds = elapsedSeconds(started);
                recordLatency(response.service_seconds);
                return response;
            }
        }

        // The free path (exact hit) is behind us: anything further
        // costs real search time or occupies this worker waiting on a
        // leader, so an expired request stops here — before it can
        // register as a coalesce follower or leader.
        if (options_.enforce_deadlines
            && std::chrono::steady_clock::now() >= expires_at) {
            expired_in_queue_.fetch_add(1, std::memory_order_relaxed);
            throw RequestExpired("StrategyService: deadline expired "
                                 "before the search started");
        }

        // --- coalesce onto an identical in-flight computation --------------
        std::shared_future<StrategyResponse> leader;
        bool is_leader = false;
        std::promise<StrategyResponse> own_promise;
        {
            std::lock_guard<std::mutex> lock(inflight_mutex_);
            auto found = inflight_.find(fingerprint.digest);
            if (found != inflight_.end()) {
                leader = found->second;
            } else {
                is_leader = true;
                leader = own_promise.get_future().share();
                inflight_.emplace(fingerprint.digest, leader);
            }
        }
        if (!is_leader) {
            // Waiting occupies this worker, never the leader's: the
            // leader always progresses on its own thread, so the wait
            // terminates.
            StrategyResponse response = leader.get();
            response.provenance = Provenance::Coalesced;
            if (response.strategy.meta) {
                response.strategy.meta->provenance =
                    provenanceToken(response.provenance);
            }
            response.generations_saved = response.generations_run;
            response.generations_run = 0;
            coalesced_.add();
            generations_saved_.add(
                static_cast<std::uint64_t>(response.generations_saved));
            response.service_seconds = elapsedSeconds(started);
            recordLatency(response.service_seconds);
            return response;
        }

        // --- leader: compute, publish, then cache --------------------------
        StrategyResponse response;
        std::shared_ptr<const dvfs::PreparedWorkload> prepared;
        tune::PredictedStrategy predicted;
        bool served_prediction = false;
        try {
            if (predictEligible(request,
                                stale_donor ? &*stale_donor : nullptr)) {
                try {
                    response = computePredicted(request, fingerprint,
                                                prepared, predicted);
                    served_prediction = true;
                } catch (const std::exception &) {
                    // Surrogate could not produce a usable strategy
                    // (not ready, stage mismatch, ...): the full
                    // search below is always available.
                }
            }
            if (!served_prediction) {
                response =
                    computeFresh(request, fingerprint, expires_at,
                                 stale_donor ? &*stale_donor : nullptr);
            }
        } catch (...) {
            own_promise.set_exception(std::current_exception());
            std::lock_guard<std::mutex> lock(inflight_mutex_);
            inflight_.erase(fingerprint.digest);
            throw;
        }
        own_promise.set_value(response);
        {
            std::lock_guard<std::mutex> lock(inflight_mutex_);
            inflight_.erase(fingerprint.digest);
        }
        CacheEntry entry;
        entry.fingerprint = fingerprint;
        entry.strategy = response.strategy;
        entry.ga = response.ga;
        entry.perf_loss_target = request.perf_loss_target;
        // A failover-computed answer is for a key this shard does not
        // own: cache it donor-only so it can never shadow the owner's
        // result as an exact hit once the owner returns.
        if (request.serve_replica)
            entry.kind = CacheEntry::Kind::Donor;
        else if (served_prediction)
            entry.kind = CacheEntry::Kind::Predicted;
        if (entry.kind == CacheEntry::Kind::Owned) {
            // Owned leader insert: the replication/WAL hook point.
            // Predicted entries are deliberately excluded — they are
            // provisional and must not be persisted or replicated;
            // the listener fires once the refinement upgrades them.
            std::shared_ptr<
                const std::function<void(const CacheEntry &)>>
                listener;
            {
                std::lock_guard<std::mutex> lock(listener_mutex_);
                listener = insert_listener_;
            }
            if (listener && *listener)
                (*listener)(entry);
        }
        cache_.insert(std::move(entry));
        if (served_prediction)
            scheduleRefine(request, fingerprint, std::move(prepared),
                           std::move(predicted));
        response.service_seconds = elapsedSeconds(started);
        recordLatency(response.service_seconds);
        return response;
    }

    StrategyResponse response = computeFresh(request, fingerprint,
                                             expires_at);
    response.service_seconds = elapsedSeconds(started);
    recordLatency(response.service_seconds);
    return response;
}

StrategyResponse
StrategyService::computeFresh(const StrategyRequest &request,
                              const Fingerprint &fingerprint,
                              std::chrono::steady_clock::time_point
                                  expires_at,
                              const CacheEntry *stale_donor)
{
    StrategyResponse response;
    response.fingerprint = fingerprint;
    response.provenance = Provenance::Cold;

    dvfs::PipelineOptions pipeline_options = options_.pipeline;
    pipeline_options.seed = request.seed;
    pipeline_options.perf_loss_target = request.perf_loss_target;

    int full_generations = pipeline_options.ga.generations;
    if (request.use_cache && request.allow_warm_start) {
        if (stale_donor) {
            // Same problem, previous model epoch: identical features,
            // so the donor similarity is 1.0 by construction.
            response.provenance = Provenance::WarmStart;
            response.similarity = 1.0;
            pipeline_options.ga.prior_individuals.push_back(
                stale_donor->ga.best_mhz);
            pipeline_options.ga.generations = std::max(
                1, static_cast<int>(std::lround(
                       full_generations
                       * options_.warm_generation_fraction)));
        } else if (auto donor =
                       cache_.findSimilar(fingerprint,
                                          options_.warm_similarity,
                                          request.perf_loss_target)) {
            response.provenance = Provenance::WarmStart;
            response.similarity = donor->similarity;
            pipeline_options.ga.prior_individuals.push_back(
                donor->entry.ga.best_mhz);
            pipeline_options.ga.generations = std::max(
                1, static_cast<int>(std::lround(
                       full_generations
                       * options_.warm_generation_fraction)));
        } else if (options_.peer_donor_lookup) {
            // Local cache has nothing useful: ask the cluster.  The
            // lookup blocks this worker only as long as the peer
            // deadlines allow, far below one cold search.
            peer_donor_queries_.fetch_add(1, std::memory_order_relaxed);
            if (auto peer = options_.peer_donor_lookup(
                    fingerprint, request.perf_loss_target)) {
                peer_donor_hits_.fetch_add(1, std::memory_order_relaxed);
                response.provenance = Provenance::WarmStart;
                response.similarity = peer->similarity;
                pipeline_options.ga.prior_individuals.push_back(
                    peer->best_mhz);
                pipeline_options.ga.generations = std::max(
                    1, static_cast<int>(std::lround(
                           full_generations
                           * options_.warm_generation_fraction)));
                // Keep a donor-only copy so the next similar request
                // warm-starts without another peer round-trip.
                importDonor(*peer);
            }
        }
    }

    // Last line of defence directly before the GA: with deadlines
    // enforced no search ever starts for an expired caller; with
    // enforcement off the tripwire counter records the waste instead.
    auto search_started = std::chrono::steady_clock::now();
    if (search_started >= expires_at) {
        if (options_.enforce_deadlines) {
            expired_in_queue_.fetch_add(1, std::memory_order_relaxed);
            throw RequestExpired("StrategyService: deadline expired "
                                 "before the GA started");
        }
        ga_runs_past_deadline_.fetch_add(1, std::memory_order_relaxed);
    }

    dvfs::EnergyPipeline pipeline(pipeline_options);
    dvfs::PipelineResult result = pipeline.optimize(request.workload);
    double search_seconds = elapsedSeconds(search_started);

    response.strategy = result.strategy();
    response.ga = std::move(result.ga);
    response.generations_run = pipeline_options.ga.generations;
    response.generations_saved =
        full_generations - pipeline_options.ga.generations;

    dvfs::StrategyMeta meta;
    meta.score = response.ga.best_score;
    meta.pre_refine_score = response.ga.pre_refine_score;
    meta.converged_at = response.ga.converged_at;
    meta.generations = response.generations_run;
    meta.provenance = provenanceToken(response.provenance);
    meta.fingerprint = fingerprint.digest;
    response.strategy.meta = meta;

    if (response.provenance == Provenance::WarmStart) {
        warm_hits_.add();
        generations_saved_.add(
            static_cast<std::uint64_t>(response.generations_saved));
    } else {
        cold_misses_.add();
        recordColdLatency(search_seconds);
    }
    // Every finished full search is a free training example.
    observeSearch(request, result.prep, response.ga.best_mhz);
    return response;
}

bool
StrategyService::predictEligible(const StrategyRequest &request,
                                 const CacheEntry *stale_donor) const
{
    if (!options_.predict_first || !options_.surrogate)
        return false;
    // The prediction is served as a cache entry and refined through
    // the warm-start machinery, so both must be permitted; replica
    // fills answer for keys this shard does not own and must stay a
    // real (if degraded) search.
    if (!request.use_cache || !request.allow_warm_start
        || request.serve_replica)
        return false;
    // A stale same-digest donor warm-starts the exact genome that won
    // last epoch — strictly better seeded than any prediction.
    if (stale_donor)
        return false;
    return options_.surrogate->ready();
}

StrategyResponse
StrategyService::computePredicted(
    const StrategyRequest &request, const Fingerprint &fingerprint,
    std::shared_ptr<const dvfs::PreparedWorkload> &prepared,
    tune::PredictedStrategy &predicted)
{
    dvfs::PipelineOptions pipeline_options = options_.pipeline;
    pipeline_options.seed = request.seed;
    pipeline_options.perf_loss_target = request.perf_loss_target;

    dvfs::EnergyPipeline pipeline(pipeline_options);
    auto owned = std::make_shared<dvfs::PreparedWorkload>(
        pipeline.prepare(request.workload));

    npu::FreqTable table(options_.pipeline.chip.freq);
    power::PowerModel power_model(owned->constants, table);
    dvfs::StageEvaluator evaluator(owned->prep.stages,
                                   owned->perf_models, power_model,
                                   owned->op_power, table);

    std::vector<tune::StageSample> rows = tune::extractStageRows(
        request.workload, options_.pipeline.chip,
        request.perf_loss_target, owned->prep);
    predicted = tune::predictStrategy(*options_.surrogate, rows,
                                      evaluator,
                                      request.perf_loss_target);

    StrategyResponse response;
    response.fingerprint = fingerprint;
    response.provenance = Provenance::Predicted;
    response.strategy.stages = owned->prep.stages;
    response.strategy.mhz_per_stage = predicted.mhz;
    response.strategy.plan = dvfs::planExecution(
        owned->prep.stages, predicted.mhz, owned->baseline.records,
        options_.pipeline.executor);
    response.ga.best_genome = predicted.genome;
    response.ga.best_mhz = predicted.mhz;
    response.ga.best_score = predicted.score;
    response.ga.best_eval = predicted.eval;
    response.ga.baseline_eval = predicted.baseline_eval;
    response.ga.pre_refine_score = predicted.score;
    response.generations_run = 0;
    response.generations_saved = options_.pipeline.ga.generations;

    dvfs::StrategyMeta meta;
    meta.score = predicted.score;
    meta.pre_refine_score = predicted.score;
    meta.converged_at = 0;
    meta.generations = 0;
    meta.provenance = provenanceToken(response.provenance);
    meta.fingerprint = fingerprint.digest;
    response.strategy.meta = meta;

    predicted_served_.fetch_add(1, std::memory_order_relaxed);
    generations_saved_.add(
        static_cast<std::uint64_t>(response.generations_saved));
    prepared = std::move(owned);
    return response;
}

void
StrategyService::scheduleRefine(
    StrategyRequest request, Fingerprint fingerprint,
    std::shared_ptr<const dvfs::PreparedWorkload> prepared,
    tune::PredictedStrategy predicted)
{
    {
        std::lock_guard<std::mutex> lock(refine_mutex_);
        ++refines_in_flight_;
    }
    auto shared_request =
        std::make_shared<StrategyRequest>(std::move(request));
    auto shared_predicted =
        std::make_shared<tune::PredictedStrategy>(std::move(predicted));
    pool_.submit([this, shared_request, fingerprint, prepared,
                  shared_predicted] {
        if (!draining()) {
            try {
                runRefine(*shared_request, fingerprint, *prepared,
                          *shared_predicted);
            } catch (const std::exception &) {
                // A failed refinement leaves the (validated) predicted
                // entry in place; count it as discarded.
                refine_discards_.fetch_add(1, std::memory_order_relaxed);
            }
        }
        {
            std::lock_guard<std::mutex> lock(refine_mutex_);
            --refines_in_flight_;
        }
        refines_done_.notify_all();
    });
}

void
StrategyService::runRefine(const StrategyRequest &request,
                           const Fingerprint &fingerprint,
                           const dvfs::PreparedWorkload &prepared,
                           const tune::PredictedStrategy &predicted)
{
    npu::FreqTable table(options_.pipeline.chip.freq);
    power::PowerModel power_model(prepared.constants, table);
    dvfs::StageEvaluator evaluator(prepared.prep.stages,
                                   prepared.perf_models, power_model,
                                   prepared.op_power, table);

    dvfs::GaOptions ga_options = options_.pipeline.ga;
    ga_options.perf_loss_target = request.perf_loss_target;
    // Same seed derivation as the pipeline, so a refined result is
    // comparable to what a cold search would have produced.
    ga_options.seed = options_.pipeline.ga_seed
                          ? *options_.pipeline.ga_seed
                          : request.seed * 7 + 13;
    ga_options.prior_individuals.push_back(predicted.mhz);
    ga_options.generations = std::max(
        1, static_cast<int>(
               std::lround(options_.pipeline.ga.generations
                           * options_.refine_generation_fraction)));
    dvfs::GaResult ga =
        dvfs::searchStrategy(evaluator, prepared.prep.stages, ga_options);

    observeSearch(request, prepared.prep, ga.best_mhz);

    if (!(ga.best_score > predicted.score)) {
        // The prediction already matches (or beats) the search: keep
        // serving it.  Both scores come from the same evaluate() +
        // strategyScore() path, so this is a genuine tie, not an
        // artefact of summation order.
        refine_discards_.fetch_add(1, std::memory_order_relaxed);
        return;
    }

    CacheEntry entry;
    entry.fingerprint = fingerprint;
    entry.strategy.stages = prepared.prep.stages;
    entry.strategy.mhz_per_stage = ga.best_mhz;
    entry.strategy.plan = dvfs::planExecution(
        prepared.prep.stages, ga.best_mhz, prepared.baseline.records,
        options_.pipeline.executor);
    dvfs::StrategyMeta meta;
    meta.score = ga.best_score;
    meta.pre_refine_score = ga.pre_refine_score;
    meta.converged_at = ga.converged_at;
    meta.generations = ga_options.generations;
    meta.provenance = "refined";
    meta.fingerprint = fingerprint.digest;
    entry.strategy.meta = meta;
    entry.ga = std::move(ga);
    entry.perf_loss_target = request.perf_loss_target;

    // The upgrade is a real owned search result: replicate/persist it
    // like any leader insert, then replace the provisional entry.  The
    // new entry has no exact-hit frame yet, so the next fast-path hit
    // encodes the refined strategy.
    std::shared_ptr<const std::function<void(const CacheEntry &)>>
        listener;
    std::shared_ptr<const std::function<void(std::uint64_t)>> upgraded;
    {
        std::lock_guard<std::mutex> lock(listener_mutex_);
        listener = insert_listener_;
        upgraded = upgrade_listener_;
    }
    if (listener && *listener)
        (*listener)(entry);
    cache_.insert(std::move(entry));
    refine_upgrades_.fetch_add(1, std::memory_order_relaxed);
    if (upgraded && *upgraded)
        (*upgraded)(fingerprint.digest);
}

void
StrategyService::observeSearch(const StrategyRequest &request,
                               const dvfs::PreprocessResult &prep,
                               const std::vector<double> &best_mhz)
{
    if (!options_.surrogate || !options_.learn_from_searches)
        return;
    if (best_mhz.size() != prep.stages.size())
        return;
    try {
        std::vector<tune::StageSample> rows = tune::extractStageRows(
            request.workload, options_.pipeline.chip,
            request.perf_loss_target, prep);
        if (rows.size() != best_mhz.size())
            return;
        for (std::size_t s = 0; s < rows.size(); ++s)
            rows[s].target_mhz = best_mhz[s];
        options_.surrogate->observe(rows);
    } catch (const std::exception &) {
        // Training must never fail serving.
    }
}

void
StrategyService::recordSojourn(double seconds)
{
    std::lock_guard<std::mutex> lock(overload_mutex_);
    sojourn_ewma_ = 0.8 * sojourn_ewma_ + 0.2 * seconds;
}

void
StrategyService::recordColdLatency(double seconds)
{
    std::lock_guard<std::mutex> lock(overload_mutex_);
    cold_ewma_ =
        cold_ewma_ <= 0.0 ? seconds : 0.8 * cold_ewma_ + 0.2 * seconds;
}

double
StrategyService::coldEwmaOrPrior() const
{
    std::lock_guard<std::mutex> lock(overload_mutex_);
    return cold_ewma_ > 0.0 ? cold_ewma_ : options_.assumed_cold_seconds;
}

std::uint32_t
StrategyService::retryAfterMs() const
{
    double cold = coldEwmaOrPrior();
    std::size_t admitted;
    {
        std::lock_guard<std::mutex> lock(admission_mutex_);
        admitted = admitted_;
    }
    std::size_t workers = options_.workers == 0 ? 1 : options_.workers;
    // Occupancy expressed in cold-search times per worker: roughly how
    // long until the current backlog has drained enough to admit one
    // more request.
    double wait = cold
                  * (static_cast<double>(admitted + 1)
                     / static_cast<double>(workers));
    wait = std::min(std::max(wait, 0.001), 30.0);
    return static_cast<std::uint32_t>(std::lround(wait * 1000.0));
}

std::uint64_t
StrategyService::advanceModelEpoch()
{
    return model_epoch_.fetch_add(1, std::memory_order_acq_rel) + 1;
}

std::uint64_t
StrategyService::raiseModelEpoch(std::uint64_t epoch)
{
    std::uint64_t current = model_epoch_.load(std::memory_order_acquire);
    while (current < epoch
           && !model_epoch_.compare_exchange_weak(
               current, epoch, std::memory_order_acq_rel,
               std::memory_order_acquire)) {
        // `current` reloaded by the failed CAS; retry until the stored
        // epoch is at least the requested one.
    }
    return std::max(current, epoch);
}

std::optional<SimilarHit>
StrategyService::exportDonor(const Fingerprint &probe,
                             double perf_loss_target)
{
    return cache_.findSimilar(probe, options_.warm_similarity,
                              perf_loss_target, /*owned_only=*/true);
}

void
StrategyService::importDonor(const PeerDonor &donor)
{
    CacheEntry entry;
    entry.fingerprint = donor.fingerprint;
    entry.strategy = donor.strategy;
    entry.ga.best_mhz = donor.best_mhz;
    entry.ga.best_score = donor.best_score;
    entry.perf_loss_target = donor.perf_loss_target;
    entry.kind = CacheEntry::Kind::Donor;
    cache_.insert(std::move(entry));
    donors_imported_.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t
StrategyService::modelEpoch() const
{
    return model_epoch_.load(std::memory_order_acquire);
}

void
StrategyService::setInsertListener(
    std::function<void(const CacheEntry &)> listener)
{
    auto fresh = listener
                     ? std::make_shared<
                           const std::function<void(const CacheEntry &)>>(
                           std::move(listener))
                     : nullptr;
    std::lock_guard<std::mutex> lock(listener_mutex_);
    insert_listener_ = std::move(fresh);
}

void
StrategyService::setUpgradeListener(
    std::function<void(std::uint64_t)> listener)
{
    auto fresh =
        listener ? std::make_shared<
                       const std::function<void(std::uint64_t)>>(
                       std::move(listener))
                 : nullptr;
    std::lock_guard<std::mutex> lock(listener_mutex_);
    upgrade_listener_ = std::move(fresh);
}

std::vector<CacheEntry>
StrategyService::snapshotCache() const
{
    std::vector<CacheEntry> entries = cache_.snapshotEntries();
    // Predicted entries are provisional: a restart must re-predict (or
    // re-search) rather than resurrect an unrefined guess as truth.
    entries.erase(std::remove_if(entries.begin(), entries.end(),
                                 [](const CacheEntry &entry) {
                                     return entry.kind
                                            == CacheEntry::Kind::Predicted;
                                 }),
                  entries.end());
    return entries;
}

std::size_t
StrategyService::restoreEntries(std::vector<CacheEntry> entries)
{
    std::uint64_t max_epoch = 0;
    std::size_t restored = 0;
    for (CacheEntry &entry : entries) {
        max_epoch = std::max(max_epoch, entry.fingerprint.model_epoch);
        cache_.insert(std::move(entry));
        ++restored;
    }
    // Never resurrect below the fleet's epoch: entries persisted at
    // epoch E imply the shard had seen E, so the restarted service
    // must not serve pre-E strategies as fresh.
    raiseModelEpoch(max_epoch);
    restored_entries_.fetch_add(restored, std::memory_order_relaxed);
    return restored;
}

void
StrategyService::recordLatency(double seconds)
{
    std::lock_guard<std::mutex> lock(latency_mutex_);
    // Keep a bounded window: halve once past 8k samples so a
    // long-lived service reports recent percentiles at O(1) memory.
    if (latencies_.size() >= 8192)
        latencies_.erase(latencies_.begin(),
                         latencies_.begin()
                             + static_cast<std::ptrdiff_t>(
                                 latencies_.size() / 2));
    latencies_.push_back(seconds);
}

ServiceStats
StrategyService::stats() const
{
    ServiceStats out;
    out.requests = requests_.total();
    out.exact_hits = exact_hits_.total();
    out.coalesced = coalesced_.total();
    out.warm_hits = warm_hits_.total();
    out.cold_misses = cold_misses_.total();
    out.rejected = rejected_.load(std::memory_order_relaxed);
    out.expired_in_queue =
        expired_in_queue_.load(std::memory_order_relaxed);
    out.shed_early = shed_early_.load(std::memory_order_relaxed);
    out.ga_runs_past_deadline =
        ga_runs_past_deadline_.load(std::memory_order_relaxed);
    out.generations_saved =
        generations_saved_.total();
    out.stale_demotions =
        stale_demotions_.load(std::memory_order_relaxed);
    out.peer_donor_queries =
        peer_donor_queries_.load(std::memory_order_relaxed);
    out.peer_donor_hits =
        peer_donor_hits_.load(std::memory_order_relaxed);
    out.donors_imported =
        donors_imported_.load(std::memory_order_relaxed);
    out.replica_hits = replica_hits_.load(std::memory_order_relaxed);
    out.restored_entries =
        restored_entries_.load(std::memory_order_relaxed);
    out.predicted_served =
        predicted_served_.load(std::memory_order_relaxed);
    out.refine_upgrades =
        refine_upgrades_.load(std::memory_order_relaxed);
    out.refine_discards =
        refine_discards_.load(std::memory_order_relaxed);
    {
        std::lock_guard<std::mutex> lock(refine_mutex_);
        out.refines_in_flight = refines_in_flight_;
    }
    ScanCounters scans = cache_.scanCounters();
    out.similar_scanned = scans.similar_scanned;
    out.similar_pruned = scans.similar_pruned;
    out.model_epoch = model_epoch_.load(std::memory_order_relaxed);
    out.queue_depth = pool_.queueDepth();
    {
        std::lock_guard<std::mutex> lock(admission_mutex_);
        out.in_flight = admitted_;
        out.draining = draining_;
    }
    out.cache_size = cache_.size();
    {
        std::lock_guard<std::mutex> lock(overload_mutex_);
        out.sojourn_ewma_seconds = sojourn_ewma_;
        out.cold_ewma_seconds = cold_ewma_;
    }
    {
        std::lock_guard<std::mutex> lock(latency_mutex_);
        if (!latencies_.empty()) {
            out.p50_service_seconds = stats::quantile(latencies_, 0.50);
            out.p95_service_seconds = stats::quantile(latencies_, 0.95);
        }
    }
    return out;
}

} // namespace opdvfs::serve
