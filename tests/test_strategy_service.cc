/**
 * StrategyService integration tests: cold path, exact cache hits,
 * coalescing of identical racing requests, warm starts from similar
 * cached strategies, per-request determinism across worker counts
 * (seed-forwarding audit), bounded admission, and stats accounting.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <future>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "dvfs/evaluator.h"
#include "dvfs/genetic.h"
#include "dvfs/strategy_io.h"
#include "models/model_zoo.h"
#include "models/transformer.h"
#include "npu/freq_table.h"
#include "power/offline_calibration.h"
#include "power/power_model.h"
#include "serve/service.h"

namespace opdvfs::serve {
namespace {

models::Workload
testWorkload(int seq)
{
    npu::NpuConfig chip;
    npu::MemorySystem memory(chip.memory);
    models::TransformerConfig model;
    model.name = "serve-test";
    model.layers = 2;
    model.hidden = 1024;
    model.heads = 8;
    model.seq = seq;
    return models::buildTransformerTraining(memory, model, 5);
}

/** Small but real pipeline configuration shared by every test. */
ServiceOptions
baseOptions(std::size_t workers)
{
    ServiceOptions options;
    options.pipeline.warmup_seconds = 2.0;
    options.pipeline.profile_freqs_mhz = {1000.0, 1800.0};
    options.pipeline.ga.population = 30;
    options.pipeline.ga.generations = 24;
    options.pipeline.ga.refine_sweeps = 2;
    options.workers = workers;
    options.cache.capacity = 32;
    return options;
}

/** The offline calibration, shared so each service start is cheap. */
const power::CalibratedConstants &
constants()
{
    static const power::CalibratedConstants value =
        power::calibrateOffline(npu::NpuConfig{});
    return value;
}

ServiceOptions
fastOptions(std::size_t workers)
{
    ServiceOptions options = baseOptions(workers);
    options.pipeline.constants = constants();
    return options;
}

TEST(StrategyService, ColdThenExactHit)
{
    StrategyService service(fastOptions(2));
    StrategyRequest request;
    request.workload = testWorkload(256);
    request.seed = 3;

    StrategyResponse cold = service.submit(request).get();
    EXPECT_EQ(cold.provenance, Provenance::Cold);
    EXPECT_FALSE(cold.strategy.mhz_per_stage.empty());
    ASSERT_TRUE(cold.strategy.meta.has_value());
    EXPECT_EQ(cold.strategy.meta->provenance, "cold");
    EXPECT_EQ(cold.strategy.meta->fingerprint, cold.fingerprint.digest);
    EXPECT_GT(cold.strategy.meta->score, 0.0);
    EXPECT_EQ(cold.generations_run, 24);
    EXPECT_EQ(cold.generations_saved, 0);

    StrategyResponse hit = service.submit(request).get();
    EXPECT_EQ(hit.provenance, Provenance::ExactHit);
    EXPECT_EQ(hit.strategy.mhz_per_stage, cold.strategy.mhz_per_stage);
    EXPECT_EQ(hit.ga.best_genome, cold.ga.best_genome);
    EXPECT_DOUBLE_EQ(hit.ga.best_score, cold.ga.best_score);
    EXPECT_EQ(hit.generations_saved, 24);
    ASSERT_TRUE(hit.strategy.meta.has_value());
    EXPECT_EQ(hit.strategy.meta->provenance, "exact-hit");
    // The hit skips profiling and search entirely.
    EXPECT_LT(hit.service_seconds, cold.service_seconds);

    ServiceStats stats = service.stats();
    EXPECT_EQ(stats.requests, 2u);
    EXPECT_EQ(stats.exact_hits, 1u);
    EXPECT_EQ(stats.cold_misses, 1u);
    EXPECT_EQ(stats.cache_size, 1u);
    EXPECT_EQ(stats.generations_saved, 24u);
    EXPECT_GT(stats.p95_service_seconds, 0.0);
}

TEST(StrategyService, IdenticalRacingRequestsYieldIdenticalStrategies)
{
    // The seed-forwarding audit: the same request + seed must come
    // back bit-identical no matter which worker runs it or how the
    // two requests interleave (here: coalesced, cache-answered, or
    // independently recomputed are all acceptable mechanisms).
    StrategyService service(fastOptions(4));
    StrategyRequest request;
    request.workload = testWorkload(256);
    request.seed = 11;

    auto first = service.submit(request);
    auto second = service.submit(request);
    StrategyResponse a = first.get();
    StrategyResponse b = second.get();

    EXPECT_EQ(a.ga.best_genome, b.ga.best_genome);
    EXPECT_DOUBLE_EQ(a.ga.best_score, b.ga.best_score);
    EXPECT_EQ(a.strategy.mhz_per_stage, b.strategy.mhz_per_stage);
    ASSERT_EQ(a.strategy.plan.triggers.size(),
              b.strategy.plan.triggers.size());
    for (std::size_t t = 0; t < a.strategy.plan.triggers.size(); ++t) {
        EXPECT_EQ(a.strategy.plan.triggers[t].after_op_index,
                  b.strategy.plan.triggers[t].after_op_index);
        EXPECT_DOUBLE_EQ(a.strategy.plan.triggers[t].mhz,
                         b.strategy.plan.triggers[t].mhz);
    }
    // Exactly one computed cold; the other came from coalescing or
    // the cache.
    ServiceStats stats = service.stats();
    EXPECT_EQ(stats.cold_misses, 1u);
    EXPECT_EQ(stats.exact_hits + stats.coalesced, 1u);
}

TEST(StrategyService, DeterministicAcrossWorkerCountsAndCachePolicies)
{
    // One search per route: 9^n genomes exceed the 30 x 24 budget
    // from n = 3 stages on, so the one-stage workload is enumerated and
    // Vit_base runs the GA.
    npu::NpuConfig chip;
    npu::MemorySystem memory(chip.memory);
    struct Case
    {
        models::Workload workload;
        bool ga_route = false;
    };
    const Case cases[] = {
        {testWorkload(256), false},
        {models::buildWorkload("Vit_base", memory, 5), true},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.workload.name);
        StrategyRequest request;
        request.workload = c.workload;
        request.seed = 7;
        request.use_cache = false; // force a full cold search every time

        StrategyResponse reference =
            StrategyService(fastOptions(1)).submit(request).get();
        ASSERT_EQ(reference.strategy.stages.size() >= 3, c.ga_route);

        StrategyResponse parallel =
            StrategyService(fastOptions(4)).submit(request).get();

        EXPECT_EQ(parallel.ga.best_genome, reference.ga.best_genome);
        EXPECT_DOUBLE_EQ(parallel.ga.best_score, reference.ga.best_score);
        EXPECT_EQ(parallel.strategy.mhz_per_stage,
                  reference.strategy.mhz_per_stage);
        EXPECT_EQ(parallel.provenance, Provenance::Cold);
    }
}

TEST(StrategyService, ASearchLeavesNothingQueuedBehindItsRequest)
{
    // One worker and one cold request whose search runs the GA:
    // Vit_base preprocesses into at least four stages here (asserted
    // below), and 9^4 genomes exceed the 30 x 24 budget.  The
    // completion callback runs on the only worker, so nothing can
    // drain the queue before it reads the depth: whatever the search
    // queued is still there.
    StrategyService service(fastOptions(1));
    npu::MemorySystem memory(service.options().pipeline.chip.memory);
    StrategyRequest request;
    request.workload = models::buildWorkload("Vit_base", memory, 5);
    request.seed = 9;

    struct Delivery
    {
        StrategyResponse response;
        std::exception_ptr error;
        std::size_t queue_depth = 0;
    };
    std::promise<Delivery> delivered;
    RejectReason reject = service.trySubmit(
        request, [&delivered, &service](StrategyResponse response,
                                        std::exception_ptr error) {
            delivered.set_value({std::move(response), error,
                                 service.stats().queue_depth});
        });
    ASSERT_EQ(reject, RejectReason::None);
    Delivery delivery = delivered.get_future().get();
    ASSERT_EQ(delivery.error, nullptr);
    ASSERT_EQ(delivery.response.provenance, Provenance::Cold);
    ASSERT_GE(delivery.response.strategy.stages.size(), 4u);
    EXPECT_EQ(delivery.queue_depth, 0u);
}

TEST(StrategyService, WarmStartFromSimilarWorkload)
{
    ServiceOptions options = fastOptions(2);
    options.warm_generation_fraction = 1.0 / 3.0;
    StrategyService service(options);

    StrategyRequest donor;
    donor.workload = testWorkload(256);
    donor.seed = 3;
    StrategyResponse cold = service.submit(donor).get();
    ASSERT_EQ(cold.provenance, Provenance::Cold);

    // Same model family, slightly longer sequence: near-identical
    // features, different digest.
    StrategyRequest similar;
    similar.workload = testWorkload(288);
    similar.seed = 3;
    StrategyResponse warm = service.submit(similar).get();
    EXPECT_EQ(warm.provenance, Provenance::WarmStart);
    EXPECT_GT(warm.similarity, 0.85);
    EXPECT_EQ(warm.generations_run, 8); // 24 / 3
    EXPECT_EQ(warm.generations_saved, 16);
    ASSERT_TRUE(warm.strategy.meta.has_value());
    EXPECT_EQ(warm.strategy.meta->provenance, "warm-start");

    // The warm-started search must still produce a winning strategy
    // for *its* workload: compare against a full-budget cold run.
    StrategyRequest cold_similar = similar;
    cold_similar.use_cache = false;
    StrategyResponse full = service.submit(cold_similar).get();
    ASSERT_EQ(full.provenance, Provenance::Cold);
    EXPECT_GT(warm.ga.best_score, 0.95 * full.ga.best_score);

    ServiceStats stats = service.stats();
    EXPECT_EQ(stats.warm_hits, 1u);
    EXPECT_EQ(stats.generations_saved, 16u);
}

TEST(StrategyService, WarmStartCanBeDisabledPerRequest)
{
    StrategyService service(fastOptions(2));
    StrategyRequest donor;
    donor.workload = testWorkload(256);
    service.submit(donor).get();

    StrategyRequest similar;
    similar.workload = testWorkload(288);
    similar.allow_warm_start = false;
    StrategyResponse response = service.submit(similar).get();
    EXPECT_EQ(response.provenance, Provenance::Cold);
    EXPECT_EQ(response.generations_run, 24);
}

TEST(StrategyService, TrySubmitRejectsAtAdmissionCapacity)
{
    ServiceOptions options = fastOptions(1);
    options.admission_capacity = 1;
    StrategyService service(options);

    StrategyRequest request;
    request.workload = testWorkload(256);
    request.use_cache = false;

    Admission admitted = service.trySubmit(request);
    ASSERT_TRUE(admitted.accepted());
    EXPECT_EQ(admitted.reject, RejectReason::None);
    // The single slot is taken until the pipeline finishes (hundreds
    // of milliseconds); an immediate second try must bounce with the
    // structured cause the wire protocol forwards.
    Admission bounced = service.trySubmit(request);
    EXPECT_FALSE(bounced.accepted());
    EXPECT_EQ(bounced.reject, RejectReason::QueueFull);
    EXPECT_EQ(service.stats().rejected, 1u);
    admitted.future->get();
    // Capacity freed: the next try is admitted again.
    Admission retried = service.trySubmit(request);
    ASSERT_TRUE(retried.accepted());
    retried.future->get();
}

TEST(StrategyService, CallbackSubmitDeliversExactlyOnce)
{
    StrategyService service(fastOptions(2));
    StrategyRequest request;
    request.workload = testWorkload(256);
    request.seed = 5;

    std::promise<StrategyResponse> delivered;
    RejectReason reject = service.trySubmit(
        request, [&delivered](StrategyResponse response,
                              std::exception_ptr error) {
            ASSERT_EQ(error, nullptr);
            delivered.set_value(std::move(response));
        });
    ASSERT_EQ(reject, RejectReason::None);
    StrategyResponse response = delivered.get_future().get();
    EXPECT_EQ(response.provenance, Provenance::Cold);
    EXPECT_FALSE(response.strategy.mhz_per_stage.empty());

    // The callback result must match the future-based path bit for
    // bit (same request, same seed, cache answers the repeat).
    StrategyResponse repeat = service.submit(request).get();
    EXPECT_EQ(repeat.strategy.mhz_per_stage,
              response.strategy.mhz_per_stage);
}

TEST(StrategyService, DrainStopsAdmissionAndCompletesInFlight)
{
    ServiceOptions options = fastOptions(2);
    StrategyService service(options);
    StrategyRequest request;
    request.workload = testWorkload(256);
    request.use_cache = false; // keep both requests genuinely in flight

    auto first = service.submit(request);
    auto second = service.submit(request);
    EXPECT_FALSE(service.draining());

    // drain() must block until both searches finish.  (Slot release
    // precedes promise publication — "a ready future implies
    // capacity" — so allow the publication a moment to land.)
    service.drain();
    EXPECT_TRUE(service.draining());
    EXPECT_EQ(first.wait_for(std::chrono::seconds(5)),
              std::future_status::ready);
    EXPECT_EQ(second.wait_for(std::chrono::seconds(5)),
              std::future_status::ready);
    EXPECT_FALSE(first.get().strategy.mhz_per_stage.empty());
    EXPECT_FALSE(second.get().strategy.mhz_per_stage.empty());

    // ...and admission is closed for good, with the structured cause.
    Admission refused = service.trySubmit(request);
    EXPECT_FALSE(refused.accepted());
    EXPECT_EQ(refused.reject, RejectReason::ShuttingDown);
    EXPECT_EQ(service.trySubmit(request,
                                [](StrategyResponse, std::exception_ptr) {
                                    FAIL() << "admitted after drain";
                                }),
              RejectReason::ShuttingDown);
    EXPECT_THROW((void)service.submit(request), std::runtime_error);
    EXPECT_TRUE(service.stats().draining);

    // Idempotent: a second drain returns immediately.
    service.drain();
}

TEST(StrategyService, RejectReasonTokensAreStable)
{
    EXPECT_STREQ(rejectReasonToken(RejectReason::None), "none");
    EXPECT_STREQ(rejectReasonToken(RejectReason::QueueFull),
                 "queue-full");
    EXPECT_STREQ(rejectReasonToken(RejectReason::ShuttingDown),
                 "shutting-down");
}

TEST(StrategyService, EpochAdvanceDemotesExactHitsToWarmStarts)
{
    ServiceOptions options = fastOptions(2);
    options.warm_generation_fraction = 1.0 / 3.0;
    StrategyService service(options);
    EXPECT_EQ(service.modelEpoch(), 0u);

    StrategyRequest request;
    request.workload = testWorkload(256);
    request.seed = 3;

    StrategyResponse cold = service.submit(request).get();
    ASSERT_EQ(cold.provenance, Provenance::Cold);
    ASSERT_EQ(service.submit(request).get().provenance,
              Provenance::ExactHit);

    // A recalibration invalidates every strategy searched on the old
    // models.  The identical request must NEVER be served the stale
    // plan as-is again - it recomputes, warm-started from the stale
    // strategy (same digest, so the donor is a perfect feature match).
    EXPECT_EQ(service.advanceModelEpoch(), 1u);
    StrategyResponse demoted = service.submit(request).get();
    EXPECT_EQ(demoted.provenance, Provenance::WarmStart);
    EXPECT_DOUBLE_EQ(demoted.similarity, 1.0);
    EXPECT_EQ(demoted.generations_run, 8); // 24 / 3
    EXPECT_EQ(demoted.fingerprint.model_epoch, 1u);

    // The recomputed strategy was re-cached at the current epoch: the
    // next identical request is an exact hit again.
    StrategyResponse rehit = service.submit(request).get();
    EXPECT_EQ(rehit.provenance, Provenance::ExactHit);
    EXPECT_EQ(rehit.strategy.mhz_per_stage,
              demoted.strategy.mhz_per_stage);

    ServiceStats stats = service.stats();
    EXPECT_EQ(stats.stale_demotions, 1u);
    EXPECT_EQ(stats.model_epoch, 1u);
    EXPECT_EQ(stats.exact_hits, 2u);
}

TEST(StrategyService, EvictionRacingEpochAdvanceStaysCoherent)
{
    // Run under the tsan preset (this binary matches its test regex):
    // a capacity-2 cache forces an eviction on nearly every insert
    // while another thread hammers advanceModelEpoch, so the cache
    // mutex, the epoch counter, and the stats counters are all
    // contended at once.  The assertions only pin logical
    // coherence; the sanitizer pins the memory ordering.
    ServiceOptions options = fastOptions(4);
    options.cache.capacity = 2;
    StrategyService service(options);

    const std::vector<int> seqs = {128, 160, 192, 224, 256, 288};
    std::atomic<bool> done{false};
    std::thread epoch_thread([&] {
        while (!done.load()) {
            service.advanceModelEpoch();
            std::this_thread::yield();
        }
    });

    std::size_t submitted = 0;
    for (int round = 0; round < 2; ++round) {
        std::vector<std::future<StrategyResponse>> futures;
        for (int seq : seqs) {
            StrategyRequest request;
            request.workload = testWorkload(seq);
            request.seed = 7;
            futures.push_back(service.submit(request));
            ++submitted;
        }
        for (auto &future : futures) {
            StrategyResponse response = future.get();
            // Whatever provenance the interleaving produced, the
            // strategy itself must be complete and well-formed.
            EXPECT_FALSE(response.strategy.mhz_per_stage.empty());
            EXPECT_EQ(response.strategy.stages.size(),
                      response.strategy.mhz_per_stage.size());
            ASSERT_TRUE(response.strategy.meta.has_value());
            EXPECT_GT(response.strategy.meta->score, 0.0);
        }
    }
    done.store(true);
    epoch_thread.join();

    ServiceStats stats = service.stats();
    EXPECT_EQ(stats.requests, submitted);
    // Evictions bound the cache, they never corrupt its bookkeeping.
    EXPECT_LE(stats.cache_size, 2u);
    EXPECT_EQ(stats.model_epoch, service.modelEpoch());
}

TEST(StrategyService, ResponseStrategyRoundTripsWithMeta)
{
    StrategyService service(fastOptions(2));
    StrategyRequest request;
    request.workload = testWorkload(256);
    StrategyResponse response = service.submit(request).get();

    std::stringstream buffer;
    dvfs::saveStrategy(response.strategy, buffer);
    dvfs::Strategy loaded = dvfs::loadStrategy(buffer);
    ASSERT_TRUE(loaded.meta.has_value());
    EXPECT_DOUBLE_EQ(loaded.meta->score, response.strategy.meta->score);
    EXPECT_EQ(loaded.meta->provenance, "cold");
    EXPECT_EQ(loaded.meta->fingerprint, response.fingerprint.digest);
    EXPECT_EQ(loaded.mhz_per_stage, response.strategy.mhz_per_stage);
}

/**
 * Hold a one-worker service's worker with four uncached cold searches.
 * One lasts a few tens of milliseconds, so a request queued behind
 * them waits well past a 50 ms budget.
 */
std::vector<Admission>
occupyTheWorker(StrategyService &service)
{
    std::vector<Admission> wall;
    for (std::uint64_t seed = 41; seed < 45; ++seed) {
        StrategyRequest occupier;
        occupier.workload = testWorkload(512);
        occupier.use_cache = false;
        occupier.seed = seed;
        wall.push_back(service.trySubmit(occupier));
    }
    return wall;
}

TEST(StrategyService, QueuedRequestPastItsDeadlineIsRefused)
{
    StrategyService service(fastOptions(1));

    std::vector<Admission> wall = occupyTheWorker(service);
    for (const Admission &admitted : wall)
        ASSERT_TRUE(admitted.accepted());

    // A 50 ms budget expires long before the worker frees: the
    // service must refuse the search rather than burn a GA run the
    // caller stopped waiting for.
    StrategyRequest doomed;
    doomed.workload = testWorkload(256);
    doomed.deadline_seconds = 0.05;
    std::future<StrategyResponse> future = service.submit(doomed);
    EXPECT_THROW(future.get(), RequestExpired);
    for (Admission &admitted : wall)
        admitted.future->get();

    ServiceStats stats = service.stats();
    EXPECT_EQ(stats.expired_in_queue, 1u);
    EXPECT_EQ(stats.ga_runs_past_deadline, 0u);
}

// The bench's control arm: with enforcement off an expired request
// still runs, and the tripwire counter records the waste instead.
TEST(StrategyService, EnforcementOffRunsExpiredWorkAndCountsIt)
{
    ServiceOptions options = fastOptions(1);
    options.enforce_deadlines = false;
    StrategyService service(options);

    std::vector<Admission> wall = occupyTheWorker(service);
    for (const Admission &admitted : wall)
        ASSERT_TRUE(admitted.accepted());

    StrategyRequest doomed;
    doomed.workload = testWorkload(256);
    doomed.deadline_seconds = 0.05;
    doomed.use_cache = false;
    StrategyResponse served = service.submit(doomed).get();
    EXPECT_EQ(served.provenance, Provenance::Cold);
    for (Admission &admitted : wall)
        admitted.future->get();

    ServiceStats stats = service.stats();
    EXPECT_EQ(stats.expired_in_queue, 0u);
    EXPECT_EQ(stats.ga_runs_past_deadline, 1u);
}

TEST(StrategyService, ShedsLikelyColdWorkUnderSustainedQueueing)
{
    ServiceOptions options = fastOptions(1);
    // Shrink the sojourn target so one real queue wait is enough to
    // trip the shedder deterministically: a single wait of one cold
    // duration D raises the EWMA to ~0.2*D, so the target must sit
    // well below that relative to the cold EWMA (~D).  The wait below
    // reads B's pickup as an EWMA above 5 ms, so D must sit well above
    // 25 ms: a 4 s warm-up puts it near 50 ms on a 4-core host, where
    // the shared 2 s one (D near 25 ms) let C start first in about
    // half the runs.
    options.pipeline.warmup_seconds = 4.0;
    options.min_shed_sojourn_seconds = 0.001;
    options.assumed_cold_seconds = 0.001;
    options.shed_sojourn_factor = 0.05;
    StrategyService service(options);

    // Pre-warm one fingerprint: the likely-hit probe must let this
    // request through the shedder later.
    StrategyRequest warm;
    warm.workload = testWorkload(256);
    service.submit(warm).get();

    // A runs, B waits A's whole duration: when the worker picks B up
    // the sojourn EWMA rises far above the 1 ms target.  C queues
    // behind B; it is admitted while the EWMA is still low.
    StrategyRequest slow_a;
    slow_a.workload = testWorkload(512);
    slow_a.use_cache = false;
    slow_a.seed = 101;
    Admission a = service.trySubmit(slow_a);
    ASSERT_TRUE(a.accepted());
    StrategyRequest slow_b = slow_a;
    slow_b.seed = 102;
    Admission b = service.trySubmit(slow_b);
    ASSERT_TRUE(b.accepted());
    StrategyRequest slow_c = slow_a;
    slow_c.seed = 103;
    Admission c = service.trySubmit(slow_c);
    ASSERT_TRUE(c.accepted());
    for (int spin = 0;
         spin < 1000 && service.stats().sojourn_ewma_seconds < 0.005;
         ++spin)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    ASSERT_GT(service.stats().sojourn_ewma_seconds, 0.005);

    // While slow_b's search occupies the only worker, slow_c waits in
    // the pool queue, so the shedder sees a backlog for the whole run...
    ASSERT_GT(service.stats().queue_depth, 0u);

    // ...then a cold request is shed early, while the likely cache
    // hit is still admitted through the same gate.
    StrategyRequest cold = slow_a;
    cold.seed = 104;
    Admission shed = service.trySubmit(cold);
    EXPECT_FALSE(shed.accepted());
    EXPECT_EQ(shed.reject, RejectReason::Overloaded);
    Admission hit = service.trySubmit(warm);
    ASSERT_TRUE(hit.accepted());

    b.future->get();
    c.future->get();
    StrategyResponse warmed = hit.future->get();
    EXPECT_EQ(warmed.provenance, Provenance::ExactHit);

    ServiceStats stats = service.stats();
    EXPECT_GE(stats.shed_early, 1u);
    EXPECT_GT(stats.cold_ewma_seconds, 0.0);
}

TEST(StrategyService, RaiseModelEpochIsMonotone)
{
    StrategyService service(fastOptions(1));
    EXPECT_EQ(service.modelEpoch(), 0u);
    EXPECT_EQ(service.raiseModelEpoch(5), 5u);
    // Raising to a lower or equal epoch is a no-op (a late-arriving
    // invalidate from an older recalibration must not regress).
    EXPECT_EQ(service.raiseModelEpoch(3), 5u);
    EXPECT_EQ(service.raiseModelEpoch(5), 5u);
    EXPECT_EQ(service.modelEpoch(), 5u);
    EXPECT_EQ(service.advanceModelEpoch(), 6u);
    EXPECT_EQ(service.raiseModelEpoch(100), 100u);
    EXPECT_EQ(service.modelEpoch(), 100u);
}

TEST(StrategyService, RaisedEpochDemotesExactHitsLikeAdvance)
{
    StrategyService service(fastOptions(2));
    StrategyRequest request;
    request.workload = testWorkload(256);
    request.seed = 3;
    service.submit(request).get();
    ASSERT_EQ(service.submit(request).get().provenance,
              Provenance::ExactHit);

    // The receive side of a cluster invalidate: identical demotion
    // semantics to a local advanceModelEpoch.
    service.raiseModelEpoch(7);
    StrategyResponse demoted = service.submit(request).get();
    EXPECT_NE(demoted.provenance, Provenance::ExactHit);
    EXPECT_GT(demoted.generations_saved, 0);

    // The recomputed entry serves exact hits at the new epoch.
    EXPECT_EQ(service.submit(request).get().provenance,
              Provenance::ExactHit);
}

/** Build a PeerDonor the way net::ShardPeers does from a reply. */
PeerDonor
donorFromHit(const SimilarHit &hit, double similarity)
{
    PeerDonor donor;
    donor.fingerprint = hit.entry.fingerprint;
    donor.strategy = hit.entry.strategy;
    donor.best_mhz = hit.entry.ga.best_mhz;
    donor.best_score = hit.entry.ga.best_score;
    donor.similarity = similarity;
    donor.perf_loss_target = hit.entry.perf_loss_target;
    return donor;
}

TEST(StrategyService, ImportedDonorIsNeverAnExactHit)
{
    StrategyService origin(fastOptions(2));
    StrategyRequest request;
    request.workload = testWorkload(256);
    request.seed = 3;
    StrategyResponse owned = origin.submit(request).get();

    // The owner exports its own entry...
    std::optional<SimilarHit> exported = origin.exportDonor(
        owned.fingerprint, request.perf_loss_target);
    ASSERT_TRUE(exported.has_value());
    EXPECT_EQ(exported->similarity, 1.0);

    // ...a second shard imports it; the identical request there must
    // not be served verbatim from the import (warm start only).
    StrategyService importer(fastOptions(2));
    importer.importDonor(donorFromHit(*exported, exported->similarity));
    EXPECT_EQ(importer.stats().donors_imported, 1u);

    StrategyResponse warmed = importer.submit(request).get();
    EXPECT_EQ(warmed.provenance, Provenance::WarmStart);
    EXPECT_EQ(warmed.similarity, 1.0);
    EXPECT_GT(warmed.generations_saved, 0);

    // And the importer never re-exports the second-hand copy: only
    // its own recomputed entry (inserted by the warm start above) may
    // donate onward.
    std::optional<SimilarHit> re_exported = importer.exportDonor(
        owned.fingerprint, request.perf_loss_target);
    ASSERT_TRUE(re_exported.has_value());
    EXPECT_NE(re_exported->entry.kind, CacheEntry::Kind::Donor);
}

TEST(StrategyService, PeerDonorLookupConvertsColdToWarmStart)
{
    StrategyService donor_shard(fastOptions(2));
    StrategyRequest base;
    base.workload = testWorkload(256);
    base.seed = 3;
    donor_shard.submit(base).get();

    // A shard whose donor lookup consults the first (the serve-layer
    // analogue of the cross-shard peer protocol, no sockets).
    ServiceOptions options = fastOptions(2);
    std::atomic<int> lookups{0};
    options.peer_donor_lookup =
        [&donor_shard, &lookups](const Fingerprint &probe,
                                 double loss_target)
        -> std::optional<PeerDonor> {
        ++lookups;
        std::optional<SimilarHit> hit =
            donor_shard.exportDonor(probe, loss_target);
        if (!hit)
            return std::nullopt;
        return donorFromHit(*hit, hit->similarity);
    };
    StrategyService service(options);

    StrategyRequest similar;
    similar.workload = testWorkload(288);
    similar.seed = 3;
    StrategyResponse warmed = service.submit(similar).get();
    EXPECT_EQ(warmed.provenance, Provenance::WarmStart);
    EXPECT_GE(lookups.load(), 1);
    EXPECT_GT(warmed.generations_saved, 0);

    ServiceStats stats = service.stats();
    EXPECT_GE(stats.peer_donor_queries, 1u);
    EXPECT_GE(stats.peer_donor_hits, 1u);
    EXPECT_GE(stats.donors_imported, 1u);

    // A local donor now exists (the import): the next similar request
    // warm-starts without consulting the peer again.
    int before = lookups.load();
    StrategyRequest another;
    another.workload = testWorkload(320);
    another.seed = 3;
    StrategyResponse local = service.submit(another).get();
    EXPECT_EQ(local.provenance, Provenance::WarmStart);
    EXPECT_EQ(lookups.load(), before);
}

ServiceOptions
predictOptions(std::size_t workers)
{
    // A surrogate that fits from the very first observation, so one
    // cold search is enough training for the predict path.
    tune::SurrogateOptions surrogate;
    surrogate.min_rows = 1;
    surrogate.refit_interval_rows = 1;
    surrogate.boost_rounds = 6;
    surrogate.quantile_cuts = 4;

    ServiceOptions options = fastOptions(workers);
    options.surrogate = std::make_shared<tune::Surrogate>(surrogate);
    options.predict_first = true;
    options.refine_generation_fraction = 0.5;
    return options;
}

TEST(StrategyService, PredictFirstConfigurationIsValidated)
{
    // predict_first without a surrogate is a wiring bug, not a
    // runtime condition: fail at construction.
    ServiceOptions no_model = fastOptions(1);
    no_model.predict_first = true;
    EXPECT_THROW(StrategyService{no_model}, std::invalid_argument);

    ServiceOptions zero = predictOptions(1);
    zero.refine_generation_fraction = 0.0;
    EXPECT_THROW(StrategyService{zero}, std::invalid_argument);

    ServiceOptions over = predictOptions(1);
    over.refine_generation_fraction = 1.5;
    EXPECT_THROW(StrategyService{over}, std::invalid_argument);
}

TEST(StrategyService, PredictFirstServesSurrogateThenRefinesAsync)
{
    ServiceOptions options = predictOptions(2);
    std::atomic<int> inserts{0};
    options.insert_listener = [&inserts](const CacheEntry &) {
        ++inserts;
    };
    StrategyService service(options);

    // First contact ever: the surrogate is not ready, so the request
    // takes the normal cold path — and its finished search trains the
    // model (learn_from_searches).
    StrategyRequest trainer;
    trainer.workload = testWorkload(256);
    trainer.seed = 3;
    StrategyResponse cold = service.submit(trainer).get();
    ASSERT_EQ(cold.provenance, Provenance::Cold);
    ASSERT_TRUE(options.surrogate->ready());
    EXPECT_EQ(inserts.load(), 1);

    // A workload the service has never solved: served straight from
    // the surrogate, no GA generations on the caller's clock.
    StrategyRequest fresh;
    fresh.workload = testWorkload(320);
    fresh.seed = 5;
    StrategyResponse predicted = service.submit(fresh).get();
    EXPECT_EQ(predicted.provenance, Provenance::Predicted);
    EXPECT_EQ(predicted.generations_run, 0);
    EXPECT_EQ(predicted.generations_saved, 24);
    ASSERT_TRUE(predicted.strategy.meta.has_value());
    EXPECT_EQ(predicted.strategy.meta->provenance, "predicted");
    EXPECT_GT(predicted.strategy.meta->score, 0.0);
    EXPECT_DOUBLE_EQ(predicted.strategy.meta->pre_refine_score,
                     predicted.strategy.meta->score);
    ASSERT_EQ(predicted.strategy.mhz_per_stage.size(),
              predicted.strategy.stages.size());
    // Every predicted frequency is snapped to the chip's table.
    npu::FreqTable table(options.pipeline.chip.freq);
    for (double mhz : predicted.strategy.mhz_per_stage)
        EXPECT_TRUE(table.supports(mhz))
            << mhz << " MHz is not a table frequency";
    // The async refinement either upgraded the entry or proved the
    // prediction was already as good; both resolve, exactly once.
    service.waitForRefines();
    ServiceStats stats = service.stats();
    EXPECT_EQ(stats.predicted_served, 1u);
    EXPECT_EQ(stats.refine_upgrades + stats.refine_discards, 1u);
    EXPECT_EQ(stats.refines_in_flight, 0u);
    EXPECT_EQ(stats.cold_misses, 1u);

    // Provisional entries never fire the replication/WAL listener;
    // only the refined upgrade does.
    EXPECT_EQ(inserts.load(),
              1 + static_cast<int>(stats.refine_upgrades));

    // The identical request now exact-hits whatever the refinement
    // left in the cache — never worse than the served prediction.
    StrategyResponse hit = service.submit(fresh).get();
    EXPECT_EQ(hit.provenance, Provenance::ExactHit);
    EXPECT_GE(hit.ga.best_score, predicted.ga.best_score);
    if (stats.refine_upgrades == 1) {
        EXPECT_GT(hit.ga.best_score, predicted.ga.best_score);
        ASSERT_TRUE(hit.strategy.meta.has_value());
        EXPECT_DOUBLE_EQ(hit.strategy.meta->score, hit.ga.best_score);
    }

    // Predicted entries are provisional: the persistence snapshot
    // must never contain one.
    for (const CacheEntry &entry : service.snapshotCache())
        EXPECT_NE(entry.kind, CacheEntry::Kind::Predicted);
}

bool
sameBits(double a, double b)
{
    return std::bit_cast<std::uint64_t>(a)
           == std::bit_cast<std::uint64_t>(b);
}

TEST(StrategyService, MultiStageRefinementScoresThroughTheEvaluator)
{
    ServiceOptions options = predictOptions(2);
    StrategyService service(options);

    StrategyRequest trainer;
    trainer.workload = testWorkload(256);
    trainer.seed = 3;
    service.submit(trainer).get();
    ASSERT_TRUE(options.surrogate->ready());

    // A zoo model that preprocesses into 7 stages under these options
    // and whose refinement beats the prediction, so a summation-order
    // difference between the refinement's search and the evaluator
    // would show in the last ulps of the stored score.
    npu::MemorySystem memory(options.pipeline.chip.memory);
    StrategyRequest fresh;
    fresh.workload = models::buildWorkload("Vit_base", memory, 5);
    fresh.seed = 9;
    StrategyResponse predicted = service.submit(fresh).get();
    ASSERT_EQ(predicted.provenance, Provenance::Predicted);
    ASSERT_GE(predicted.strategy.stages.size(), 4u);
    service.waitForRefines();
    ASSERT_EQ(service.stats().refine_upgrades, 1u);

    StrategyResponse hit = service.submit(fresh).get();
    ASSERT_EQ(hit.provenance, Provenance::ExactHit);

    // Rebuild the refinement's evaluator from the same profiling pass.
    dvfs::PipelineOptions pipeline = options.pipeline;
    pipeline.seed = fresh.seed;
    pipeline.perf_loss_target = fresh.perf_loss_target;
    dvfs::PreparedWorkload prepared =
        dvfs::EnergyPipeline(pipeline).prepare(fresh.workload);
    npu::FreqTable table(pipeline.chip.freq);
    power::PowerModel power_model(prepared.constants, table);
    dvfs::StageEvaluator evaluator(prepared.prep.stages,
                                   prepared.perf_models, power_model,
                                   prepared.op_power, table);
    double per_lb = 1e-6 / evaluator.evaluateBaseline().seconds
                    * (1.0 - fresh.perf_loss_target);

    dvfs::StrategyEvaluation eval = evaluator.evaluate(hit.ga.best_genome);
    EXPECT_TRUE(sameBits(hit.ga.best_score,
                         dvfs::strategyScore(eval, per_lb)));
    for (auto [stored, rebuilt] :
         {std::pair{hit.ga.best_eval.seconds, eval.seconds},
          std::pair{hit.ga.best_eval.aicore_joules, eval.aicore_joules},
          std::pair{hit.ga.best_eval.soc_joules, eval.soc_joules},
          std::pair{hit.ga.best_eval.aicore_watts, eval.aicore_watts},
          std::pair{hit.ga.best_eval.soc_watts, eval.soc_watts},
          std::pair{hit.ga.best_eval.delta_t, eval.delta_t}})
        EXPECT_TRUE(sameBits(stored, rebuilt));
    ASSERT_TRUE(hit.strategy.meta.has_value());
    EXPECT_TRUE(sameBits(hit.strategy.meta->score, hit.ga.best_score));
}

TEST(StrategyService, PredictFirstRespectsColdQualityRequests)
{
    StrategyService service(predictOptions(2));

    StrategyRequest trainer;
    trainer.workload = testWorkload(256);
    service.submit(trainer).get();
    ASSERT_TRUE(service.options().surrogate->ready());

    // A caller that forbids warm starts demands full search quality;
    // the surrogate must not answer for it.
    StrategyRequest strict;
    strict.workload = testWorkload(320);
    strict.allow_warm_start = false;
    StrategyResponse response = service.submit(strict).get();
    EXPECT_EQ(response.provenance, Provenance::Cold);
    EXPECT_EQ(response.generations_run, 24);
    EXPECT_EQ(service.stats().predicted_served, 0u);
}

TEST(StrategyService, DrainWaitsOutScheduledRefinements)
{
    ServiceOptions options = predictOptions(2);
    StrategyService service(options);

    StrategyRequest trainer;
    trainer.workload = testWorkload(256);
    service.submit(trainer).get();
    ASSERT_TRUE(options.surrogate->ready());

    StrategyRequest fresh;
    fresh.workload = testWorkload(288);
    StrategyResponse predicted = service.submit(fresh).get();
    ASSERT_EQ(predicted.provenance, Provenance::Predicted);

    // drain() implies waitForRefines(): afterwards the refinement has
    // fully resolved (ran, or observed draining and bailed — either
    // way nothing is queued or running).
    service.drain();
    ServiceStats stats = service.stats();
    EXPECT_EQ(stats.refines_in_flight, 0u);
    EXPECT_LE(stats.refine_upgrades + stats.refine_discards, 1u);
}

TEST(StrategyService, ZeroTimeWorkloadGetsAnErrorAndFreesTheWorker)
{
    // One Idle op of zero duration (the wire decoder accepts it from
    // any client): every profiling warm-up iteration would leave the
    // simulated clock where it was.
    StrategyService service(fastOptions(1));
    StrategyRequest stalled;
    stalled.workload.name = "stalled";
    ops::Op idle;
    idle.type = "Idle";
    idle.hw.category = npu::OpCategory::Idle;
    idle.hw.fixed_seconds = 0.0;
    stalled.workload.iteration.push_back(idle);
    EXPECT_THROW(service.submit(stalled).get(), std::invalid_argument);

    // The only worker is free again: a real request is answered.
    StrategyRequest request;
    request.workload = testWorkload(256);
    StrategyResponse response = service.submit(request).get();
    EXPECT_EQ(response.provenance, Provenance::Cold);
    EXPECT_FALSE(response.strategy.mhz_per_stage.empty());
}

} // namespace
} // namespace opdvfs::serve
