/**
 * @file
 * Property suite over the unified strategy cache (strategy_cache.h)
 * and its RCU reactor read path (cache_read.h).
 *
 * Three layers of evidence:
 *
 *  1. A sequential model check against the cache this one replaced:
 *     the former digest-sharded StrategyCache at one shard, copied
 *     below as ReferenceCache.  Random sequences of inserts of all
 *     three kinds (same-digest overwrites and donors arriving over
 *     served entries included), exact / replica / fresh / similarity
 *     lookups, epoch advances and reactor reads must agree op for op:
 *     results, bitwise similarities, and after every op the scan
 *     counters, the size and the MRU-first snapshot, and so every
 *     eviction victim.  A reactor read hits exactly when the reference holds a
 *     non-donor entry at the current epoch; the reference never sees
 *     reactor reads, so any recency they moved would surface as a
 *     different order or victim.
 *
 *  2. A frame oracle: the frame a reactor read returns for a random
 *     entry equals net::encodeExactHitFrame built from that entry,
 *     which equals the worker path's exact-hit frame built field by
 *     field, and decodes and re-encodes to the same bytes.
 *
 *  3. A seeded thread stress (scaled by OPDVFS_PROP_CASES): reactor
 *     readers against two inserter/upgrader/evictor threads, an epoch
 *     advancer and a worker-side reader.  Every entry restates its
 *     digest, epoch, kind and insert serial in the frame it encodes,
 *     so a torn read, a wrong-key hit, a donor or stale-epoch hit, or
 *     the frame of an entry that a completed insert had already
 *     replaced is caught by the reader that received it; afterwards,
 *     a write with every reader quiescent reclaims every retired
 *     snapshot.
 */

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <list>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "check/generators.h"
#include "check/prop.h"
#include "net/server.h"
#include "net/wire.h"
#include "serve/strategy_cache.h"

namespace {

using namespace opdvfs;
using namespace opdvfs::check;
using serve::CacheEntry;
using serve::ScanCounters;
using serve::SimilarHit;
using Kind = serve::CacheEntry::Kind;

const char *
kindToken(Kind kind)
{
    switch (kind) {
    case Kind::Owned: return "owned";
    case Kind::Predicted: return "predicted";
    case Kind::Donor: return "donor";
    }
    return "unknown";
}

// --- 1. sequential model check ----------------------------------------

/**
 * The former StrategyCache with `shards = 1`: one MRU-first list, the
 * same lookups, the same branch-and-bound similarity scan and the
 * same donor rule.  Only the entry flag is spelled as the new kind
 * (`warm_start_only` was `kind == Donor`; the old `predicted` flag
 * never reached the cache's logic).
 */
class ReferenceCache
{
  public:
    ReferenceCache(std::size_t capacity, double tolerance)
        : capacity_(capacity), tolerance_(tolerance)
    {
    }

    std::optional<CacheEntry>
    findExact(std::uint64_t digest)
    {
        auto found = by_digest_.find(digest);
        if (found == by_digest_.end() || found->second->kind == Kind::Donor)
            return std::nullopt;
        entries_.splice(entries_.begin(), entries_, found->second);
        return *found->second;
    }

    std::optional<CacheEntry>
    findReplica(std::uint64_t digest)
    {
        auto found = by_digest_.find(digest);
        if (found == by_digest_.end())
            return std::nullopt;
        entries_.splice(entries_.begin(), entries_, found->second);
        return *found->second;
    }

    bool
    containsFresh(std::uint64_t digest, std::uint64_t model_epoch) const
    {
        auto found = by_digest_.find(digest);
        if (found == by_digest_.end() || found->second->kind == Kind::Donor)
            return false;
        return found->second->fingerprint.model_epoch == model_epoch;
    }

    std::optional<SimilarHit>
    findSimilar(const serve::Fingerprint &probe, double min_similarity,
                std::optional<double> loss_target, bool owned_only)
    {
        ++counters.similar_lookups;
        std::optional<SimilarHit> best;
        double best_squared = std::numeric_limits<double>::infinity();
        for (const CacheEntry &entry : entries_) {
            ++counters.similar_scanned;
            if (owned_only && entry.kind == Kind::Donor)
                continue;
            if (loss_target
                && std::abs(entry.perf_loss_target - *loss_target)
                    > tolerance_)
                continue;
            const std::vector<double> &a = probe.features;
            const std::vector<double> &b = entry.fingerprint.features;
            if (a.size() != b.size() || a.empty()) {
                if (0.0 >= min_similarity && !best)
                    best = SimilarHit{entry, 0.0};
                continue;
            }
            double squared = 0.0;
            bool abandoned = false;
            for (std::size_t i = 0; i < a.size(); ++i) {
                double d = a[i] - b[i];
                squared += d * d;
                if (squared > best_squared) {
                    abandoned = true;
                    ++counters.similar_pruned;
                    break;
                }
            }
            if (abandoned)
                continue;
            double similarity = std::exp(-5.0 * std::sqrt(squared));
            if (similarity < min_similarity)
                continue;
            if (!best || similarity > best->similarity) {
                best = SimilarHit{entry, similarity};
                best_squared = squared;
            }
        }
        return best;
    }

    void
    insert(CacheEntry entry)
    {
        auto found = by_digest_.find(entry.fingerprint.digest);
        if (found != by_digest_.end()) {
            if (entry.kind == Kind::Donor
                && found->second->kind != Kind::Donor)
                return;
            entries_.erase(found->second);
            by_digest_.erase(found);
        }
        entries_.push_front(std::move(entry));
        by_digest_[entries_.front().fingerprint.digest] = entries_.begin();
        while (entries_.size() > capacity_) {
            by_digest_.erase(entries_.back().fingerprint.digest);
            entries_.pop_back();
        }
    }

    /** The entry for @p digest without touching recency. */
    const CacheEntry *
    peek(std::uint64_t digest) const
    {
        auto found = by_digest_.find(digest);
        return found == by_digest_.end() ? nullptr : &*found->second;
    }

    std::size_t size() const { return entries_.size(); }

    std::vector<CacheEntry>
    snapshotEntries() const
    {
        return {entries_.begin(), entries_.end()};
    }

    ScanCounters counters;

  private:
    std::size_t capacity_;
    double tolerance_;
    std::list<CacheEntry> entries_;
    std::unordered_map<std::uint64_t, std::list<CacheEntry>::iterator>
        by_digest_;
};

enum class OpKind
{
    Insert,
    FindExact,
    FindReplica,
    ContainsFresh,
    FindSimilar,
    AdvanceEpoch,
    ReactorRead,
};

struct Op
{
    OpKind kind = OpKind::FindExact;
    std::uint64_t digest = 0;
    /** Insert: the entry (its best_score is a unique serial). */
    CacheEntry entry;
    /** ContainsFresh: epochs back from the current one. */
    std::uint64_t epoch_lag = 0;
    /** FindSimilar: the probe and its filters. */
    std::vector<double> probe;
    double min_similarity = 0.0;
    std::optional<double> loss_target;
    bool owned_only = false;
};

struct ModelCase
{
    std::size_t capacity = 4;
    std::vector<Op> ops;
};

constexpr double kLossTargets[] = {0.02, 0.023, 0.04, 0.06};

/** Features on a coarse grid so exact similarity ties occur; now and
 *  then a different length, or none at all (similarity 0). */
std::vector<double>
genFeatures(Rng &rng)
{
    std::size_t length = rng.chance(0.1) ? rng.index(2) * 3 : 2;
    std::vector<double> features;
    for (std::size_t i = 0; i < length; ++i)
        features.push_back(0.1 * static_cast<double>(rng.uniformInt(0, 4)));
    return features;
}

ModelCase
genModelCase(Rng &rng)
{
    ModelCase model_case;
    model_case.capacity = static_cast<std::size_t>(rng.uniformInt(1, 8));
    int steps = static_cast<int>(rng.uniformInt(10, 60));
    std::uint64_t epoch = 0;
    double serial = 0.0;
    std::vector<std::uint64_t> inserted;
    for (int i = 0; i < steps; ++i) {
        Op op;
        // A small digest universe so inserts collide, evict and are
        // looked up again; donors often land on a digest already used.
        op.digest = static_cast<std::uint64_t>(rng.uniformInt(1, 12));
        double roll = rng.uniform(0.0, 1.0);
        if (roll < 0.40) {
            op.kind = OpKind::Insert;
            CacheEntry &entry = op.entry;
            double kind_roll = rng.uniform(0.0, 1.0);
            entry.kind = kind_roll < 0.5    ? Kind::Owned
                         : kind_roll < 0.75 ? Kind::Predicted
                                            : Kind::Donor;
            if (entry.kind == Kind::Donor && !inserted.empty()
                && rng.chance(0.5))
                op.digest = inserted[rng.index(inserted.size())];
            inserted.push_back(op.digest);
            entry.fingerprint.digest = op.digest;
            // Mostly the live epoch; sometimes an older one, as a
            // restored entry may carry.
            entry.fingerprint.model_epoch =
                epoch > 0 && rng.chance(0.15) ? epoch - 1 : epoch;
            entry.fingerprint.features = genFeatures(rng);
            entry.perf_loss_target =
                kLossTargets[rng.index(std::size(kLossTargets))];
            serial += 1.0;
            entry.ga.best_score = serial;
        } else if (roll < 0.50) {
            op.kind = OpKind::FindExact;
        } else if (roll < 0.55) {
            op.kind = OpKind::FindReplica;
        } else if (roll < 0.60) {
            op.kind = OpKind::ContainsFresh;
            op.epoch_lag = rng.chance(0.7) ? 0 : 1;
        } else if (roll < 0.72) {
            op.kind = OpKind::FindSimilar;
            op.probe = genFeatures(rng);
            const double thresholds[] = {0.0, 0.3, 0.6, 0.9};
            op.min_similarity = thresholds[rng.index(4)];
            if (rng.chance(0.5))
                op.loss_target =
                    kLossTargets[rng.index(std::size(kLossTargets))];
            op.owned_only = rng.chance(0.5);
        } else if (roll < 0.80) {
            op.kind = OpKind::AdvanceEpoch;
            ++epoch;
        } else {
            op.kind = OpKind::ReactorRead;
        }
        model_case.ops.push_back(std::move(op));
    }
    return model_case;
}

/** A self-describing frame: restates the entry it was encoded from. */
std::string
describe(const CacheEntry &entry)
{
    std::ostringstream out;
    out << "digest " << entry.fingerprint.digest << " epoch "
        << entry.fingerprint.model_epoch << " kind "
        << kindToken(entry.kind) << " serial "
        << std::bit_cast<std::uint64_t>(entry.ga.best_score);
    return out.str();
}

bool
sameEntry(const CacheEntry &a, const CacheEntry &b)
{
    return a.fingerprint.digest == b.fingerprint.digest
           && a.fingerprint.model_epoch == b.fingerprint.model_epoch
           && a.fingerprint.features == b.fingerprint.features
           && a.kind == b.kind
           && std::bit_cast<std::uint64_t>(a.ga.best_score)
                  == std::bit_cast<std::uint64_t>(b.ga.best_score)
           && std::bit_cast<std::uint64_t>(a.perf_loss_target)
                  == std::bit_cast<std::uint64_t>(b.perf_loss_target);
}

std::optional<std::string>
sameOptionalEntry(const std::optional<CacheEntry> &got,
                  const std::optional<CacheEntry> &want)
{
    if (got.has_value() != want.has_value())
        return std::string(got ? "hit" : "miss") + " but reference "
               + (want ? "hit" : "miss");
    if (got && !sameEntry(*got, *want))
        return "returned " + describe(*got) + " but reference "
               + describe(*want);
    return std::nullopt;
}

bool
sameCounters(const ScanCounters &a, const ScanCounters &b)
{
    return a.similar_lookups == b.similar_lookups
           && a.similar_scanned == b.similar_scanned
           && a.similar_pruned == b.similar_pruned;
}

std::optional<std::string>
checkModelAgreement(const ModelCase &model_case)
{
    serve::StrategyCache cache({.capacity = model_case.capacity});
    ReferenceCache reference(model_case.capacity,
                             serve::StrategyCache::Options{}
                                 .loss_target_tolerance);
    std::size_t reader = cache.registerReader();
    std::uint64_t epoch = 0;
    // Lazy encoding: every entry is encoded at most once, however
    // often it is read.
    std::unordered_map<std::uint64_t, int> encodes;
    serve::StrategyCache::FrameEncoder encode =
        [&encodes](const CacheEntry &entry) {
            ++encodes[std::bit_cast<std::uint64_t>(entry.ga.best_score)];
            return describe(entry);
        };

    for (std::size_t i = 0; i < model_case.ops.size(); ++i) {
        const Op &op = model_case.ops[i];
        std::string at = "op " + std::to_string(i) + ": ";
        std::optional<std::string> failure;
        switch (op.kind) {
        case OpKind::Insert:
            cache.insert(op.entry);
            reference.insert(op.entry);
            break;
        case OpKind::FindExact:
            failure = sameOptionalEntry(cache.findExact(op.digest),
                                        reference.findExact(op.digest));
            break;
        case OpKind::FindReplica:
            failure =
                sameOptionalEntry(cache.findReplica(op.digest),
                                  reference.findReplica(op.digest));
            break;
        case OpKind::ContainsFresh: {
            std::uint64_t probe_epoch =
                epoch >= op.epoch_lag ? epoch - op.epoch_lag : 0;
            if (cache.containsFresh(op.digest, probe_epoch)
                != reference.containsFresh(op.digest, probe_epoch))
                failure = "containsFresh disagrees";
            break;
        }
        case OpKind::FindSimilar: {
            serve::Fingerprint probe;
            probe.digest = 999;
            probe.features = op.probe;
            auto got = cache.findSimilar(probe, op.min_similarity,
                                         op.loss_target, op.owned_only);
            auto want = reference.findSimilar(
                probe, op.min_similarity, op.loss_target, op.owned_only);
            failure = sameOptionalEntry(
                got ? std::optional<CacheEntry>(got->entry) : std::nullopt,
                want ? std::optional<CacheEntry>(want->entry)
                     : std::nullopt);
            if (!failure && got
                && std::bit_cast<std::uint64_t>(got->similarity)
                       != std::bit_cast<std::uint64_t>(want->similarity))
                failure = "similarity differs bitwise";
            break;
        }
        case OpKind::AdvanceEpoch:
            ++epoch;
            break;
        case OpKind::ReactorRead: {
            auto frame = cache.exactHitFrame(reader, op.digest, epoch,
                                             encode);
            const CacheEntry *held = reference.peek(op.digest);
            bool servable = held && held->kind != Kind::Donor
                            && held->fingerprint.model_epoch == epoch;
            if ((frame != nullptr) != servable)
                failure = std::string("reactor read ")
                          + (frame ? "hit" : "missed") + " but the reference "
                          + (servable ? "holds" : "does not hold")
                          + " a servable entry";
            else if (frame && *frame != describe(*held))
                failure = "reactor frame '" + *frame
                          + "' is not the held entry's";
            break;
        }
        }
        if (failure)
            return at + *failure;
        if (!sameCounters(cache.scanCounters(), reference.counters))
            return at + "scan counters differ";
        if (cache.size() != reference.size())
            return at + "size " + std::to_string(cache.size())
                   + " != reference " + std::to_string(reference.size());
        // The MRU-first snapshot after every op pins recency refreshes
        // and therefore every eviction victim.
        std::vector<CacheEntry> got = cache.snapshotEntries();
        std::vector<CacheEntry> want = reference.snapshotEntries();
        if (got.size() != want.size())
            return at + "snapshot holds " + std::to_string(got.size())
                   + " entries, reference " + std::to_string(want.size());
        for (std::size_t k = 0; k < got.size(); ++k)
            if (!sameEntry(got[k], want[k]))
                return at + "snapshot position " + std::to_string(k)
                       + " is " + describe(got[k]) + ", reference "
                       + describe(want[k]);
    }
    for (const auto &[serial, count] : encodes)
        if (count != 1)
            return "entry " + std::to_string(serial) + " encoded "
                   + std::to_string(count) + " times";
    return std::nullopt;
}

std::string
showModelCase(const ModelCase &model_case)
{
    std::ostringstream out;
    out << "capacity=" << model_case.capacity << "\n";
    for (const Op &op : model_case.ops) {
        switch (op.kind) {
        case OpKind::Insert:
            out << "insert " << describe(op.entry) << " loss "
                << op.entry.perf_loss_target << " features";
            for (double f : op.entry.fingerprint.features)
                out << ' ' << f;
            out << "\n";
            break;
        case OpKind::FindExact:
            out << "find_exact " << op.digest << "\n";
            break;
        case OpKind::FindReplica:
            out << "find_replica " << op.digest << "\n";
            break;
        case OpKind::ContainsFresh:
            out << "contains_fresh " << op.digest << " lag "
                << op.epoch_lag << "\n";
            break;
        case OpKind::FindSimilar:
            out << "find_similar min " << op.min_similarity << " loss "
                << (op.loss_target ? std::to_string(*op.loss_target)
                                   : std::string("-"))
                << " owned_only " << op.owned_only << " probe";
            for (double f : op.probe)
                out << ' ' << f;
            out << "\n";
            break;
        case OpKind::AdvanceEpoch: out << "advance_epoch\n"; break;
        case OpKind::ReactorRead:
            out << "reactor_read " << op.digest << "\n";
            break;
        }
    }
    return out.str();
}

std::vector<ModelCase>
shrinkModelCase(const ModelCase &model_case)
{
    std::vector<ModelCase> out;
    // Drop each op; a failure that survives op removal is smaller.
    for (std::size_t i = 0; i < model_case.ops.size(); ++i) {
        ModelCase smaller = model_case;
        smaller.ops.erase(smaller.ops.begin()
                          + static_cast<std::ptrdiff_t>(i));
        out.push_back(std::move(smaller));
    }
    return out;
}

TEST(PropRcuCache, CacheAgreesWithTheSingleShardReference)
{
    Property<ModelCase> prop("rcu-cache-model-agreement", genModelCase,
                             checkModelAgreement);
    prop.withShrinker(shrinkModelCase).withPrinter(showModelCase);
    OPDVFS_CHECK_PROP(prop);
}

// --- 2. frame oracle --------------------------------------------------

struct FrameCase
{
    npu::FreqTableConfig freq;
    CacheEntry entry;
    std::uint32_t full_generations = 0;
};

FrameCase
genFrameCase(Rng &rng)
{
    FrameCase frame_case;
    frame_case.freq = genFreqTableConfig(rng);
    CacheEntry &entry = frame_case.entry;
    entry.strategy = genStrategy(rng, npu::FreqTable(frame_case.freq));
    entry.ga.best_mhz = entry.strategy.mhz_per_stage;
    entry.ga.best_score = rng.uniform(0.1, 50.0);
    entry.fingerprint.digest =
        static_cast<std::uint64_t>(rng.uniformInt(1, 1 << 30));
    entry.fingerprint.model_epoch =
        static_cast<std::uint64_t>(rng.uniformInt(0, 5));
    entry.perf_loss_target = 0.02;
    entry.kind = rng.chance(0.5) ? Kind::Owned : Kind::Predicted;
    frame_case.full_generations =
        static_cast<std::uint32_t>(rng.uniformInt(0, 64));
    return frame_case;
}

std::optional<std::string>
checkFrameOracle(const FrameCase &frame_case)
{
    const CacheEntry &entry = frame_case.entry;
    serve::StrategyCache cache({});
    std::size_t reader = cache.registerReader();
    cache.insert(entry);
    auto served = cache.exactHitFrame(
        reader, entry.fingerprint.digest, entry.fingerprint.model_epoch,
        [&](const CacheEntry &held) {
            return net::encodeExactHitFrame(held,
                                            frame_case.full_generations, {});
        });
    if (!served)
        return "inserted entry not served at its own epoch";
    if (*served
        != net::encodeExactHitFrame(entry, frame_case.full_generations, {}))
        return "served frame differs from encodeExactHitFrame(entry)";

    // The worker path's exact-hit answer for the same entry, field by
    // field as the server's completion encodes it, with service time
    // pinned to 0.0.
    net::WireResponse worker;
    worker.status = net::Status::Ok;
    worker.strategy = entry.strategy;
    if (worker.strategy.meta)
        worker.strategy.meta->provenance =
            serve::provenanceToken(serve::Provenance::ExactHit);
    worker.best_score = entry.ga.best_score;
    worker.provenance = serve::Provenance::ExactHit;
    worker.generations_saved = frame_case.full_generations;
    worker.fingerprint_digest = entry.fingerprint.digest;
    worker.model_epoch = entry.fingerprint.model_epoch;
    if (*served != net::frameResponse(worker))
        return "served frame differs from the worker path's frame";

    // Peel + decode the served frame and re-encode: byte-identical, so
    // reusing the stored bytes can never drift from a fresh encode of
    // the same response (CRC included).
    std::size_t consumed = 0;
    auto view = net::peelFrame(*served, &consumed);
    if (!view || consumed != served->size())
        return "served frame does not peel as exactly one frame";
    if (net::frameResponse(net::decodeResponse(view->payload)) != *served)
        return "decode -> re-encode of the served frame is not "
               "byte-identical";
    return std::nullopt;
}

TEST(PropRcuCache, ServedFrameEqualsTheWorkerPathFrame)
{
    Property<FrameCase> prop("rcu-cache-frame-oracle", genFrameCase,
                             checkFrameOracle);
    prop.withPrinter([](const FrameCase &frame_case) {
        return show(frame_case.freq) + "\n"
               + show(frame_case.entry.strategy);
    });
    OPDVFS_CHECK_PROP(prop);
}

// --- 3. concurrent readers / writers / epoch stress --------------------

/** What a reader parses back out of a self-describing frame. */
struct Described
{
    std::uint64_t digest = 0;
    std::uint64_t epoch = 0;
    std::string kind;
    std::uint64_t serial = 0;
};

std::optional<Described>
parseDescribed(const std::string &frame)
{
    std::istringstream in(frame);
    std::string digest_key, epoch_key, kind_key, serial_key;
    Described out;
    if (!(in >> digest_key >> out.digest >> epoch_key >> out.epoch
          >> kind_key >> out.kind >> serial_key >> out.serial)
        || digest_key != "digest" || epoch_key != "epoch"
        || kind_key != "kind" || serial_key != "serial"
        || !(in >> std::ws).eof())
        return std::nullopt;
    return out;
}

TEST(PropRcuCache, ConcurrentReadersNeverSeeTornStaleOrReplacedEntries)
{
    PropConfig config = PropConfig::fromEnv();
    // Scale thread-loop iterations with the case budget so the tsan
    // job (which raises OPDVFS_PROP_CASES) stresses harder.
    const int writer_ops = std::max(200, config.cases / 2);
    constexpr std::uint64_t kDigests = 32;

    serve::StrategyCache cache({.capacity = 16});
    std::atomic<std::uint64_t> epoch{0};
    std::atomic<bool> done{false};
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> next_serial{1};
    // Serial of the newest non-donor insert of each digest that has
    // returned: nothing older may be served once it is visible.
    std::array<std::atomic<std::uint64_t>, kDigests + 1> latest{};
    // One slot per reader, the last for the worker-side reader.
    std::vector<std::string> failures(5);

    serve::StrategyCache::FrameEncoder encode = [](const CacheEntry &entry) {
        return describe(entry);
    };
    auto makeEntry = [&](std::uint64_t digest, Kind kind,
                         std::uint64_t at_epoch) {
        CacheEntry entry;
        entry.fingerprint.digest = digest;
        entry.fingerprint.model_epoch = at_epoch;
        entry.fingerprint.features = {static_cast<double>(digest) / 32.0,
                                      0.5};
        entry.perf_loss_target = 0.02;
        entry.kind = kind;
        entry.ga.best_score = std::bit_cast<double>(
            next_serial.fetch_add(1, std::memory_order_relaxed));
        return entry;
    };
    auto insertTracked = [&](CacheEntry entry) {
        std::uint64_t digest = entry.fingerprint.digest;
        std::uint64_t serial =
            std::bit_cast<std::uint64_t>(entry.ga.best_score);
        bool donor = entry.kind == Kind::Donor;
        cache.insert(std::move(entry));
        if (!donor)
            latest[digest].store(serial, std::memory_order_release);
    };

    // Reactor readers: any hit must restate the requested digest and
    // epoch, never be a donor, and be no older than the newest insert
    // of that digest that had completed before the read began.
    std::vector<std::thread> readers;
    for (int t = 0; t < 4; ++t)
        readers.emplace_back([&, t] {
            Rng rng(caseSeed(config.seed, 1000 + t));
            std::size_t slot = cache.registerReader();
            std::string &failure = failures[static_cast<std::size_t>(t)];
            while (!done.load(std::memory_order_acquire)) {
                auto digest = static_cast<std::uint64_t>(
                    rng.uniformInt(1, static_cast<std::int64_t>(kDigests)));
                std::uint64_t at = epoch.load(std::memory_order_acquire);
                std::uint64_t floor =
                    latest[digest].load(std::memory_order_acquire);
                auto frame = cache.exactHitFrame(slot, digest, at, encode);
                if (!frame)
                    continue;
                hits.fetch_add(1, std::memory_order_relaxed);
                auto seen = parseDescribed(*frame);
                if (!seen)
                    failure = "torn frame '" + *frame + "'";
                else if (seen->digest != digest)
                    failure = "asked digest " + std::to_string(digest)
                              + ", got '" + *frame + "'";
                else if (seen->epoch != at)
                    failure = "asked epoch " + std::to_string(at)
                              + ", got '" + *frame + "'";
                else if (seen->kind == kindToken(Kind::Donor))
                    failure = "donor served: '" + *frame + "'";
                else if (seen->serial < floor)
                    failure = "replaced entry served: '" + *frame
                              + "', newest serial "
                              + std::to_string(floor);
                if (!failure.empty())
                    return;
            }
        });

    // Two writers, each owning the digests of one parity so a digest's
    // serials grow in insert order: owned inserts, predictions followed
    // by their upgrade, donors, and recomputes at the current epoch;
    // capacity 16 over 32 digests keeps evicting.
    std::vector<std::thread> writers;
    for (std::uint64_t parity = 0; parity < 2; ++parity)
        writers.emplace_back([&, parity] {
            Rng rng(caseSeed(config.seed, 2000 + static_cast<int>(parity)));
            for (int i = 0; i < writer_ops; ++i) {
                std::uint64_t digest =
                    2 * static_cast<std::uint64_t>(rng.uniformInt(
                            0, static_cast<std::int64_t>(kDigests / 2) - 1))
                    + 1 + parity;
                std::uint64_t at = epoch.load(std::memory_order_acquire);
                double roll = rng.uniform(0.0, 1.0);
                if (roll < 0.4) {
                    insertTracked(makeEntry(digest, Kind::Owned, at));
                } else if (roll < 0.7) {
                    insertTracked(makeEntry(digest, Kind::Predicted, at));
                    insertTracked(makeEntry(digest, Kind::Owned, at));
                } else if (roll < 0.85) {
                    insertTracked(makeEntry(digest, Kind::Donor, at));
                } else {
                    insertTracked(makeEntry(
                        digest, Kind::Predicted, at > 0 ? at - 1 : at));
                }
            }
        });

    // A worker-side reader on the mutex path alongside the reactors.
    std::thread worker([&] {
        Rng rng(caseSeed(config.seed, 3000));
        while (!done.load(std::memory_order_acquire)) {
            auto digest = static_cast<std::uint64_t>(
                rng.uniformInt(1, static_cast<std::int64_t>(kDigests)));
            cache.findExact(digest);
            cache.containsFresh(digest,
                                epoch.load(std::memory_order_acquire));
            serve::Fingerprint probe;
            probe.features = {static_cast<double>(digest) / 32.0, 0.5};
            cache.findSimilar(probe, 0.9, 0.02);
            if (cache.snapshotEntries().size() > 16) {
                failures[4] = "capacity exceeded";
                return;
            }
        }
    });

    std::thread advancer([&] {
        Rng rng(caseSeed(config.seed, 4000));
        for (int i = 0; i < writer_ops / 20; ++i) {
            epoch.fetch_add(1, std::memory_order_acq_rel);
            std::this_thread::sleep_for(
                std::chrono::microseconds(rng.uniformInt(50, 500)));
        }
    });

    for (std::thread &writer : writers)
        writer.join();
    advancer.join();

    // Tail phase at a stable epoch: on a loaded (or single-core) box
    // the racing phase can be all misses, so guarantee the hit path is
    // exercised before stopping the readers.
    std::uint64_t final_epoch = epoch.load(std::memory_order_acquire);
    for (std::uint64_t digest = 1; digest <= kDigests; ++digest)
        insertTracked(makeEntry(digest, Kind::Owned, final_epoch));
    for (int spin = 0; spin < 1000 && hits.load() == 0; ++spin)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));

    done.store(true, std::memory_order_release);
    for (std::thread &reader : readers)
        reader.join();
    worker.join();
    for (const std::string &failure : failures)
        EXPECT_TRUE(failure.empty()) << failure;
    // The stress must actually exercise the hit path.
    EXPECT_GT(hits.load(), 0u);

    // With every reader quiescent, the next write's reclamation
    // drains: no retired snapshot is pinned forever.
    insertTracked(makeEntry(1, Kind::Owned, final_epoch));
    EXPECT_EQ(cache.retiredSnapshots(), 0u);
}

} // namespace
