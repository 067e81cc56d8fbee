/**
 * @file
 * Seeded, size-bounded random-input generators shared by the property
 * suites (tests/prop_*) and the fuzz drivers.
 *
 * Everything is a pure function of the Rng handed in, so a property
 * failure replays from its case seed alone.  Generators stay inside
 * physically plausible ranges: the paper's invariants (convexity,
 * monotonicity, fix-point contraction) are claims about realisable
 * operating points, not about arbitrary float soup — the fuzz drivers
 * (check/fuzz.h) cover the garbage-input side.
 */

#ifndef OPDVFS_CHECK_GENERATORS_H
#define OPDVFS_CHECK_GENERATORS_H

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "dvfs/preprocess.h"
#include "dvfs/strategy_io.h"
#include "models/workload.h"
#include "net/wire.h"
#include "npu/freq_table.h"
#include "npu/npu_chip.h"
#include "perf/perf_model.h"
#include "power/power_model.h"
#include "trace/profiler.h"

namespace opdvfs::check {

/** Random supported-frequency table: 2..9 points, non-negative V-F slope. */
npu::FreqTableConfig genFreqTableConfig(Rng &rng);

/**
 * Random chip configuration with a bounded thermal/power parameter
 * space chosen so the Sect. 5.4.2 fix point stays a contraction
 * (k * gamma_soc * V well below 1), matching real silicon.
 */
npu::NpuConfig genChipConfig(Rng &rng);

/**
 * Random calibrated power-model constants in the same contraction-safe
 * ranges (for model-level oracles that need no simulator run).
 */
power::CalibratedConstants genConstants(Rng &rng);

/** Random per-operator activity factors. */
power::OpPowerModel genOpPower(Rng &rng);

/**
 * Hidden ground truth of one synthetic operator: duration decomposes
 * into a frequency-invariant part and a core-cycle part, so its exact
 * time at any frequency is known in closed form:
 *
 *     T(f) = const_seconds + cycle_seconds_ghz / f_ghz
 */
struct SyntheticOp
{
    std::uint64_t id = 0;
    std::string type;
    npu::OpCategory category = npu::OpCategory::Compute;
    /** Drives the profiled pipeline ratios (core vs uncore bound). */
    bool sensitive = true;
    double const_seconds = 0.0;
    double cycle_seconds_ghz = 0.0;
    double alpha_aicore = 0.0;
    double alpha_soc = 0.0;

    /** Exact duration at @p mhz, seconds. */
    double durationAt(double mhz) const;
};

/** A synthetic operator stream with closed-form timing. */
struct SyntheticWorkload
{
    std::vector<SyntheticOp> ops;

    /** Noise-free profiled records at @p mhz, contiguous timeline. */
    std::vector<trace::OpRecord> recordsAt(double mhz) const;
};

/** Random synthetic op stream of [min_ops, max_ops] operators. */
SyntheticWorkload genSyntheticWorkload(Rng &rng, int min_ops, int max_ops);

/**
 * A complete tiny optimisation problem: stages from preprocessing,
 * per-operator perf models fitted on two noise-free profiles, random
 * power constants and activity factors.  Small enough (bounded stages
 * x frequencies) for exhaustive strategy enumeration.
 */
struct TinyProblem
{
    SyntheticWorkload workload;
    npu::FreqTableConfig freq;
    power::CalibratedConstants constants;
    std::vector<dvfs::Stage> stages;
    perf::PerfModelRepository perf;
    std::unordered_map<std::uint64_t, power::OpPowerModel> op_power;
    double perf_loss_target = 0.02;
};

/**
 * Generate a tiny problem with @p min_stages to @p max_stages candidate
 * stages and at most @p max_freqs table frequencies.
 */
TinyProblem genTinyProblem(Rng &rng, int max_stages, int max_freqs,
                           int min_stages = 1);

/**
 * Random preprocessable record stream: contiguous, time-ordered,
 * mixing frequency-sensitive/insensitive compute with AICPU,
 * communication and idle records.
 */
std::vector<trace::OpRecord> genRecordStream(Rng &rng, int min_ops,
                                             int max_ops);

/** Random valid strategy against @p table (always validates clean). */
dvfs::Strategy genStrategy(Rng &rng, const npu::FreqTable &table);

/** Random real workload via OpFactory (for simulator-backed oracles). */
models::Workload genWorkload(Rng &rng, const npu::MemorySystem &memory,
                             int min_ops, int max_ops);

/** One valid wire request (sometimes carrying a deadline) for the
 *  default chip, over a small generated workload. */
net::WireRequest genWireRequest(Rng &rng);

/**
 * One valid wire frame: a framed request (sometimes carrying a
 * deadline) or a framed response covering every status — including
 * Busy frames with each RejectReason and a retry_after_ms hint.
 * Shared by the wire fuzz corpus and prop_net's chaos-split decode
 * oracle, so both harnesses exercise the same frame population.
 */
std::string genWireFrame(Rng &rng, const net::WireLimits &limits);

// --- printers (counterexample literals) --------------------------------

std::string show(const npu::FreqTableConfig &config);
std::string show(const npu::NpuConfig &config);
std::string show(const power::CalibratedConstants &constants);
std::string show(const SyntheticWorkload &workload);
std::string show(const TinyProblem &problem);
std::string show(const std::vector<trace::OpRecord> &records);
std::string show(const dvfs::Strategy &strategy);
std::string show(const models::Workload &workload);

// --- shrinking helpers -------------------------------------------------

/**
 * Candidate smaller vectors: both halves, then (for short vectors)
 * every all-but-one subsequence.
 */
template <typename T>
std::vector<std::vector<T>>
shrinkVector(const std::vector<T> &v)
{
    std::vector<std::vector<T>> out;
    if (v.size() <= 1)
        return out;
    std::size_t half = v.size() / 2;
    out.emplace_back(v.begin(), v.begin() + half);
    out.emplace_back(v.begin() + half, v.end());
    if (v.size() <= 32) {
        for (std::size_t skip = 0; skip < v.size(); ++skip) {
            std::vector<T> smaller;
            smaller.reserve(v.size() - 1);
            for (std::size_t i = 0; i < v.size(); ++i) {
                if (i != skip)
                    smaller.push_back(v[i]);
            }
            out.push_back(std::move(smaller));
        }
    }
    return out;
}

/** Shrink a synthetic workload by dropping operators (ids re-packed). */
std::vector<SyntheticWorkload> shrinkWorkload(const SyntheticWorkload &w);

/** Shrink a strategy by dropping stages and triggers. */
std::vector<dvfs::Strategy> shrinkStrategy(const dvfs::Strategy &s);

} // namespace opdvfs::check

#endif // OPDVFS_CHECK_GENERATORS_H
