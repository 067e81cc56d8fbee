/**
 * @file
 * Paper-derived invariant oracles.
 *
 * Each oracle takes one generated input and returns std::nullopt when
 * the invariant holds, or a human-readable violation message.  They
 * are plain deterministic functions, shared between the property
 * suites (tests/prop_*), the fuzz drivers (check/fuzz.h) and any unit
 * test that wants to pin a regression counterexample.
 *
 * The invariants and where they come from:
 *
 *  - checkPerfCurveShape     Eqs. 1-8: op time T(f) positive, finite,
 *                            non-increasing in f; cycles f*T(f) convex.
 *  - checkFitRecovery        two noise-free profiles recover the
 *                            synthetic ground truth T(f) exactly.
 *  - checkPowerInvariants    Eqs. 11-15: power positive, SoC >= AICore,
 *                            monotone along the V-F curve.
 *  - checkThermalFixPoint    Sect. 5.4.2: the dT fix point converges,
 *                            is consistent (dT ~= k * Psoc) and
 *                            deterministic.
 *  - checkThermalRelaxation  first-order RC: monotone approach to
 *                            equilibrium, exact step composition,
 *                            idempotence at the fix point.
 *  - checkPreprocessInvariants  Sect. 6.2: stages partition the
 *                            timeline, ops partition the stream, no
 *                            stage under the FAI (single-stage output
 *                            excepted), majority-vote stage kind.
 *  - checkGaOptimality       Eq. 17 scoring: the GA never scores above
 *                            the exhaustive optimum on tiny instances,
 *                            and reaches it.
 *  - checkRoutedSearchIsExact  searchStrategy, which enumerates spaces
 *                            inside the GA's budget, returns that
 *                            optimum bit for bit.
 *  - checkStrategyRoundTrip  save -> load -> save is byte-stable.
 *  - checkModelVsSimulator   the analytical models track the cycle
 *                            simulator within the paper's error bands
 *                            (1.96% time, 4.62% power).
 *  - checkServiceCacheEquivalence  exact hits return the cold result;
 *                            epoch-advanced warm starts never score
 *                            below their donor.
 */

#ifndef OPDVFS_CHECK_ORACLES_H
#define OPDVFS_CHECK_ORACLES_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "check/generators.h"
#include "dvfs/preprocess.h"
#include "dvfs/strategy_io.h"
#include "models/workload.h"
#include "npu/freq_table.h"
#include "npu/thermal.h"
#include "perf/perf_model.h"
#include "power/power_model.h"

namespace opdvfs::check {

/** Paper accuracy bands (Sect. 7.2 / 7.3 means). */
inline constexpr double kPerfErrorBand = 0.0196;
inline constexpr double kPowerErrorBand = 0.0462;

/** T(f) finite/positive/non-increasing; cycles f*T(f) convex. */
std::optional<std::string>
checkPerfCurveShape(const perf::OpPerfModel &model,
                    const npu::FreqTable &table);

/**
 * Fit two-point noise-free profiles of @p workload against the table
 * of @p freq and check every fitted model: exact recovery of the
 * synthetic ground truth plus the curve-shape invariants.
 */
std::optional<std::string>
checkFitRecovery(const SyntheticWorkload &workload,
                 const npu::FreqTableConfig &freq);

/** Power positivity, SoC dominance, monotonicity along the V-F curve. */
std::optional<std::string>
checkPowerInvariants(const power::PowerModel &model,
                     const power::OpPowerModel &op);

/** Fix-point convergence, consistency and determinism at every f. */
std::optional<std::string>
checkThermalFixPoint(const power::PowerModel &model,
                     const power::OpPowerModel &op);

/** RC relaxation: monotone, composable, idempotent at equilibrium. */
std::optional<std::string>
checkThermalRelaxation(const npu::ThermalConfig &config,
                       double p_soc_watts);

/** Timeline/stream partition, FAI floor, majority-vote stage kind. */
std::optional<std::string>
checkPreprocessInvariants(const std::vector<trace::OpRecord> &records,
                          const dvfs::PreprocessOptions &options);

/** GA score vs exhaustive enumeration on a tiny instance. */
std::optional<std::string> checkGaOptimality(const TinyProblem &problem);

/** searchStrategy's score vs the same enumeration, bit for bit. */
std::optional<std::string>
checkRoutedSearchIsExact(const TinyProblem &problem);

/** save -> load -> save byte stability (+ device validation). */
std::optional<std::string>
checkStrategyRoundTrip(const dvfs::Strategy &strategy,
                       const npu::FreqTable *table);

/**
 * Differential oracle: profile @p workload noise-free on the shared
 * differential chip at the table bottom / middle / top, fit the
 * analytical models, and compare their predictions at a held-out
 * frequency against the simulator's measurement — mean per-operator
 * time within the 1.96% band; SoC power (calibrated from the endpoint
 * runs) within the 4.62% band at mid-table.
 */
std::optional<std::string>
checkModelVsSimulator(const models::Workload &workload,
                      std::uint64_t seed);

/**
 * Service oracle on the shared differential chip: a repeated request
 * is an exact hit byte-identical to the cold answer (modulo the
 * provenance token); after advanceModelEpoch() the same request is
 * recomputed as a warm start with similarity 1.0 and never scores
 * below the donor.
 */
std::optional<std::string>
checkServiceCacheEquivalence(const models::Workload &workload,
                             std::uint64_t seed);

/**
 * The chip the differential oracles run against: default device with
 * a short thermal time constant so a sub-second warm-up reaches
 * thermal steady state.  Offline calibration runs once per process.
 */
const npu::NpuConfig &differentialChip();
const power::CalibratedConstants &differentialConstants();

} // namespace opdvfs::check

#endif // OPDVFS_CHECK_ORACLES_H
