/**
 * @file
 * The AICore execution-timeline model: exact cycle counts for the four
 * scenarios of paper Sect. 4.2 (Eqs. 5-8), their symbolic convex
 * piecewise-linear form, and the resulting pipeline-utilisation ratios
 * the PMU reports.
 */

#ifndef OPDVFS_NPU_AICORE_TIMELINE_H
#define OPDVFS_NPU_AICORE_TIMELINE_H

#include "math/piecewise_linear.h"
#include "npu/memory_system.h"
#include "npu/op_params.h"

namespace opdvfs::npu {

/**
 * Busy-time fractions per pipeline over an operator's execution.
 * Core-domain pipes may overlap uncore transfers (PingPong), so the
 * sum may exceed 1; conversely stalls can push the sum below 1.
 */
struct PipelineRatios
{
    double cube = 0.0;
    double vector = 0.0;
    double scalar = 0.0;
    double mte1 = 0.0;
    /** Move-in (Ld) pipe; uncore domain. */
    double mte2 = 0.0;
    /** Move-out (St) pipe; uncore domain. */
    double mte3 = 0.0;

    double sum() const
    {
        return cube + vector + scalar + mte1 + mte2 + mte3;
    }
    double
    maxRatio() const;
};

/** Per-scenario timeline evaluation for one operator. */
class AicoreTimeline
{
  public:
    AicoreTimeline(const HwOpParams &params, const MemorySystem &memory);

    /**
     * Exact core-domain cycle count of the operator at @p f_mhz
     * (Eqs. 5-8).  Only meaningful for Compute operators.
     */
    double cycles(double f_mhz) const;

    /** Wall-clock duration at @p f_mhz; fixed for non-Compute ops. */
    double seconds(double f_mhz) const;

    /**
     * Symbolic Cycle(f) as a convex PWL function of frequency in Hz.
     * Demonstrates the paper's central analytic claim; also used for
     * breakpoint analysis in benches and tests.
     */
    math::ConvexPwl cyclePwl() const;

    /** Ground-truth PMU pipeline ratios at @p f_mhz. */
    PipelineRatios ratios(double f_mhz) const;

    /** Cycles of one Ld transfer at @p f_mhz, incl. T0 (Eq. 4). */
    double ldCycles(double f_mhz) const;

    /** Cycles of one St transfer at @p f_mhz, incl. T0 (Eq. 4). */
    double stCycles(double f_mhz) const;

    /** The operator parameters this timeline evaluates. */
    const HwOpParams &params() const { return params_; }

  private:
    double cyclesScenario(double f_hz) const;
    math::ConvexPwl cyclePwlScenario() const;

    HwOpParams params_;
    LdStCycleCoefficients ld_;
    LdStCycleCoefficients st_;
};

} // namespace opdvfs::npu

#endif // OPDVFS_NPU_AICORE_TIMELINE_H
