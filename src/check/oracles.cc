#include "check/oracles.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <sstream>

#include "dvfs/evaluator.h"
#include "dvfs/genetic.h"
#include "math/piecewise_linear.h"
#include "power/offline_calibration.h"
#include "power/online_calibration.h"
#include "serve/service.h"
#include "trace/workload_runner.h"

namespace opdvfs::check {

namespace {

/** Failure message builder with full float precision. */
class Fail
{
  public:
    Fail() { os_.precision(17); }

    template <typename T>
    Fail &
    operator<<(const T &value)
    {
        os_ << value;
        return *this;
    }

    operator std::optional<std::string>() const { return os_.str(); }

  private:
    std::ostringstream os_;
};

bool
closeRel(double a, double b, double rel)
{
    return std::abs(a - b) <= rel * std::max(std::abs(a), std::abs(b))
        + 1e-300;
}

/** The Eq. 17 lower bound a search of @p problem scores against. */
double
perfLowerBound(const dvfs::StageEvaluator &evaluator,
               const TinyProblem &problem)
{
    return 1e-6 / evaluator.evaluateBaseline().seconds
        * (1.0 - problem.perf_loss_target);
}

/** Exhaustive enumeration: the ground-truth optimum score. */
double
exhaustiveOptimum(const dvfs::StageEvaluator &evaluator,
                  double per_lower_bound)
{
    const std::size_t stages = evaluator.stageCount();
    const std::size_t freqs = evaluator.freqCount();
    std::vector<std::uint8_t> genome(stages, 0);
    double best = -1.0;
    while (true) {
        double score = dvfs::strategyScore(evaluator.evaluate(genome),
                                           per_lower_bound);
        best = std::max(best, score);
        std::size_t digit = 0;
        while (digit < stages) {
            if (++genome[digit] < freqs)
                break;
            genome[digit] = 0;
            ++digit;
        }
        if (digit == stages)
            return best;
    }
}

/** Search options for tiny problems: a budget of 24 x 32 genomes. */
dvfs::GaOptions
tinySearchOptions(const TinyProblem &problem)
{
    dvfs::GaOptions options;
    options.population = 24;
    options.generations = 32;
    options.refine_sweeps = 4;
    options.perf_loss_target = problem.perf_loss_target;
    options.seed = 11;
    return options;
}

} // namespace

std::optional<std::string>
checkPerfCurveShape(const perf::OpPerfModel &model,
                    const npu::FreqTable &table)
{
    const std::vector<double> freqs = table.frequenciesMhz();
    std::vector<double> seconds;
    std::vector<double> cycles; // in seconds * GHz
    seconds.reserve(freqs.size());
    cycles.reserve(freqs.size());
    for (double f : freqs) {
        double t = model.predictSeconds(f);
        if (!std::isfinite(t))
            return Fail() << "op " << model.op_id << ": T(" << f
                          << ") is not finite";
        if (t <= 0.0)
            return Fail() << "op " << model.op_id << ": T(" << f
                          << ") = " << t << " is not positive";
        seconds.push_back(t);
        cycles.push_back(t * f / 1000.0);
    }

    // Cycle(f) = f * T(f) never decreases with frequency: a faster
    // core cannot need fewer cycles for the same work (Eqs. 5-8).
    for (std::size_t i = 1; i < freqs.size(); ++i) {
        if (cycles[i] < cycles[i - 1] * (1.0 - 1e-9) - 1e-15) {
            return Fail() << "op " << model.op_id << ": cycles decrease "
                          << cycles[i - 1] << " -> " << cycles[i]
                          << " from " << freqs[i - 1] << " to " << freqs[i]
                          << " MHz";
        }
    }

    // Cycle(f) is convex (sums and maxima of affine terms).
    if (!math::isConvexSamples(freqs, cycles, 1e-7)) {
        return Fail() << "op " << model.op_id
                      << ": cycle curve is not convex over the table";
    }

    // No operating point is slower than the slowest frequency: T is
    // convex with T(f_min) interpolating the slowest measurement.
    for (std::size_t i = 1; i < freqs.size(); ++i) {
        if (seconds[i] > seconds[0] * (1.0 + 1e-9) + 1e-15) {
            return Fail() << "op " << model.op_id << ": T(" << freqs[i]
                          << ") = " << seconds[i] << " exceeds T(f_min) = "
                          << seconds[0];
        }
    }
    return std::nullopt;
}

std::optional<std::string>
checkFitRecovery(const SyntheticWorkload &workload,
                 const npu::FreqTableConfig &freq)
{
    if (workload.ops.empty())
        return std::nullopt;
    npu::FreqTable table(freq);

    // Two noise-free profiles at the table extremes.
    perf::PerfModelRepository repo;
    repo.addProfile(table.minMhz(), workload.recordsAt(table.minMhz()));
    repo.addProfile(table.maxMhz(), workload.recordsAt(table.maxMhz()));

    // The synthetic ground truth T(f) = const + cycles/f is exactly
    // the StallOverF family, so its two-point fit must recover every
    // operator's true duration at *every* table frequency.
    perf::PerfBuildOptions stall;
    stall.kind = perf::FitFunction::StallOverF;
    repo.fitAll(stall);
    for (const SyntheticOp &op : workload.ops) {
        const perf::OpPerfModel *model = repo.find(op.id);
        if (!model)
            return Fail() << "op " << op.id << ": no fitted model";
        for (double f : table.frequenciesMhz()) {
            double truth = op.durationAt(f);
            double predicted = model->predictSeconds(f);
            if (!closeRel(predicted, truth, 1e-6)) {
                return Fail()
                    << "op " << op.id << " (" << op.type
                    << "): StallOverF fit predicts " << predicted
                    << " s at " << f << " MHz, ground truth " << truth;
            }
        }
        if (auto failure = checkPerfCurveShape(*model, table))
            return Fail() << "StallOverF: " << *failure;
    }

    // The production family (QuadOverF) must interpolate the profiled
    // points exactly (closed-form two-point solve) and keep the curve
    // shape between them.
    perf::PerfBuildOptions quad;
    quad.kind = perf::FitFunction::QuadOverF;
    repo.fitAll(quad);
    for (const SyntheticOp &op : workload.ops) {
        const perf::OpPerfModel *model = repo.find(op.id);
        if (!model)
            return Fail() << "op " << op.id << ": no fitted model";
        for (double f : {table.minMhz(), table.maxMhz()}) {
            double truth = op.durationAt(f);
            double predicted = model->predictSeconds(f);
            if (!closeRel(predicted, truth, 1e-6)) {
                return Fail()
                    << "op " << op.id << " (" << op.type
                    << "): QuadOverF fit misses its own fit point: "
                    << predicted << " s at " << f << " MHz, measured "
                    << truth;
            }
        }
        if (auto failure = checkPerfCurveShape(*model, table))
            return Fail() << "QuadOverF: " << *failure;
    }
    return std::nullopt;
}

std::optional<std::string>
checkPowerInvariants(const power::PowerModel &model,
                     const power::OpPowerModel &op)
{
    const npu::FreqTable &table = model.table();
    double prev_aicore = 0.0;
    double prev_soc = 0.0;
    double prev_x = -1.0;
    for (double f : table.frequenciesMhz()) {
        power::PowerPrediction p = model.predict(op, f);
        if (!std::isfinite(p.aicore_watts) || !std::isfinite(p.soc_watts)
            || !std::isfinite(p.delta_t)) {
            return Fail() << "non-finite prediction at " << f << " MHz";
        }
        if (p.aicore_watts <= 0.0)
            return Fail() << "AICore power " << p.aicore_watts << " at "
                          << f << " MHz is not positive";
        if (p.soc_watts < p.aicore_watts) {
            return Fail() << "SoC power " << p.soc_watts
                          << " below AICore power " << p.aicore_watts
                          << " at " << f << " MHz";
        }
        if (p.delta_t < 0.0)
            return Fail() << "negative temperature rise " << p.delta_t
                          << " at " << f << " MHz";

        // Dynamic power scales with f V^2 and V never falls with f,
        // so total power is monotone along the V-F curve (Eq. 11).
        double volts = table.voltageFor(f);
        double x = f * volts * volts;
        if (x < prev_x * (1.0 - 1e-12))
            return Fail() << "f V^2 not monotone along the table at " << f
                          << " MHz";
        if (p.aicore_watts < prev_aicore * (1.0 - 1e-9)) {
            return Fail() << "AICore power falls from " << prev_aicore
                          << " to " << p.aicore_watts << " at " << f
                          << " MHz";
        }
        if (p.soc_watts < prev_soc * (1.0 - 1e-9)) {
            return Fail() << "SoC power falls from " << prev_soc << " to "
                          << p.soc_watts << " at " << f << " MHz";
        }
        prev_aicore = p.aicore_watts;
        prev_soc = p.soc_watts;
        prev_x = x;
    }
    return std::nullopt;
}

std::optional<std::string>
checkThermalFixPoint(const power::PowerModel &model,
                     const power::OpPowerModel &op)
{
    const power::CalibratedConstants &constants = model.constants();
    for (double f : model.table().frequenciesMhz()) {
        power::PowerPrediction p = model.predict(op, f);
        if (p.iterations < 1 || p.iterations > 16) {
            return Fail() << "fix point used " << p.iterations
                          << " iterations at " << f << " MHz";
        }
        // Converged means the Eq. 15 residual is inside the stopping
        // threshold: dT tracks k * Psoc to better than 0.01 K * q.
        double residual =
            std::abs(constants.k_per_watt * p.soc_watts - p.delta_t);
        if (residual > 0.01) {
            return Fail() << "fix-point residual |k Psoc - dT| = "
                          << residual << " K at " << f
                          << " MHz (iterations " << p.iterations << ")";
        }
        // The prediction is a pure function: evaluating again must
        // reproduce the fix point bit for bit.
        power::PowerPrediction q = model.predict(op, f);
        if (q.soc_watts != p.soc_watts || q.aicore_watts != p.aicore_watts
            || q.delta_t != p.delta_t || q.iterations != p.iterations) {
            return Fail() << "fix point is not deterministic at " << f
                          << " MHz";
        }
    }
    return std::nullopt;
}

std::optional<std::string>
checkThermalRelaxation(const npu::ThermalConfig &config,
                       double p_soc_watts)
{
    npu::ThermalModel model(config);
    double equilibrium = model.equilibrium(p_soc_watts);
    if (!std::isfinite(equilibrium))
        return Fail() << "non-finite equilibrium";
    if (equilibrium < config.ambient_celsius - 1e-9) {
        return Fail() << "equilibrium " << equilibrium
                      << " below ambient " << config.ambient_celsius
                      << " under " << p_soc_watts << " W";
    }

    // Monotone approach without overshoot.
    double step = config.time_constant_s / 2.0;
    double previous = model.temperature();
    for (int i = 0; i < 8; ++i) {
        model.advance(step, p_soc_watts);
        double now = model.temperature();
        if (now < previous - 1e-9)
            return Fail() << "temperature fell " << previous << " -> "
                          << now << " while heating";
        if (now > equilibrium + 1e-9)
            return Fail() << "temperature " << now
                          << " overshot equilibrium " << equilibrium;
        previous = now;
    }

    // The update is the exact first-order solution, so two half steps
    // compose to one full step.
    npu::ThermalModel halves(config);
    npu::ThermalModel whole(config);
    halves.advance(step, p_soc_watts);
    halves.advance(step, p_soc_watts);
    whole.advance(2.0 * step, p_soc_watts);
    if (!closeRel(halves.temperature() - config.ambient_celsius + 1.0,
                  whole.temperature() - config.ambient_celsius + 1.0,
                  1e-9)) {
        return Fail() << "step composition broken: two half steps give "
                      << halves.temperature() << ", one full step "
                      << whole.temperature();
    }

    // Idempotence at the fix point: from (numerical) equilibrium,
    // advancing further does not move the temperature.
    npu::ThermalModel settled(config);
    settled.advance(100.0 * config.time_constant_s, p_soc_watts);
    double at_equilibrium = settled.temperature();
    settled.advance(config.time_constant_s, p_soc_watts);
    if (std::abs(settled.temperature() - at_equilibrium) > 1e-6) {
        return Fail() << "equilibrium not idempotent: " << at_equilibrium
                      << " -> " << settled.temperature();
    }
    return std::nullopt;
}

std::optional<std::string>
checkPreprocessInvariants(const std::vector<trace::OpRecord> &records,
                          const dvfs::PreprocessOptions &options)
{
    if (records.empty())
        return std::nullopt;
    dvfs::PreprocessResult result = dvfs::preprocess(records, options);

    if (result.bottlenecks.size() != records.size()) {
        return Fail() << "bottlenecks " << result.bottlenecks.size()
                      << " != records " << records.size();
    }
    if (result.stages.empty())
        return Fail() << "no stages from " << records.size() << " records";
    if (result.lfcCount() + result.hfcCount() != result.stages.size())
        return Fail() << "LFC + HFC counts do not add up";

    // Stages partition the profiled timeline without gaps or overlap
    // (the generated streams are contiguous).
    Tick cursor = records.front().start;
    for (std::size_t s = 0; s < result.stages.size(); ++s) {
        const dvfs::Stage &stage = result.stages[s];
        if (stage.duration <= 0)
            return Fail() << "stage " << s << " has non-positive duration";
        if (stage.start != cursor) {
            return Fail() << "stage " << s << " starts at " << stage.start
                          << ", expected " << cursor
                          << " (gap or overlap)";
        }
        cursor = stage.start + stage.duration;
    }
    if (cursor != records.back().end) {
        return Fail() << "stages end at " << cursor
                      << ", records end at " << records.back().end;
    }

    // Operators partition the stream in order.
    std::size_t next_record = 0;
    for (std::size_t s = 0; s < result.stages.size(); ++s) {
        const dvfs::Stage &stage = result.stages[s];
        if (stage.op_ids.empty())
            return Fail() << "stage " << s << " holds no operators";
        if (stage.first_op != next_record) {
            return Fail() << "stage " << s << " first_op " << stage.first_op
                          << ", expected " << next_record;
        }
        for (std::uint64_t op_id : stage.op_ids) {
            if (next_record >= records.size())
                return Fail() << "stages hold more ops than records";
            if (records[next_record].op_id != op_id) {
                return Fail() << "stage " << s << " lists op " << op_id
                              << " where the stream has op "
                              << records[next_record].op_id;
            }
            ++next_record;
        }
    }
    if (next_record != records.size()) {
        return Fail() << "stages cover " << next_record << " of "
                      << records.size() << " records";
    }

    // FAI floor (Sect. 6.2 step 4): merging leaves no stage shorter
    // than the adjustment interval, except a single-stage result made
    // of one short iteration.  Re-running the merge on its own output
    // therefore changes nothing (idempotence).
    for (std::size_t s = 0; s < result.stages.size(); ++s) {
        if (result.stages[s].duration < options.fai
            && result.stages.size() > 1) {
            return Fail() << "stage " << s << " duration "
                          << result.stages[s].duration
                          << " is under the FAI " << options.fai;
        }
    }

    for (std::size_t s = 0; s < result.stages.size(); ++s) {
        const dvfs::Stage &stage = result.stages[s];
        // Majority vote: the merged kind follows the dominant time.
        bool expect_high =
            stage.sensitive_seconds >= stage.insensitive_seconds;
        if (stage.high_frequency != expect_high) {
            return Fail() << "stage " << s << " kind "
                          << (stage.high_frequency ? "hfc" : "lfc")
                          << " contradicts sensitive/insensitive split "
                          << stage.sensitive_seconds << " / "
                          << stage.insensitive_seconds;
        }
    }

    // Determinism: preprocessing is a pure function of its input.
    dvfs::PreprocessResult again = dvfs::preprocess(records, options);
    if (again.stages.size() != result.stages.size())
        return Fail() << "preprocess is not deterministic (stage count)";
    for (std::size_t s = 0; s < result.stages.size(); ++s) {
        if (again.stages[s].start != result.stages[s].start
            || again.stages[s].duration != result.stages[s].duration
            || again.stages[s].high_frequency
                != result.stages[s].high_frequency
            || again.stages[s].op_ids != result.stages[s].op_ids) {
            return Fail() << "preprocess is not deterministic (stage " << s
                          << ")";
        }
    }
    return std::nullopt;
}

std::optional<std::string>
checkGaOptimality(const TinyProblem &problem)
{
    npu::FreqTable table(problem.freq);
    power::PowerModel power_model(problem.constants, table);
    dvfs::StageEvaluator evaluator(problem.stages, problem.perf,
                                   power_model, problem.op_power, table);
    const std::size_t stages = evaluator.stageCount();
    const std::size_t freqs = evaluator.freqCount();
    if (stages == 0)
        return Fail() << "tiny problem produced no stages";

    double per_lower_bound = perfLowerBound(evaluator, problem);
    double best_exhaustive = exhaustiveOptimum(evaluator, per_lower_bound);

    dvfs::GaResult ga = dvfs::geneticSearch(evaluator, problem.stages,
                                            tinySearchOptions(problem));

    // Soundness: the GA can never beat the true optimum.
    if (ga.best_score > best_exhaustive * (1.0 + 1e-9) + 1e-12) {
        return Fail() << "GA score " << ga.best_score
                      << " exceeds the exhaustive optimum "
                      << best_exhaustive;
    }
    // Completeness: on tiny instances the search budget covers the
    // whole genome space many times over, so it finds the optimum.
    if (ga.best_score < best_exhaustive * (1.0 - 1e-9) - 1e-12) {
        return Fail() << "GA score " << ga.best_score
                      << " misses the exhaustive optimum "
                      << best_exhaustive << " (" << stages << " stages x "
                      << freqs << " freqs)";
    }

    // Reported artefacts are consistent: the best genome re-evaluates
    // to the reported score, and the history never regresses.
    double rescored = dvfs::strategyScore(evaluator.evaluate(ga.best_genome),
                                          per_lower_bound);
    if (rescored != ga.best_score) {
        return Fail() << "best genome rescores to " << rescored
                      << ", reported " << ga.best_score;
    }
    if (ga.best_genome.size() != stages || ga.best_mhz.size() != stages)
        return Fail() << "best genome/frequency shape mismatch";
    for (std::size_t s = 0; s < stages; ++s) {
        if (ga.best_mhz[s] != evaluator.frequenciesMhz()[ga.best_genome[s]])
            return Fail() << "best_mhz[" << s << "] does not match genome";
    }
    for (std::size_t g = 1; g < ga.score_history.size(); ++g) {
        if (ga.score_history[g] < ga.score_history[g - 1]) {
            return Fail() << "score history regresses at generation " << g;
        }
    }
    if (ga.best_score < ga.pre_refine_score)
        return Fail() << "refinement lowered the score";
    return std::nullopt;
}

std::optional<std::string>
checkRoutedSearchIsExact(const TinyProblem &problem)
{
    npu::FreqTable table(problem.freq);
    power::PowerModel power_model(problem.constants, table);
    dvfs::StageEvaluator evaluator(problem.stages, problem.perf,
                                   power_model, problem.op_power, table);
    double best_exhaustive = exhaustiveOptimum(
        evaluator, perfLowerBound(evaluator, problem));
    dvfs::GaResult routed = dvfs::searchStrategy(evaluator, problem.stages,
                                                 tinySearchOptions(problem));
    if (std::bit_cast<std::uint64_t>(routed.best_score)
        != std::bit_cast<std::uint64_t>(best_exhaustive)) {
        return Fail() << "searchStrategy score " << routed.best_score
                      << " is not the exhaustive optimum "
                      << best_exhaustive << " bit for bit ("
                      << evaluator.stageCount() << " stages x "
                      << evaluator.freqCount() << " freqs)";
    }
    return std::nullopt;
}

std::optional<std::string>
checkStrategyRoundTrip(const dvfs::Strategy &strategy,
                       const npu::FreqTable *table)
{
    std::ostringstream first;
    dvfs::saveStrategy(strategy, first);

    dvfs::Strategy loaded;
    try {
        std::istringstream is(first.str());
        loaded = dvfs::loadStrategy(is, table);
    } catch (const std::exception &error) {
        return Fail() << "saved strategy fails to load: " << error.what();
    }

    if (loaded.stages.size() != strategy.stages.size()
        || loaded.mhz_per_stage != strategy.mhz_per_stage
        || loaded.plan.triggers.size() != strategy.plan.triggers.size()
        || loaded.plan.initial_mhz != strategy.plan.initial_mhz
        || loaded.meta.has_value() != strategy.meta.has_value()) {
        return Fail() << "loaded strategy differs from the saved one";
    }

    std::ostringstream second;
    dvfs::saveStrategy(loaded, second);
    if (first.str() != second.str()) {
        return Fail() << "save -> load -> save is not byte-stable:\n"
                      << "first:\n" << first.str() << "second:\n"
                      << second.str();
    }
    return std::nullopt;
}

const npu::NpuConfig &
differentialChip()
{
    static const npu::NpuConfig chip = [] {
        npu::NpuConfig config;
        // Short package time constant: thermal steady state inside a
        // sub-second warm-up, so each differential case stays cheap
        // while the equilibrium (what the models predict) is exactly
        // the stock device's — the fixed point does not depend on how
        // fast the exponential approaches it.
        config.thermal.time_constant_s = 0.02;
        return config;
    }();
    return chip;
}

const power::CalibratedConstants &
differentialConstants()
{
    static const power::CalibratedConstants constants =
        power::calibrateOffline(differentialChip());
    return constants;
}

namespace {

trace::RunOptions
noiseFreeRun(double mhz, std::uint64_t seed)
{
    trace::RunOptions options;
    options.initial_mhz = mhz;
    // 7.5 thermal time constants on the differential chip: the die is
    // within e^-7.5 (~0.05%) of steady state when measurement starts.
    options.warmup_seconds = 0.15;
    options.profiler_noise.duration_sigma = 0.0;
    options.profiler_noise.ratio_sigma = 0.0;
    options.sampler_noise.power_sigma = 0.0;
    options.sampler_noise.temperature_step = 0.0;
    options.seed = seed;
    return options;
}

} // namespace

std::optional<std::string>
checkModelVsSimulator(const models::Workload &workload, std::uint64_t seed)
{
    if (workload.iteration.empty())
        return std::nullopt;
    const npu::NpuConfig &chip = differentialChip();
    npu::FreqTable table(chip.freq);
    trace::WorkloadRunner runner(chip);

    // Profile noise-free at the paper's three fit points (table
    // bottom, middle, top), validate at a held-out frequency between
    // the middle and the top.  Two fit points are not enough here: a
    // quadratic-over-f curve pinned only at the endpoints undershoots
    // constant-time operators by up to (f1+f2-2*sqrt(f1*f2))/(f1+f2)
    // (~4.2% for 1000/1800 MHz) in the middle of the range, which is
    // an artefact of the fit family, not a model/simulator mismatch.
    std::vector<double> freqs = table.frequenciesMhz();
    std::size_t mid_index = freqs.size() / 2;
    std::size_t held_index = (mid_index + freqs.size() - 1) / 2;
    if (held_index <= mid_index || held_index + 1 >= freqs.size())
        return std::nullopt; // table too small for a held-out point
    double f_mid = freqs[mid_index];
    double f_held = freqs[held_index];

    trace::RunResult low =
        runner.run(workload, noiseFreeRun(1000.0, seed));
    trace::RunResult high =
        runner.run(workload, noiseFreeRun(1800.0, seed + 1));
    trace::RunResult mid =
        runner.run(workload, noiseFreeRun(f_mid, seed + 2));
    trace::RunResult held =
        runner.run(workload, noiseFreeRun(f_held, seed + 3));

    perf::PerfModelRepository repo;
    repo.addProfile(1000.0, low.records);
    repo.addProfile(f_mid, mid.records);
    repo.addProfile(1800.0, high.records);
    repo.fitAll();

    std::vector<perf::PerfError> errors =
        repo.evaluate(f_held, held.records);
    if (!errors.empty()) {
        double sum = 0.0;
        for (const perf::PerfError &e : errors)
            sum += e.relative_error;
        double mean = sum / static_cast<double>(errors.size());
        if (mean > kPerfErrorBand) {
            return Fail() << "mean per-op time error " << mean << " at "
                          << f_held << " MHz exceeds the paper band "
                          << kPerfErrorBand << " (" << errors.size()
                          << " ops)";
        }
    }

    // Power: calibrate alpha from the endpoint runs (Sect. 7.3
    // protocol), predict the middle frequency, compare with the
    // simulator's energy-counter average.  Mid-table is where the
    // interpolation is tightest; near the top of the table leakage
    // feedback drifts the aggregate-alpha prediction out of band.
    power::PowerModel model(differentialConstants(), table);
    power::OpPowerModel alpha =
        power::OnlinePowerCalibrator::calibrateWorkloadAggregate(
            model, {{1000.0, &low}, {1800.0, &high}});
    power::PowerPrediction predicted = model.predict(alpha, f_mid);
    if (mid.soc_avg_w > 0.0) {
        double error = std::abs(predicted.soc_watts - mid.soc_avg_w)
            / mid.soc_avg_w;
        if (error > kPowerErrorBand) {
            return Fail() << "SoC power error " << error << " at " << f_mid
                          << " MHz exceeds the paper band "
                          << kPowerErrorBand << " (predicted "
                          << predicted.soc_watts << " W, measured "
                          << mid.soc_avg_w << " W)";
        }
    }
    return std::nullopt;
}

std::optional<std::string>
checkServiceCacheEquivalence(const models::Workload &workload,
                             std::uint64_t seed)
{
    if (workload.iteration.empty())
        return std::nullopt;

    serve::ServiceOptions options;
    options.pipeline.chip = differentialChip();
    options.pipeline.constants = differentialConstants();
    options.pipeline.warmup_seconds = 0.1;
    options.pipeline.ga.population = 16;
    options.pipeline.ga.generations = 9;
    options.pipeline.ga.refine_sweeps = 2;
    options.workers = 1;

    serve::StrategyService service(options);
    serve::StrategyRequest request;
    request.workload = workload;
    request.seed = seed;

    serve::StrategyResponse cold = service.submit(request).get();
    if (cold.provenance != serve::Provenance::Cold) {
        return Fail() << "first request served as "
                      << serve::provenanceToken(cold.provenance);
    }
    if (!cold.strategy.meta)
        return Fail() << "cold response carries no meta";

    // Identical request: an exact hit returning the cached strategy
    // byte for byte (only the provenance token may differ).
    serve::StrategyResponse hit = service.submit(request).get();
    if (hit.provenance != serve::Provenance::ExactHit) {
        return Fail() << "repeated request served as "
                      << serve::provenanceToken(hit.provenance)
                      << ", expected exact-hit";
    }
    if (hit.ga.best_score != cold.ga.best_score) {
        return Fail() << "exact hit rescored: " << hit.ga.best_score
                      << " vs cold " << cold.ga.best_score;
    }
    dvfs::Strategy cold_strategy = cold.strategy;
    dvfs::Strategy hit_strategy = hit.strategy;
    if (cold_strategy.meta && hit_strategy.meta)
        hit_strategy.meta->provenance = cold_strategy.meta->provenance;
    std::ostringstream cold_text, hit_text;
    dvfs::saveStrategy(cold_strategy, cold_text);
    dvfs::saveStrategy(hit_strategy, hit_text);
    if (cold_text.str() != hit_text.str()) {
        return Fail() << "exact hit differs from the cold strategy:\n"
                      << "cold:\n" << cold_text.str() << "hit:\n"
                      << hit_text.str();
    }

    // After a model epoch advance the same digest is stale: it must be
    // recomputed as a warm start seeded by the old answer (similarity
    // 1.0 by construction) and can only match or beat the donor.
    service.advanceModelEpoch();
    serve::StrategyResponse warm = service.submit(request).get();
    if (warm.provenance != serve::Provenance::WarmStart) {
        return Fail() << "post-epoch request served as "
                      << serve::provenanceToken(warm.provenance)
                      << ", expected warm-start";
    }
    if (warm.similarity != 1.0) {
        return Fail() << "stale-donor warm start reports similarity "
                      << warm.similarity << ", expected 1.0";
    }
    if (warm.ga.best_score < cold.ga.best_score * (1.0 - 1e-12)) {
        return Fail() << "warm start scored " << warm.ga.best_score
                      << ", below its donor " << cold.ga.best_score;
    }
    if (warm.fingerprint.digest != cold.fingerprint.digest)
        return Fail() << "digest changed across model epochs";

    npu::FreqTable table(options.pipeline.chip.freq);
    for (const serve::StrategyResponse *response : {&cold, &hit, &warm}) {
        try {
            dvfs::validateStrategy(response->strategy, table);
        } catch (const std::exception &error) {
            return Fail() << serve::provenanceToken(response->provenance)
                          << " strategy fails device validation: "
                          << error.what();
        }
    }
    return std::nullopt;
}

} // namespace opdvfs::check
