#include "serve/fingerprint.h"

#include <bit>
#include <cmath>

namespace opdvfs::serve {

namespace {

constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

/** log10 scale squashed into [0, ~1] for count/volume features. */
double
logScale(double value, double decades)
{
    return std::log10(std::max(value, 0.0) + 1.0) / decades;
}

} // namespace

void
FingerprintHasher::mix(std::uint64_t word)
{
    for (int byte = 0; byte < 8; ++byte) {
        state_ ^= (word >> (8 * byte)) & 0xffULL;
        state_ *= kFnvPrime;
    }
}

void
FingerprintHasher::mixNumber(double value)
{
    if (std::isnan(value)) {
        mix(0x7ff8000000000000ULL); // one canonical NaN
        return;
    }
    if (value == 0.0)
        value = 0.0; // fold -0.0 into +0.0
    mix(std::bit_cast<std::uint64_t>(value));
}

void
FingerprintHasher::mixString(std::string_view text)
{
    mix(text.size());
    for (char c : text) {
        state_ ^= static_cast<unsigned char>(c);
        state_ *= kFnvPrime;
    }
}

DigestStream::DigestStream()
{
    hasher_.mixString("opdvfs-fingerprint-v1");
}

std::uint64_t
DigestStream::finish(const npu::NpuConfig &chip, double perf_loss_target,
                     std::uint64_t seed)
{
    // FaultPlan is runtime misbehaviour, not a different optimisation
    // problem, so it stays out of the identity.
    const npu::FreqTableConfig &freq = chip.freq;
    for (double v : {freq.min_mhz, freq.max_mhz, freq.step_mhz,
                     freq.knee_mhz, freq.base_volts, freq.volts_per_mhz})
        hasher_.mixNumber(v);
    const npu::MemorySystemConfig &mem = chip.memory;
    hasher_.mix(mem.core_num);
    for (double v : {mem.bytes_per_cycle_per_core, mem.l2_bandwidth,
                     mem.hbm_bandwidth, mem.bandwidth_scale})
        hasher_.mixNumber(v);
    for (double v : {chip.aicore_power.beta, chip.aicore_power.theta,
                     chip.aicore_power.gamma})
        hasher_.mixNumber(v);
    for (double v : {chip.uncore_power.idle_watts,
                     chip.uncore_power.active_watts, chip.uncore_power.gamma,
                     chip.uncore_power.dynamic_fraction})
        hasher_.mixNumber(v);
    for (double v : {chip.thermal.ambient_celsius, chip.thermal.k_per_watt,
                     chip.thermal.time_constant_s})
        hasher_.mixNumber(v);
    hasher_.mix(static_cast<std::uint64_t>(chip.set_freq_latency));
    hasher_.mixNumber(chip.initial_mhz);
    hasher_.mixNumber(chip.uncore_scale);

    hasher_.mixNumber(perf_loss_target);
    hasher_.mix(seed);
    return hasher_.digest();
}

Fingerprint
fingerprintRequest(const models::Workload &workload,
                   const npu::NpuConfig &chip, double perf_loss_target,
                   std::uint64_t seed)
{
    DigestStream stream;
    models::WorkloadFieldVisitor visitor;
    visitor.string_field = [&stream](std::string_view s) {
        stream.opType(s);
    };
    visitor.number_field = [&stream](double v) { stream.opNumber(v); };
    models::visitWorkloadFields(workload, visitor);

    // --- similarity features -----------------------------------------------
    std::size_t per_category[4] = {0, 0, 0, 0};
    double core_cycles = 0.0;
    double ld_bytes = 0.0;
    double st_bytes = 0.0;
    double cube_ops = 0.0;
    double hit_sum = 0.0;
    std::size_t compute_ops = 0;
    for (const auto &op : workload.iteration) {
        auto cat = static_cast<std::size_t>(op.hw.category);
        if (cat < 4)
            ++per_category[cat];
        if (op.hw.category == npu::OpCategory::Compute) {
            ++compute_ops;
            double reps = static_cast<double>(op.hw.n);
            core_cycles += op.hw.core_cycles * reps;
            ld_bytes += op.hw.ld_volume_bytes * reps;
            st_bytes += op.hw.st_volume_bytes * reps;
            hit_sum += op.hw.ld_l2_hit;
            if (op.hw.core_pipe == npu::CorePipe::Cube)
                cube_ops += 1.0;
        }
    }
    double ops = static_cast<double>(workload.opCount());

    Fingerprint fingerprint;
    fingerprint.digest = stream.finish(chip, perf_loss_target, seed);
    fingerprint.features = {
        logScale(ops, 5.0),
        ops > 0.0 ? static_cast<double>(per_category[0]) / ops : 0.0,
        ops > 0.0 ? static_cast<double>(per_category[1]) / ops : 0.0,
        ops > 0.0 ? static_cast<double>(per_category[2]) / ops : 0.0,
        ops > 0.0 ? static_cast<double>(per_category[3]) / ops : 0.0,
        logScale(core_cycles, 16.0),
        logScale(ld_bytes, 16.0),
        logScale(st_bytes, 16.0),
        compute_ops > 0
            ? hit_sum / static_cast<double>(compute_ops)
            : 0.0,
        compute_ops > 0
            ? cube_ops / static_cast<double>(compute_ops)
            : 0.0,
        perf_loss_target * 10.0,
        chip.freq.max_mhz > 0.0 ? chip.freq.min_mhz / chip.freq.max_mhz
                                : 0.0,
        chip.freq.max_mhz > 0.0 ? chip.freq.step_mhz / chip.freq.max_mhz
                                : 0.0,
    };
    return fingerprint;
}

double
fingerprintSimilarity(const Fingerprint &a, const Fingerprint &b)
{
    if (a.features.size() != b.features.size() || a.features.empty())
        return 0.0;
    double squared = 0.0;
    for (std::size_t i = 0; i < a.features.size(); ++i) {
        double d = a.features[i] - b.features[i];
        squared += d * d;
    }
    // exp(-5 d): identical requests score 1, a ~2% feature drift stays
    // above 0.9, and structurally different workloads fall near 0.
    return std::exp(-5.0 * std::sqrt(squared));
}

} // namespace opdvfs::serve
