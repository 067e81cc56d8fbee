/**
 * @file
 * Network serving benchmark: what the TCP front end adds on top of
 * the in-process StrategyService.
 *
 *   1. cold request latency over loopback (full pipeline + wire)
 *   2. exact-hit latency and RPS, one connection (codec + event loop
 *      dominate: the service answers from the cache in microseconds)
 *   3. exact-hit RPS with 4 concurrent connections (event-loop
 *      scaling; requests coalesce on the same cache entry)
 *   4. worker-path baseline: the same exact-hit traffic with the
 *      reactor fast path disabled (decode -> worker -> re-encode),
 *      the denominator for the fast-path speedup
 *   5. closed-loop exact-hit probes over 8 connections across reactor
 *      counts {1, 2, 4}, measuring fast-path capacity and reactor
 *      scaling
 *
 * Emits BENCH_net.json with RPS and p50/p95 per scenario.  On a
 * single-core host the reactor-scaling numbers measure overhead, not
 * parallelism — clients, reactors and workers share one CPU.  Open-loop
 * hit latency and rate at an SLO are perfbench's serve-mix metrics.
 */

#include <algorithm>
#include <chrono>
#include <iostream>
#include <memory>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "models/transformer.h"
#include "net/client.h"
#include "net/server.h"
#include "serve/service.h"

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

opdvfs::models::Workload
transformerVariant(const opdvfs::npu::MemorySystem &memory, int seq)
{
    opdvfs::models::TransformerConfig model;
    model.name = "net-bench";
    model.layers = 2;
    model.hidden = 1024;
    model.heads = 8;
    model.seq = seq;
    return opdvfs::models::buildTransformerTraining(memory, model, 5);
}

opdvfs::net::WireRequest
wireRequest(const opdvfs::npu::NpuConfig &chip,
            const opdvfs::npu::MemorySystem &memory, int seq)
{
    opdvfs::net::WireRequest request;
    request.workload = transformerVariant(memory, seq);
    request.chip = chip;
    request.seed = 11;
    return request;
}

struct LatencyStats
{
    double p50 = 0.0;
    double p95 = 0.0;
    double rps = 0.0;
};

LatencyStats
summarise(std::vector<double> latencies, double wall_seconds)
{
    LatencyStats stats;
    if (latencies.empty())
        return stats;
    std::sort(latencies.begin(), latencies.end());
    stats.p50 = latencies[latencies.size() / 2];
    stats.p95 = latencies[latencies.size() * 95 / 100];
    stats.rps = static_cast<double>(latencies.size()) / wall_seconds;
    return stats;
}

/** Hammer one already-cached request over @p connections clients. */
LatencyStats
exactHitStorm(std::uint16_t port, const opdvfs::net::WireRequest &request,
              std::size_t connections, int requests_per_connection)
{
    std::vector<std::vector<double>> latencies(connections);
    std::vector<std::thread> threads;
    auto start = Clock::now();
    for (std::size_t c = 0; c < connections; ++c) {
        threads.emplace_back([&, c] {
            opdvfs::net::StrategyClient client("127.0.0.1", port);
            latencies[c].reserve(
                static_cast<std::size_t>(requests_per_connection));
            for (int i = 0; i < requests_per_connection; ++i) {
                auto begin = Clock::now();
                client.call(request);
                latencies[c].push_back(secondsSince(begin));
            }
        });
    }
    for (auto &thread : threads)
        thread.join();
    double wall = secondsSince(start);
    std::vector<double> merged;
    for (const auto &per_connection : latencies)
        merged.insert(merged.end(), per_connection.begin(),
                      per_connection.end());
    return summarise(std::move(merged), wall);
}

} // namespace

int
main()
{
    using namespace opdvfs;
    bench::banner("bench_net_throughput",
                  "TCP serving layer: wire + event loop over the "
                  "strategy service");
    std::cout << "hardware_concurrency: "
              << std::thread::hardware_concurrency() << "\n\n";

    npu::NpuConfig chip = bench::standardChip();
    npu::MemorySystem memory(chip.memory);

    serve::ServiceOptions options;
    options.pipeline = bench::standardPipeline(0.02);
    options.pipeline.warmup_seconds = 4.0;
    options.pipeline.profile_freqs_mhz = {1000.0, 1800.0};
    options.pipeline.ga.population = 60;
    options.pipeline.ga.generations = 60;
    options.workers = 4;
    serve::StrategyService service(options);

    net::StrategyServer server(service, net::ServerOptions{});
    server.start();
    std::cout << "serving on 127.0.0.1:" << server.port() << "\n";

    // --- 1: cold latency over the wire ----------------------------------
    net::StrategyClient client("127.0.0.1", server.port());
    std::vector<double> cold_latencies;
    for (int seq : {192, 224, 256, 288}) {
        net::WireRequest request = wireRequest(chip, memory, seq);
        auto begin = Clock::now();
        net::WireResponse response = client.call(request);
        cold_latencies.push_back(secondsSince(begin));
        std::cout << "cold seq " << seq << ": "
                  << cold_latencies.back() << " s (provenance "
                  << serve::provenanceToken(response.provenance)
                  << ")\n";
    }
    double cold_wall = 0.0;
    for (double latency : cold_latencies)
        cold_wall += latency;
    LatencyStats cold = summarise(cold_latencies, cold_wall);

    // --- 2: exact hits, one connection ----------------------------------
    net::WireRequest hot = wireRequest(chip, memory, 256);
    constexpr int kHitsPerConnection = 250;
    LatencyStats one = exactHitStorm(server.port(), hot, 1,
                                     kHitsPerConnection);
    std::cout << "\nexact hit, 1 connection:  p50 " << one.p50
              << " s, p95 " << one.p95 << " s, " << one.rps << " rps\n";

    // --- 3: exact hits, four connections --------------------------------
    LatencyStats four = exactHitStorm(server.port(), hot, 4,
                                      kHitsPerConnection);
    std::cout << "exact hit, 4 connections: p50 " << four.p50
              << " s, p95 " << four.p95 << " s, " << four.rps
              << " rps\n";

    std::cout << "\ncold p50 " << cold.p50 << " s vs exact-hit p50 "
              << one.p50 << " s ("
              << (cold.p50 > 0.0 ? one.p50 / cold.p50 * 100.0 : 0.0)
              << "% of cold)\n";

    // Server::stop() permanently drains the shared service, so every
    // extra server below stays alive (idle reactors cost a poll wait)
    // until all measurement is done; they all stop at the end.
    std::vector<std::unique_ptr<net::StrategyServer>> extra_servers;

    // --- 4: worker-path baseline (fast path disabled) -------------------
    // The machine-relative denominator for the fast-path speedup: the
    // same exact-hit traffic forced through the worker hop (decode ->
    // submit -> future -> re-encode), as every request travelled
    // before the reactor fast path existed.
    net::ServerOptions worker_options;
    worker_options.fast_exact_hits = false;
    LatencyStats worker_path;
    {
        extra_servers.push_back(std::make_unique<net::StrategyServer>(
            service, worker_options));
        net::StrategyServer &baseline = *extra_servers.back();
        baseline.start();
        net::StrategyClient warm("127.0.0.1", baseline.port());
        warm.call(hot);
        worker_path = exactHitStorm(baseline.port(), hot, 4,
                                    kHitsPerConnection);
    }
    std::cout << "\nworker path (fast path off), 4 connections: "
              << worker_path.rps << " rps, p50 " << worker_path.p50
              << " s\n";

    // --- 5: closed-loop exact-hit probes across reactor counts ----------
    constexpr int kReactorCounts[] = {1, 2, 4};
    LatencyStats reactor_closed[3];
    for (std::size_t i = 0; i < 3; ++i) {
        net::ServerOptions reactor_options;
        reactor_options.reactor_threads =
            static_cast<std::size_t>(kReactorCounts[i]);
        extra_servers.push_back(std::make_unique<net::StrategyServer>(
            service, reactor_options));
        net::StrategyServer &reactor_server = *extra_servers.back();
        reactor_server.start();
        // The hot entry sits in the shared service's cache and already
        // carries its frame, so every call here is on the reactors.
        net::StrategyClient warm("127.0.0.1", reactor_server.port());
        warm.call(hot);
        reactor_closed[i] =
            exactHitStorm(reactor_server.port(), hot, 8, 100);
        net::ServerStats stats = reactor_server.stats();
        std::cout << "exact-hit closed loop, " << kReactorCounts[i]
                  << " reactor(s), 8 connections: "
                  << reactor_closed[i].rps << " rps, "
                  << stats.fast_path_hits << " fast-path hits\n";
    }
    // Closed-loop over closed-loop: both sides measured the same way,
    // so the ratio isolates the fast path.
    double fast_path_speedup =
        worker_path.rps > 0.0 ? four.rps / worker_path.rps : 0.0;
    double reactor_scaling = reactor_closed[0].rps > 0.0
                                 ? reactor_closed[2].rps
                                       / reactor_closed[0].rps
                                 : 0.0;
    std::cout << "fast-path speedup over worker path: "
              << fast_path_speedup << "x; reactor scaling 4/1: "
              << reactor_scaling << "x\n";

    server.stop(); // drains the shared service
    for (auto &extra : extra_servers)
        extra->stop();
    extra_servers.clear();

    bench::BenchJson json("net");
    json.add("cold_p50", cold.p50, "s");
    json.add("cold_p95", cold.p95, "s");
    json.add("exact_hit_p50_1conn", one.p50, "s");
    json.add("exact_hit_p95_1conn", one.p95, "s");
    json.add("exact_hit_rps_1conn", one.rps, "rps");
    json.add("exact_hit_p50_4conn", four.p50, "s");
    json.add("exact_hit_p95_4conn", four.p95, "s");
    json.add("exact_hit_rps_4conn", four.rps, "rps");
    json.add("conn_scaling_4_over_1",
             one.rps > 0.0 ? four.rps / one.rps : 0.0, "x");
    json.add("exact_hit_fraction_of_cold",
             cold.p50 > 0.0 ? one.p50 / cold.p50 : 0.0, "ratio");
    json.add("worker_path_rps_4conn", worker_path.rps, "rps");
    json.add("worker_path_p50_4conn", worker_path.p50, "s");
    for (std::size_t i = 0; i < 3; ++i) {
        std::string suffix =
            "_r" + std::to_string(kReactorCounts[i]);
        json.add("exact_hit_closed_rps" + suffix,
                 reactor_closed[i].rps, "rps");
    }
    json.add("fast_path_speedup", fast_path_speedup, "x");
    json.add("reactor_scaling_4_over_1", reactor_scaling, "x");
    json.write();
    return 0;
}
