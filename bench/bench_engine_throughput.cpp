// Engine throughput — sharded enactment of the virus case-study workload.
//
// Sweeps the shard count at a fixed offered load (every shard re-enacts the
// fig10 virus-reconstruction case) and reports completed-cases/sec, latency
// percentiles, and per-shard utilization. A second, fault-injected point
// pins shard 0 at 100% dispatch failure and shows the engine's
// checkpoint/restore retry completing every submitted case anyway.
//
// Appends one JSON Lines record per configuration to BENCH_engine.json.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "engine/engine.hpp"
#include "obs/metrics.hpp"
#include "util/stopwatch.hpp"
#include "virolab/catalogue.hpp"
#include "virolab/workflow.hpp"

using namespace ig;

namespace {

struct Point {
  std::size_t shards = 0;
  std::size_t workers = 0;  ///< job-system workers under the shard streams
  std::size_t cases = 0;
  double wall_seconds = 0.0;
  double cpu_seconds = 0.0;  ///< process CPU (all threads) over the same interval
  double cases_per_second = 0.0;
  engine::EngineMetrics metrics;
  double p50 = 0.0;  ///< from the registry's latency histogram
  double p99 = 0.0;
};

// Real wall-clock latency per kernel execution: stands in for waiting on
// the actual EM reconstruction codes (a fig10 case runs ~12 executions).
// Concurrent shards overlap these waits — the throughput the front door
// exists to deliver.
constexpr double kKernelLatencySeconds = 0.010;

double process_cpu_seconds() { return static_cast<double>(std::clock()) / CLOCKS_PER_SEC; }

/// Nearest-rank {first quartile, median, third quartile} of `values`.
std::vector<double> quartiles(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t last = values.size() - 1;
  return {values[last / 4], values[last / 2], values[(3 * last + 3) / 4]};
}

double median(std::vector<double> values) { return quartiles(std::move(values))[1]; }

Point run_point(std::size_t shards, std::size_t cases, std::size_t tenants,
                std::vector<double> failure_floor, int max_case_retries,
                bool engine_recovery_only, bool traced = false, std::size_t workers = 0,
                double kernel_latency_seconds = kKernelLatencySeconds) {
  engine::EngineConfig config;
  config.shards = shards;
  config.workers = workers;  // 0 = one job-system worker per shard
  config.queue_capacity = cases + 8;
  config.max_case_retries = max_case_retries;
  config.shard_failure_floor = std::move(failure_floor);
  config.environment.topology.domains = 2;
  config.environment.topology.nodes_per_domain = 3;
  config.environment.kernels.execution_latency_seconds = kernel_latency_seconds;
  if (engine_recovery_only) {
    // Fault point: cut the in-shard budgets to one dispatch retry so a
    // broken shard fails fast (its retry fails instantly too) and the
    // engine-level checkpoint/restore retry does the real recovery, while
    // the healthy shard can still absorb the topology's natural failures.
    config.environment.coordination.max_retries = 1;
    config.environment.coordination.max_replans = 0;
  }
  if (traced) config.environment.span_tracing = true;
  engine::EnactmentEngine engine(config);

  // Each case targets a slightly different resolution, so every submission
  // is a distinct planning problem: the plan memo (PR 1) cannot collapse
  // the sweep into one GP run per shard, and the bench measures real
  // plan-and-enact work per case — the load profile of a multi-user portal.
  util::Stopwatch watch;
  const double cpu_start = process_cpu_seconds();
  for (std::size_t i = 0; i < cases; ++i) {
    const double resolution = 8.0 - 0.04 * static_cast<double>(i);
    const std::string tenant = "tenant-" + std::to_string(i % tenants);
    engine.submit(virolab::make_fig10_process(resolution),
                  virolab::make_case_description(resolution), tenant);
  }
  engine.drain();

  Point point;
  point.shards = shards;
  point.workers = engine.worker_count();
  point.cases = cases;
  point.wall_seconds = watch.elapsed_seconds();
  point.cpu_seconds = process_cpu_seconds() - cpu_start;
  point.metrics = engine.metrics();
  point.cases_per_second =
      point.wall_seconds > 0.0
          ? static_cast<double>(point.metrics.completed) / point.wall_seconds
          : 0.0;
  // Percentiles come straight off the exported histogram — the same numbers
  // a scrape of the registry would report (and, because the sample ring is
  // larger than the sweep, exactly what SampleSet used to compute).
  const obs::RegistrySnapshot registry = engine.registry().snapshot();
  if (const obs::MetricPoint* hist = registry.find("engine_case_latency_seconds")) {
    const std::vector<double> qs = hist->histogram.quantiles({50.0, 99.0});
    point.p50 = qs[0];
    point.p99 = qs[1];
  }
  return point;
}

void emit_record(const char* label, const Point& point) {
  bench::JsonRecord record("bench_engine_throughput");
  record.add("config", std::string(label));
  record.add("shards", point.shards);
  record.add("workers", point.workers);
  record.add("cases", point.cases);
  record.add("wall_seconds", point.wall_seconds);
  record.add("cases_per_second", point.cases_per_second);
  record.add("completed", point.metrics.completed);
  record.add("failed", point.metrics.failed);
  record.add("retried", point.metrics.retried);
  record.add("rejected", point.metrics.rejected);
  record.add("latency_p50", point.p50);
  record.add("latency_p99", point.p99);
  record.add("jobs_executed", point.metrics.jobs_executed);
  record.add("jobs_stolen", point.metrics.jobs_stolen);
  record.add("steal_rate", point.metrics.steal_rate);
  double utilization = 0.0;
  for (const auto& shard : point.metrics.shards) utilization += shard.utilization;
  if (!point.metrics.shards.empty())
    utilization /= static_cast<double>(point.metrics.shards.size());
  record.add("mean_shard_utilization", utilization);
  record.append_to("BENCH_engine.json");
}

void print_point(const Point& point) {
  double utilization = 0.0;
  for (const auto& shard : point.metrics.shards) utilization += shard.utilization;
  if (!point.metrics.shards.empty())
    utilization /= static_cast<double>(point.metrics.shards.size());
  std::printf("%-8zu %-8zu %-8zu %-10.2f %-12.2f %-10.2f %-8zu %-8zu %-6.2f %.1f%%\n",
              point.shards, point.workers, point.cases, point.wall_seconds,
              point.cases_per_second, point.p50, point.metrics.retried, point.metrics.failed,
              utilization, 100.0 * point.metrics.steal_rate);
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;

  // Deep backlog: the queue stays several cases deep per shard even at the
  // widest sweep point, so the 8-shard point measures steady-state overlap
  // rather than queue-drain tail effects.
  const std::size_t cases = quick ? 16 : 48;
  const std::size_t tenants = 4;
  std::printf("Engine throughput: %zu fig10 cases, %zu tenants, %.0f ms kernel "
              "latency per execution, shard sweep\n\n",
              cases, tenants, kKernelLatencySeconds * 1000.0);
  std::printf("%-8s %-8s %-8s %-10s %-12s %-10s %-8s %-8s %-6s %s\n", "shards", "workers",
              "cases", "wall(s)", "cases/s", "p50(s)", "retried", "failed", "util", "steal");

  std::vector<Point> sweep;
  for (const std::size_t shards :
       {std::size_t{1}, std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    const Point point = run_point(shards, cases, tenants, {}, /*max_case_retries=*/1,
                                  /*engine_recovery_only=*/false);
    print_point(point);
    emit_record("sweep", point);
    sweep.push_back(point);
  }

  const double speedup = sweep.front().cases_per_second > 0.0
                             ? sweep[2].cases_per_second / sweep.front().cases_per_second
                             : 0.0;
  const double deep_speedup =
      sweep[2].cases_per_second > 0.0
          ? sweep.back().cases_per_second / sweep[2].cases_per_second
          : 0.0;
  std::printf("\n1 -> 4 shard speedup: %.2fx (target >= 2x)\n", speedup);
  std::printf("4 -> 8 shard speedup under backlog: %.2fx (target >= 1.15x)\n", deep_speedup);

  // Workers sweep at a fixed 8-shard fleet: fewer job-system workers than
  // shards time-slice the pump streams via stealing; every case must still
  // complete, and the steal rate shows the rebalancing actually happening.
  std::printf("\n-- worker sweep at 8 shards (workers < shards time-slice via stealing) --\n");
  bool worker_sweep_ok = true;
  for (const std::size_t workers : {std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    const Point point = run_point(8, cases, tenants, {}, /*max_case_retries=*/1,
                                  /*engine_recovery_only=*/false, /*traced=*/false, workers);
    print_point(point);
    emit_record("worker_sweep", point);
    worker_sweep_ok =
        worker_sweep_ok && point.metrics.completed == cases && point.metrics.failed == 0;
  }
  std::printf("every case completed at every worker count: %s\n",
              worker_sweep_ok ? "yes" : "NO");

  std::printf("\n-- fault injection: shard 0 at 100%% dispatch failure, retries on --\n");
  const Point fault = run_point(2, quick ? 6 : 12, tenants, {1.0, 0.0},
                                /*max_case_retries=*/3, /*engine_recovery_only=*/true);
  print_point(fault);
  emit_record("fault", fault);
  const bool fault_ok = fault.metrics.failed == 0 && fault.metrics.completed == fault.cases;
  std::printf("all cases completed despite faulty shard: %s (retried %zu)\n",
              fault_ok ? "yes" : "NO", fault.metrics.retried);

  // Tracing overhead: the same 2-shard point with span tracing on. Every
  // platform message and every activity becomes a span, so the pair runs
  // with the kernel-latency model off: over 10 ms sleeps the wall clock
  // cannot see the tracer's CPU. Process CPU per completed case is the
  // figure the target applies to. A CPU-bound case costs a few ms, so the
  // pair runs more cases than the sweep. Each round runs both sides back to
  // back, alternating which goes first, and yields one paired ratio, which
  // cancels drift in machine load; the overheads are the median ratios.
  const std::size_t overhead_cases = quick ? 128 : 384;
  const int rounds = quick ? 7 : 11;
  std::printf("\n-- span tracing overhead (2 shards, %zu cases, kernel latency 0) --\n",
              overhead_cases);
  std::vector<double> plain_wall, traced_wall, plain_cpu, traced_cpu, wall_ratio, cpu_ratio;
  for (int round = 0; round < rounds; ++round) {
    for (const bool traced : {round % 2 == 1, round % 2 == 0}) {
      const Point point = run_point(2, overhead_cases, tenants, {}, 1, false, traced, 0, 0.0);
      const auto completed =
          static_cast<double>(std::max<std::size_t>(point.metrics.completed, 1));
      (traced ? traced_wall : plain_wall).push_back(point.wall_seconds);
      (traced ? traced_cpu : plain_cpu).push_back(point.cpu_seconds * 1e3 / completed);
    }
    wall_ratio.push_back(traced_wall.back() / plain_wall.back());
    cpu_ratio.push_back(traced_cpu.back() / plain_cpu.back());
  }
  const double plain_wall_s = median(plain_wall);
  const double traced_wall_s = median(traced_wall);
  const double plain_cpu_ms = median(plain_cpu);
  const double traced_cpu_ms = median(traced_cpu);
  const double wall_overhead = median(wall_ratio) - 1.0;
  const std::vector<double> cpu_q = quartiles(cpu_ratio);
  const double overhead = cpu_q[1] - 1.0;
  std::printf("wall: plain %.3fs, traced %.3fs, overhead %+.1f%% (medians of %d pairs)\n",
              plain_wall_s, traced_wall_s, wall_overhead * 100.0, rounds);
  std::printf("cpu per case: plain %.2f ms, traced %.2f ms, overhead %+.1f%% "
              "(quartiles %+.1f%% / %+.1f%%; target <= 5%%)\n",
              plain_cpu_ms, traced_cpu_ms, overhead * 100.0, (cpu_q[0] - 1.0) * 100.0,
              (cpu_q[2] - 1.0) * 100.0);
  bench::JsonRecord overhead_record("bench_engine_throughput");
  overhead_record.add("config", std::string("tracing_overhead"));
  overhead_record.add("cases", overhead_cases);
  overhead_record.add("kernel_latency_seconds", 0.0);
  overhead_record.add("rounds", static_cast<std::size_t>(rounds));
  overhead_record.add("plain_wall_seconds", plain_wall_s);
  overhead_record.add("traced_wall_seconds", traced_wall_s);
  overhead_record.add("wall_overhead_fraction", wall_overhead);
  overhead_record.add("plain_cpu_ms_per_case", plain_cpu_ms);
  overhead_record.add("traced_cpu_ms_per_case", traced_cpu_ms);
  overhead_record.add("overhead_fraction", overhead);
  overhead_record.add("overhead_q1_fraction", cpu_q[0] - 1.0);
  overhead_record.add("overhead_q3_fraction", cpu_q[2] - 1.0);
  overhead_record.append_to("BENCH_engine.json");

  const bool scaling_ok = speedup >= 2.0 && deep_speedup >= 1.15;
  std::printf("\nscaling target holds: %s\n", scaling_ok ? "yes" : "NO");
  return (scaling_ok && fault_ok && worker_sweep_ok) ? 0 : 1;
}
