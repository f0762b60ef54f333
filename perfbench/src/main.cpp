// perfbench_driver: one run of one benchmark workload against the
// EnactmentEngine public API.
//
//   perfbench_driver --workload fig10_portal --seed 1 --seconds 10 --trace 0
//                    --workdir .bench_build/run
//
// A run sets the engine up several times (the median is setup_s), runs a
// fixed warm-up, then a closed loop for --seconds, waits for the cases in
// flight, checks every outcome and re-executes the first cases on a fresh
// one-shard engine to check their digest. --trace 0 prints the end-to-end
// metrics; --trace 1 repeats the measurement with the stamping transport
// hook installed and prints the per-layer metrics instead. The last line of
// stdout is the JSON result; lines before it are a human-readable report.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.hpp"
#include "harness.hpp"
#include "recorder.hpp"
#include "services/protocol.hpp"
#include "wfl/xml_io.hpp"
#include "workloads.hpp"

namespace fs = std::filesystem;
using namespace ig;

namespace perfbench {
namespace {

constexpr std::size_t kOutstanding = 6;  ///< cases in flight (2 per shard)
constexpr int kSetupRepeats = 11;
constexpr std::size_t kDigestCases = 12;  ///< re-executed on the reference engine
constexpr std::uint64_t kCaptureCases = 24;  ///< execute payloads kept for codec timing
constexpr auto kPollInterval = std::chrono::microseconds(100);
/// The window is cut into this many equal sub-windows; throughput and CPU
/// per case are the medians over them, so a burst of slowness on the host
/// inside one sub-window does not move the run's figure.
constexpr std::size_t kSubWindows = 5;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir = ".bench_build/run";
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") args.workload = value;
    else if (key == "--seed") args.seed = std::stoull(value);
    else if (key == "--seconds") args.seconds = std::stod(value);
    else if (key == "--trace") args.trace = value != "0";
    else if (key == "--workdir") args.workdir = value;
    else throw std::invalid_argument("unknown argument " + key);
  }
  if (args.workload.empty()) throw std::invalid_argument("--workload is required");
  if (!(args.seconds > 0.0)) throw std::invalid_argument("--seconds must be positive");
  return args;
}

double now_seconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto tv = [](const timeval& t) { return static_cast<double>(t.tv_sec) + t.tv_usec * 1e-6; };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

/// The process image's resident high-water mark (VmHWM). Unlike
/// getrusage's ru_maxrss it starts afresh at exec, so the launcher's own
/// footprint does not hide the driver's.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

double median(std::vector<double> values) { return percentile(std::move(values), 50.0); }

/// Fixed warm-up before the window: allocators, intern tables and shard
/// stacks settle, and peak RSS is read after it (a fixed amount of work, so
/// it does not grow with throughput).
std::size_t warmup_cases(const std::string& workload) {
  if (workload == "fig10_portal") return 48;
  if (workload == "chain_long") return 12;
  return 6;
}

OutcomeFields fields_of(const engine::CaseOutcome& o) {
  OutcomeFields f;
  f.state = std::string(engine::to_string(o.state));
  f.error = o.error;
  f.activities_executed = o.activities_executed;
  f.activities_replayed = o.activities_replayed;
  f.dispatch_failures = o.dispatch_failures;
  f.replans = o.replans;
  f.engine_retries = o.engine_retries;
  f.goal_satisfaction = o.goal_satisfaction;
  f.makespan = o.makespan;
  f.total_cost = o.total_cost;
  return f;
}

/// One engine run: set-up, warm-up, window, drain.
struct Phase {
  std::unique_ptr<Workload> workload;
  std::unique_ptr<engine::EnactmentEngine> engine;
  std::vector<double> setup_seconds;
  double peak_rss_mb = 0.0;
  // Submission order -> engine case id; outcome of every case.
  std::vector<engine::CaseId> ids;
  std::vector<std::size_t> pool_index;
  std::vector<engine::CaseOutcome> outcomes;
  std::size_t refused = 0;
  std::map<std::uint64_t, double> submitted_at;  ///< on the recorder clock (traced)
  // Window: sub-window bounds (sweep times) and process CPU at each bound.
  std::vector<double> window_bounds;
  std::vector<double> window_cpu;
  LoopResult window_loop;
  std::vector<engine::CaseId> window_cases;
  // Store bytes appended, summed from positive deltas of the live WAL bytes
  // (compaction shrinks them), sampled by the traced run.
  std::uint64_t store_bytes = 0;
};

/// Sets up `args.workload` (repeats times, keeping the last engine).
void set_up(Phase& phase, const Args& args, const std::string& dir, int repeats,
            Recorder* recorder) {
  for (int r = 0; r < repeats; ++r) {
    phase.engine.reset();
    phase.workload.reset();
    std::error_code ignored;
    fs::remove_all(dir, ignored);
    const double start = now_seconds();
    auto workload = std::make_unique<Workload>(make_workload(args.workload, args.seed));
    engine::EngineConfig config = workload->config;
    if (workload->durable) config.storage.data_dir = dir + "/journal";
    if (recorder != nullptr) {
      auto base = config.shard_setup;
      config.shard_setup = [base, recorder](svc::Environment& environment, std::size_t shard) {
        if (base) base(environment, shard);
        recorder->install(environment, shard);
      };
    }
    phase.engine = std::make_unique<engine::EnactmentEngine>(std::move(config));
    phase.setup_seconds.push_back(now_seconds() - start);
    phase.workload = std::move(workload);
  }
}

/// Submits the next pool case; kInvalidCase (counted) when refused.
engine::CaseId submit_next(Phase& phase, Recorder* recorder) {
  const std::vector<CaseInput>& pool = phase.workload->pool;
  const std::size_t slot = phase.ids.size() % pool.size();
  const double at = recorder != nullptr ? recorder->now() : 0.0;
  const engine::CaseId id =
      phase.engine->submit(pool[slot].process, pool[slot].case_description);
  if (id == engine::kInvalidCase) {
    ++phase.refused;
    return id;
  }
  phase.ids.push_back(id);
  phase.pool_index.push_back(slot);
  if (recorder != nullptr) phase.submitted_at[id] = at;
  return id;
}

/// Closed loop over the workload's pool until `stop_at`. The traced run
/// also samples the journal's live WAL bytes as cases finish.
LoopResult drive(Phase& phase, double stop_at, Recorder* recorder,
                 const std::function<void(double)>& on_sweep) {
  engine::EnactmentEngine& engine = *phase.engine;
  std::uint64_t last_live_bytes = 0;
  LoopOps ops;
  ops.submit = [&](std::size_t) -> std::uint64_t { return submit_next(phase, recorder); };
  ops.done = [&](std::uint64_t id) {
    if (!engine::is_terminal(engine.status(id))) return false;
    if (recorder != nullptr && engine.journal() != nullptr) {
      const std::uint64_t live = engine.journal()->stats().wal.bytes;
      if (live > last_live_bytes) phase.store_bytes += live - last_live_bytes;
      last_live_bytes = live;
    }
    return true;
  };
  ops.idle = [] { std::this_thread::sleep_for(kPollInterval); };
  ops.now = now_seconds;
  ops.on_sweep = on_sweep;
  return run_closed_loop(ops, kOutstanding, stop_at);
}

void run_phase(Phase& phase, const Args& args, const std::string& dir, int setup_repeats,
               Recorder* recorder) {
  set_up(phase, args, dir, setup_repeats, recorder);
  const std::size_t warmup = warmup_cases(args.workload);
  for (std::size_t i = 0; i < warmup; ++i) submit_next(phase, recorder);
  phase.engine->drain();
  phase.peak_rss_mb = peak_rss_mb();

  // Each sub-window bound is the first sweep at or after its planned time;
  // the last one is the sweep that stops submitting.
  const double start = now_seconds();
  phase.window_bounds = {start};
  phase.window_cpu = {cpu_seconds()};
  auto on_sweep = [&](double now) {
    const std::size_t k = phase.window_bounds.size();
    if (k > kSubWindows || now < start + args.seconds * static_cast<double>(k) / kSubWindows)
      return;
    phase.window_bounds.push_back(now);
    phase.window_cpu.push_back(cpu_seconds());
  };
  phase.window_loop = drive(phase, start + args.seconds, recorder, on_sweep);
  for (const Completion& c : phase.window_loop.completions)
    if (c.observed_at < phase.window_bounds.back()) phase.window_cases.push_back(c.handle);
  phase.engine->drain();
  // Stop the pump streams so the last slice's busy time is counted before
  // metrics() reads it; counters and outcomes survive shutdown.
  phase.engine->shutdown();

  phase.outcomes.reserve(phase.ids.size());
  for (const engine::CaseId id : phase.ids) {
    std::optional<engine::CaseOutcome> outcome = phase.engine->result(id);
    phase.outcomes.push_back(outcome.value_or(engine::CaseOutcome{}));
  }
}

// -- checks ------------------------------------------------------------------------

struct Check {
  bool ok = true;
  std::size_t failed = 0;  ///< cases that are not Completed
  std::vector<std::string> problems;
  void fail(std::string what) {
    ok = false;
    if (problems.size() < 8) problems.push_back(std::move(what));
  }
};

void check_outcomes(const Phase& phase, Check& check) {
  const Workload& w = *phase.workload;
  if (phase.refused > 0) check.fail(std::to_string(phase.refused) + " submissions refused");
  check.failed += phase.refused;
  for (std::size_t i = 0; i < phase.outcomes.size(); ++i) {
    const engine::CaseOutcome& o = phase.outcomes[i];
    const std::string label = "case " + std::to_string(phase.ids[i]);
    if (o.state != engine::CaseState::Completed) {
      ++check.failed;
      check.fail(label + " " + std::string(engine::to_string(o.state)) + ": " + o.error);
      continue;
    }
    if (o.goal_satisfaction != 1.0)
      check.fail(label + " goal satisfaction " + std::to_string(o.goal_satisfaction));
    const int expected = w.pool[phase.pool_index[i]].expected_activities;
    const bool applies = w.failure_free || (o.replans == 0 && o.engine_retries == 0);
    if (applies && o.activities_executed != expected)
      check.fail(label + " executed " + std::to_string(o.activities_executed) +
                 " activities, expected " + std::to_string(expected));
    if (w.failure_free && (o.replans != 0 || o.dispatch_failures != 0))
      check.fail(label + " replanned or failed a dispatch in a failure-free workload");
  }
}

std::uint64_t phase_digest(const Phase& phase, std::size_t count, bool exact) {
  std::vector<OutcomeFields> fields;
  for (std::size_t i = 0; i < count && i < phase.outcomes.size(); ++i)
    fields.push_back(fields_of(phase.outcomes[i]));
  return digest_cases(fields, exact);
}

/// Re-executes the first `count` cases, in order, on a fresh one-shard
/// engine: a different placement and a different shard history. Their
/// digest must equal the measured run's.
std::uint64_t reference_digest(const Args& args, const std::string& dir, std::size_t count) {
  std::error_code ignored;
  fs::remove_all(dir, ignored);
  Workload w = make_workload(args.workload, args.seed);
  engine::EngineConfig config = w.config;
  config.shards = 1;
  config.workers = 1;
  if (w.durable) config.storage.data_dir = dir + "/journal";
  std::vector<OutcomeFields> fields;
  {
    engine::EnactmentEngine engine(std::move(config));
    std::vector<engine::CaseId> ids;
    for (std::size_t i = 0; i < count; ++i) {
      const CaseInput& input = w.pool[i % w.pool.size()];
      ids.push_back(engine.submit(input.process, input.case_description));
    }
    for (const engine::CaseId id : ids)
      fields.push_back(fields_of(engine.wait(id).value_or(engine::CaseOutcome{})));
  }
  fs::remove_all(dir, ignored);
  return digest_cases(fields, w.durable);
}

// -- output ------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.10g", metrics[i].value);
    if (i > 0) line += ", ";
    line += '"';
    line += json_escape(metrics[i].name);
    line += "\": {\"value\": ";
    line += value;
    line += ", \"unit\": \"";
    line += json_escape(metrics[i].unit);
    line += "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

struct EndToEnd {
  double cases_per_s = 0.0;
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  double p99_ms = 0.0;
  std::size_t samples = 0;
  double cpu_ms_per_case = 0.0;
  std::vector<double> window_rates;   ///< cases/s per sub-window
  std::vector<double> window_cpu_ms;  ///< CPU ms per case per sub-window
  double fail_ratio = 0.0;
  double makespan_s = 0.0;
};

EndToEnd end_to_end(const Phase& phase) {
  EndToEnd e;
  std::map<engine::CaseId, const engine::CaseOutcome*> by_id;
  for (std::size_t i = 0; i < phase.ids.size(); ++i) by_id[phase.ids[i]] = &phase.outcomes[i];
  std::vector<double> latencies_ms;
  double makespan = 0.0;
  std::size_t completed = 0;
  for (const engine::CaseId id : phase.window_cases) {
    const engine::CaseOutcome& o = *by_id.at(id);
    latencies_ms.push_back(o.latency_seconds * 1e3);
    if (o.state != engine::CaseState::Completed) continue;
    ++completed;
    makespan += o.makespan;
  }
  e.samples = latencies_ms.size();
  const std::vector<std::size_t> counts =
      completions_per_window(phase.window_loop, phase.window_bounds);
  for (std::size_t k = 0; k < counts.size(); ++k) {
    const double n = static_cast<double>(std::max<std::size_t>(1, counts[k]));
    e.window_rates.push_back(counts[k] / (phase.window_bounds[k + 1] - phase.window_bounds[k]));
    e.window_cpu_ms.push_back((phase.window_cpu[k + 1] - phase.window_cpu[k]) * 1e3 / n);
  }
  e.cases_per_s = median(e.window_rates);
  e.cpu_ms_per_case = median(e.window_cpu_ms);
  e.p50_ms = percentile(latencies_ms, 50.0);
  e.p90_ms = percentile(latencies_ms, 90.0);
  e.p99_ms = percentile(latencies_ms, 99.0);
  e.makespan_s = completed > 0 ? makespan / static_cast<double>(completed) : 0.0;
  std::size_t not_completed = phase.refused;
  for (const engine::CaseOutcome& o : phase.outcomes)
    if (o.state != engine::CaseState::Completed) ++not_completed;
  const std::size_t attempted = phase.ids.size() + phase.refused;
  e.fail_ratio = attempted > 0 ? static_cast<double>(not_completed) / attempted : 0.0;
  return e;
}

void report_end_to_end(const char* label, const Phase& phase, const EndToEnd& e) {
  std::printf("[%s] window %.3f s, %zu cases completed, cpu %.3f s; median of %zu sub-windows: "
              "%.2f cases/s, %.3f ms cpu/case; per sub-window:",
              label, phase.window_bounds.back() - phase.window_bounds.front(),
              phase.window_cases.size(), phase.window_cpu.back() - phase.window_cpu.front(),
              e.window_rates.size(), e.cases_per_s, e.cpu_ms_per_case);
  for (std::size_t k = 0; k < e.window_rates.size(); ++k)
    std::printf(" %.2f/%.3f", e.window_rates[k], e.window_cpu_ms[k]);
  std::printf("\n");
  std::printf("[%s] latency over %zu samples: p50 %.3f ms, p90 %.3f ms", label, e.samples,
              e.p50_ms, e.p90_ms);
  if (percentile_reportable(e.samples, 99.0)) std::printf(", p99 %.3f ms", e.p99_ms);
  else std::printf(" (p99 needs >= 1000 samples)");
  std::printf("\n[%s] fail ratio %.4f of %zu attempted; mean virtual makespan %.4f s; setup "
              "median %.4f s of %zu; peak rss %.1f MB\n",
              label, e.fail_ratio, phase.ids.size() + phase.refused, e.makespan_s,
              median(phase.setup_seconds), phase.setup_seconds.size(), phase.peak_rss_mb);
}

// -- per-layer attribution (traced run) ----------------------------------------------

std::string layer_of(const std::string& agent) {
  if (agent == kEngineClient) return "engine";
  if (agent == svc::names::kCoordination) return "coordination";
  if (agent == svc::names::kMatchmaking) return "matchmaking";
  if (agent == svc::names::kPlanning) return "planning";
  if (agent.rfind("ac-", 0) == 0) return "container";
  return "other";
}

double sum_points(const obs::RegistrySnapshot& snapshot, const std::string& name) {
  double total = 0.0;
  for (const obs::MetricPoint& point : snapshot.points)
    if (point.name == name) total += point.value;
  return total;
}

std::vector<Metric> per_layer(const Phase& traced, const Recorder& recorder,
                              const EndToEnd& untraced, const EndToEnd& traced_e2e,
                              const std::string& trace_file) {
  engine::EnactmentEngine& engine = *traced.engine;
  const engine::EngineMetrics m = engine.metrics();
  const obs::RegistrySnapshot registry = engine.registry().snapshot();
  const double cases = static_cast<double>(std::max<std::size_t>(1, m.completed));
  auto per_case = [&](double total) { return total / cases; };
  auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };

  Attribution attribution;
  std::uint64_t sends = 0, payload = 0, execute_count = 0, execute_bytes = 0,
                execute_max = 0;
  ShardExtras extras;
  for (std::size_t s = 0; s < recorder.shards(); ++s) {
    attribute_shard(recorder.stamps(s), traced.submitted_at, attribution);
    for (const SendStamp& stamp : recorder.stamps(s)) {
      ++sends;
      payload += stamp.payload_bytes;
      if (stamp.protocol == svc::protocols::kExecuteActivity && stamp.request &&
          stamp.sender == svc::names::kCoordination) {
        ++execute_count;
        execute_bytes += stamp.payload_bytes;
        execute_max = std::max(execute_max, stamp.payload_bytes);
      }
    }
    const ShardExtras& e = recorder.extras(s);
    extras.wire_round_trips += e.wire_round_trips;
    extras.wire_seconds += e.wire_seconds;
    extras.wire_bytes += e.wire_bytes;
    extras.intern_hits += e.intern_hits;
    extras.intern_misses += e.intern_misses;
    extras.plan_fitness.insert(extras.plan_fitness.end(), e.plan_fitness.begin(),
                               e.plan_fitness.end());
    extras.execute_payloads.insert(extras.execute_payloads.end(), e.execute_payloads.begin(),
                                   e.execute_payloads.end());
  }

  std::map<std::string, double> layer_seconds;
  for (const auto& [agent, seconds] : attribution.self_seconds) layer_seconds[layer_of(agent)] += seconds;
  double busy = 0.0, attempts = 0.0;
  for (const engine::ShardMetrics& shard : m.shards) {
    busy += shard.busy_seconds;
    attempts += static_cast<double>(shard.cases_run);
  }
  const double attributed = attribution.total_seconds();

  std::vector<double> queue_wait_ms;
  for (const auto& [id, dispatched] : attribution.first_dispatch_at) {
    auto submitted = traced.submitted_at.find(id);
    if (submitted != traced.submitted_at.end())
      queue_wait_ms.push_back((dispatched - submitted->second) * 1e3);
  }
  std::vector<double> replan_ms;
  for (const Attribution::Span& span : attribution.conversations)
    if (span.protocol == svc::protocols::kReplanRequest)
      replan_ms.push_back((span.end - span.start) * 1e3);
  auto mean = [](const std::vector<double>& v) {
    return v.empty() ? 0.0 : std::accumulate(v.begin(), v.end(), 0.0) / v.size();
  };

  // Codec time on the captured execute payloads: parse then re-serialize,
  // best of three passes.
  double codec_seconds = 0.0;
  std::uint64_t captured_cases = 0;
  for (const auto& [id, at] : traced.submitted_at)
    if (id >= 1 && id <= kCaptureCases) ++captured_cases;
  if (!extras.execute_payloads.empty()) {
    codec_seconds = 1e30;
    for (int pass = 0; pass < 3; ++pass) {
      const double start = now_seconds();
      std::size_t sink = 0;
      for (const std::string& xml : extras.execute_payloads)
        sink += wfl::dataset_to_xml_string(wfl::dataset_from_xml_string(xml)).size();
      codec_seconds = std::min(codec_seconds, now_seconds() - start);
      if (sink == 0) std::printf("(empty codec output)\n");
    }
  }

  store::StoreStats store_stats;
  if (engine.journal() != nullptr) store_stats = engine.journal()->stats();
  const double appends = static_cast<double>(store_stats.wal.appends);
  const double fsyncs = static_cast<double>(store_stats.wal.fsyncs);

  const double uptime = m.uptime_seconds;
  const double shards = static_cast<double>(m.shards.size());
  const double overhead_pct =
      untraced.cases_per_s > 0.0 ? (1.0 - traced_e2e.cases_per_s / untraced.cases_per_s) * 100
                                 : 0.0;

  std::printf("[trace] %zu cases completed, %" PRIu64 " sends, spans in %s\n", m.completed,
              sends, trace_file.c_str());
  std::printf("[trace] attributed %.4f s of %.4f s shard busy (ratio %.4f); by layer:", attributed,
              busy, ratio(attributed, busy));
  for (const auto& [layer, seconds] : layer_seconds)
    std::printf(" %s %.4f s (%.1f%%)", layer.c_str(), seconds, 100.0 * ratio(seconds, attributed));
  std::printf("\n[trace] overhead %.2f%%: untraced %.2f cases/s, traced %.2f cases/s\n",
              overhead_pct, untraced.cases_per_s, traced_e2e.cases_per_s);
  std::printf("[trace] engine: %.0f attempts, %zu completed, busy %.4f s over %.0f shards x "
              "%.4f s uptime; %zu enact/restore preps; %zu queue waits\n",
              attempts, m.completed, busy, shards, uptime, attribution.attempt_prep_seconds.size(),
              queue_wait_ms.size());
  std::printf("[trace] sched: %zu jobs executed, %zu stolen, %.0f parks\n", m.jobs_executed,
              m.jobs_stolen, sum_points(registry, "sched_parks_total"));
  std::printf("[trace] agent: %" PRIu64 " sends (registry platform_messages_sent_total %.0f, "
              "live shard stacks only), %" PRIu64 " payload bytes; execute: %" PRIu64
              " messages, %" PRIu64 " bytes, max %" PRIu64 "\n",
              sends, sum_points(registry, "platform_messages_sent_total"), payload, execute_count,
              execute_bytes, execute_max);
  std::printf("[trace] planner: %zu replans served, %zu fitness replies\n", replan_ms.size(),
              extras.plan_fitness.size());
  std::printf("[trace] wfl: %zu execute payloads of %" PRIu64 " cases, codec %.6f s\n",
              extras.execute_payloads.size(), captured_cases, codec_seconds);
  std::printf("[trace] wire: %" PRIu64 " round trips, %.6f s, %" PRIu64 " bytes, %" PRIu64
              " intern hits of %" PRIu64 "\n",
              extras.wire_round_trips, extras.wire_seconds, extras.wire_bytes, extras.intern_hits,
              extras.intern_hits + extras.intern_misses);
  std::printf("[trace] store: %.0f appends, %.0f fsyncs, %" PRIu64 " bytes appended, %" PRIu64
              " snapshots\n",
              appends, fsyncs, traced.store_bytes, store_stats.snapshots_written);

  auto self_ms = [&](const std::string& layer) {
    auto it = layer_seconds.find(layer);
    return it == layer_seconds.end() ? 0.0 : per_case(it->second * 1e3);
  };
  return {
      {"engine.queue_wait_ms", mean(queue_wait_ms), "ms"},
      {"engine.attempt_prep_ms", mean(attribution.attempt_prep_seconds) * 1e3, "ms"},
      {"engine.attempts_per_case", per_case(attempts), "count"},
      {"engine.shard_busy_ratio", ratio(busy, shards * uptime), "ratio"},
      {"engine.client_self_ms_per_case", self_ms("engine"), "ms"},
      {"sched.jobs_per_case", per_case(static_cast<double>(m.jobs_executed)), "count"},
      {"sched.steal_ratio", ratio(static_cast<double>(m.jobs_stolen),
                                  static_cast<double>(m.jobs_executed)), "ratio"},
      {"sched.parks_per_case", per_case(sum_points(registry, "sched_parks_total")), "count"},
      {"agent.messages_per_case", per_case(static_cast<double>(sends)), "count"},
      {"agent.payload_kb_per_case", per_case(static_cast<double>(payload) / 1024.0), "KiB"},
      {"coordination.self_ms_per_case", self_ms("coordination"), "ms"},
      {"container.self_ms_per_case", self_ms("container"), "ms"},
      {"matchmaking.self_ms_per_case", self_ms("matchmaking"), "ms"},
      {"planning.self_ms_per_case", self_ms("planning"), "ms"},
      {"other.self_ms_per_case", self_ms("other"), "ms"},
      {"coordination.execute_payload_kb_mean",
       ratio(static_cast<double>(execute_bytes), static_cast<double>(execute_count)) / 1024.0,
       "KiB"},
      {"coordination.execute_payload_kb_max", static_cast<double>(execute_max) / 1024.0, "KiB"},
      {"planner.replans_per_case", per_case(static_cast<double>(replan_ms.size())), "count"},
      {"planner.replan_ms_p50", percentile(replan_ms, 50.0), "ms"},
      {"planner.plan_fitness_mean", mean(extras.plan_fitness), "ratio"},
      {"wfl.dataset_codec_us_per_case",
       ratio(codec_seconds * 1e6, static_cast<double>(captured_cases)), "us"},
      {"wire.round_trip_us",
       ratio(extras.wire_seconds * 1e6, static_cast<double>(extras.wire_round_trips)), "us"},
      {"wire.kb_per_case", per_case(static_cast<double>(extras.wire_bytes) / 1024.0), "KiB"},
      {"wire.intern_hit_ratio",
       ratio(static_cast<double>(extras.intern_hits),
             static_cast<double>(extras.intern_hits + extras.intern_misses)), "ratio"},
      {"store.appends_per_case", per_case(appends), "count"},
      {"store.fsyncs_per_case", per_case(fsyncs), "count"},
      {"store.appends_per_fsync", ratio(appends, fsyncs), "ratio"},
      {"store.kb_per_case", per_case(static_cast<double>(traced.store_bytes) / 1024.0), "KiB"},
      {"store.snapshots", static_cast<double>(store_stats.snapshots_written), "count"},
      {"trace.attributed_busy_ratio", ratio(attributed, busy), "ratio"},
      {"trace.overhead_pct", overhead_pct, "%"},
  };
}

/// Writes case, attempt and conversation spans as JSON Lines.
void write_spans(const std::string& path, const Phase& traced, const Recorder& recorder) {
  std::ofstream out(path);
  for (std::size_t i = 0; i < traced.ids.size(); ++i) {
    auto submitted = traced.submitted_at.find(traced.ids[i]);
    if (submitted == traced.submitted_at.end()) continue;
    const engine::CaseOutcome& o = traced.outcomes[i];
    out << "{\"kind\":\"case\",\"case\":" << traced.ids[i] << ",\"start\":" << submitted->second
        << ",\"end\":" << submitted->second + o.latency_seconds << ",\"shard\":" << o.shard
        << ",\"state\":\"" << engine::to_string(o.state) << "\"}\n";
  }
  for (std::size_t s = 0; s < recorder.shards(); ++s) {
    Attribution shard_attribution;
    attribute_shard(recorder.stamps(s), traced.submitted_at, shard_attribution);
    for (const Attribution::Span& span : shard_attribution.conversations) {
      const bool attempt = engine_case_of(span.conversation).has_value();
      out << "{\"kind\":\"" << (attempt ? "attempt" : "conversation") << "\",\"shard\":" << s
          << ",\"protocol\":\"" << json_escape(span.protocol) << "\",\"conversation\":\""
          << json_escape(span.conversation) << "\",\"start\":" << span.start
          << ",\"end\":" << span.end << "}\n";
    }
  }
}

int run(const Args& args) {
  const std::string base = args.workdir + "/" + args.workload + "-" + std::to_string(getpid());
  fs::create_directories(base);
  struct Cleanup {
    std::string dir;
    ~Cleanup() {
      std::error_code ignored;
      fs::remove_all(dir, ignored);
    }
  } cleanup{base};

  Check check;
  Phase measured;
  run_phase(measured, args, base + "/measured", kSetupRepeats, nullptr);
  check_outcomes(measured, check);
  const bool exact = measured.workload->durable;
  const std::size_t digest_count = std::min(kDigestCases, measured.outcomes.size());
  const std::uint64_t digest = phase_digest(measured, digest_count, exact);
  const EndToEnd e2e = end_to_end(measured);
  report_end_to_end("measured", measured, e2e);
  const std::size_t attempted = measured.ids.size() + measured.refused;
  std::size_t failed = check.failed;
  const double setup_s = median(measured.setup_seconds);
  const double rss = measured.peak_rss_mb;
  measured.engine.reset();

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"cases_per_s", e2e.cases_per_s, "1/s"},
        {"case_latency_p50_ms", e2e.p50_ms, "ms"},
        {"case_latency_p90_ms", e2e.p90_ms, "ms"},
        {"cpu_ms_per_case", e2e.cpu_ms_per_case, "ms"},
        {"virtual_makespan_s", e2e.makespan_s, "s"},
        {"peak_rss_mb", rss, "MB"},
        {"setup_s", setup_s, "s"},
    };
  } else {
    Recorder recorder(measured.workload->config.shards, kCaptureCases);
    Phase traced;
    run_phase(traced, args, base + "/traced", 1, &recorder);
    Check traced_check;
    check_outcomes(traced, traced_check);
    if (!traced_check.ok) check.fail("traced run: " + traced_check.problems.front());
    failed += traced_check.failed;
    if (phase_digest(traced, digest_count, exact) != digest)
      check.fail("traced run digest differs from the measured run's");
    const EndToEnd traced_e2e = end_to_end(traced);
    report_end_to_end("traced", traced, traced_e2e);
    const std::string trace_file =
        args.workdir + "/trace-" + args.workload + "-" + std::to_string(args.seed) + ".jsonl";
    metrics = per_layer(traced, recorder, e2e, traced_e2e, trace_file);
    write_spans(trace_file, traced, recorder);
    traced.engine.reset();
  }

  const std::uint64_t reference = reference_digest(args, base + "/reference", digest_count);
  std::printf("[check] digest of the first %zu cases: %016" PRIx64 " (reference %016" PRIx64
              ", %s fields)\n",
              digest_count, digest, reference, exact ? "all outcome" : "placement-independent");
  if (reference != digest) check.fail("digest differs from the one-shard reference re-execution");
  for (const std::string& problem : check.problems) std::printf("[check] FAIL %s\n", problem.c_str());
  std::printf("[check] %s\n", check.ok ? "every case Completed with the expected work" : "FAILED");
  std::fflush(stdout);
  print_result(check.ok, attempted, failed, metrics);
  return check.ok ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench_driver: %s\n", error.what());
    return 2;
  }
}
