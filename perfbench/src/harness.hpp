// Workload-independent pieces of the benchmark: the closed-loop driver, the
// percentile rule, the per-case digest and the self-time attribution of a
// traced run. Each is a plain function over plain data, so the unit tests
// drive them with fakes and synthetic event lists instead of an engine.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

// -- closed loop -----------------------------------------------------------------

/// What the closed loop needs from the system under test. `submit` returns a
/// non-zero handle, or 0 when the submission was refused; `done` polls one
/// handle; `idle` runs when a sweep found nothing finished (the real driver
/// sleeps briefly there); `now` is seconds on a monotonic clock.
struct LoopOps {
  std::function<std::uint64_t(std::size_t index)> submit;
  std::function<bool(std::uint64_t handle)> done;
  std::function<void()> idle;
  std::function<double()> now;
  /// Optional: runs at the start of every sweep with that sweep's `now()`,
  /// so the caller can sample other clocks at times of its choosing.
  std::function<void(double now)> on_sweep;
};

struct Completion {
  std::size_t index = 0;      ///< submission order, 0-based
  std::uint64_t handle = 0;
  double observed_at = 0.0;   ///< `now()` of the sweep that saw it finish
};

struct LoopResult {
  std::size_t submitted = 0;  ///< accepted submissions
  std::size_t refused = 0;    ///< submissions that returned handle 0
  std::vector<Completion> completions;  ///< in the order they were seen
  double stopped_at = 0.0;  ///< `now()` of the first sweep at or after `stop_at`
};

/// One driver thread keeps `outstanding` cases in flight and submits the
/// next one as soon as any in-flight case is done, until `stop_at`; then it
/// stops submitting and waits for the cases still in flight. A refused
/// submission counts and its slot is refilled on the next sweep.
LoopResult run_closed_loop(const LoopOps& ops, std::size_t outstanding, double stop_at);

/// Completions observed in each sub-window [bounds[k], bounds[k+1]).
std::vector<std::size_t> completions_per_window(const LoopResult& result,
                                                const std::vector<double>& bounds);

// -- percentiles -----------------------------------------------------------------

/// Nearest-rank percentile of `values` (need not be sorted); 0 when empty.
double percentile(std::vector<double> values, double p);

/// True when at least ten of `samples` lie beyond the p-th percentile, the
/// rule for reporting that percentile at all.
bool percentile_reportable(std::size_t samples, double p);

// -- per-case digest --------------------------------------------------------------

/// The outcome fields a digest covers. `exact` adds the fields that only a
/// placement-independent attempt model (durable mode) fixes: makespan, cost,
/// dispatch failures, replays and engine retries.
struct OutcomeFields {
  std::string state;
  std::string error;
  int activities_executed = 0;
  int activities_replayed = 0;
  int dispatch_failures = 0;
  int replans = 0;
  int engine_retries = 0;
  double goal_satisfaction = 0.0;
  double makespan = 0.0;
  double total_cost = 0.0;
};

/// FNV-1a over the chosen fields of one outcome, chained onto `seed`, so a
/// run's digest is the fold of its cases in submission order.
std::uint64_t digest_case(std::uint64_t seed, const OutcomeFields& outcome, bool exact);

/// Fold of digest_case over `outcomes` in order.
std::uint64_t digest_cases(const std::vector<OutcomeFields>& outcomes, bool exact);

// -- traced-run attribution ---------------------------------------------------------

/// One platform send on one shard, as the transport hook stamped it.
struct SendStamp {
  double t = 0.0;               ///< seconds on the trace clock
  std::string sender;
  std::string receiver;
  std::string protocol;
  std::string conversation;
  bool request = false;         ///< an initiating performative
  std::uint64_t payload_bytes = 0;
};

/// Self time per sending agent, attempt preparation and request/reply spans
/// of one or more shards.
struct Attribution {
  std::map<std::string, double> self_seconds;  ///< by sender
  std::vector<double> attempt_prep_seconds;    ///< one per enact/restore send
  std::map<std::uint64_t, double> first_dispatch_at;  ///< case -> first enact send
  struct Span {
    std::string protocol;
    std::string conversation;
    double start = 0.0;
    double end = 0.0;
  };
  std::vector<Span> conversations;  ///< request -> first reply on the same id
  double total_seconds() const;
};

/// The engine's proxy agent on every shard and its attempt protocols.
inline constexpr const char* kEngineClient = "engine-client";

/// Parses the engine case id out of an attempt conversation id
/// ("engine/<case>/<retries>[/checkpoint]").
std::optional<std::uint64_t> engine_case_of(const std::string& conversation);

/// Attributes one shard's stamps (in time order). Each send is charged the
/// gap since the previous send on the shard, to its sender:
///  * a send by the engine client is always charged, but never from before
///    its case was submitted (`submitted_at` by engine case id), so time the
///    shard spent idle waiting for work is not charged to anyone; the
///    shard's first send is charged from its case's submission;
///  * any other send is charged only while an attempt is open, that is
///    after an engine-client send and before the next reply to it.
/// Conversation spans pair each request with the first later send on the
/// same conversation id that is not a request.
void attribute_shard(const std::vector<SendStamp>& stamps,
                     const std::map<std::uint64_t, double>& submitted_at, Attribution& out);

}  // namespace perfbench
