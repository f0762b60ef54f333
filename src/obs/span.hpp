// Span-based tracing: the one trace model.
//
// The paper's monitoring service "gathers information about the status of
// each activity"; a SpanTracer collects sim-time-stamped spans of what the
// ATN machine did — case → activity → FORK/JOIN barrier → CHOICE decision →
// loop iteration, with parent/child links and status tags for retries,
// re-plans and chaos-induced faults — and of every message the agent
// platform carried (one closed Message span per send; agent/trace_render.hpp).
// The synchronous wfl::enact stamps spans with its step counter, the
// CoordinationService and the platform with the virtual clock, so a chaotic
// run's trace replays bitwise under the same seed. Exporters in
// obs/export.hpp render spans as Chrome trace_event JSON (Perfetto).
//
// Threading: span ids are handed out and spans mutated under one mutex, so
// an engine thread may read spans() while a shard worker enacts. A disabled
// tracer returns id 0 from begin() and record() after one relaxed atomic
// load, and every mutation on id 0 is a no-op.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.hpp"  // Labels, Counter

namespace ig::obs {

/// Creation-ordered span handle; 0 means "no span" (disabled tracer or no
/// parent) and is ignored by every mutator.
using SpanId = std::uint64_t;

enum class SpanKind {
  Case,       ///< one enactment, begin -> terminal reply
  Activity,   ///< one end-user activity, dispatch -> completion/failure
  Barrier,    ///< FORK fan-out (instant) or JOIN wait (first arrival -> fire)
  Choice,     ///< one CHOICE decision (instant)
  Iteration,  ///< one pass of a loop, back-edge -> next decision
  Step,       ///< flow-control node visit (Begin / End / Merge)
  Message,    ///< one platform message, send -> delivery or loss (closed)
};

const char* to_string(SpanKind kind) noexcept;

struct Span {
  SpanId id = 0;
  SpanId parent = 0;       ///< 0 = root
  SpanKind kind = SpanKind::Case;
  std::string name;        ///< activity / process / message protocol name
  std::string case_id;     ///< grouping key ("case-1")
  double start = 0.0;      ///< sim seconds (or machine steps, sync engine)
  double end = 0.0;
  bool closed = false;
  Labels tags;             ///< status=ok/failed, retry=N, fault=..., ...

  /// First value recorded for `key`, or nullptr.
  const std::string* tag(const std::string& key) const noexcept;

  bool operator==(const Span&) const = default;
};

class SpanTracer {
 public:
  SpanTracer() = default;
  SpanTracer(const SpanTracer&) = delete;
  SpanTracer& operator=(const SpanTracer&) = delete;

  void set_enabled(bool enabled) noexcept {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const noexcept { return enabled_.load(std::memory_order_relaxed); }

  /// Retained-span cap: once exceeded, the oldest *closed* spans are
  /// dropped (open spans survive so their end() still lands). 0 keeps all.
  void set_limit(std::size_t limit);
  std::size_t dropped() const;  ///< since construction or the last clear()
  /// Also counts every drop into `counter` (an environment passes its
  /// registry's tracer_spans_dropped_total), which clear() leaves alone.
  void count_drops_into(Counter* counter);

  /// Opens a span; returns 0 when disabled.
  SpanId begin(SpanKind kind, std::string name, std::string case_id, SpanId parent,
               double at);
  /// Adds a tag to an open or closed span. No-op for id 0 / unknown ids.
  void tag(SpanId id, std::string key, std::string value);
  /// Closes a span. No-op for id 0 / unknown ids; idempotent.
  void end(SpanId id, double at);
  /// begin + end at the same timestamp (decision points).
  SpanId instant(SpanKind kind, std::string name, std::string case_id, SpanId parent,
                 double at);
  /// Inserts a finished span built by the caller: assigns its id, marks it
  /// closed and keeps its start/end and tags. Returns 0 when disabled.
  SpanId record(Span span);

  std::size_t size() const;
  /// All retained spans in creation order.
  std::vector<Span> spans() const;
  /// Retained spans belonging to one case, creation order.
  std::vector<Span> case_spans(const std::string& case_id) const;
  void clear();

 private:
  SpanId insert(Span span);  ///< numbers and stores a span (0 when disabled)
  void trim_locked();

  mutable std::mutex mutex_;
  std::atomic<bool> enabled_{false};
  std::map<SpanId, Span> spans_;
  SpanId next_ = 1;
  std::size_t limit_ = 0;
  std::size_t dropped_ = 0;
  Counter* drop_counter_ = nullptr;
};

}  // namespace ig::obs
