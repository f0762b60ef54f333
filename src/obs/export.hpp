// Serializers for the observability layer, plus the format checks CI runs
// against their output.
//
// Three formats:
//  - Prometheus text exposition (registry snapshot -> scrape page),
//  - Chrome trace_event JSON (spans -> chrome://tracing / Perfetto),
//  - JSON Lines (registry snapshot -> one object per metric, for the
//    BENCH_*.json pipeline).
//
// The validators are deliberately strict syntax checkers — not schema
// interpreters — so a malformed export fails the producing binary (and the
// CI artifact job) instead of surfacing as an unloadable trace later.
#pragma once

#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace ig::obs {

/// Prometheus text exposition format (one `# TYPE` comment per metric name,
/// histogram rendered as cumulative `_bucket{le=...}` + `_sum` + `_count`).
/// Non-finite gauge values are skipped — an absent point is distinguishable
/// from a real zero, a NaN sample is not.
std::string to_prometheus(const RegistrySnapshot& snapshot);

/// Chrome trace_event JSON: {"traceEvents": [...]} with one complete ("X")
/// event per closed span — except message spans, which overlap and so are
/// async begin/end ("b"/"e") pairs keyed by span id — microsecond
/// timestamps scaled from sim seconds, one tid row per case. Span links and
/// tags ride in "args".
std::string to_chrome_trace(const std::vector<Span>& spans);

/// JSON Lines: one self-contained object per metric, `{"source": source,
/// "metric": ..., "kind": ..., ...}`. Histograms carry count/sum/p50/p99.
/// Non-finite values are emitted as null.
std::string to_json_lines(const RegistrySnapshot& snapshot, const std::string& source);

/// Strict JSON syntax check (RFC 8259 grammar; no extensions). On failure
/// returns false and, when `error` is non-null, a message with the offset.
bool validate_json(const std::string& text, std::string* error = nullptr);

/// Prometheus text format check: every line is a comment or
/// `name{labels} value` with a valid metric name and a finite value.
bool validate_prometheus(const std::string& text, std::string* error = nullptr);

}  // namespace ig::obs
