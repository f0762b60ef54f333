#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string_view>

namespace perfbench {

LoopResult run_closed_loop(const LoopOps& ops, std::size_t outstanding, double stop_at) {
  LoopResult result;
  struct InFlight {
    std::size_t index;
    std::uint64_t handle;
  };
  std::vector<InFlight> in_flight;
  in_flight.reserve(outstanding);
  std::size_t next_index = 0;
  bool stopped = false;
  for (;;) {
    const double now = ops.now();
    if (ops.on_sweep) ops.on_sweep(now);
    const bool open = now < stop_at;
    if (!open && !stopped) {
      stopped = true;
      result.stopped_at = now;
    }
    while (open && in_flight.size() < outstanding) {
      const std::size_t index = next_index++;
      const std::uint64_t handle = ops.submit(index);
      if (handle == 0) {
        ++result.refused;
        break;  // retry on the next sweep, after something may have drained
      }
      ++result.submitted;
      in_flight.push_back({index, handle});
    }
    if (!open && in_flight.empty()) break;
    bool progressed = false;
    for (std::size_t i = 0; i < in_flight.size();) {
      if (ops.done(in_flight[i].handle)) {
        result.completions.push_back({in_flight[i].index, in_flight[i].handle, ops.now()});
        in_flight.erase(in_flight.begin() + static_cast<std::ptrdiff_t>(i));
        progressed = true;
      } else {
        ++i;
      }
    }
    if (!progressed) ops.idle();
  }
  return result;
}

std::vector<std::size_t> completions_per_window(const LoopResult& result,
                                                const std::vector<double>& bounds) {
  std::vector<std::size_t> counts(bounds.size() < 2 ? 0 : bounds.size() - 1, 0);
  for (const Completion& c : result.completions) {
    // First bound strictly after the completion; its predecessor opens the window.
    const auto after = std::upper_bound(bounds.begin(), bounds.end(), c.observed_at);
    if (after == bounds.begin() || after == bounds.end()) continue;
    ++counts[static_cast<std::size_t>(after - bounds.begin()) - 1];
  }
  return counts;
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  // Nearest rank: the smallest value with at least p% of samples at or below.
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : std::min(values.size() - 1, static_cast<std::size_t>(rank) - 1);
  return values[index];
}

bool percentile_reportable(std::size_t samples, double p) {
  // Samples strictly beyond the nearest-rank position.
  const double at_or_below = std::ceil(p / 100.0 * static_cast<double>(samples));
  return static_cast<double>(samples) - at_or_below >= 10.0;
}

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

std::uint64_t fnv(std::uint64_t h, const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h ^= bytes[i];
    h *= kFnvPrime;
  }
  return h;
}

std::uint64_t fnv_str(std::uint64_t h, std::string_view s) {
  h = fnv(h, s.data(), s.size());
  return fnv(h, "\0", 1);  // field separator
}

std::uint64_t fnv_int(std::uint64_t h, std::int64_t v) { return fnv(h, &v, sizeof(v)); }

std::uint64_t fnv_double(std::uint64_t h, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return fnv(h, &bits, sizeof(bits));
}

}  // namespace

std::uint64_t digest_case(std::uint64_t seed, const OutcomeFields& o, bool exact) {
  std::uint64_t h = fnv_int(seed, 0x5EED);
  h = fnv_str(h, o.state);
  h = fnv_int(h, o.activities_executed);
  h = fnv_int(h, o.replans);
  h = fnv_double(h, o.goal_satisfaction);
  if (exact) {
    h = fnv_str(h, o.error);
    h = fnv_int(h, o.activities_replayed);
    h = fnv_int(h, o.dispatch_failures);
    h = fnv_int(h, o.engine_retries);
    h = fnv_double(h, o.makespan);
    h = fnv_double(h, o.total_cost);
  }
  return h;
}

std::uint64_t digest_cases(const std::vector<OutcomeFields>& outcomes, bool exact) {
  std::uint64_t h = kFnvOffset;
  for (const OutcomeFields& outcome : outcomes) h = digest_case(h, outcome, exact);
  return h;
}

double Attribution::total_seconds() const {
  double total = 0.0;
  for (const auto& [agent, seconds] : self_seconds) total += seconds;
  return total;
}

std::optional<std::uint64_t> engine_case_of(const std::string& conversation) {
  constexpr std::string_view kPrefix = "engine/";
  if (conversation.compare(0, kPrefix.size(), kPrefix) != 0) return std::nullopt;
  std::uint64_t id = 0;
  std::size_t i = kPrefix.size();
  if (i >= conversation.size()) return std::nullopt;
  for (; i < conversation.size() && conversation[i] != '/'; ++i) {
    const char c = conversation[i];
    if (c < '0' || c > '9') return std::nullopt;
    id = id * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return id;
}

void attribute_shard(const std::vector<SendStamp>& stamps,
                     const std::map<std::uint64_t, double>& submitted_at, Attribution& out) {
  bool open = false;
  bool have_prev = false;
  double prev = 0.0;
  std::map<std::string, double> pending;  // conversation -> request time
  for (const SendStamp& s : stamps) {
    if (s.sender == kEngineClient) {
      double start = have_prev ? prev : s.t;
      const std::optional<std::uint64_t> id = engine_case_of(s.conversation);
      if (id.has_value()) {
        auto submitted = submitted_at.find(*id);
        if (submitted != submitted_at.end())
          start = have_prev ? std::max(prev, submitted->second) : submitted->second;
        if (s.protocol == "enact-case" || s.protocol == "restore-case") {
          // A new attempt: requests left open by an earlier one never pair.
          pending.clear();
          out.attempt_prep_seconds.push_back(std::max(0.0, s.t - start));
          out.first_dispatch_at.emplace(*id, s.t);  // keeps the first attempt's
        }
      }
      out.self_seconds[s.sender] += std::max(0.0, s.t - start);
      open = true;
    } else if (open && have_prev) {
      out.self_seconds[s.sender] += std::max(0.0, s.t - prev);
    }
    if (s.receiver == kEngineClient) open = false;

    if (s.request) {
      pending.emplace(s.conversation, s.t);
    } else {
      auto it = pending.find(s.conversation);
      if (it != pending.end()) {
        out.conversations.push_back({s.protocol, s.conversation, it->second, s.t});
        pending.erase(it);
      }
    }
    prev = s.t;
    have_prev = true;
  }
}

}  // namespace perfbench
