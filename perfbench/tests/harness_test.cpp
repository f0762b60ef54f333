// Unit tests of the benchmark harness: the closed-loop driver against a fake
// system on a fake clock, the percentile rule, the per-case digest, the
// self-time attribution on synthetic event lists, and the generator.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <vector>

#include "harness.hpp"
#include "wfl/xml_io.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

// -- closed loop -------------------------------------------------------------------

/// A system where the case submitted as index i takes durations[i % n] time
/// units, served by `servers` parallel servers in submission order. The
/// clock advances one unit per idle sweep.
struct FakeSystem {
  std::vector<double> durations;
  std::size_t servers = 1;
  double clock = 0.0;
  std::uint64_t next_handle = 1;
  std::map<std::uint64_t, double> finish_at;
  std::vector<double> server_free;
  std::size_t max_in_flight = 0;
  std::size_t refuse_every = 0;  ///< refuse each n-th submission (0: never)
  std::size_t submissions = 0;

  LoopOps ops() {
    server_free.assign(servers, 0.0);
    LoopOps o;
    o.submit = [this](std::size_t index) -> std::uint64_t {
      ++submissions;
      if (refuse_every != 0 && submissions % refuse_every == 0) return 0;
      auto server = std::min_element(server_free.begin(), server_free.end());
      const double start = std::max(*server, clock);
      *server = start + durations[index % durations.size()];
      finish_at[next_handle] = *server;
      std::size_t in_flight = 0;
      for (const auto& [handle, at] : finish_at)
        if (at > clock) ++in_flight;
      max_in_flight = std::max(max_in_flight, in_flight);
      return next_handle++;
    };
    o.done = [this](std::uint64_t handle) { return finish_at.at(handle) <= clock; };
    o.idle = [this] { clock += 1.0; };
    o.now = [this] { return clock; };
    return o;
  }
};

TEST(ClosedLoop, KeepsOutstandingAndRefillsAsSoonAsOneFinishes) {
  FakeSystem system;
  system.durations = {3.0};
  system.servers = 2;
  const LoopResult result = run_closed_loop(system.ops(), 4, 30.0);
  EXPECT_EQ(system.max_in_flight, 4u);
  EXPECT_EQ(result.refused, 0u);
  EXPECT_EQ(result.completions.size(), result.submitted);
  // Two servers at 3 units per case over ~30 units: about 20 cases, and no
  // submission after the stop time.
  EXPECT_GE(result.submitted, 20u);
  EXPECT_LE(result.submitted, 24u);
  EXPECT_GE(result.stopped_at, 30.0);
  for (const Completion& c : result.completions)
    EXPECT_EQ(c.observed_at, system.finish_at.at(c.handle));  // seen on the sweep it finished
}

TEST(ClosedLoop, WaitsForInFlightCasesAfterStopAndReportsEverySweep) {
  FakeSystem system;
  system.durations = {10.0};
  system.servers = 3;
  std::vector<double> sweeps;
  LoopOps ops = system.ops();
  ops.on_sweep = [&](double now) { sweeps.push_back(now); };
  const LoopResult result = run_closed_loop(ops, 3, 5.0);
  EXPECT_EQ(result.submitted, 3u);
  EXPECT_EQ(result.stopped_at, 5.0);
  ASSERT_EQ(result.completions.size(), 3u);
  for (const Completion& c : result.completions) EXPECT_GT(c.observed_at, result.stopped_at);
  // One sweep per clock tick from 0 until the last case is seen at 10.
  ASSERT_FALSE(sweeps.empty());
  EXPECT_EQ(sweeps.front(), 0.0);
  EXPECT_EQ(sweeps.back(), 10.0);
  EXPECT_TRUE(std::is_sorted(sweeps.begin(), sweeps.end()));
}

TEST(ClosedLoop, CompletionsPerWindowSplitsOnBounds) {
  LoopResult result;
  for (const double at : {0.5, 1.0, 1.5, 2.0, 2.9, 3.0, 7.0})
    result.completions.push_back({0, 1, at});
  // [1, 2) holds 1.0 and 1.5; [2, 3) holds 2.0 and 2.9; 0.5 is before the
  // window, 3.0 is at its open end and 7.0 after it.
  EXPECT_EQ(completions_per_window(result, {1.0, 2.0, 3.0}), (std::vector<std::size_t>{2, 2}));
  EXPECT_TRUE(completions_per_window(result, {1.0}).empty());
}

TEST(ClosedLoop, SlowCaseDoesNotBlockRefillingOtherSlots) {
  // Case 0 takes 50 units; the others 1. The loop must keep two fast cases
  // flowing around the slow one, not wait for it in submission order.
  FakeSystem system;
  system.durations.assign(64, 1.0);
  system.durations[0] = 50.0;
  system.servers = 8;
  const LoopResult result = run_closed_loop(system.ops(), 2, 20.0);
  ASSERT_FALSE(result.completions.empty());
  EXPECT_EQ(result.completions.back().index, 0u);  // the slow case finishes last
  EXPECT_GE(result.submitted, 15u);
}

TEST(ClosedLoop, RefusedSubmissionsAreCountedAndRetried) {
  FakeSystem system;
  system.durations = {2.0};
  system.servers = 2;
  system.refuse_every = 3;
  const LoopResult result = run_closed_loop(system.ops(), 2, 20.0);
  EXPECT_GT(result.refused, 0u);
  EXPECT_EQ(result.completions.size(), result.submitted);
  EXPECT_EQ(result.submitted + result.refused, system.submissions);
}

// -- percentiles -----------------------------------------------------------------------

TEST(Percentile, NearestRank) {
  std::vector<double> values;
  for (int i = 100; i >= 1; --i) values.push_back(i);  // unsorted input
  EXPECT_EQ(percentile(values, 50.0), 50.0);
  EXPECT_EQ(percentile(values, 90.0), 90.0);
  EXPECT_EQ(percentile(values, 99.0), 99.0);
  EXPECT_EQ(percentile(values, 100.0), 100.0);
  EXPECT_EQ(percentile({7.0}, 90.0), 7.0);
  EXPECT_EQ(percentile({}, 50.0), 0.0);
  EXPECT_EQ(percentile({1.0, 2.0, 3.0}, 50.0), 2.0);
}

TEST(Percentile, ReportableOnlyWithTenSamplesBeyond) {
  EXPECT_TRUE(percentile_reportable(1000, 99.0));
  EXPECT_FALSE(percentile_reportable(999, 99.0));
  EXPECT_TRUE(percentile_reportable(100, 90.0));
  EXPECT_FALSE(percentile_reportable(99, 90.0));
  EXPECT_TRUE(percentile_reportable(20, 50.0));
  EXPECT_FALSE(percentile_reportable(19, 50.0));
  EXPECT_FALSE(percentile_reportable(0, 50.0));
}

// -- digest ---------------------------------------------------------------------------

OutcomeFields completed(int activities) {
  OutcomeFields f;
  f.state = "Completed";
  f.activities_executed = activities;
  f.goal_satisfaction = 1.0;
  f.makespan = 12.5;
  f.total_cost = 3.25;
  return f;
}

TEST(Digest, IdenticalOutcomesGiveIdenticalDigests) {
  const std::vector<OutcomeFields> a = {completed(7), completed(12)};
  const std::vector<OutcomeFields> b = {completed(7), completed(12)};
  EXPECT_EQ(digest_cases(a, true), digest_cases(b, true));
  EXPECT_EQ(digest_cases(a, false), digest_cases(b, false));
}

TEST(Digest, OrderAndPlacementIndependentFieldsCount) {
  const std::vector<OutcomeFields> a = {completed(7), completed(12)};
  const std::vector<OutcomeFields> swapped = {completed(12), completed(7)};
  EXPECT_NE(digest_cases(a, false), digest_cases(swapped, false));
  std::vector<OutcomeFields> replanned = a;
  replanned[1].replans = 1;
  EXPECT_NE(digest_cases(a, false), digest_cases(replanned, false));
}

TEST(Digest, ExactFieldsCountOnlyInExactMode) {
  const std::vector<OutcomeFields> a = {completed(7)};
  std::vector<OutcomeFields> moved = a;
  moved[0].makespan = 13.0;  // placement-dependent in memory
  moved[0].dispatch_failures = 2;
  EXPECT_EQ(digest_cases(a, false), digest_cases(moved, false));
  EXPECT_NE(digest_cases(a, true), digest_cases(moved, true));
}

// -- attribution ----------------------------------------------------------------------

SendStamp send(double t, const char* sender, const char* receiver, const char* protocol,
               const char* conversation, bool request, std::uint64_t bytes = 0) {
  SendStamp s;
  s.t = t;
  s.sender = sender;
  s.receiver = receiver;
  s.protocol = protocol;
  s.conversation = conversation;
  s.request = request;
  s.payload_bytes = bytes;
  return s;
}

TEST(Attribution, ChargesEachGapToTheSenderWhileAnAttemptIsOpen) {
  // One attempt of engine case 1, submitted at t=0.5, dispatched at 1.0:
  // cs asks ms, ms answers, cs executes on ac-1, ac-1 answers, cs reports.
  const std::vector<SendStamp> stamps = {
      send(1.0, "engine-client", "cs", "enact-case", "engine/1/0", true),
      send(1.5, "cs", "ms", "find-container", "case-1/match/A2/0", true),
      send(1.75, "ms", "cs", "find-container", "case-1/match/A2/0", false),
      send(2.0, "cs", "ac-1", "execute-activity", "case-1/exec/A2/0", true, 4096),
      send(3.0, "ac-1", "cs", "execute-activity", "case-1/exec/A2/0", false),
      send(3.5, "cs", "engine-client", "case-completed", "engine/1/0", false),
  };
  Attribution out;
  attribute_shard(stamps, {{1, 0.5}}, out);
  EXPECT_DOUBLE_EQ(out.self_seconds.at("engine-client"), 0.5);  // from the submit
  EXPECT_DOUBLE_EQ(out.self_seconds.at("cs"), 0.5 + 0.25 + 0.5);
  EXPECT_DOUBLE_EQ(out.self_seconds.at("ms"), 0.25);
  EXPECT_DOUBLE_EQ(out.self_seconds.at("ac-1"), 1.0);
  EXPECT_DOUBLE_EQ(out.total_seconds(), 3.0);
  ASSERT_EQ(out.attempt_prep_seconds.size(), 1u);
  EXPECT_DOUBLE_EQ(out.attempt_prep_seconds[0], 0.5);
  EXPECT_DOUBLE_EQ(out.first_dispatch_at.at(1), 1.0);
  // Spans: the attempt, one matchmaking and one execute conversation.
  ASSERT_EQ(out.conversations.size(), 3u);
  EXPECT_EQ(out.conversations[2].protocol, "case-completed");
  EXPECT_DOUBLE_EQ(out.conversations[2].start, 1.0);
  EXPECT_DOUBLE_EQ(out.conversations[2].end, 3.5);
}

TEST(Attribution, IdleShardTimeIsNotCharged) {
  // Case 1 ends at 2.0; case 2 is submitted only at 5.0 and dispatched at
  // 5.25: the 3 idle seconds in between go to nobody.
  const std::vector<SendStamp> stamps = {
      send(1.0, "engine-client", "cs", "enact-case", "engine/1/0", true),
      send(2.0, "cs", "engine-client", "case-completed", "engine/1/0", false),
      send(3.0, "bs", "is", "register", "late", true),  // no attempt open
      send(5.25, "engine-client", "cs", "enact-case", "engine/2/0", true),
      send(6.0, "cs", "engine-client", "case-completed", "engine/2/0", false),
  };
  Attribution out;
  attribute_shard(stamps, {{1, 1.0}, {2, 5.0}}, out);
  EXPECT_EQ(out.self_seconds.count("bs"), 0u);
  EXPECT_DOUBLE_EQ(out.self_seconds.at("engine-client"), 0.0 + 0.25);
  EXPECT_DOUBLE_EQ(out.self_seconds.at("cs"), 1.0 + 0.75);
  EXPECT_DOUBLE_EQ(out.total_seconds(), 2.0);
}

TEST(Attribution, CheckpointAndRetryAttemptsAreChargedToTheEngineClient) {
  // A failed attempt, its checkpoint, then the retry (restore-case) on the
  // same shard. Conversation ids repeat across attempts (a fresh stack per
  // attempt); requests left open by the failed attempt must not pair with
  // the retry's replies.
  const std::vector<SendStamp> stamps = {
      send(0.0, "engine-client", "cs", "enact-case", "engine/7/0", true),
      send(1.0, "cs", "ps", "replanning-request", "case-1/replan", true),
      send(2.0, "cs", "engine-client", "case-completed", "engine/7/0", false),
      send(2.5, "engine-client", "cs", "checkpoint-case", "engine/7/0/checkpoint", true),
      send(2.75, "cs", "engine-client", "checkpoint-case", "engine/7/0/checkpoint", false),
      send(3.0, "engine-client", "cs", "restore-case", "engine/7/1", true),
      send(4.0, "cs", "ps", "replanning-request", "case-1/replan", true),
      send(6.0, "ps", "cs", "replanning-request", "case-1/replan", false),
      send(7.0, "cs", "engine-client", "case-completed", "engine/7/1", false),
  };
  Attribution out;
  attribute_shard(stamps, {{7, 0.0}}, out);
  EXPECT_DOUBLE_EQ(out.self_seconds.at("engine-client"), 0.0 + 0.5 + 0.25);
  EXPECT_DOUBLE_EQ(out.self_seconds.at("ps"), 2.0);
  EXPECT_EQ(out.attempt_prep_seconds.size(), 2u);  // enact + restore, not checkpoint
  std::vector<double> replans;
  for (const auto& span : out.conversations)
    if (span.protocol == "replanning-request") replans.push_back(span.end - span.start);
  ASSERT_EQ(replans.size(), 1u);
  EXPECT_DOUBLE_EQ(replans[0], 2.0);  // paired with the retry's request at 4.0
  EXPECT_DOUBLE_EQ(out.total_seconds(), 7.0 - 0.0 - 0.0);
}

TEST(Attribution, EngineCaseOfParsesAttemptConversations) {
  EXPECT_EQ(engine_case_of("engine/42/0"), std::optional<std::uint64_t>(42));
  EXPECT_EQ(engine_case_of("engine/42/1/checkpoint"), std::optional<std::uint64_t>(42));
  EXPECT_FALSE(engine_case_of("case-1/exec/A2/0").has_value());
  EXPECT_FALSE(engine_case_of("engine/").has_value());
  EXPECT_FALSE(engine_case_of("engine/x1/0").has_value());
}

// -- generator -----------------------------------------------------------------------

TEST(Workloads, Fig10ActivityCountsFollowTheRefinementModel) {
  EXPECT_EQ(fig10_expected_activities(12.0), 7);   // one pass reaches 11.7
  EXPECT_EQ(fig10_expected_activities(9.0), 12);   // two passes reach 7.6
  EXPECT_EQ(fig10_expected_activities(7.5), 17);   // three passes hit the floor
}

std::vector<std::string> pool_xml(const Workload& w) {
  std::vector<std::string> out;
  for (const CaseInput& input : w.pool) {
    out.push_back(ig::wfl::process_to_xml_string(input.process) +
                  ig::wfl::case_to_xml_string(input.case_description));
  }
  return out;
}

TEST(Workloads, SameSeedSameInputsOtherSeedOtherInputs) {
  for (const std::string name : {"fig10_portal", "chain_long", "replan_storm"}) {
    const Workload a = make_workload(name, 5);
    const Workload b = make_workload(name, 5);
    const Workload c = make_workload(name, 6);
    EXPECT_EQ(pool_xml(a), pool_xml(b)) << name;
    EXPECT_EQ(a.config.seed, b.config.seed) << name;
    EXPECT_NE(pool_xml(a), pool_xml(c)) << name;
    EXPECT_NE(a.config.seed, c.config.seed) << name;
    ASSERT_FALSE(a.pool.empty());
  }
  EXPECT_THROW(make_workload("nope", 1), std::invalid_argument);
}

TEST(Workloads, StratifiedMixIsTheSameForEverySeed) {
  auto mix = [](const Workload& w) {
    std::map<int, int> counts;
    for (const CaseInput& input : w.pool) ++counts[input.expected_activities];
    return counts;
  };
  // Only the strata that straddle a pass-count boundary may differ.
  const std::map<int, int> a = mix(make_workload("fig10_portal", 1));
  const std::map<int, int> b = mix(make_workload("fig10_portal", 2));
  for (const int activities : {7, 12, 17}) {
    EXPECT_GT(a.count(activities), 0u);
    EXPECT_LE(std::abs(a.at(activities) - b.at(activities)), 2) << activities;
  }
  const Workload chain = make_workload("chain_long", 3);
  for (const CaseInput& input : chain.pool) {
    EXPECT_GE(input.expected_activities, 40);
    EXPECT_LE(input.expected_activities, 80);
  }
}

}  // namespace
}  // namespace perfbench
