// Chaos layer: deterministic fault injection, request reliability, and
// heartbeat-driven quarantine — the transport lies and the services cope.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "agent/platform.hpp"
#include "engine/engine.hpp"
#include "obs/span.hpp"
#include "grid/grid.hpp"
#include "services/matchmaking.hpp"
#include "services/monitoring.hpp"
#include "services/protocol.hpp"
#include "services/request_tracker.hpp"
#include "virolab/catalogue.hpp"
#include "virolab/workflow.hpp"

namespace ig {
namespace {

using agent::AclMessage;
using agent::Performative;

/// Records everything it receives.
class Recorder : public agent::Agent {
 public:
  using Agent::Agent;
  void handle_message(const AclMessage& message) override { received.push_back(message); }
  void post(AclMessage message) { send(std::move(message)); }
  std::vector<AclMessage> received;
};

/// Answers half-open liveness probes like a recovered container would.
class ProbeResponder : public agent::Agent {
 public:
  using Agent::Agent;
  void handle_message(const AclMessage& message) override {
    if (message.protocol == svc::protocols::kQueryExecutable &&
        message.performative == Performative::QueryIf)
      send(message.make_reply(Performative::Inform));
  }
};

AclMessage make_request(const std::string& sender, const std::string& receiver,
                        const std::string& conversation) {
  AclMessage message;
  message.performative = Performative::Request;
  message.sender = sender;
  message.receiver = receiver;
  message.conversation_id = conversation;
  message.protocol = "test";
  return message;
}

// -- match rules ---------------------------------------------------------------

TEST(ChaosMatch, EmptyFieldsMatchEverythingAndStarMatchesPrefix) {
  AclMessage message = make_request("cs", "ac-3", "c1");
  agent::ChaosMatch any;
  EXPECT_TRUE(any.matches(message));
  agent::ChaosMatch prefix;
  prefix.receiver = "ac-*";
  EXPECT_TRUE(prefix.matches(message));
  prefix.receiver = "cs-*";
  EXPECT_FALSE(prefix.matches(message));
  agent::ChaosMatch exact;
  exact.sender = "cs";
  exact.performative = Performative::Request;
  EXPECT_TRUE(exact.matches(message));
  exact.performative = Performative::Inform;
  EXPECT_FALSE(exact.matches(message));
}

// -- platform fault injection --------------------------------------------------

TEST(Chaos, DropRuleLosesEveryMatchingMessage) {
  grid::Simulation sim;
  obs::SpanTracer tracer;
  tracer.set_enabled(true);
  agent::AgentPlatform platform(sim);
  platform.set_tracer(&tracer);
  platform.spawn<Recorder>("a");
  auto& b = platform.spawn<Recorder>("b");

  agent::ChaosPolicy policy;
  policy.seed = 7;
  agent::ChaosRule rule;
  rule.match.receiver = "b";
  rule.drop = 1.0;
  policy.rules.push_back(rule);
  platform.set_chaos(policy);

  for (int i = 0; i < 5; ++i)
    platform.send(make_request("a", "b", "c" + std::to_string(i)));
  sim.run();

  EXPECT_TRUE(b.received.empty());
  EXPECT_EQ(platform.chaos_stats().dropped, 5u);
  // The loss is visible in the trace, not silent.
  bool annotated = false;
  for (const auto& span : tracer.spans())
    if (span.tag("chaos") != nullptr) annotated = true;
  EXPECT_TRUE(annotated);
}

TEST(Chaos, DuplicateRuleDeliversTwoCopies) {
  grid::Simulation sim;
  agent::AgentPlatform platform(sim);
  platform.spawn<Recorder>("a");
  auto& b = platform.spawn<Recorder>("b");

  agent::ChaosPolicy policy;
  agent::ChaosRule rule;
  rule.match.receiver = "b";
  rule.duplicate = 1.0;
  policy.rules.push_back(rule);
  platform.set_chaos(policy);

  platform.send(make_request("a", "b", "c1"));
  sim.run();

  ASSERT_EQ(b.received.size(), 2u);
  EXPECT_EQ(b.received[0].conversation_id, "c1");
  EXPECT_EQ(b.received[1].conversation_id, "c1");
  EXPECT_EQ(platform.chaos_stats().duplicated, 1u);
}

TEST(Chaos, SameSeedReproducesFaultCountsBitwise) {
  const auto run_once = [] {
    grid::Simulation sim;
    agent::AgentPlatform platform(sim);
    platform.spawn<Recorder>("a");
    auto& b = platform.spawn<Recorder>("b");
    agent::ChaosPolicy policy;
    policy.seed = 2004;
    agent::ChaosRule rule;
    rule.match.receiver = "b";
    rule.drop = 0.3;
    rule.delay = 0.3;
    rule.duplicate = 0.2;
    rule.reorder = 0.1;
    policy.rules.push_back(rule);
    platform.set_chaos(policy);
    for (int i = 0; i < 200; ++i)
      platform.send(make_request("a", "b", "c" + std::to_string(i)));
    sim.run();
    return std::make_tuple(platform.chaos_stats(), b.received.size());
  };

  const auto [stats_a, delivered_a] = run_once();
  const auto [stats_b, delivered_b] = run_once();
  EXPECT_EQ(stats_a.dropped, stats_b.dropped);
  EXPECT_EQ(stats_a.delayed, stats_b.delayed);
  EXPECT_EQ(stats_a.duplicated, stats_b.duplicated);
  EXPECT_EQ(stats_a.reordered, stats_b.reordered);
  EXPECT_EQ(delivered_a, delivered_b);
  EXPECT_GT(stats_a.dropped, 0u);  // the rule actually fired
}

TEST(Chaos, CrashFaultFiresAtNthDeliveryAndBounces) {
  grid::Simulation sim;
  agent::AgentPlatform platform(sim);
  auto& a = platform.spawn<Recorder>("a");
  auto& b = platform.spawn<Recorder>("b");

  agent::ChaosPolicy policy;
  agent::AgentFault fault;
  fault.agent = "b";
  fault.after_deliveries = 2;
  fault.kind = agent::AgentFault::Kind::Crash;
  policy.agent_faults.push_back(fault);
  platform.set_chaos(policy);

  platform.send(make_request("a", "b", "c1"));
  sim.run();
  platform.send(make_request("a", "b", "c2"));
  sim.run();

  // Delivery 1 arrived; delivery 2 fired the crash and bounced.
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_EQ(platform.agent_health("b"), agent::AgentHealth::Crashed);
  EXPECT_EQ(platform.chaos_stats().crashed, 1u);
  ASSERT_EQ(a.received.size(), 1u);
  EXPECT_EQ(a.received[0].performative, Performative::Failure);
  EXPECT_NE(a.received[0].param("error").find("crashed"), std::string::npos);

  // A revived agent receives again (the object never went away).
  platform.revive_agent("b");
  platform.send(make_request("a", "b", "c3"));
  sim.run();
  EXPECT_EQ(b.received.size(), 2u);
}

TEST(Chaos, HangSwallowsBothDirectionsSilently) {
  grid::Simulation sim;
  agent::AgentPlatform platform(sim);
  auto& a = platform.spawn<Recorder>("a");
  auto& b = platform.spawn<Recorder>("b");

  platform.hang_agent("b");
  platform.send(make_request("a", "b", "in"));  // delivery swallowed
  b.post(make_request("b", "a", "out"));        // send swallowed
  sim.run();

  EXPECT_TRUE(b.received.empty());
  EXPECT_TRUE(a.received.empty());  // no bounce: hangs are invisible
  const agent::ChaosStats stats = platform.chaos_stats();
  EXPECT_EQ(stats.swallowed, 1u);
  EXPECT_EQ(stats.dropped, 1u);
}

// -- request tracker -----------------------------------------------------------

TEST(RequestTracker, RetriesOnTimeoutThenDeadLetters) {
  grid::Simulation sim;
  svc::RequestTracker tracker;
  std::vector<AclMessage> sent;
  std::vector<svc::DeadLetter> letters;
  tracker.bind(
      sim, [&](AclMessage message) { sent.push_back(std::move(message)); },
      [&](const svc::DeadLetter& letter) { letters.push_back(letter); });

  tracker.track(make_request("cs", "ac-0", "case/exec/a1/0"), {1.0, 3, 0.1, 0.5});
  sim.run();  // nobody ever answers

  EXPECT_EQ(sent.size(), 3u);  // original + 2 retries
  EXPECT_EQ(tracker.retries_total(), 2u);
  ASSERT_EQ(letters.size(), 1u);
  EXPECT_EQ(letters[0].conversation_id, "case/exec/a1/0");
  EXPECT_EQ(letters[0].receiver, "ac-0");
  EXPECT_EQ(letters[0].attempts, 3);
  EXPECT_EQ(tracker.dead_letters_total(), 1u);
  EXPECT_EQ(tracker.outstanding_count(), 0u);
}

TEST(RequestTracker, SettleWinsOnceAndCancelsTheDeadline) {
  grid::Simulation sim;
  svc::RequestTracker tracker;
  std::size_t sends = 0;
  tracker.bind(sim, [&](AclMessage) { ++sends; });

  tracker.track(make_request("cs", "ac-0", "c1"), {10.0, 3, 0.1, 0.5});
  sim.schedule(0.5, [&] {
    EXPECT_TRUE(tracker.settle("c1"));    // first reply processed
    EXPECT_FALSE(tracker.settle("c1"));   // a chaos duplicate is dropped
  });
  sim.run();

  EXPECT_EQ(sends, 1u);  // the deadline never fired
  EXPECT_EQ(tracker.retries_total(), 0u);
  EXPECT_TRUE(tracker.dead_letters().empty());
  EXPECT_FALSE(tracker.settle("never-tracked"));
}

TEST(RequestTracker, AbandonPrefixCancelsWithoutDeadLetters) {
  grid::Simulation sim;
  svc::RequestTracker tracker;
  tracker.bind(sim, [](AclMessage) {});
  tracker.track(make_request("cs", "x", "case-7/exec/a1/0"), {5.0, 2, 0.1, 0.5});
  tracker.track(make_request("cs", "x", "case-7/match/a2/0"), {5.0, 2, 0.1, 0.5});
  tracker.track(make_request("cs", "x", "case-8/exec/a1/0"), {5.0, 2, 0.1, 0.5});

  EXPECT_EQ(tracker.abandon_prefix("case-7/"), 2u);
  EXPECT_EQ(tracker.outstanding_count(), 1u);
  EXPECT_TRUE(tracker.outstanding("case-8/exec/a1/0"));
  EXPECT_TRUE(tracker.abandon("case-8/exec/a1/0"));
  sim.run();
  EXPECT_TRUE(tracker.dead_letters().empty());
}

TEST(RequestTracker, SameSeedRetriesAtIdenticalTimes) {
  const auto deadline_times = [] {
    grid::Simulation sim;
    svc::RequestTracker tracker;
    tracker.set_seed(99);
    std::vector<grid::SimTime> times;
    tracker.bind(sim, [&](AclMessage) {});
    tracker.track(make_request("cs", "x", "c1"), {1.0, 4, 0.2, 2.0});
    // Observe the virtual time of every send indirectly via the dead letter.
    sim.run();
    return tracker.dead_letters().at(0).abandoned_at;
  };
  EXPECT_DOUBLE_EQ(deadline_times(), deadline_times());
}

// -- heartbeat liveness and quarantine ----------------------------------------

svc::HeartbeatConfig fast_heartbeat() {
  svc::HeartbeatConfig config;
  config.period = 1.0;
  config.suspect_missed = 2.0;
  config.dead_missed = 5.0;
  config.probe_interval = 3.0;
  return config;
}

AclMessage make_heartbeat(const std::string& container) {
  AclMessage beat;
  beat.performative = Performative::Inform;
  beat.sender = container;
  beat.receiver = "mons";
  beat.protocol = svc::protocols::kHeartbeat;
  beat.params["container"] = container;
  return beat;
}

TEST(Liveness, SilenceWalksAliveThroughSuspectToDead) {
  grid::Simulation sim;
  agent::AgentPlatform platform(sim);
  grid::Grid grid;
  auto& monitor = platform.spawn<svc::MonitoringService>("mons", grid, 0.0, fast_heartbeat());

  EXPECT_EQ(monitor.liveness_of("ac-x"), svc::Liveness::Unknown);
  platform.send(make_heartbeat("ac-x"));
  sim.run();
  EXPECT_EQ(monitor.liveness_of("ac-x"), svc::Liveness::Alive);
  EXPECT_EQ(monitor.heartbeats_received(), 1u);

  sim.run_until(sim.now() + 2.5);
  EXPECT_EQ(monitor.liveness_of("ac-x"), svc::Liveness::Suspect);
  sim.run_until(sim.now() + 4.0);
  EXPECT_EQ(monitor.liveness_of("ac-x"), svc::Liveness::Dead);
  EXPECT_EQ(monitor.dead_containers(), (std::vector<std::string>{"ac-x"}));

  // A resumed beat after a Dead-length silence closes the breaker.
  platform.send(make_heartbeat("ac-x"));
  sim.run();
  EXPECT_EQ(monitor.liveness_of("ac-x"), svc::Liveness::Alive);
  EXPECT_EQ(monitor.containers_recovered(), 1u);
}

TEST(Liveness, HalfOpenProbeReadmitsAResponsiveContainer) {
  grid::Simulation sim;
  agent::AgentPlatform platform(sim);
  grid::Grid grid;
  auto& monitor = platform.spawn<svc::MonitoringService>("mons", grid, 0.0, fast_heartbeat());
  platform.spawn<ProbeResponder>("ac-y");

  platform.send(make_heartbeat("ac-y"));
  sim.run();
  sim.run_until(sim.now() + 10.0);
  EXPECT_EQ(monitor.liveness_of("ac-y"), svc::Liveness::Dead);  // emits a probe

  sim.run();  // probe round trip
  EXPECT_EQ(monitor.containers_recovered(), 1u);
  EXPECT_EQ(monitor.liveness_of("ac-y"), svc::Liveness::Alive);
}

TEST(Liveness, MatchmakingQuarantinesDeadContainersOnly) {
  grid::Simulation sim;
  agent::AgentPlatform platform(sim);
  grid::Grid grid;
  grid.add_node("n1", "node-1", "domA", grid::HardwareSpec{});
  grid.add_container("c1", "n1").host_service("svc");
  grid.add_container("c2", "n1").host_service("svc");
  auto& monitor = platform.spawn<svc::MonitoringService>("mons", grid, 0.0, fast_heartbeat());
  platform.spawn<svc::MatchmakingService>("mms", grid, nullptr, &monitor);
  auto& client = platform.spawn<Recorder>("client");

  // c1 beats once, then goes silent past the Dead threshold; c2 never beat
  // (Unknown — it may predate the heartbeat scheme) and stays eligible.
  platform.send(make_heartbeat("c1"));
  sim.run();
  sim.run_until(sim.now() + 10.0);

  AclMessage query = make_request("client", "mms", "q1");
  query.protocol = svc::protocols::kFindContainer;
  query.params["service"] = "svc";
  client.post(std::move(query));
  sim.run();

  ASSERT_EQ(client.received.size(), 1u);
  EXPECT_EQ(client.received[0].performative, Performative::Inform);
  EXPECT_EQ(client.received[0].param("container"), "c2");
  EXPECT_EQ(client.received[0].param("candidates"), "c2");
}

// -- engine under chaos --------------------------------------------------------

engine::EngineConfig chaos_engine_config(std::size_t cases, double drop,
                                         std::uint64_t seed) {
  engine::EngineConfig config;
  config.shards = 1;  // one shard = one calendar = bit-reproducible
  config.queue_capacity = cases + 8;
  config.environment.topology.domains = 2;
  config.environment.topology.nodes_per_domain = 3;
  config.environment.heartbeat_period = 5.0;
  config.environment.coordination.exec_policy = {300.0, 3, 0.5, 10.0};
  config.environment.coordination.replan_policy = {300.0, 2, 0.5, 10.0};
  agent::ChaosRule rule;
  rule.match.receiver = "ac-*";
  rule.drop = drop;
  rule.delay = drop / 2.0;
  config.environment.chaos.rules.push_back(rule);
  config.environment.chaos.seed = seed;
  return config;
}

struct SoakResult {
  std::vector<engine::CaseState> states;
  engine::EngineMetrics metrics;
};

SoakResult run_soak(std::size_t cases, double drop, std::uint64_t seed) {
  engine::EnactmentEngine engine(chaos_engine_config(cases, drop, seed));
  std::vector<engine::CaseId> ids;
  for (std::size_t i = 0; i < cases; ++i) {
    const double resolution = 8.0 - 0.04 * static_cast<double>(i);
    ids.push_back(engine.submit(virolab::make_fig10_process(resolution),
                                virolab::make_case_description(resolution)));
  }
  engine.drain();
  SoakResult result;
  for (const engine::CaseId id : ids) result.states.push_back(engine.status(id));
  result.metrics = engine.metrics();
  return result;
}

// The issue's acceptance bar: 20% of container-bound messages dropped at a
// fixed seed, 50 cases, >= 95% complete, the rest Failed (never hung).
TEST(ChaosEngine, FiftyCaseSoakAtTwentyPercentDropMostlyRecovers) {
  const std::size_t cases = 50;
  const SoakResult soak = run_soak(cases, 0.2, 2004);

  std::size_t completed = 0;
  for (const engine::CaseState state : soak.states) {
    ASSERT_TRUE(engine::is_terminal(state));  // drain() + terminal = no hangs
    if (state == engine::CaseState::Completed) ++completed;
  }
  EXPECT_GE(completed, (cases * 95) / 100);
  EXPECT_EQ(soak.metrics.completed + soak.metrics.failed, cases);
  EXPECT_GT(soak.metrics.faults_injected, 0u);
  EXPECT_GT(soak.metrics.request_retries, 0u);
  // Every engine-level failure must be explained by an abandoned request.
  if (soak.metrics.failed > 0) {
    EXPECT_GT(soak.metrics.dead_letters, 0u);
  }
}

TEST(ChaosEngine, SameSeedRunsAreIdentical) {
  const SoakResult first = run_soak(10, 0.25, 77);
  const SoakResult second = run_soak(10, 0.25, 77);
  EXPECT_EQ(first.states, second.states);
  EXPECT_EQ(first.metrics.faults_injected, second.metrics.faults_injected);
  EXPECT_EQ(first.metrics.request_retries, second.metrics.request_retries);
  EXPECT_EQ(first.metrics.dead_letters, second.metrics.dead_letters);
  EXPECT_EQ(first.metrics.completed, second.metrics.completed);
  EXPECT_EQ(first.metrics.failed, second.metrics.failed);
}

// Double fault: every dispatch is dropped AND the first container crashes
// outright, with the in-shard retry budgets cut to the bone. The case must
// fail cleanly — dead letters on the record, drain() returning — rather
// than hanging on a conversation nobody will ever finish.
TEST(ChaosEngine, DoubleFaultFailsWithDeadLettersInsteadOfHanging) {
  engine::EngineConfig config;
  config.shards = 1;
  config.max_case_retries = 0;
  config.environment.topology.domains = 2;
  config.environment.topology.nodes_per_domain = 2;
  config.environment.coordination.max_retries = 1;
  config.environment.coordination.max_replans = 0;
  config.environment.coordination.exec_policy = {5.0, 2, 0.1, 1.0};
  agent::ChaosRule rule;
  rule.match.receiver = "ac-*";
  rule.drop = 1.0;  // no dispatch ever arrives
  config.environment.chaos.rules.push_back(rule);
  agent::AgentFault crash;
  crash.agent = "ac-0";
  crash.after_deliveries = 1;
  config.environment.chaos.agent_faults.push_back(crash);
  config.environment.chaos.seed = 5;

  engine::EnactmentEngine engine(config);
  const engine::CaseId id =
      engine.submit(virolab::make_fig10_process(), virolab::make_case_description());
  const auto outcome = engine.wait(id);

  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->state, engine::CaseState::Failed);
  EXPECT_FALSE(outcome->error.empty());
  const engine::EngineMetrics metrics = engine.metrics();
  EXPECT_GE(metrics.dead_letters, 1u);
  EXPECT_EQ(metrics.completed, 0u);
}

}  // namespace
}  // namespace ig
