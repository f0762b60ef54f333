#include <gtest/gtest.h>

#include <array>
#include <iterator>
#include <map>
#include <string>
#include <thread>

#include "planner/evaluate.hpp"
#include "planner/operators.hpp"
#include "planner/workload.hpp"
#include "virolab/catalogue.hpp"
#include "virolab/workflow.hpp"

namespace ig::planner {
namespace {

PlanningProblem virolab_problem() {
  return PlanningProblem::from_case(virolab::make_case_description(),
                                    virolab::make_catalogue());
}

PlanNode seq(std::vector<const char*> services) {
  std::vector<PlanNode> children;
  for (const char* service : services) children.push_back(PlanNode::terminal(service));
  return PlanNode::sequential(std::move(children));
}

TEST(Evaluate, MinimalValidPlanScoresPerfectValidityAndGoal) {
  const PlanningProblem problem = virolab_problem();
  PlanEvaluator evaluator(problem);
  // POD -> P3DR -> P3DR -> PSF produces a resolution file. 5 nodes.
  const Fitness fitness = evaluator.evaluate(seq({"POD", "P3DR", "P3DR", "PSF"}));
  EXPECT_DOUBLE_EQ(fitness.validity, 1.0);
  EXPECT_DOUBLE_EQ(fitness.goal, 1.0);
  EXPECT_EQ(fitness.size, 5u);
  EXPECT_DOUBLE_EQ(fitness.representation, 1.0 - 5.0 / 40.0);
  // Eq. 4 with Table 1 weights.
  EXPECT_NEAR(fitness.overall, 0.2 * 1.0 + 0.5 * 1.0 + 0.3 * 0.875, 1e-12);
}

TEST(Evaluate, InvalidOrderScoresPartialValidity) {
  const PlanningProblem problem = virolab_problem();
  PlanEvaluator evaluator(problem);
  // PSF first: preconditions unmet, so 1 of 4 executions invalid... actually
  // PSF fails (no models), POD ok, P3DR ok, P3DR ok -> 3/4 valid, no
  // resolution file -> goal 0.
  const Fitness fitness = evaluator.evaluate(seq({"PSF", "POD", "P3DR", "P3DR"}));
  EXPECT_DOUBLE_EQ(fitness.validity, 0.75);
  EXPECT_DOUBLE_EQ(fitness.goal, 0.0);
}

TEST(Evaluate, UnknownServiceCountsAsInvalid) {
  const PlanningProblem problem = virolab_problem();
  PlanEvaluator evaluator(problem);
  const Fitness fitness = evaluator.evaluate(seq({"POD", "BOGUS"}));
  EXPECT_DOUBLE_EQ(fitness.validity, 0.5);
}

TEST(Evaluate, Figure11TreeIsValidAndReachesGoal) {
  const PlanningProblem problem = virolab_problem();
  PlanEvaluator evaluator(problem);
  const Fitness fitness = evaluator.evaluate(virolab::make_fig11_plan_tree());
  EXPECT_DOUBLE_EQ(fitness.validity, 1.0);
  EXPECT_DOUBLE_EQ(fitness.goal, 1.0);
  EXPECT_EQ(fitness.size, 10u);
  // f = 0.2 + 0.5 + 0.3 * (1 - 10/40) = 0.925
  EXPECT_NEAR(fitness.overall, 0.925, 1e-12);
}

TEST(Evaluate, RepresentationFitnessCapsAtZero) {
  EvaluationConfig config;
  config.smax = 4;
  const PlanningProblem problem = virolab_problem();
  PlanEvaluator evaluator(problem, config);
  const Fitness fitness = evaluator.evaluate(seq({"POD", "P3DR", "P3DR", "PSF"}));  // 5 nodes
  EXPECT_DOUBLE_EQ(fitness.representation, 0.0);
  EXPECT_GE(fitness.overall, 0.0);
}

TEST(Evaluate, SelectiveEnumeratesBranches) {
  const PlanningProblem problem = virolab_problem();
  PlanEvaluator evaluator(problem);
  // Selective(POD, PSF): branch 1 valid (1/1), branch 2 invalid (0/1).
  const PlanNode plan =
      PlanNode::selective({PlanNode::terminal("POD"), PlanNode::terminal("PSF")});
  const Fitness fitness = evaluator.evaluate(plan);
  EXPECT_EQ(fitness.flows, 2u);
  EXPECT_DOUBLE_EQ(fitness.validity, 0.5);  // totals across flows: 1 valid / 2 executed
  EXPECT_DOUBLE_EQ(fitness.goal, 0.0);
}

TEST(Evaluate, IterativeUnrollsBothDepths) {
  EvaluationConfig config;
  config.max_unroll = 2;
  const PlanningProblem problem = virolab_problem();
  PlanEvaluator evaluator(problem, config);
  const PlanNode plan = PlanNode::iterative({PlanNode::terminal("POD")});
  const Fitness fitness = evaluator.evaluate(plan);
  // Flows: one pass (1 execution) and two passes (2 executions).
  EXPECT_EQ(fitness.flows, 2u);
  EXPECT_DOUBLE_EQ(fitness.validity, 1.0);  // POD re-runs remain valid
}

TEST(Evaluate, GoalAveragedAcrossFlows) {
  const PlanningProblem problem = virolab_problem();
  PlanEvaluator evaluator(problem);
  // One branch completes the pipeline, the other stops early:
  // goal satisfied in exactly one of two flows.
  std::vector<PlanNode> full;
  full.push_back(PlanNode::terminal("POD"));
  full.push_back(PlanNode::terminal("P3DR"));
  full.push_back(PlanNode::terminal("P3DR"));
  full.push_back(PlanNode::terminal("PSF"));
  const PlanNode plan = PlanNode::selective(
      {PlanNode::sequential(std::move(full)), PlanNode::terminal("POD")});
  const Fitness fitness = evaluator.evaluate(plan);
  EXPECT_EQ(fitness.flows, 2u);
  EXPECT_DOUBLE_EQ(fitness.goal, 0.5);
}

TEST(Evaluate, FlowCapTruncates) {
  EvaluationConfig config;
  config.max_flows = 2;
  const PlanningProblem problem = virolab_problem();
  PlanEvaluator evaluator(problem, config);
  // Nested selectives overflow a cap of 2; enumeration is clipped and the
  // clipping is reported.
  PlanNode plan = PlanNode::selective({PlanNode::terminal("POD"), PlanNode::terminal("POD")});
  plan = PlanNode::selective({plan, PlanNode::terminal("POD")});
  plan = PlanNode::selective({plan, PlanNode::terminal("POD")});
  const Fitness fitness = evaluator.evaluate(plan);
  EXPECT_LE(fitness.flows, 2u);
  EXPECT_TRUE(fitness.flows_truncated);
}

TEST(Evaluate, EmptyGoalListCountsAsSatisfied) {
  PlanningProblem problem = virolab_problem();
  problem.goals.clear();
  PlanEvaluator evaluator(problem);
  const Fitness fitness = evaluator.evaluate(seq({"POD"}));
  EXPECT_DOUBLE_EQ(fitness.goal, 1.0);
}

TEST(Evaluate, EvaluationCounter) {
  const PlanningProblem problem = virolab_problem();
  PlanEvaluator evaluator(problem);
  evaluator.evaluate(seq({"POD"}));
  evaluator.evaluate(seq({"POD"}));
  EXPECT_EQ(evaluator.evaluations(), 2u);
}

TEST(Evaluate, ConcurrentPenalizesOrderDependentChildren) {
  // Concurrent children may execute "in any order": a block whose children
  // only work left-to-right is not truly concurrent. POD must precede P3DR,
  // so Concurrent(POD, P3DR) fails in the reverse serialization.
  const PlanningProblem problem = virolab_problem();
  PlanEvaluator evaluator(problem);
  const PlanNode bogus =
      PlanNode::concurrent({PlanNode::terminal("POD"), PlanNode::terminal("P3DR")});
  const Fitness fitness = evaluator.evaluate(bogus);
  EXPECT_EQ(fitness.flows, 2u);
  EXPECT_LT(fitness.validity, 1.0);

  // Truly order-independent children stay fully valid.
  std::vector<PlanNode> top;
  top.push_back(PlanNode::terminal("POD"));
  top.push_back(PlanNode::concurrent(
      {PlanNode::terminal("P3DR"), PlanNode::terminal("P3DR")}));
  const Fitness independent = evaluator.evaluate(PlanNode::sequential(std::move(top)));
  EXPECT_DOUBLE_EQ(independent.validity, 1.0);
}

TEST(Evaluate, SingleOrderModeKeepsLegacySemantics) {
  EvaluationConfig config;
  config.concurrent_orders = 1;
  const PlanningProblem problem = virolab_problem();
  PlanEvaluator evaluator(problem, config);
  const PlanNode bogus =
      PlanNode::concurrent({PlanNode::terminal("POD"), PlanNode::terminal("P3DR")});
  const Fitness fitness = evaluator.evaluate(bogus);
  EXPECT_EQ(fitness.flows, 1u);
  EXPECT_DOUBLE_EQ(fitness.validity, 1.0);  // left-to-right happens to work
}

TEST(Evaluate, ConcurrentExecutesAllChildren) {
  const PlanningProblem problem = virolab_problem();
  PlanEvaluator evaluator(problem);
  std::vector<PlanNode> top;
  top.push_back(PlanNode::terminal("POD"));
  top.push_back(PlanNode::concurrent(
      {PlanNode::terminal("P3DR"), PlanNode::terminal("P3DR"), PlanNode::terminal("P3DR")}));
  top.push_back(PlanNode::terminal("PSF"));
  const Fitness fitness = evaluator.evaluate(PlanNode::sequential(std::move(top)));
  EXPECT_DOUBLE_EQ(fitness.validity, 1.0);
  EXPECT_DOUBLE_EQ(fitness.goal, 1.0);
}

TEST(EvaluateMemo, RepeatEvaluationIsServedFromTheMemo) {
  const PlanningProblem problem = virolab_problem();
  PlanEvaluator evaluator(problem);
  const PlanNode plan = seq({"POD", "P3DR", "P3DR", "PSF"});
  const Fitness first = evaluator.evaluate(plan);
  EXPECT_EQ(evaluator.evaluations(), 1u);
  EXPECT_EQ(evaluator.memo_hits(), 0u);
  EXPECT_EQ(evaluator.simulations(), 1u);

  const Fitness second = evaluator.evaluate(plan);
  EXPECT_EQ(evaluator.evaluations(), 2u);
  EXPECT_EQ(evaluator.memo_hits(), 1u);
  EXPECT_EQ(evaluator.simulations(), 1u);
  EXPECT_EQ(first.overall, second.overall);
  EXPECT_EQ(first.flows, second.flows);

  // A structurally equal copy hits too; a different plan misses.
  evaluator.evaluate(PlanNode(plan));
  EXPECT_EQ(evaluator.memo_hits(), 2u);
  evaluator.evaluate(seq({"POD", "P3DR"}));
  EXPECT_EQ(evaluator.memo_hits(), 2u);
  EXPECT_EQ(evaluator.simulations(), 2u);
}

TEST(EvaluateMemo, DisabledMemoStillCountsEvaluations) {
  EvaluationConfig config;
  config.memoize = false;
  const PlanningProblem problem = virolab_problem();
  PlanEvaluator evaluator(problem, config);
  const PlanNode plan = seq({"POD", "P3DR"});
  const Fitness first = evaluator.evaluate(plan);
  const Fitness second = evaluator.evaluate(plan);
  EXPECT_EQ(evaluator.evaluations(), 2u);
  EXPECT_EQ(evaluator.memo_hits(), 0u);
  EXPECT_EQ(first.overall, second.overall);  // still a pure function
}

TEST(EvaluateMemo, WorkersEvaluateIndependentlyWithSharedMemo) {
  const PlanningProblem problem = virolab_problem();
  PlanEvaluator evaluator(problem, {}, 4);
  EXPECT_EQ(evaluator.workers(), 4u);
  const PlanNode plan = seq({"POD", "P3DR", "P3DR", "PSF"});
  const Fitness reference = evaluator.evaluate(plan, 0);
  for (std::size_t worker = 1; worker < 4; ++worker) {
    const Fitness fitness = evaluator.evaluate(plan, worker);
    EXPECT_EQ(fitness.overall, reference.overall);
    EXPECT_EQ(fitness.flows, reference.flows);
  }
  // Worker 0 simulated once; the other three were memo hits.
  EXPECT_EQ(evaluator.memo_hits(), 3u);

  // Per-worker output caches mean a fresh worker re-simulating (memo off)
  // still matches — the caches hold identical immutable specifications.
  EvaluationConfig no_memo;
  no_memo.memoize = false;
  PlanEvaluator independent(problem, no_memo, 2);
  EXPECT_EQ(independent.evaluate(plan, 1).overall, reference.overall);
}


// -- differential test: item-table evaluator vs the interpreted simulator ---

/// The simulator as it was before item interning: every execution binds
/// with ServiceType::bind_inputs over a DataSet and every goal is
/// interpreted per flow. Kept here as the reference the fast path must match
/// bit for bit.
class InterpretedSimulator {
 public:
  InterpretedSimulator(const PlanningProblem& problem, const EvaluationConfig& config)
      : problem_(problem), config_(config) {}

  Fitness evaluate(const PlanNode& plan) {
    truncated_ = false;
    std::vector<Flow> flows(1);
    flows.front().state = problem_.initial_state;
    simulate(plan, flows);

    Fitness fitness;
    fitness.size = plan.size();
    fitness.flows = flows.size();
    fitness.flows_truncated = truncated_;
    std::size_t total_valid = 0;
    std::size_t total_executed = 0;
    for (const auto& flow : flows) {
      total_valid += flow.valid;
      total_executed += flow.executed;
    }
    fitness.validity = total_executed > 0 ? static_cast<double>(total_valid) /
                                                static_cast<double>(total_executed)
                                          : 0.0;
    double goal_sum = 0.0;
    for (const auto& flow : flows) {
      std::size_t satisfied = 0;
      for (const auto& goal : problem_.goals) {
        const auto variables = goal.condition.variables();
        if (variables.empty()) {
          if (goal.condition.evaluate({})) ++satisfied;
          continue;
        }
        for (const auto& item : flow.state.items()) {
          wfl::Bindings bindings;
          bindings[variables.front()] = &item;
          if (goal.condition.evaluate(bindings)) {
            ++satisfied;
            break;
          }
        }
      }
      goal_sum += problem_.goals.empty() ? 1.0
                                         : static_cast<double>(satisfied) /
                                               static_cast<double>(problem_.goals.size());
    }
    fitness.goal = flows.empty() ? 0.0 : goal_sum / static_cast<double>(flows.size());
    const double size_ratio =
        config_.smax > 0 ? static_cast<double>(fitness.size) / static_cast<double>(config_.smax)
                         : 1.0;
    fitness.representation = size_ratio < 1.0 ? 1.0 - size_ratio : 0.0;
    fitness.overall = config_.wv * fitness.validity + config_.wg * fitness.goal +
                      config_.wr * fitness.representation;
    return fitness;
  }

 private:
  struct Flow {
    wfl::DataSet state;
    std::size_t valid = 0;
    std::size_t executed = 0;
    std::map<std::string, std::size_t> occurrences;
  };

  void execute_terminal(const PlanNode& node, Flow& flow) {
    ++flow.executed;
    const wfl::ServiceType* service = problem_.catalogue.find(node.service);
    if (service == nullptr || !service->bind_inputs(flow.state).has_value()) return;
    ++flow.valid;
    const std::size_t occurrence = flow.occurrences[service->name()]++;
    const std::string prefix = service->name() + "#" + std::to_string(occurrence + 1) + ":";
    for (auto& output : service->produce_outputs(prefix)) flow.state.put(std::move(output));
  }

  void cap_flows(std::vector<Flow>& flows) {
    if (flows.size() > config_.max_flows) {
      flows.resize(config_.max_flows);
      truncated_ = true;
    }
  }

  void simulate(const PlanNode& node, std::vector<Flow>& flows) {
    switch (node.kind) {
      case PlanNode::Kind::Terminal:
        for (auto& flow : flows) execute_terminal(node, flow);
        return;
      case PlanNode::Kind::Sequential:
        for (const auto& child : node.children) simulate(child, flows);
        return;
      case PlanNode::Kind::Concurrent: {
        if (node.children.size() <= 1 || config_.concurrent_orders <= 1) {
          for (const auto& child : node.children) simulate(child, flows);
          return;
        }
        std::vector<Flow> reversed_flows = flows;
        for (const auto& child : node.children) simulate(child, flows);
        for (auto it = node.children.rbegin(); it != node.children.rend(); ++it)
          simulate(*it, reversed_flows);
        flows.insert(flows.end(), std::make_move_iterator(reversed_flows.begin()),
                     std::make_move_iterator(reversed_flows.end()));
        cap_flows(flows);
        return;
      }
      case PlanNode::Kind::Selective: {
        std::vector<Flow> combined;
        for (std::size_t i = 0; i < node.children.size(); ++i) {
          std::vector<Flow> branch_flows = flows;
          simulate(node.children[i], branch_flows);
          combined.insert(combined.end(), std::make_move_iterator(branch_flows.begin()),
                          std::make_move_iterator(branch_flows.end()));
          cap_flows(combined);
          if (combined.size() >= config_.max_flows) {
            if (i + 1 < node.children.size()) truncated_ = true;
            break;
          }
        }
        flows = std::move(combined);
        return;
      }
      case PlanNode::Kind::Iterative: {
        std::vector<Flow> combined;
        std::vector<Flow> current = flows;
        for (std::size_t pass = 1; pass <= config_.max_unroll; ++pass) {
          for (const auto& child : node.children) simulate(child, current);
          combined.insert(combined.end(), current.begin(), current.end());
          cap_flows(combined);
          if (combined.size() >= config_.max_flows) {
            if (pass < config_.max_unroll) truncated_ = true;
            break;
          }
        }
        flows = std::move(combined);
        return;
      }
    }
  }

  const PlanningProblem& problem_;
  const EvaluationConfig& config_;
  bool truncated_ = false;
};

wfl::ServiceType make_service(const char* name, std::vector<std::string> inputs,
                              const char* input_condition, std::vector<std::string> outputs,
                              const char* output_condition) {
  wfl::ServiceType service(name);
  service.set_inputs(std::move(inputs));
  service.set_input_condition(wfl::Condition::parse(input_condition));
  service.set_outputs(std::move(outputs));
  service.set_output_condition(wfl::Condition::parse(output_condition));
  return service;
}

/// A catalogue whose preconditions exercise every binder path: a numeric
/// string compared with a number, or/not filters, conjuncts touching two
/// formals, a conjunct on a variable that is no formal, a zero-input
/// service and a service needing two distinct items of one kind.
PlanningProblem hand_built_problem() {
  PlanningProblem problem;
  problem.name = "hand-built";
  problem.initial_state.put(
      wfl::DataSpec("seed1").with_classification("Raw").with("Value", meta::Value("12")));
  problem.initial_state.put(
      wfl::DataSpec("seed2").with_classification("Raw").with("Value", meta::Value(3.0)));
  problem.initial_state.put(wfl::DataSpec("memo").with_classification("Note"));

  problem.catalogue.add(make_service("Refine", {"A"},
                                     "A.Classification = \"Raw\" and A.Value > 8", {"C"},
                                     "C.Classification = \"Refined\" and C.Value = \"12\""));
  problem.catalogue.add(make_service(
      "Pair", {"A", "B"},
      "A.Classification = \"Refined\" and (B.Classification = \"Raw\" or "
      "B.Classification = \"Refined\") and not B.Value < 5 and (A.Value > 20 or B.Value > 10)",
      {"P"}, "P.Classification = \"Pair\" and P.Value = 15"));
  problem.catalogue.add(make_service("Merge", {"X", "Y"},
                                     "X.Classification = \"Pair\" and Y.Classification = \"Pair\"",
                                     {"M"}, "M.Classification = \"Merged\" and M.Value = 20"));
  problem.catalogue.add(
      make_service("Gen", {}, "", {"G"}, "G.Classification = \"Raw\" and G.Value = \"9\""));
  problem.catalogue.add(make_service("Annotate", {"A"},
                                     "A.Classification = \"Note\" and not Z.Value > 1", {"N"},
                                     "N.Classification = \"Note\""));
  problem.catalogue.add(make_service("Never", {"A"},
                                     "A.Classification = \"Note\" and Z.Value > 1", {"Q"},
                                     "Q.Classification = \"Merged\""));

  const auto goal = [&](const char* text) {
    problem.goals.push_back({text, wfl::Condition::parse(text)});
  };
  goal("M.Classification = \"Merged\" and M.Value >= 20");
  goal("R.Classification = \"Pair\" or not R.Value < 10");
  goal("true");
  goal("false");
  goal("A.Classification = \"Note\" or B.Classification = \"Pair\"");
  return problem;
}

PlanningProblem layered_problem() {
  WorkloadParams params;
  params.depth = 3;
  params.services_per_layer = 2;
  params.fan_in = 2;
  params.distractor_chains = 1;
  params.seed = 7;
  return make_layered_problem(params);
}

void expect_same(const Fitness& fast, const Fitness& reference, const PlanNode& plan) {
  SCOPED_TRACE(plan.to_tree_string());
  EXPECT_EQ(fast.overall, reference.overall);
  EXPECT_EQ(fast.validity, reference.validity);
  EXPECT_EQ(fast.goal, reference.goal);
  EXPECT_EQ(fast.representation, reference.representation);
  EXPECT_EQ(fast.size, reference.size);
  EXPECT_EQ(fast.flows, reference.flows);
  EXPECT_EQ(fast.flows_truncated, reference.flows_truncated);
}

void count_kinds(const PlanNode& node, std::array<std::size_t, 5>& kinds) {
  ++kinds[static_cast<std::size_t>(node.kind)];
  for (const auto& child : node.children) count_kinds(child, kinds);
}

std::vector<PlanNode> random_plans(const PlanningProblem& problem, std::uint64_t seed,
                                   std::size_t count) {
  util::Rng rng(seed);
  const std::array<InitStyle, 3> styles{InitStyle::Grow, InitStyle::Full, InitStyle::Ramped};
  std::vector<PlanNode> plans;
  for (std::size_t i = 0; i < count; ++i)
    plans.push_back(random_tree(rng, problem.catalogue, 4 + i % 24, styles[i % styles.size()]));
  return plans;
}

/// Evaluates 200 random plans under four configurations (one and two
/// concurrent orders, default and tight flow caps) with both simulators.
void differential(const PlanningProblem& problem, std::uint64_t seed) {
  const std::vector<PlanNode> plans = random_plans(problem, seed, 200);
  std::array<std::size_t, 5> kinds{};
  for (const auto& plan : plans) count_kinds(plan, kinds);
  for (std::size_t kind = 0; kind < kinds.size(); ++kind) EXPECT_GT(kinds[kind], 0u) << kind;

  std::size_t truncated = 0;
  std::size_t partly_valid = 0;
  for (const std::size_t orders : {1u, 2u}) {
    for (const std::size_t max_flows : {64u, 6u}) {
      EvaluationConfig config;
      config.concurrent_orders = orders;
      config.max_flows = max_flows;
      config.max_unroll = max_flows < 64 ? 3 : 2;
      PlanEvaluator evaluator(problem, config);
      InterpretedSimulator reference(problem, config);
      for (const auto& plan : plans) {
        const Fitness fast = evaluator.evaluate(plan);
        expect_same(fast, reference.evaluate(plan), plan);
        if (fast.flows_truncated) ++truncated;
        if (fast.validity > 0.0 && fast.validity < 1.0) ++partly_valid;
      }
    }
  }
  EXPECT_GT(truncated, 0u);
  EXPECT_GT(partly_valid, 0u);
}

TEST(EvaluateDifferential, VirolabMatchesInterpretedSimulator) {
  differential(virolab_problem(), 11);
}

TEST(EvaluateDifferential, LayeredProblemMatchesInterpretedSimulator) {
  differential(layered_problem(), 12);
}

TEST(EvaluateDifferential, HandBuiltCatalogueMatchesInterpretedSimulator) {
  const PlanningProblem problem = hand_built_problem();
  differential(problem, 13);

  // Spot checks that the catalogue really reaches its deep paths: the
  // numeric string "12" passes Refine and, as B, Pair's two-formal conjunct;
  // Annotate's residual on the unbound Z holds only negated; and Merge needs
  // two distinct pairs.
  PlanEvaluator evaluator(problem);
  const Fitness merged =
      evaluator.evaluate(seq({"Refine", "Refine", "Pair", "Pair", "Merge", "Annotate", "Never"}));
  EXPECT_EQ(merged.validity, 6.0 / 7.0);
  // Goals: merged, pair, true, (not false), note-or-pair -> 4 of 5.
  EXPECT_EQ(merged.goal, 4.0 / 5.0);
  const Fitness one_pair = evaluator.evaluate(seq({"Refine", "Pair", "Merge"}));
  EXPECT_EQ(one_pair.validity, 2.0 / 3.0);
}

TEST(EvaluateDifferential, ConcurrentWorkersFillTheirTablesIndependently) {
  const PlanningProblem problem = hand_built_problem();
  const std::vector<PlanNode> plans = random_plans(problem, 14, 120);
  EvaluationConfig config;
  config.memoize = false;  // every worker simulates every plan
  std::vector<Fitness> expected;
  InterpretedSimulator reference(problem, config);
  for (const auto& plan : plans) expected.push_back(reference.evaluate(plan));

  constexpr std::size_t kWorkers = 4;
  PlanEvaluator evaluator(problem, config, kWorkers);
  std::vector<std::vector<Fitness>> results(kWorkers);
  std::vector<std::thread> threads;
  for (std::size_t worker = 0; worker < kWorkers; ++worker) {
    threads.emplace_back([&, worker] {
      // Each worker walks the plans from a different offset, so the tables
      // grow in different orders.
      for (std::size_t i = 0; i < plans.size(); ++i) {
        const std::size_t index = (i + worker * 31) % plans.size();
        results[worker].push_back(evaluator.evaluate(plans[index], worker));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (std::size_t worker = 0; worker < kWorkers; ++worker) {
    for (std::size_t i = 0; i < plans.size(); ++i) {
      const std::size_t index = (i + worker * 31) % plans.size();
      expect_same(results[worker][i], expected[index], plans[index]);
    }
  }
}

}  // namespace
}  // namespace ig::planner
