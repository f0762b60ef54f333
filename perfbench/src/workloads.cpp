#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "planner/convert.hpp"
#include "planner/plan_tree.hpp"
#include "planner/workload.hpp"
#include "services/environment.hpp"
#include "virolab/catalogue.hpp"
#include "virolab/kernels.hpp"
#include "virolab/workflow.hpp"

namespace perfbench {

using namespace ig;

std::uint64_t SeedStream::next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double SeedStream::uniform(double lo, double hi) {
  return lo + (hi - lo) * static_cast<double>(next() >> 11) * 0x1.0p-53;
}

int fig10_refinement_passes(double target) {
  const virolab::KernelParams model;
  for (int passes = 1;; ++passes) {
    const double resolution = std::max(
        model.initial_resolution * std::pow(model.refinement_factor, passes),
        model.resolution_floor);
    if (resolution <= target || resolution <= model.resolution_floor) return passes;
  }
}

int fig10_expected_activities(double target) {
  // POD and the first P3DR, then POR, three P3DRs and PSF per pass.
  return 2 + 5 * fig10_refinement_passes(target);
}

namespace {

// Shards, job-system workers and cases in flight of every workload: three
// shard pump streams plus the driver thread fill a four-core machine.
constexpr std::size_t kShards = 3;

/// Fisher-Yates with the benchmark's generator.
template <typename T>
void shuffle(std::vector<T>& items, SeedStream& rng) {
  for (std::size_t i = items.size(); i > 1; --i)
    std::swap(items[i - 1], items[rng.next() % i]);
}

/// Stratified targets over [7.5, 12) angstrom: one draw per stratum, so the
/// mix of refinement-pass counts is the same for every seed while the exact
/// targets and their order are not. Draws near a pass-count boundary are
/// nudged off it, so no case sits where rounding decides its length.
std::vector<double> fig10_targets(std::size_t count, SeedStream& rng) {
  const virolab::KernelParams model;
  std::vector<double> targets;
  targets.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const double lo = 7.5 + 4.5 * static_cast<double>(i) / static_cast<double>(count);
    const double hi = 7.5 + 4.5 * static_cast<double>(i + 1) / static_cast<double>(count);
    double target = std::round(rng.uniform(lo, hi) * 100.0) / 100.0;
    for (int passes = 1; passes < 8; ++passes) {
      const double boundary =
          model.initial_resolution * std::pow(model.refinement_factor, passes);
      if (std::fabs(target - boundary) < 0.02) target = std::round((boundary + 0.03) * 100) / 100;
    }
    targets.push_back(target);
  }
  shuffle(targets, rng);
  return targets;
}

std::vector<CaseInput> fig10_pool(std::size_t count, SeedStream& rng) {
  std::vector<CaseInput> pool;
  pool.reserve(count);
  for (const double target : fig10_targets(count, rng)) {
    pool.push_back({virolab::make_fig10_process(target),
                    virolab::make_case_description(target), fig10_expected_activities(target)});
  }
  return pool;
}

/// Every node fully reliable: without injected faults no dispatch fails, so
/// no case replans and the work of a case does not depend on its shard.
void reliable_nodes(svc::Environment& environment, std::size_t /*shard*/) {
  for (const auto& node : environment.grid().nodes()) node->set_reliability(1.0);
}

/// A uniform production farm: reliable single-machine nodes of one speed.
/// An in-memory engine keeps one topology per shard, so with heterogeneous
/// nodes a case's simulated makespan would depend on which shard ran it.
void uniform_farm(svc::Environment& environment, std::size_t shard) {
  reliable_nodes(environment, shard);
  for (const auto& node : environment.grid().nodes()) {
    node->hardware().speed = 2.0;
    node->set_node_count(1);
  }
}

engine::EngineConfig base_config(SeedStream& rng) {
  engine::EngineConfig config;
  config.shards = kShards;
  config.workers = kShards;
  config.seed = rng.next();
  config.environment.kernels.execution_latency_seconds = 0.0;  // CPU-bound
  config.shard_setup = reliable_nodes;
  return config;
}

constexpr int kChainMinDepth = 40;
constexpr int kChainMaxDepth = 80;

/// A McRunjob-style production chain: Stage1 -> ... -> Stage<depth> over the
/// layered problem's services, with its initial data and goal.
CaseInput chain_case(int depth) {
  planner::WorkloadParams params;
  params.depth = depth;
  params.services_per_layer = 1;
  const planner::PlanningProblem problem = planner::make_layered_problem(params);
  std::vector<planner::PlanNode> stages;
  for (int layer = 1; layer <= depth; ++layer)
    stages.push_back(planner::PlanNode::terminal("Stage" + std::to_string(layer)));
  const std::string name = "chain-" + std::to_string(depth);
  CaseInput input{planner::to_process(planner::PlanNode::sequential(std::move(stages)), name),
                  wfl::CaseDescription(name), depth};
  input.case_description.set_id(name);
  input.case_description.set_process_name(name);
  input.case_description.initial_data() = problem.initial_state;
  for (const wfl::GoalSpec& goal : problem.goals) input.case_description.add_goal(goal);
  return input;
}

Workload make_fig10_portal(std::uint64_t seed) {
  SeedStream rng(seed ^ 0xF1610ULL);
  Workload w;
  w.config = base_config(rng);
  w.config.environment.wire_transport = true;
  w.durable = true;
  w.pool = fig10_pool(240, rng);
  return w;
}

Workload make_chain_long(std::uint64_t seed) {
  SeedStream rng(seed ^ 0xC4A1ULL);
  Workload w;
  w.config = base_config(rng);
  planner::WorkloadParams params;
  params.depth = kChainMaxDepth;
  params.services_per_layer = 1;
  w.config.environment.catalogue = planner::make_layered_problem(params).catalogue;
  // The stage services are declarative: outputs come from postconditions.
  w.config.environment.use_synthetic_kernels = false;
  // One domain, so no randomly drawn wide-area link sits between stages.
  w.config.environment.topology.domains = 1;
  w.config.environment.topology.nodes_per_domain = 12;
  w.config.shard_setup = uniform_farm;
  const int span = kChainMaxDepth - kChainMinDepth + 1;
  const std::size_t count = 64;
  std::vector<int> depths;
  for (std::size_t i = 0; i < count; ++i) {
    const double u = rng.uniform(0.0, 1.0);
    depths.push_back(kChainMinDepth + static_cast<int>(span * (static_cast<double>(i) + u) /
                                                       static_cast<double>(count)));
  }
  shuffle(depths, rng);
  for (const int depth : depths) w.pool.push_back(chain_case(depth));
  return w;
}

Workload make_replan_storm(std::uint64_t seed) {
  SeedStream rng(seed ^ 0x5709ULL);
  Workload w;
  w.config = base_config(rng);
  // No container hosts the refinement service (POR): every case's first
  // POR dispatch finds no provider, the coordinator asks the planning
  // service for a new plan, and GP plans around it from the data the case
  // has so far. One deterministic replan per case, never a fatal one.
  for (const std::string& name : virolab::make_catalogue().names())
    if (name != "POR") w.config.environment.topology.service_names.push_back(name);
  // An online replanning budget: Table 1's operators and weights, a smaller
  // population, fewer generations and Smax 20 (the smallest Smax that still
  // finds the optimal fig10 plan in the Smax ablation).
  w.config.environment.gp.population_size = 100;
  w.config.environment.gp.generations = 10;
  w.config.environment.gp.evaluation.smax = 20;
  // Dispatch failures on every shard alike, so a case's failures come from
  // its own seeded attempt stack and never from its placement. The
  // container-retry budget absorbs them (a floor of 0.1 exhausts 7 tries
  // with probability 1e-7), so they cost retries, not replans.
  w.config.shard_failure_floor.assign(kShards, 0.1);
  w.config.environment.coordination.max_retries = 6;
  w.durable = true;
  w.failure_free = false;
  w.pool = fig10_pool(240, rng);
  return w;
}

}  // namespace

Workload make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "fig10_portal") return make_fig10_portal(seed);
  if (name == "chain_long") return make_chain_long(seed);
  if (name == "replan_storm") return make_replan_storm(seed);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace perfbench
