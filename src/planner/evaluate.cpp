#include "planner/evaluate.hpp"

#include <algorithm>
#include <iterator>
#include <memory>
#include <numeric>
#include <string>

namespace ig::planner {

class ItemTable {
 public:
  explicit ItemTable(const PlanningProblem& problem) : problem_(problem) {
    std::size_t bit = 0;
    for (const auto& service : problem.catalogue.services()) {
      first_filter_.push_back(bit);
      bit += service.inputs().size();
    }
    first_goal_ = bit;
    words_ = (bit + problem.goals.size() + 63) / 64;
    for (std::size_t goal = 0; goal < problem.goals.size(); ++goal) {
      const auto variables = problem.goals[goal].condition.variables();
      if (!variables.empty())
        variable_goals_.emplace_back(goal, variables.front());
      else if (problem.goals[goal].condition.evaluate({}))
        ++constant_goals_met_;
    }
    outputs_.resize(problem.catalogue.size());
    for (const auto& item : problem.initial_state.items()) initial_.push_back(intern(item));
  }

  /// Ids of the initial-state items, in state order.
  const std::vector<std::uint32_t>& initial() const noexcept { return initial_; }

  /// Ids of the items the `occurrence`-th execution of catalogue service
  /// `service` produces within one flow, created on first request. The k-th
  /// execution always produces the same specification; occurrence indices
  /// keep the items *distinct* (binding never reuses one item for two
  /// formals, and a service like PSF genuinely needs two different 3-D
  /// models).
  const std::vector<std::uint32_t>& outputs(std::size_t service, std::size_t occurrence) {
    auto& per_occurrence = outputs_[service];
    const wfl::ServiceType& type = problem_.catalogue.services()[service];
    while (per_occurrence.size() <= occurrence) {
      const std::string prefix =
          type.name() + "#" + std::to_string(per_occurrence.size() + 1) + ":";
      std::vector<std::uint32_t> ids;
      for (auto& output : type.produce_outputs(prefix)) ids.push_back(intern(std::move(output)));
      per_occurrence.push_back(std::move(ids));
    }
    return per_occurrence[occurrence];
  }

  /// True when distinct items of `state` can be bound to the service's input
  /// formals so that its input condition holds: ServiceType::bind_inputs'
  /// search, with each formal's candidates read from the filter bits.
  bool bindable(std::size_t service, const std::vector<std::uint32_t>& state) {
    const wfl::ServiceType& type = problem_.catalogue.services()[service];
    const std::size_t arity = type.inputs().size();
    if (candidates_.size() < arity) candidates_.resize(arity);
    for (std::size_t i = 0; i < arity; ++i) {
      candidates_[i].clear();
      for (const std::uint32_t item : state)
        if (test(item, first_filter_[service] + i)) candidates_[i].push_back(item);
      if (candidates_[i].empty()) return false;  // precondition cannot be met
    }
    // Most-constrained-first ordering prunes the backtracking search.
    order_.resize(arity);
    std::iota(order_.begin(), order_.end(), 0);
    std::sort(order_.begin(), order_.end(), [&](std::size_t a, std::size_t b) {
      return candidates_[a].size() < candidates_[b].size();
    });
    chosen_.resize(arity);
    return assign(type, 0);
  }

  /// Goals (Eq. 2) satisfied by some item of `state`; a goal binds its first
  /// variable existentially, and a goal without variables is a constant.
  std::size_t goals_met(const std::vector<std::uint32_t>& state) const {
    std::size_t met = constant_goals_met_;
    for (const auto& variable_goal : variable_goals_) {
      for (const std::uint32_t item : state) {
        if (test(item, first_goal_ + variable_goal.first)) {
          ++met;
          break;
        }
      }
    }
    return met;
  }

 private:
  std::uint32_t intern(wfl::DataSpec item) {
    const auto id = static_cast<std::uint32_t>(items_.size());
    bits_.resize(bits_.size() + words_, 0);
    const auto set = [&](std::size_t bit) { bits_[id * words_ + bit / 64] |= 1ULL << (bit % 64); };
    std::size_t bit = 0;
    for (const auto& service : problem_.catalogue.services()) {
      for (std::size_t i = 0; i < service.inputs().size(); ++i, ++bit) {
        const wfl::Condition& filter = service.unary_filters()[i];
        if (filter.is_trivially_true() || filter.evaluate_single(service.inputs()[i], item))
          set(bit);
      }
    }
    for (const auto& [goal, variable] : variable_goals_) {
      const wfl::Bindings bindings{{variable, &item}};
      if (problem_.goals[goal].condition.evaluate(bindings)) set(first_goal_ + goal);
    }
    items_.push_back(std::move(item));
    return id;
  }

  bool test(std::uint32_t item, std::size_t bit) const noexcept {
    return (bits_[item * words_ + bit / 64] >> (bit % 64)) & 1U;
  }

  bool assign(const wfl::ServiceType& type, std::size_t depth) {
    if (depth == order_.size()) {
      const wfl::Condition& residual = type.residual_condition();
      if (residual.is_trivially_true()) return true;
      wfl::Bindings bindings;
      for (std::size_t i = 0; i < chosen_.size(); ++i)
        bindings[type.inputs()[i]] = &items_[chosen_[i]];
      return residual.evaluate(bindings);
    }
    const std::size_t formal = order_[depth];
    for (const std::uint32_t item : candidates_[formal]) {
      // Distinct formals bind distinct items.
      bool taken = false;
      for (std::size_t d = 0; d < depth && !taken; ++d) taken = chosen_[order_[d]] == item;
      if (taken) continue;
      chosen_[formal] = item;
      if (assign(type, depth + 1)) return true;
    }
    return false;
  }

  const PlanningProblem& problem_;
  std::vector<std::size_t> first_filter_;  ///< per service: bit of its first formal's filter
  std::size_t first_goal_ = 0;             ///< bit of goal 0
  std::size_t words_ = 0;                  ///< bit words per item
  /// (goal index, first variable) of each goal with variables; the others
  /// are constants, evaluated once into constant_goals_met_.
  std::vector<std::pair<std::size_t, std::string>> variable_goals_;
  std::size_t constant_goals_met_ = 0;
  std::vector<wfl::DataSpec> items_;
  std::vector<std::uint64_t> bits_;  ///< words_ per item
  std::vector<std::uint32_t> initial_;
  std::vector<std::vector<std::vector<std::uint32_t>>> outputs_;  ///< [service][occurrence]
  // Scratch state of `bindable`, reused across calls.
  std::vector<std::vector<std::uint32_t>> candidates_;
  std::vector<std::size_t> order_;
  std::vector<std::uint32_t> chosen_;
};

namespace {

/// One simulated execution flow: the evolving world state plus validity
/// counters ("each execution is counted in the validity check").
///
/// Items are immutable once produced, so the state is a vector of item-table
/// ids: branching a flow (selective/concurrent/iterative enumeration) copies
/// integers, not property maps. Output names are made unique by a per-flow
/// counter, so plain append suffices (no by-name dedup needed).
struct Flow {
  std::vector<std::uint32_t> state;
  std::size_t valid = 0;
  std::size_t executed = 0;
  /// Per-service execution counts in this flow (occurrence index into the
  /// item table's outputs). Linear scan; catalogues hold a handful of
  /// services.
  std::vector<std::pair<std::size_t, std::size_t>> service_counts;

  std::size_t next_occurrence(std::size_t service) {
    for (auto& [known, count] : service_counts) {
      if (known == service) return count++;
    }
    service_counts.emplace_back(service, 1);
    return 0;
  }
};

class Simulator {
 public:
  Simulator(const PlanningProblem& problem, const EvaluationConfig& config, ItemTable& table)
      : problem_(problem), config_(config), table_(table) {}

  std::vector<Flow> run(const PlanNode& plan) {
    Flow initial;
    initial.state = table_.initial();
    std::vector<Flow> flows;
    flows.push_back(std::move(initial));
    simulate(plan, flows);
    return flows;
  }

  bool truncated() const noexcept { return truncated_; }

 private:
  /// Executes one terminal activity on one flow.
  void execute_terminal(const PlanNode& node, Flow& flow) {
    ++flow.executed;
    const wfl::ServiceType* service = problem_.catalogue.find(node.service);
    if (service == nullptr) return;  // unknown service: executed but invalid
    const auto index = static_cast<std::size_t>(service - problem_.catalogue.services().data());
    if (!table_.bindable(index, flow.state)) return;  // precondition unmet: invalid
    ++flow.valid;
    // Postcondition: append the (interned, immutable) produced data.
    const auto& outputs = table_.outputs(index, flow.next_occurrence(index));
    flow.state.insert(flow.state.end(), outputs.begin(), outputs.end());
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
        // Children execute strictly left to right.
        for (const auto& child : node.children) simulate(child, flows);
        return;
      case PlanNode::Kind::Concurrent: {
        // "All activities ... can be executed either sequentially or
        // concurrently. If the activities are executed sequentially, they
        // can be executed in any order." A correct concurrent block must be
        // valid under every serialization; checking the forward and reverse
        // orders catches order-dependent children at 2x cost instead of n!.
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
        // Enumerate: each branch spawns an alternative flow set.
        std::vector<Flow> combined;
        for (std::size_t i = 0; i < node.children.size(); ++i) {
          std::vector<Flow> branch_flows = flows;
          simulate(node.children[i], branch_flows);
          combined.insert(combined.end(), std::make_move_iterator(branch_flows.begin()),
                          std::make_move_iterator(branch_flows.end()));
          cap_flows(combined);
          if (combined.size() >= config_.max_flows) {
            // Remaining branches would be dropped: that is truncation too.
            if (i + 1 < node.children.size()) truncated_ = true;
            break;
          }
        }
        flows = std::move(combined);
        return;
      }
      case PlanNode::Kind::Iterative: {
        // Enumerate 1..max_unroll passes over the body.
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
  ItemTable& table_;
  bool truncated_ = false;
};

}  // namespace

PlanEvaluator::PlanEvaluator(const PlanningProblem& problem, EvaluationConfig config,
                             std::size_t workers)
    : problem_(&problem), config_(config) {
  if (workers == 0) workers = 1;
  tables_.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) tables_.push_back(std::make_unique<ItemTable>(problem));
}

PlanEvaluator::~PlanEvaluator() = default;

Fitness PlanEvaluator::evaluate(const PlanNode& plan, std::size_t worker) const {
  evaluations_.fetch_add(1, std::memory_order_relaxed);
  if (!config_.memoize) return simulate(plan, worker);

  const std::uint64_t key = plan.hash();
  MemoShard& shard = memo_[key % kMemoShards];
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    const auto chain = shard.entries.find(key);
    if (chain != shard.entries.end()) {
      for (const auto& [known, fitness] : chain->second) {
        if (known == plan) {
          memo_hits_.fetch_add(1, std::memory_order_relaxed);
          return fitness;
        }
      }
    }
  }

  const Fitness fitness = simulate(plan, worker);
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto& chain = shard.entries[key];
    // A concurrent worker may have simulated the same plan meanwhile; both
    // computed the same pure value, so keeping one copy suffices.
    bool present = false;
    for (const auto& [known, cached] : chain) {
      if (known == plan) {
        present = true;
        break;
      }
    }
    if (!present) chain.emplace_back(plan, fitness);
  }
  return fitness;
}

Fitness PlanEvaluator::simulate(const PlanNode& plan, std::size_t worker) const {
  Fitness fitness;
  fitness.size = plan.size();

  ItemTable& table = *tables_.at(worker);
  Simulator simulator(*problem_, config_, table);
  const std::vector<Flow> flows = simulator.run(plan);
  fitness.flows = flows.size();
  fitness.flows_truncated = simulator.truncated();

  // Eq. 1 — validity: totals across all enumerated executions.
  std::size_t total_valid = 0;
  std::size_t total_executed = 0;
  for (const auto& flow : flows) {
    total_valid += flow.valid;
    total_executed += flow.executed;
  }
  fitness.validity =
      total_executed > 0 ? static_cast<double>(total_valid) / static_cast<double>(total_executed)
                         : 0.0;

  // Eq. 2 — goal fitness, averaged over flows ("the goal fitness is given as
  // the average goal fitness of each execution"). Goals bind their single
  // variable existentially over the flow's final items.
  double goal_sum = 0.0;
  for (const auto& flow : flows) {
    goal_sum += problem_->goals.empty() ? 1.0
                                        : static_cast<double>(table.goals_met(flow.state)) /
                                              static_cast<double>(problem_->goals.size());
  }
  fitness.goal = flows.empty() ? 0.0 : goal_sum / static_cast<double>(flows.size());

  // Eq. 3 — representation efficiency.
  const double size_ratio =
      config_.smax > 0 ? static_cast<double>(fitness.size) / static_cast<double>(config_.smax)
                       : 1.0;
  fitness.representation = size_ratio < 1.0 ? 1.0 - size_ratio : 0.0;

  // Eq. 4 — weighted sum.
  fitness.overall = config_.wv * fitness.validity + config_.wg * fitness.goal +
                    config_.wr * fitness.representation;
  return fitness;
}

}  // namespace ig::planner
