// Seeded workload generator. A workload is a pool of case inputs (process
// and case descriptions) plus the engine configuration that runs them; the
// closed loop submits pool[i % pool.size()] as its i-th case. Everything is
// drawn from the benchmark seed with the benchmark's own generator, so the
// same seed gives the same inputs whatever the program under test does with
// its random streams.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "wfl/case_description.hpp"
#include "wfl/process.hpp"

namespace perfbench {

/// splitmix64: the benchmark's input generator.
class SeedStream {
 public:
  explicit SeedStream(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  double uniform(double lo, double hi);  ///< [lo, hi)

 private:
  std::uint64_t state_;
};

struct CaseInput {
  ig::wfl::ProcessDescription process;
  ig::wfl::CaseDescription case_description;
  /// End-user activities a failure-free enactment executes.
  int expected_activities = 0;
};

struct Workload {
  std::vector<CaseInput> pool;
  /// Engine settings; `shard_setup` pins the topology settings. Durable
  /// workloads get their journal directory from the caller.
  ig::engine::EngineConfig config;
  bool durable = false;
  /// True when the failure-free expectation holds for every case; false
  /// when failures are injected on purpose (then it holds for cases that
  /// finished with no replan and no engine retry).
  bool failure_free = true;
};

/// Builds `name`'s inputs and configuration from `seed`. Throws
/// std::invalid_argument for an unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed);

/// Refinement passes the synthetic reconstruction needs to reach `target`
/// angstrom, and the fig10 activity count that implies.
int fig10_refinement_passes(double target);
int fig10_expected_activities(double target);

}  // namespace perfbench
