// The traced run's transport hook. Installed on every shard stack through
// EngineConfig::shard_setup, it passes each platform send through unchanged
// (through the environment's WireLink when the stack has one) and stamps the
// wall time, sender, receiver, protocol, conversation id and payload bytes.
// Stamps stay in per-shard memory until the run ends; a shard's hook only
// runs on the job that pumps that shard, so each shard's buffer has one
// writer at a time and the job system orders successive writers.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"
#include "services/environment.hpp"

namespace perfbench {

/// Wire and planner side channels of one shard.
struct ShardExtras {
  std::uint64_t wire_round_trips = 0;
  double wire_seconds = 0.0;
  std::uint64_t wire_bytes = 0;
  std::uint64_t intern_hits = 0;
  std::uint64_t intern_misses = 0;
  std::vector<double> plan_fitness;  ///< from each planning reply
  /// Execute payloads (dataset XML) of the captured cases.
  std::vector<std::string> execute_payloads;
};

class Recorder {
 public:
  /// `capture_cases`: execute payloads of engine cases 1..capture_cases are
  /// kept for the codec timing.
  Recorder(std::size_t shards, std::uint64_t capture_cases);

  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  /// Installs the stamping hook on `environment` (shard `shard`).
  void install(ig::svc::Environment& environment, std::size_t shard);

  /// Seconds since the recorder was made, on the clock every stamp uses.
  double now() const;

  const std::vector<SendStamp>& stamps(std::size_t shard) const { return shards_[shard].stamps; }
  const ShardExtras& extras(std::size_t shard) const { return shards_[shard].extras; }
  std::size_t shards() const { return shards_.size(); }

 private:
  struct Shard {
    std::vector<SendStamp> stamps;
    ShardExtras extras;
    std::uint64_t current_case = 0;  ///< engine case of the latest attempt
  };
  void stamp(std::size_t shard, const ig::agent::AclMessage& message);

  std::chrono::steady_clock::time_point origin_;
  std::uint64_t capture_cases_;
  std::vector<Shard> shards_;
};

}  // namespace perfbench
