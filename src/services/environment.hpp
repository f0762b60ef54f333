// One-call bootstrap of a complete intelligent grid environment.
//
// Wires Figure 1 end to end: the simulated grid (nodes, containers,
// network), the agent platform, every core service, and one container agent
// per application container. Examples, tests and benchmark harnesses build
// on this instead of repeating the wiring.
#pragma once

#include <memory>
#include <string>

#include "agent/platform.hpp"
#include "grid/grid.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "planner/gp.hpp"
#include "services/authentication.hpp"
#include "services/brokerage.hpp"
#include "services/coordination.hpp"
#include "services/information.hpp"
#include "services/matchmaking.hpp"
#include "services/monitoring.hpp"
#include "services/ontology_service.hpp"
#include "services/planning_service.hpp"
#include "services/scheduling.hpp"
#include "services/simulation_service.hpp"
#include "services/storage.hpp"
#include "virolab/kernels.hpp"
#include "wfl/service.hpp"
#include "wire/channel.hpp"

namespace ig::svc {

struct EnvironmentOptions {
  grid::TopologyParams topology;      ///< service_names filled from catalogue if empty
  wfl::ServiceCatalogue catalogue;    ///< defaults to the virolab catalogue when empty
  planner::GpConfig gp;               ///< planner settings (Table 1 defaults)
  CoordinationConfig coordination;
  virolab::KernelParams kernels;
  bool use_synthetic_kernels = true;  ///< false: declarative postconditions only
  /// Enables the span tracer: the coordination service's enactment spans
  /// and one span per platform message, all on the virtual clock.
  bool span_tracing = false;
  std::size_t span_limit = 0;         ///< >0 caps retained spans (oldest closed drop)
  grid::SimTime monitor_period = 0.0; ///< >0 enables periodic utilization sampling
  /// >0: container agents emit liveness heartbeats at this spacing and the
  /// monitoring service quarantines containers that stop beating (both run
  /// as daemon events, so the calendar still drains between cases).
  grid::SimTime heartbeat_period = 0.0;
  HeartbeatConfig heartbeat;          ///< thresholds; `period` is overwritten
                                      ///< from heartbeat_period when that is set
  /// Routes every platform send through the binary wire codec (frame,
  /// CRC, intern, zero-copy decode, materialize) over a loopback byte
  /// stream before the chaos layer sees it. Chaos faults then hit frames
  /// that really crossed the codec; wire_* counters appear in the
  /// environment's registry. Deterministic: the round trip is bitwise, so
  /// chaos replays stay seed-stable with the hook on or off.
  bool wire_transport = false;
  /// Fault-injection policy installed on the platform (empty = no chaos).
  agent::ChaosPolicy chaos;
  /// Backing store for the PersistentStorageService (not owned). Null gives
  /// the service a private in-memory store (the historical behavior); a
  /// durable engine makes its documents crash-recoverable and lets several
  /// environments share one knowledge base.
  store::StorageEngine* storage_engine = nullptr;
  std::uint64_t seed = 42;
};

/// The assembled environment. Not copyable or movable; construct through
/// make_environment and keep it alive for the duration of the scenario.
class Environment {
 public:
  /// Every component counts into `registry` under `labels` (platform,
  /// chaos, request trackers, monitoring, span-tracer drops, wire link).
  /// A null registry gives the environment a private one.
  explicit Environment(const EnvironmentOptions& options,
                       obs::MetricsRegistry* registry = nullptr, obs::Labels labels = {});

  Environment(const Environment&) = delete;
  Environment& operator=(const Environment&) = delete;

  grid::Simulation& sim() noexcept { return sim_; }
  grid::Grid& grid() noexcept { return grid_; }
  grid::FailureInjector& injector() noexcept { return injector_; }
  agent::AgentPlatform& platform() noexcept { return platform_; }
  const wfl::ServiceCatalogue& catalogue() const noexcept { return catalogue_; }
  virolab::SyntheticKernels& kernels() noexcept { return kernels_; }

  InformationService& information() noexcept { return *information_; }
  BrokerageService& brokerage() noexcept { return *brokerage_; }
  MatchmakingService& matchmaking() noexcept { return *matchmaking_; }
  MonitoringService& monitoring() noexcept { return *monitoring_; }
  OntologyService& ontology() noexcept { return *ontology_; }
  AuthenticationService& authentication() noexcept { return *authentication_; }
  PersistentStorageService& storage() noexcept { return *storage_; }
  SchedulingService& scheduling() noexcept { return *scheduling_; }
  SimulationService& simulation() noexcept { return *simulation_; }
  PlanningService& planning() noexcept { return *planning_; }
  CoordinationService& coordination() noexcept { return *coordination_; }

  /// The enactment and message span tracer (off unless options.span_tracing).
  obs::SpanTracer& tracer() noexcept { return tracer_; }
  const obs::SpanTracer& tracer() const noexcept { return tracer_; }

  /// The wire transport link, or nullptr unless options.wire_transport.
  wire::WireLink* wire_link() noexcept { return wire_link_.get(); }
  const wire::WireLink* wire_link() const noexcept { return wire_link_.get(); }

  /// The registry every component counts into (see the constructor).
  obs::MetricsRegistry& registry() const noexcept { return platform_.registry(); }

  /// Drains the event calendar (bounded by `max_events` as a runaway guard).
  std::size_t run(std::size_t max_events = 1'000'000) { return sim_.run(max_events); }

 private:
  grid::Simulation sim_;
  grid::Grid grid_;
  grid::FailureInjector injector_;
  agent::AgentPlatform platform_;
  std::unique_ptr<wire::WireLink> wire_link_;
  obs::SpanTracer tracer_;
  wfl::ServiceCatalogue catalogue_;
  virolab::SyntheticKernels kernels_;

  InformationService* information_ = nullptr;
  BrokerageService* brokerage_ = nullptr;
  MatchmakingService* matchmaking_ = nullptr;
  MonitoringService* monitoring_ = nullptr;
  OntologyService* ontology_ = nullptr;
  AuthenticationService* authentication_ = nullptr;
  PersistentStorageService* storage_ = nullptr;
  SchedulingService* scheduling_ = nullptr;
  SimulationService* simulation_ = nullptr;
  PlanningService* planning_ = nullptr;
  CoordinationService* coordination_ = nullptr;
};

/// Builds the standard environment (virolab catalogue unless overridden).
std::unique_ptr<Environment> make_environment(EnvironmentOptions options = {});

/// Attempt-stack factory for the enactment engine: the fresh, fully wired
/// environment one enactment attempt runs on. Its seed — and, when
/// `base.chaos` is enabled, its chaos seed — derive from (engine seed,
/// case id, retries) alone, so an attempt does the same work on whichever
/// shard runs it, whatever ran there before, and after a restart. The
/// stack counts into `registry` under `labels` (the engine passes its own
/// registry and {shard="i"}). Periodic monitoring is disabled: the engine
/// drives the calendar in slices until the attempt's reply arrives.
std::unique_ptr<Environment> make_shard_stack(EnvironmentOptions base,
                                              std::uint64_t engine_seed,
                                              std::uint64_t case_id, std::uint64_t retries,
                                              obs::MetricsRegistry& registry,
                                              obs::Labels labels);

}  // namespace ig::svc
