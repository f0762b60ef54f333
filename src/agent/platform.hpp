// The agent platform: registration, message transport, and tracing.
//
// Substitutes for Jade. Delivery is asynchronous on the virtual clock: a
// sent message arrives after a latency determined by a pluggable function
// (by default a small constant; the services install a domain-aware function
// backed by the grid's network model). With an enabled obs::SpanTracer
// attached, every message is recorded as one Message span (see
// agent/trace_render.hpp), which the Figure 2/3 harnesses print as the
// paper's message flows.
//
// A ChaosPolicy (agent/chaos.hpp) may be installed to inject transport
// faults — drop, delay, duplicate, reorder — and agent faults (crash, hang),
// all drawn deterministically from one seed so chaotic runs reproduce
// bitwise. Crashed and hung agents are *not* deregistered: their objects
// (and any timers they scheduled) stay alive, the transport just refuses to
// carry their messages.
//
// Counters live in an obs::MetricsRegistry: the platform increments its
// `platform_*` and `chaos_faults_total` instruments directly, and the
// agents on it bind theirs to the same registry and labels. An engine shard
// stack passes the engine's registry with {shard="i"}, so every stack the
// shard builds adds to the same series; a standalone platform counts into a
// private registry.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "agent/agent.hpp"
#include "agent/chaos.hpp"
#include "agent/message.hpp"
#include "grid/sim.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace ig::agent {

/// Transport-level condition of an agent (see ChaosPolicy's AgentFault).
enum class AgentHealth { Healthy, Crashed, Hung };

/// A transport hook stands in for the physical medium between send() and the
/// chaos layer: it carries the message through a real encode/decode path
/// (e.g. the wire codec's framed byte stream) and returns what arrived, or
/// nullopt if the transport rejected it (writing a reason into *error). The
/// chaos policy then acts on the *decoded* message, so injected faults hit
/// frames that really crossed a codec, not in-memory copies. A hook sees a
/// typed data set twice: in `data`, and rendered as XML in `content` (send()
/// fills an empty content before calling the hook). A medium that carries
/// only bytes delivers the content, and the receiver decodes it.
using TransportHook =
    std::function<std::optional<AclMessage>(const AclMessage&, std::string* error)>;

class AgentPlatform {
 public:
  /// Counts into `registry` under `labels`; a null registry gives the
  /// platform a private one.
  explicit AgentPlatform(grid::Simulation& sim, obs::MetricsRegistry* registry = nullptr,
                         obs::Labels labels = {});

  AgentPlatform(const AgentPlatform&) = delete;
  AgentPlatform& operator=(const AgentPlatform&) = delete;

  grid::Simulation& sim() noexcept { return sim_; }

  /// The registry this platform and its agents count into, and the labels
  /// every series they register carries. Internally synchronized, so any
  /// thread may read it while the simulation runs.
  obs::MetricsRegistry& registry() const noexcept { return *registry_; }
  const obs::Labels& metric_labels() const noexcept { return labels_; }

  // -- lifecycle --------------------------------------------------------------
  /// Registers an agent; its name must be unique. `on_start` runs
  /// immediately. Returns a reference to the stored agent.
  Agent& register_agent(std::unique_ptr<Agent> agent);

  /// Convenience: constructs and registers an agent of type T.
  template <typename T, typename... Args>
  T& spawn(Args&&... args) {
    auto agent = std::make_unique<T>(std::forward<Args>(args)...);
    T& reference = *agent;
    register_agent(std::move(agent));
    return reference;
  }

  /// Deregisters (kills) an agent; queued deliveries to it are dropped.
  bool deregister_agent(std::string_view name);

  Agent* find_agent(std::string_view name) noexcept;
  bool has_agent(std::string_view name) const noexcept;
  std::vector<std::string> agent_names() const;

  // -- messaging ---------------------------------------------------------------
  /// Queues a message for delivery after the transport latency. Messages to
  /// unknown agents bounce: the sender receives a platform FAILURE reply.
  void send(AclMessage message);

  /// Transport latency function (sender, receiver) -> seconds.
  void set_latency_function(std::function<grid::SimTime(const std::string&, const std::string&)> fn) {
    latency_fn_ = std::move(fn);
  }

  /// Installs (or clears, with nullptr) the transport hook. Runs in send()
  /// after the sender-health check and before any chaos decision.
  void set_transport_hook(TransportHook hook) { transport_hook_ = std::move(hook); }
  // The counter accessors below read the registry instruments, so they
  // count every platform that shares this registry and labels.
  /// Messages the transport hook rejected (decode errors).
  std::size_t transport_rejects() const noexcept { return transport_rejects_->value(); }
  std::size_t messages_sent() const noexcept { return messages_sent_->value(); }
  std::size_t messages_delivered() const noexcept { return messages_delivered_->value(); }

  // -- chaos --------------------------------------------------------------------
  /// Installs (or replaces) the fault-injection policy. The fault counters
  /// keep counting across policies.
  void set_chaos(ChaosPolicy policy);
  /// Snapshot of the injected-fault counters.
  ChaosStats chaos_stats() const;

  /// Marks an agent crashed: deliveries to it bounce like an unknown agent,
  /// sends from it vanish. The object (and its timers) stays alive.
  void crash_agent(const std::string& name);
  /// Marks an agent hung: a black hole — deliveries to it and sends from it
  /// are silently swallowed. Only timeouts can observe this.
  void hang_agent(const std::string& name);
  /// Restores a crashed or hung agent to healthy (circuit-breaker recovery).
  void revive_agent(const std::string& name);
  AgentHealth agent_health(std::string_view name) const;

  // -- containment ---------------------------------------------------------------
  // A handler that throws must not take the platform down with it: deliver()
  // catches the exception, records it here (and on the message span), and converts
  // it into a Failure reply to the sender. Jade behaves the same way — a
  // behaviour that throws kills the behaviour, not the container.
  /// Handler exceptions caught so far for one agent.
  std::size_t handler_failures(std::string_view name) const;
  /// Per-agent breakdown of caught handler exceptions.
  const std::map<std::string, std::size_t>& handler_failures_by_agent() const noexcept {
    return handler_failures_;
  }
  /// Total caught handler exceptions.
  std::size_t handler_failures_total() const noexcept {
    return handler_failures_total_->value();
  }

  // -- tracing ------------------------------------------------------------------
  /// Records every message as a Message span in `tracer` (not owned; null
  /// detaches). Costs one relaxed load per message while it is disabled.
  void set_tracer(obs::SpanTracer* tracer) noexcept { tracer_ = tracer; }

 private:
  void deliver(AclMessage message, grid::SimTime sent_at);
  void note_handler_failure(const AclMessage& message, const std::string& what,
                            obs::SpanId span);
  /// Records `message` as a Message span ending now; 0 while not tracing.
  obs::SpanId trace(const AclMessage& message, grid::SimTime sent_at, bool delivered,
                    std::string_view chaos);
  /// Fires any agent fault armed for this delivery attempt to `receiver`.
  void apply_agent_faults(const std::string& receiver);

  grid::Simulation& sim_;
  std::unique_ptr<obs::MetricsRegistry> own_registry_;  ///< standalone platforms only
  obs::MetricsRegistry* registry_;
  obs::Labels labels_;
  std::vector<std::unique_ptr<Agent>> agents_;
  std::function<grid::SimTime(const std::string&, const std::string&)> latency_fn_;
  TransportHook transport_hook_;
  /// This platform's send count: keys the chaos draws, so it must not be
  /// shared with other platforms the way the registry counters are.
  std::uint64_t send_sequence_ = 0;
  obs::SpanTracer* tracer_ = nullptr;
  std::map<std::string, std::size_t> handler_failures_;

  std::optional<ChaosPolicy> chaos_;
  std::map<std::string, AgentHealth> health_;
  std::map<std::string, std::size_t> deliveries_by_agent_;

  // Registry instruments (owned by *registry_).
  obs::Counter* messages_sent_;
  obs::Counter* messages_delivered_;
  obs::Counter* handler_failures_total_;
  obs::Counter* transport_rejects_;
  obs::Counter* chaos_dropped_;
  obs::Counter* chaos_delayed_;
  obs::Counter* chaos_duplicated_;
  obs::Counter* chaos_reordered_;
  obs::Counter* chaos_crashed_;
  obs::Counter* chaos_hung_;
  obs::Counter* chaos_swallowed_;
};

}  // namespace ig::agent
