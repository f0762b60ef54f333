#include "recorder.hpp"

#include "services/protocol.hpp"
#include "wire/channel.hpp"

namespace perfbench {

using ig::agent::AclMessage;
using ig::agent::Performative;

Recorder::Recorder(std::size_t shards, std::uint64_t capture_cases)
    : origin_(std::chrono::steady_clock::now()), capture_cases_(capture_cases), shards_(shards) {
  for (Shard& shard : shards_) shard.stamps.reserve(1 << 16);
}

double Recorder::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - origin_).count();
}

void Recorder::install(ig::svc::Environment& environment, std::size_t shard) {
  ig::wire::WireLink* link = environment.wire_link();
  environment.platform().set_transport_hook(
      [this, shard, link](const AclMessage& message,
                          std::string* error) -> std::optional<AclMessage> {
        stamp(shard, message);
        if (link == nullptr) return message;
        ShardExtras& extras = shards_[shard].extras;
        const ig::wire::LinkStats before = link->stats();
        const double start = now();
        std::optional<AclMessage> arrived = link->round_trip(message, error);
        extras.wire_seconds += now() - start;
        const ig::wire::LinkStats after = link->stats();
        ++extras.wire_round_trips;
        extras.wire_bytes += after.bytes - before.bytes;
        extras.intern_hits += after.intern_hits - before.intern_hits;
        extras.intern_misses += after.intern_misses - before.intern_misses;
        return arrived;
      });
}

void Recorder::stamp(std::size_t shard_index, const AclMessage& message) {
  Shard& shard = shards_[shard_index];
  SendStamp s;
  s.t = now();
  s.sender = message.sender;
  s.receiver = message.receiver;
  s.protocol = message.protocol;
  s.conversation = message.conversation_id;
  s.request = message.performative == Performative::Request ||
              message.performative == Performative::QueryRef ||
              message.performative == Performative::QueryIf;
  s.payload_bytes = message.content.size();
  for (const auto& [key, value] : message.params) s.payload_bytes += key.size() + value.size();

  ShardExtras& extras = shard.extras;
  if (s.sender == kEngineClient) {
    if (const auto id = engine_case_of(s.conversation)) shard.current_case = *id;
  }
  namespace protocols = ig::svc::protocols;
  if (s.protocol == protocols::kExecuteActivity && s.request &&
      shard.current_case >= 1 && shard.current_case <= capture_cases_) {
    extras.execute_payloads.push_back(message.content);
  }
  if (s.protocol == protocols::kReplanRequest && s.sender == ig::svc::names::kPlanning &&
      message.performative == Performative::Inform) {
    extras.plan_fitness.push_back(message.param_double("fitness", 0.0));
  }
  shard.stamps.push_back(std::move(s));
}

}  // namespace perfbench
