// Well-known agent names and protocol identifiers of the core services.
//
// Core services in the paper are persistent and locatable; here each service
// type has a canonical agent name (replicas get numeric suffixes and
// register their type with the information service).
#pragma once

#include <memory>

#include "agent/agent.hpp"
#include "agent/message.hpp"
#include "agent/platform.hpp"
#include "wfl/data.hpp"
#include "wfl/xml_io.hpp"

namespace ig::svc {

/// Canonical agent names (Figure 1's service boxes).
namespace names {
inline constexpr const char* kInformation = "is";
inline constexpr const char* kBrokerage = "bs";
inline constexpr const char* kMatchmaking = "ms";
inline constexpr const char* kMonitoring = "mons";
inline constexpr const char* kOntology = "os";
inline constexpr const char* kAuthentication = "as";
inline constexpr const char* kPersistentStorage = "pss";
inline constexpr const char* kScheduling = "schs";
inline constexpr const char* kSimulation = "sims";
inline constexpr const char* kCoordination = "cs";
inline constexpr const char* kPlanning = "ps";
inline constexpr const char* kUserInterface = "ui";
}  // namespace names

/// Protocol identifiers (the `protocol` field of AclMessage).
namespace protocols {
// Information service.
inline constexpr const char* kRegister = "register";
inline constexpr const char* kDeregister = "deregister";
inline constexpr const char* kQueryService = "service-query";
// Brokerage service.
inline constexpr const char* kAdvertise = "advertise";
inline constexpr const char* kQueryProviders = "provider-query";
inline constexpr const char* kReportPerformance = "performance-report";
inline constexpr const char* kQueryHistory = "history-query";
// Matchmaking.
inline constexpr const char* kFindContainer = "find-container";
// Monitoring.
inline constexpr const char* kQueryStatus = "status-query";
inline constexpr const char* kHeartbeat = "heartbeat";
// Ontology service.
inline constexpr const char* kGetOntology = "get-ontology";
inline constexpr const char* kGetShell = "get-ontology-shell";
inline constexpr const char* kStoreOntology = "store-ontology";
// Authentication.
inline constexpr const char* kAuthenticate = "authenticate";
inline constexpr const char* kVerifyToken = "verify-token";
// Persistent storage.
inline constexpr const char* kStorePut = "storage-put";
inline constexpr const char* kStoreGet = "storage-get";
inline constexpr const char* kStoreList = "storage-list";
// Scheduling.
inline constexpr const char* kScheduleRequest = "schedule-request";
// Application containers.
inline constexpr const char* kExecuteActivity = "execute-activity";
inline constexpr const char* kQueryExecutable = "query-executable";
// Planning (Figures 2 and 3).
inline constexpr const char* kPlanRequest = "planning-request";
inline constexpr const char* kReplanRequest = "replanning-request";
// Coordination.
inline constexpr const char* kEnactCase = "enact-case";
inline constexpr const char* kCaseCompleted = "case-completed";
inline constexpr const char* kCheckpointCase = "checkpoint-case";
inline constexpr const char* kRestoreCase = "restore-case";
// Simulation service.
inline constexpr const char* kSimulateCase = "simulate-case";
inline constexpr const char* kSimulatePlan = "simulate-plan";
}  // namespace protocols

/// True when an unrecognized message deserves a NOT-UNDERSTOOD bounce:
/// only initiating performatives are bounced; stray acknowledgements,
/// informs and failures are dropped to prevent reply loops.
inline bool should_bounce_unknown(const agent::AclMessage& message) {
  return message.performative == agent::Performative::Request ||
         message.performative == agent::Performative::QueryRef ||
         message.performative == agent::Performative::QueryIf;
}

/// Builds the standard rejection reply for a payload the service could not
/// make sense of (missing or malformed params). Carries the machine-readable
/// `reason` plus the legacy `error` key older call sites still read.
inline agent::AclMessage make_not_understood(const agent::AclMessage& message,
                                             const std::string& reason) {
  agent::AclMessage reply = message.make_reply(agent::Performative::NotUnderstood);
  reply.params["reason"] = reason;
  reply.params["error"] = reason;
  return reply;
}

/// Builds the standard Failure reply for a request the service understood
/// but could not carry out.
inline agent::AclMessage make_failure(const agent::AclMessage& message,
                                      const std::string& reason) {
  agent::AclMessage reply = message.make_reply(agent::Performative::Failure);
  reply.params["reason"] = reason;
  reply.params["error"] = reason;
  return reply;
}

/// The data set a message carries: its typed `data` when set, otherwise
/// its XML `content` decoded (empty content gives an empty set). Inside one
/// platform this never touches XML; only a message that crossed a transport
/// hook, or one a client built by hand, is decoded. Throws what
/// wfl::dataset_from_xml_string throws on malformed content.
inline std::shared_ptr<const wfl::DataSet> dataset_payload(const agent::AclMessage& message) {
  if (message.data != nullptr) return message.data;
  if (message.content.empty()) return std::make_shared<const wfl::DataSet>();
  return std::make_shared<const wfl::DataSet>(wfl::dataset_from_xml_string(message.content));
}

/// Sends the standard registration message to the information service.
inline void register_with_information_service(agent::Agent& agent_ref,
                                              agent::AgentPlatform& platform,
                                              const std::string& type) {
  if (!platform.has_agent(names::kInformation)) return;
  agent::AclMessage registration;
  registration.performative = agent::Performative::Request;
  registration.sender = agent_ref.name();
  registration.receiver = names::kInformation;
  registration.protocol = protocols::kRegister;
  registration.params["type"] = type;
  platform.send(std::move(registration));
}

}  // namespace ig::svc
