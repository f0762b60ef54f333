#include "services/user_interface.hpp"

#include "services/protocol.hpp"
#include "wfl/xml_io.hpp"

namespace ig::svc {

using agent::AclMessage;
using agent::Performative;

void UserInterfaceAgent::submit_case(const wfl::CaseDescription& case_description,
                                     std::optional<std::uint64_t> seed) {
  case_xml_ = wfl::case_to_xml_string(case_description);
  outcome_.reset();
  plan_.reset();
  AclMessage request;
  request.performative = Performative::Request;
  request.receiver = names::kPlanning;
  request.protocol = protocols::kPlanRequest;
  if (seed.has_value()) request.params["seed"] = std::to_string(*seed);
  request.content = case_xml_;
  send(std::move(request));
}

void UserInterfaceAgent::submit_process(const wfl::ProcessDescription& process,
                                        const wfl::CaseDescription& case_description) {
  case_xml_ = wfl::case_to_xml_string(case_description);
  outcome_.reset();
  plan_ = process;
  start_enactment(wfl::process_to_xml_string(process));
}

void UserInterfaceAgent::start_enactment(const std::string& process_xml) {
  AclMessage request;
  request.performative = Performative::Request;
  request.receiver = names::kCoordination;
  request.protocol = protocols::kEnactCase;
  request.content = process_xml;
  request.params["case-xml"] = case_xml_;
  send(std::move(request));
}

void UserInterfaceAgent::handle_message(const AclMessage& message) {
  if (message.protocol == protocols::kPlanRequest) {
    if (message.performative != Performative::Inform) {
      TaskOutcome failed;
      failed.error = "planning failed: " + message.param("error");
      outcome_ = failed;
      if (outcome_callback_) outcome_callback_(*outcome_);
      return;
    }
    try {
      plan_ = wfl::process_from_xml_string(message.content);
    } catch (const std::exception& error) {
      TaskOutcome failed;
      failed.error = std::string("bad plan payload: ") + error.what();
      outcome_ = failed;
      if (outcome_callback_) outcome_callback_(*outcome_);
      return;
    }
    if (plan_callback_) plan_callback_(*plan_);
    start_enactment(message.content);
    return;
  }

  if (message.protocol == protocols::kCaseCompleted) {
    TaskOutcome outcome;
    outcome.success = message.param_bool("success", false);
    outcome.error = message.param("error");
    outcome.makespan = message.param_double("makespan", 0.0);
    outcome.activities_executed = message.param_int("activities-executed", 0);
    outcome.dispatch_failures = message.param_int("dispatch-failures", 0);
    outcome.replans = message.param_int("replans", 0);
    outcome.goal_satisfaction = message.param_double("goal-satisfaction", 0.0);
    outcome.total_cost = message.param_double("total-cost", 0.0);
    try {
      outcome.final_data = *dataset_payload(message);
    } catch (const std::exception&) {
      // Final data is informative only; a bad payload does not void the
      // outcome.
    }
    outcome_ = std::move(outcome);
    if (outcome_callback_) outcome_callback_(*outcome_);
  }
}

}  // namespace ig::svc
