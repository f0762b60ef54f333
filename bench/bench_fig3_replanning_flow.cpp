// Figure 3 — The flow of communications between the planning service and
// other services during re-planning.
//
//   1. CS -> PS   planning task specification + non-executable activities
//   2. PS -> IS   Brokerage Service?
//   3. IS -> PS   Brokerage Service found
//   4. PS -> BS   Application Containers for the activity?
//   5. BS -> PS   a group of Application Containers found
//   6. PS -> AC   Activities executable?
//   7. AC -> PS   executable or not executable
//   8. PS -> CS   a new plan
//
// The harness disables every POR host, enacts the Figure 10 workflow, and
// prints the eight-step exchange from the recorded message trace.
#include <cstdio>
#include <optional>
#include <string>

#include "agent/trace_render.hpp"
#include "services/environment.hpp"
#include "services/protocol.hpp"
#include "virolab/catalogue.hpp"
#include "virolab/workflow.hpp"
#include "wfl/xml_io.hpp"

using namespace ig;
namespace names = svc::names;
namespace protocols = svc::protocols;

namespace {

class Requester : public agent::Agent {
 public:
  using Agent::Agent;
  void on_start() override {
    agent::AclMessage request;
    request.performative = agent::Performative::Request;
    request.receiver = names::kCoordination;
    request.protocol = protocols::kEnactCase;
    request.content = wfl::process_to_xml_string(virolab::make_fig10_process());
    request.params["case-xml"] = wfl::case_to_xml_string(virolab::make_case_description());
    send(std::move(request));
  }
  void handle_message(const agent::AclMessage& message) override {
    if (message.protocol == protocols::kCaseCompleted) outcome = message;
  }
  agent::AclMessage outcome;
};

}  // namespace

int main() {
  svc::EnvironmentOptions options;
  options.span_tracing = true;
  options.gp.population_size = 120;
  options.gp.generations = 15;
  auto environment = svc::make_environment(options);

  for (const auto* container : environment->grid().containers_advertising("POR"))
    environment->grid().find_container(container->id())->unhost_service("POR");

  environment->tracer().clear();
  auto& requester = environment->platform().spawn<Requester>("ui");
  environment->run();

  std::printf("Figure 3: the re-planning communication flow\n\n");
  bool steps[9] = {false};
  for (const obs::Span& span : environment->tracer().spans()) {
    const std::optional<agent::AclMessage> decoded = agent::message_of(span);
    if (!decoded) continue;
    const agent::AclMessage& message = *decoded;
    int step = 0;
    const char* label = "";
    if (message.protocol == protocols::kReplanRequest) {
      if (message.receiver == names::kPlanning) {
        step = 1;
        label = "planning task specification + non-executable activities";
      } else if (message.sender == names::kPlanning &&
                 message.performative == agent::Performative::Inform) {
        step = 8;
        label = "a new plan";
      }
    } else if (message.protocol == protocols::kQueryService &&
               message.param("type") == "brokerage") {
      if (message.receiver == names::kInformation) {
        step = 2;
        label = "Brokerage Service?";
      } else if (message.performative == agent::Performative::Inform) {
        step = 3;
        label = "Brokerage Service found";
      }
    } else if (message.protocol == protocols::kQueryProviders &&
               message.sender == names::kPlanning) {
      step = 4;
      label = "Application Containers for the activity?";
    } else if (message.protocol == protocols::kQueryProviders &&
               message.receiver == names::kPlanning) {
      step = 5;
      label = "a group of Application Containers found";
    } else if (message.protocol == protocols::kQueryExecutable &&
               message.sender == names::kPlanning) {
      step = 6;
      label = "Activities executable?";
    } else if (message.protocol == protocols::kQueryExecutable &&
               message.receiver == names::kPlanning) {
      step = 7;
      label = message.param("executable") == "true" ? "executable" : "not executable";
    }
    if (step == 0) continue;
    steps[step] = true;
    std::printf("t=%8.4f  %d. %-55s %s", span.end, step, label,
                message.to_display_string().c_str());
    if (step == 7) std::printf("  [%s: %s]", message.param("service").c_str(),
                               message.param("executable").c_str());
    std::printf("\n");
  }

  bool all_steps = true;
  for (int i = 1; i <= 8; ++i) all_steps = all_steps && steps[i];
  std::printf("\ncase outcome: success=%s replans=%s\n",
              requester.outcome.param("success").c_str(),
              requester.outcome.param("replans").c_str());
  std::printf("all eight Figure 3 steps observed: %s\n", all_steps ? "yes" : "NO");
  const bool ok = all_steps && requester.outcome.param("success") == "true";
  return ok ? 0 : 1;
}
