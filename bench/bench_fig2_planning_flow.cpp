// Figure 2 — The interactions between the planning service and the
// coordination service.
//
//   1. Planning task specification   CS -> PS
//   2. plan                          PS -> CS
//
// The harness triggers one planning episode through the coordination
// service (by enacting a case whose goals are initially unreachable with a
// deliberately hollow process, forcing a plan request) — then prints the
// recorded exchange and checks both arrows are present.
#include <cstdio>
#include <optional>
#include <string>

#include "agent/trace_render.hpp"
#include "services/environment.hpp"
#include "services/protocol.hpp"
#include "virolab/catalogue.hpp"
#include "wfl/structure.hpp"
#include "wfl/xml_io.hpp"

using namespace ig;
namespace names = svc::names;
namespace protocols = svc::protocols;

namespace {

/// UI agent issuing a standard planning request (the Figure 2 scenario).
class Requester : public agent::Agent {
 public:
  using Agent::Agent;
  void on_start() override {
    agent::AclMessage request;
    request.performative = agent::Performative::Request;
    request.receiver = names::kCoordination;
    request.protocol = protocols::kEnactCase;
    // A process that finishes immediately without producing the goal data:
    // the coordination service reaches End, sees the unmet goal, and sends
    // the planning task specification to the planning service (arrow 1).
    request.content = wfl::process_to_xml_string(
        wfl::lower_to_process(wfl::parse_flow("BEGIN, POD, END"), "hollow"));
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
  options.gp.population_size = 100;
  options.gp.generations = 15;
  auto environment = svc::make_environment(options);
  environment->tracer().clear();
  auto& requester = environment->platform().spawn<Requester>("ui");
  environment->run();

  std::printf("Figure 2: the planning service <-> coordination service exchange\n\n");
  bool saw_specification = false;
  bool saw_plan = false;
  for (const obs::Span& span : environment->tracer().spans()) {
    const std::optional<agent::AclMessage> decoded = agent::message_of(span);
    if (!decoded) continue;
    const agent::AclMessage& message = *decoded;
    const bool is_request = message.protocol == protocols::kReplanRequest ||
                            message.protocol == protocols::kPlanRequest;
    if (!is_request) continue;
    if (message.receiver == names::kPlanning &&
        message.performative == agent::Performative::Request) {
      std::printf("t=%8.4f  1. Planning task specification   %s\n", span.end,
                  message.to_display_string().c_str());
      saw_specification = true;
    }
    if (message.sender == names::kPlanning &&
        message.performative == agent::Performative::Inform) {
      std::printf("t=%8.4f  2. plan                           %s  (plan=%s fitness=%s)\n",
                  span.end, message.to_display_string().c_str(),
                  message.param("plan").c_str(), message.param("fitness").c_str());
      saw_plan = true;
    }
  }

  std::printf("\ncase outcome: success=%s after %s re-plan(s)\n",
              requester.outcome.param("success").c_str(),
              requester.outcome.param("replans").c_str());
  const bool ok = saw_specification && saw_plan &&
                  requester.outcome.param("success") == "true";
  std::printf("figure 2 exchange reproduced: %s\n", ok ? "yes" : "NO");
  return ok ? 0 : 1;
}
