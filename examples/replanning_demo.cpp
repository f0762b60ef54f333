// Re-planning under failure (Section 3.3, Figure 3).
//
//   $ ./replanning_demo
//
// The demo enacts the Figure 10 workflow, but every container offering the
// POR (orientation refinement) service is taken down before execution
// starts. When the coordination service cannot dispatch POR anywhere, it
// ships the accumulated data to the planning service; the planner probes the
// runtime (information service -> brokerage -> container agents, steps 2-7
// of Figure 3) and returns a plan that avoids POR. The case still reaches
// its goal.
#include <cstdio>
#include <string>
#include <vector>

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

class DemoUser : public agent::Agent {
 public:
  DemoUser(std::string name, wfl::ProcessDescription process, wfl::CaseDescription cd)
      : Agent(std::move(name)), process_(std::move(process)), case_(std::move(cd)) {}

  void on_start() override {
    agent::AclMessage enact;
    enact.performative = agent::Performative::Request;
    enact.receiver = names::kCoordination;
    enact.protocol = protocols::kEnactCase;
    enact.content = wfl::process_to_xml_string(process_);
    enact.params["case-xml"] = wfl::case_to_xml_string(case_);
    send(std::move(enact));
  }

  void handle_message(const agent::AclMessage& message) override {
    if (message.protocol != protocols::kCaseCompleted) return;
    report = message;
  }

  wfl::ProcessDescription process_;
  wfl::CaseDescription case_;
  agent::AclMessage report;
};

}  // namespace

int main() {
  svc::EnvironmentOptions options;
  options.span_tracing = true;
  options.gp.population_size = 120;
  options.gp.generations = 15;
  auto environment = svc::make_environment(options);

  // Sabotage: every container withdraws its POR offering (the containers
  // themselves stay up for the services they co-host).
  std::size_t withdrawn = 0;
  for (const auto* container : environment->grid().containers_advertising("POR")) {
    environment->grid().find_container(container->id())->unhost_service("POR");
    ++withdrawn;
  }
  std::printf("POR withdrawn from %zu containers\n\n", withdrawn);

  auto& user = environment->platform().spawn<DemoUser>(
      "demo-user", virolab::make_fig10_process(), virolab::make_case_description());
  environment->tracer().clear();
  environment->run();

  std::printf("case completed: success=%s replans=%s activities=%s\n\n",
              user.report.param("success").c_str(), user.report.param("replans").c_str(),
              user.report.param("activities-executed").c_str());

  // Print the Figure 3 exchange from the recorded trace, as a sequence
  // diagram across the participating services.
  std::printf("-- re-planning message flow (Figure 3) --\n");
  const std::vector<std::string> flow = {protocols::kReplanRequest, protocols::kQueryService,
                                         protocols::kQueryProviders,
                                         protocols::kQueryExecutable};
  const std::vector<obs::Span> spans = environment->tracer().spans();
  std::printf("%s", agent::render_arrows(spans, flow).c_str());
  std::printf("\n%s", agent::render_sequence_diagram(spans, flow).c_str());
  return user.report.param("success") == "true" ? 0 : 1;
}
