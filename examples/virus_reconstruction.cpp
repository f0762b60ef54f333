// The paper's Section 4 case study, end to end: a virtual laboratory for
// 3-D virus structure reconstruction.
//
//   $ ./virus_reconstruction [--trace]
//
// 1. boots the full intelligent-grid environment (Figure 1);
// 2. asks the planning service for a plan from the CD-3DSD case description
//    (Figure 2's exchange);
// 3. hands the plan to the coordination service, which enacts it across the
//    simulated grid's application containers — including the Cons1-driven
//    resolution-refinement loop of Figure 10;
// 4. prints the final data state and the execution report.
#include <cstdio>
#include <cstring>
#include <string>

#include "agent/trace_render.hpp"
#include "services/environment.hpp"
#include "services/protocol.hpp"
#include "virolab/catalogue.hpp"
#include "wfl/xml_io.hpp"

using namespace ig;
namespace names = svc::names;
namespace protocols = svc::protocols;

namespace {

class LabUser : public agent::Agent {
 public:
  LabUser(std::string name, wfl::CaseDescription cd)
      : Agent(std::move(name)), case_(std::move(cd)) {}

  void on_start() override {
    std::printf("[user] requesting a plan for case '%s' (goal: %s)\n",
                case_.name().c_str(), case_.goals().front().description.c_str());
    agent::AclMessage request;
    request.performative = agent::Performative::Request;
    request.receiver = names::kPlanning;
    request.protocol = protocols::kPlanRequest;
    request.params["seed"] = "2004";
    request.content = wfl::case_to_xml_string(case_);
    send(std::move(request));
  }

  void handle_message(const agent::AclMessage& message) override {
    if (message.protocol == protocols::kPlanRequest) {
      std::printf("[user] plan received: fitness=%s validity=%s goal=%s size=%s\n",
                  message.param("fitness").c_str(), message.param("validity-fitness").c_str(),
                  message.param("goal-fitness").c_str(), message.param("size").c_str());
      agent::AclMessage enact;
      enact.performative = agent::Performative::Request;
      enact.receiver = names::kCoordination;
      enact.protocol = protocols::kEnactCase;
      enact.content = message.content;
      enact.params["case-xml"] = wfl::case_to_xml_string(case_);
      send(std::move(enact));
      return;
    }
    if (message.protocol == protocols::kCaseCompleted) {
      done = true;
      std::printf("\n[user] case %s: success=%s makespan=%s activities=%s failures=%s replans=%s\n",
                  message.param("case").c_str(), message.param("success").c_str(),
                  message.param("makespan").c_str(),
                  message.param("activities-executed").c_str(),
                  message.param("dispatch-failures").c_str(), message.param("replans").c_str());
      const wfl::DataSet final_state = *svc::dataset_payload(message);
      std::printf("[user] final data state (%zu items):\n", final_state.size());
      for (const auto& item : final_state.items())
        std::printf("  %s\n", item.to_display_string().c_str());
    }
  }

  wfl::CaseDescription case_;
  bool done = false;
};

}  // namespace

int main(int argc, char** argv) {
  const bool trace = argc > 1 && std::strcmp(argv[1], "--trace") == 0;

  svc::EnvironmentOptions options;
  options.span_tracing = trace;
  options.seed = 2004;
  auto environment = svc::make_environment(options);

  std::printf("-- simulated grid --\n%s\n", environment->grid().to_display_string().c_str());

  auto& user = environment->platform().spawn<LabUser>("lab-user",
                                                      virolab::make_case_description());
  environment->run();

  if (trace) {
    std::printf("\n-- message trace --\n%s",
                agent::trace_to_string(environment->tracer().spans()).c_str());
  }
  std::printf("\n[kernels] refinement passes: %zu, final resolution: %.2f A\n",
              environment->kernels().refinement_passes(),
              environment->kernels().current_resolution());
  return user.done ? 0 : 1;
}
