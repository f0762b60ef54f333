// Tests for the synchronous abstract ATN machine (wfl/enact.hpp).
#include <gtest/gtest.h>

#include "services/environment.hpp"
#include "services/user_interface.hpp"
#include "virolab/catalogue.hpp"
#include "virolab/kernels.hpp"
#include "virolab/workflow.hpp"
#include "wfl/enact.hpp"
#include "wfl/structure.hpp"

namespace ig::wfl {
namespace {

CaseDescription virolab_case() { return virolab::make_case_description(); }

/// Executor backed by the synthetic kernels (stateful convergence).
ActivityExecutor kernels_executor(virolab::SyntheticKernels& kernels,
                                  const ServiceCatalogue& catalogue) {
  return [&kernels, &catalogue](const Activity& activity,
                                const DataSet& state) -> std::optional<std::vector<DataSpec>> {
    const ServiceType* service = catalogue.find(activity.service_name);
    if (service == nullptr) return std::nullopt;
    auto bindings = service->bind_inputs(state);
    if (!bindings.has_value()) return std::nullopt;
    return kernels.execute(*service, *bindings, activity.output_data);
  };
}

TEST(SyncEnact, Figure10WithKernelsConvergesInTwoPasses) {
  const ProcessDescription process = virolab::make_fig10_process();
  const ServiceCatalogue catalogue = virolab::make_catalogue();
  virolab::SyntheticKernels kernels;
  const EnactmentResult result =
      enact(process, virolab_case(), kernels_executor(kernels, catalogue));
  ASSERT_TRUE(result.success) << result.error;
  EXPECT_EQ(result.activities_executed, 12);  // 2 + 2 x 5
  EXPECT_DOUBLE_EQ(result.goal_satisfaction, 1.0);
  ASSERT_NE(result.final_data.find("D12"), nullptr);
  EXPECT_LE(result.final_data.find("D12")->get("Value").as_number(), 8.0);
  EXPECT_EQ(kernels.refinement_passes(), 2u);
}

TEST(SyncEnact, Figure10WithDeclarativeExecutorExitsLoopAfterOnePass) {
  // The declarative executor produces a Resolution File without a Value
  // property, so Cons1 ("Value > 8") is immediately false: one loop pass.
  const ProcessDescription process = virolab::make_fig10_process();
  const ServiceCatalogue catalogue = virolab::make_catalogue();
  const EnactmentResult result =
      enact(process, virolab_case(), make_catalogue_executor(catalogue));
  ASSERT_TRUE(result.success) << result.error;
  EXPECT_EQ(result.activities_executed, 7);  // 2 + 1 x 5
}

TEST(SyncEnact, ForkJoinExecutesAllBranchesOnce) {
  const ProcessDescription process = lower_to_process(
      parse_flow("BEGIN, POD; P3DR1=P3DR; {FORK {P3DR2=P3DR} {P3DR3=P3DR} JOIN}; PSF, END"),
      "forky");
  const ServiceCatalogue catalogue = virolab::make_catalogue();
  const EnactmentResult result =
      enact(process, virolab_case(), make_catalogue_executor(catalogue));
  ASSERT_TRUE(result.success) << result.error;
  EXPECT_EQ(result.activities_executed, 5);
  // Every end-user activity appears exactly once in the trace.
  int executions = 0;
  for (const auto& step : result.trace) {
    if (step.executed) ++executions;
  }
  EXPECT_EQ(executions, 5);
}

TEST(SyncEnact, ExecutorFailureFailsTheEnactment) {
  const ProcessDescription process =
      lower_to_process(parse_flow("BEGIN, POD, END"), "failing");
  ActivityExecutor failing = [](const Activity&, const DataSet&) {
    return std::optional<std::vector<DataSpec>>{};
  };
  const EnactmentResult result = enact(process, virolab_case(), failing);
  EXPECT_FALSE(result.success);
  EXPECT_NE(result.error.find("failed"), std::string::npos);
  ASSERT_FALSE(result.trace.empty());
  EXPECT_TRUE(result.trace.back().failed);
}

TEST(SyncEnact, InvalidProcessRejected) {
  ProcessDescription broken("broken");
  broken.add_flow_control("B", ActivityKind::Begin);
  const EnactmentResult result =
      enact(broken, virolab_case(), make_catalogue_executor(virolab::make_catalogue()));
  EXPECT_FALSE(result.success);
  EXPECT_NE(result.error.find("invalid process"), std::string::npos);
}

TEST(SyncEnact, ReachingEndWithoutGoalIsNotSuccess) {
  // POD alone does not produce a resolution file.
  const ProcessDescription process = lower_to_process(parse_flow("BEGIN, POD, END"), "short");
  const EnactmentResult result =
      enact(process, virolab_case(), make_catalogue_executor(virolab::make_catalogue()));
  EXPECT_FALSE(result.success);
  EXPECT_EQ(result.activities_executed, 1);
  EXPECT_DOUBLE_EQ(result.goal_satisfaction, 0.0);
}

TEST(SyncEnact, TrivialLoopGuardStopsAtGuardrail) {
  const ProcessDescription process = lower_to_process(
      parse_flow("BEGIN, POD; P3DR1=P3DR; {ITERATIVE {COND true} {P3DR2=P3DR}}; PSF, END"),
      "looper");
  EnactmentOptions options;
  options.max_loop_iterations = 3;
  const EnactmentResult result = enact(process, virolab_case(),
                                       make_catalogue_executor(virolab::make_catalogue()),
                                       options);
  ASSERT_TRUE(result.success) << result.error;
  // POD + P3DR1 + 3 loop iterations of P3DR2 + PSF.
  EXPECT_EQ(result.activities_executed, 6);
}

TEST(SyncEnact, SelectiveTakesFirstSatisfiedGuard) {
  const ProcessDescription process = lower_to_process(
      parse_flow("BEGIN, POD; P3DR1=P3DR; P3DR2=P3DR; "
                 "{CHOICE {D7.Classification = \"2D Image\"} {PSF} "
                 "{D7.Classification = \"text\"} {POR} MERGE}, END"),
      "choosy");
  const ServiceCatalogue catalogue = virolab::make_catalogue();
  const EnactmentResult result =
      enact(process, virolab_case(), make_catalogue_executor(catalogue));
  ASSERT_TRUE(result.success) << result.error;
  // PSF ran (guard 1 held); POR did not.
  bool ran_psf = false;
  bool ran_por = false;
  for (const auto& step : result.trace) {
    if (step.activity_name == "PSF" && step.executed) ran_psf = true;
    if (step.activity_name == "POR" && step.executed) ran_por = true;
  }
  EXPECT_TRUE(ran_psf);
  EXPECT_FALSE(ran_por);
}

TEST(SyncEnact, StepBudgetGuardsAgainstRunaways) {
  const ProcessDescription process = lower_to_process(
      parse_flow("BEGIN, {ITERATIVE {COND true} {POD}}, END"), "runaway");
  EnactmentOptions options;
  options.max_loop_iterations = 1000000;  // defeat the loop guardrail
  options.max_steps = 500;
  const EnactmentResult result = enact(process, virolab_case(),
                                       make_catalogue_executor(virolab::make_catalogue()),
                                       options);
  EXPECT_FALSE(result.success);
  EXPECT_NE(result.error.find("step budget"), std::string::npos);
}

TEST(SyncEnact, TraceCoversEveryActivity) {
  const ProcessDescription process = virolab::make_fig10_process();
  const ServiceCatalogue catalogue = virolab::make_catalogue();
  const EnactmentResult result =
      enact(process, virolab_case(), make_catalogue_executor(catalogue));
  ASSERT_TRUE(result.success);
  // BEGIN and END appear; flow controls are recorded unexecuted.
  bool saw_begin = false;
  bool saw_end = false;
  for (const auto& step : result.trace) {
    if (step.activity_name == "BEGIN") saw_begin = true;
    if (step.activity_name == "END") saw_end = true;
    if (step.activity_name == "FORK") {
      EXPECT_FALSE(step.executed);
    }
  }
  EXPECT_TRUE(saw_begin);
  EXPECT_TRUE(saw_end);
}

TEST(SyncEnact, AgreesWithAsynchronousCoordinationService) {
  // Differential check: the synchronous machine with the kernels executor
  // and the agent-based coordination service must execute the same number
  // of activities and converge to the same resolution on Figure 10.
  const ProcessDescription process = virolab::make_fig10_process();
  const ServiceCatalogue catalogue = virolab::make_catalogue();

  virolab::SyntheticKernels sync_kernels;
  const EnactmentResult sync_result =
      enact(process, virolab_case(), kernels_executor(sync_kernels, catalogue));
  ASSERT_TRUE(sync_result.success) << sync_result.error;

  svc::EnvironmentOptions options;
  options.topology.domains = 2;
  options.topology.nodes_per_domain = 2;
  options.seed = 123;
  auto environment = svc::make_environment(options);
  auto& ui = environment->platform().spawn<svc::UserInterfaceAgent>("ui");
  ui.submit_process(process, virolab_case());
  environment->run();
  ASSERT_TRUE(ui.finished());
  ASSERT_TRUE(ui.outcome().success) << ui.outcome().error;

  EXPECT_EQ(ui.outcome().activities_executed, sync_result.activities_executed);
  const DataSpec* sync_d12 = sync_result.final_data.find("D12");
  const DataSpec* async_d12 = ui.outcome().final_data.find("D12");
  ASSERT_NE(sync_d12, nullptr);
  ASSERT_NE(async_d12, nullptr);
  EXPECT_DOUBLE_EQ(sync_d12->get("Value").as_number(),
                   async_d12->get("Value").as_number());
}

TEST(SyncEnact, CatalogueExecutorNamesOutputsFromActivity) {
  const ProcessDescription process = virolab::make_fig10_process();
  const ServiceCatalogue catalogue = virolab::make_catalogue();
  const EnactmentResult result =
      enact(process, virolab_case(), make_catalogue_executor(catalogue));
  ASSERT_TRUE(result.success);
  EXPECT_NE(result.final_data.find("D8"), nullptr);   // POD/POR output
  EXPECT_NE(result.final_data.find("D12"), nullptr);  // PSF output
}

}  // namespace
}  // namespace ig::wfl
