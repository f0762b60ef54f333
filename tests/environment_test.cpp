// Bootstrap invariants of the one-call environment (services/environment).
#include <gtest/gtest.h>

#include "services/environment.hpp"
#include "services/protocol.hpp"
#include "virolab/catalogue.hpp"

namespace ig::svc {
namespace {

TEST(Environment, AllCoreServicesSpawned) {
  auto environment = make_environment();
  auto& platform = environment->platform();
  for (const char* name :
       {names::kInformation, names::kBrokerage, names::kMatchmaking, names::kMonitoring,
        names::kOntology, names::kAuthentication, names::kPersistentStorage,
        names::kScheduling, names::kSimulation, names::kPlanning, names::kCoordination}) {
    EXPECT_TRUE(platform.has_agent(name)) << name;
  }
}

TEST(Environment, EveryContainerHasAnAgent) {
  auto environment = make_environment();
  for (const auto& container : environment->grid().containers()) {
    EXPECT_TRUE(environment->platform().has_agent(container->id())) << container->id();
  }
}

TEST(Environment, DefaultCatalogueIsVirolab) {
  auto environment = make_environment();
  EXPECT_EQ(environment->catalogue().names(), virolab::make_catalogue().names());
}

TEST(Environment, CustomCatalogueRespected) {
  EnvironmentOptions options;
  wfl::ServiceType solo("Solo");
  solo.set_outputs({"X"});
  solo.set_output_condition(wfl::Condition::parse("X.Classification = \"Thing\""));
  options.catalogue.add(std::move(solo));
  options.topology.domains = 1;
  options.topology.nodes_per_domain = 1;
  auto environment = make_environment(options);
  EXPECT_EQ(environment->catalogue().size(), 1u);
  EXPECT_TRUE(environment->catalogue().contains("Solo"));
  // The topology hosts the custom service somewhere.
  EXPECT_FALSE(environment->grid().containers_advertising("Solo").empty());
}

TEST(Environment, EveryServiceHasAtLeastOneHost) {
  auto environment = make_environment();
  for (const auto& name : environment->catalogue().names()) {
    EXPECT_FALSE(environment->grid().containers_advertising(name).empty()) << name;
  }
}

TEST(Environment, RegistrationsFlushedAtConstruction) {
  auto environment = make_environment();
  EXPECT_GT(environment->information().registration_count(), 10u);
  for (const auto& name : environment->catalogue().names()) {
    EXPECT_FALSE(environment->brokerage().providers_of(name).empty()) << name;
  }
}

TEST(Environment, OntologiesPreloaded) {
  auto environment = make_environment();
  ASSERT_NE(environment->ontology().find("grid-standard"), nullptr);
  ASSERT_NE(environment->ontology().find("3DSD-instances"), nullptr);
  EXPECT_TRUE(environment->ontology().find("grid-standard")->is_shell());
  EXPECT_FALSE(environment->ontology().find("3DSD-instances")->is_shell());
}

TEST(Environment, TopologyDeterministicPerSeed) {
  EnvironmentOptions options;
  options.seed = 31;
  auto a = make_environment(options);
  auto b = make_environment(options);
  ASSERT_EQ(a->grid().nodes().size(), b->grid().nodes().size());
  for (std::size_t i = 0; i < a->grid().nodes().size(); ++i) {
    EXPECT_DOUBLE_EQ(a->grid().nodes()[i]->hardware().speed,
                     b->grid().nodes()[i]->hardware().speed);
    EXPECT_EQ(a->grid().nodes()[i]->domain(), b->grid().nodes()[i]->domain());
  }
  for (std::size_t i = 0; i < a->grid().containers().size(); ++i) {
    EXPECT_EQ(a->grid().containers()[i]->hosted_services(),
              b->grid().containers()[i]->hosted_services());
    EXPECT_DOUBLE_EQ(a->grid().containers()[i]->price_factor(),
                     b->grid().containers()[i]->price_factor());
  }
}

TEST(Environment, DifferentSeedsDifferentTopology) {
  EnvironmentOptions a_options;
  a_options.seed = 1;
  EnvironmentOptions b_options;
  b_options.seed = 2;
  auto a = make_environment(a_options);
  auto b = make_environment(b_options);
  bool any_difference = false;
  for (std::size_t i = 0; i < a->grid().nodes().size(); ++i) {
    if (a->grid().nodes()[i]->hardware().speed != b->grid().nodes()[i]->hardware().speed)
      any_difference = true;
  }
  EXPECT_TRUE(any_difference);
}

TEST(Environment, TracingOffByDefaultOnWhenRequested) {
  auto plain = make_environment();
  EXPECT_EQ(plain->tracer().size(), 0u);

  EnvironmentOptions options;
  options.span_tracing = true;
  auto traced = make_environment(options);
  // Bootstrap registrations are themselves traced, as message spans.
  const std::vector<obs::Span> spans = traced->tracer().spans();
  ASSERT_FALSE(spans.empty());
  EXPECT_EQ(spans.front().kind, obs::SpanKind::Message);
}

TEST(Environment, TopologyParamsShapeTheGrid) {
  EnvironmentOptions options;
  options.topology.domains = 4;
  options.topology.nodes_per_domain = 2;
  options.topology.containers_per_node = 2;
  auto environment = make_environment(options);
  EXPECT_EQ(environment->grid().nodes().size(), 8u);
  EXPECT_EQ(environment->grid().containers().size(), 16u);
  EXPECT_EQ(environment->grid().domains().size(), 4u);
}

TEST(Environment, RunDrainsToQuiescence) {
  auto environment = make_environment();
  environment->run();
  EXPECT_EQ(environment->sim().pending_events(), 0u);
}

}  // namespace
}  // namespace ig::svc
