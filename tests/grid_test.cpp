#include <gtest/gtest.h>

#include "grid/grid.hpp"
#include "virolab/catalogue.hpp"

namespace ig::grid {
namespace {

HardwareSpec fast() {
  HardwareSpec hw;
  hw.speed = 4.0;
  return hw;
}

TEST(Hardware, SoftwareMatching) {
  SoftwareSpec installed{"mpich", "mpi", "ANL", "3.4", "linux"};
  SoftwareSpec by_name{"mpich", "", "", "", ""};
  SoftwareSpec by_version{"mpich", "", "", "3.4", ""};
  SoftwareSpec wrong_version{"mpich", "", "", "4.0", ""};
  EXPECT_TRUE(satisfies(installed, by_name));
  EXPECT_TRUE(satisfies(installed, by_version));
  EXPECT_FALSE(satisfies(installed, wrong_version));
  EXPECT_TRUE(has_software({installed}, by_name));
  EXPECT_FALSE(has_software({}, by_name));
}

TEST(Node, ExecutionTimeScalesWithSpeedAndNodes) {
  GridNode slow("n1", "slow", "d1", HardwareSpec{});  // speed 1
  EXPECT_DOUBLE_EQ(slow.execution_time(10.0), 10.0);
  GridNode quick("n2", "quick", "d1", fast());
  EXPECT_DOUBLE_EQ(quick.execution_time(10.0), 2.5);
  quick.set_node_count(4);
  EXPECT_DOUBLE_EQ(quick.execution_time(10.0), 0.625);
}

TEST(Node, QueueSerializesWork) {
  GridNode node("n", "n", "d", HardwareSpec{});  // speed 1
  EXPECT_DOUBLE_EQ(node.enqueue_work(0.0, 5.0), 5.0);
  // Second task queues behind the first even though submitted at t=1.
  EXPECT_DOUBLE_EQ(node.enqueue_work(1.0, 5.0), 10.0);
  // A task after the queue drains starts fresh.
  EXPECT_DOUBLE_EQ(node.enqueue_work(20.0, 5.0), 25.0);
  EXPECT_DOUBLE_EQ(node.busy_time(), 15.0);
  EXPECT_EQ(node.completed_tasks(), 3u);
}

TEST(Network, LinksSymmetricWithDefault) {
  NetworkModel network;
  network.set_link("a", "b", {0.1, 10.0, {}});
  EXPECT_DOUBLE_EQ(network.link("a", "b").latency_s, 0.1);
  EXPECT_DOUBLE_EQ(network.link("b", "a").latency_s, 0.1);
  // Unknown pair uses the default.
  EXPECT_DOUBLE_EQ(network.link("a", "zzz").latency_s, network.default_link().latency_s);
}

TEST(Network, TransferTime) {
  NetworkModel network;
  network.set_link("a", "b", {0.1, 10.0, {}});
  // 50 MB over 10 MB/s + 0.1 latency.
  EXPECT_DOUBLE_EQ(network.transfer_time("a", "b", 50.0), 5.1);
  // Transform factor inflates the payload.
  EXPECT_DOUBLE_EQ(network.transfer_time("a", "b", 50.0, 2.0), 10.1);
  // Local transfers use the fast local link.
  EXPECT_LT(network.transfer_time("a", "a", 50.0), 0.1);
}

TEST(Network, CompressionShrinksOnWireSizeButCostsCpu) {
  NetworkModel network;
  LinkSpec plain{0.0, 10.0, {}};
  LinkSpec compressed{0.0, 10.0, {}};
  compressed.transform.compress = true;
  compressed.transform.compress_ratio = 0.5;
  compressed.transform.cpu_mb_s = 1e9;  // negligible CPU for this check
  network.set_link("a", "b", plain);
  network.set_link("a", "c", compressed);
  // 100 MB: plain 10 s; compressed 50 MB on wire -> 5 s.
  EXPECT_DOUBLE_EQ(network.transfer_time("a", "b", 100.0), 10.0);
  EXPECT_NEAR(network.transfer_time("a", "c", 100.0), 5.0, 1e-6);

  // With a slow transformer the CPU cost shows up (2 passes).
  compressed.transform.cpu_mb_s = 100.0;
  network.set_link("a", "c", compressed);
  EXPECT_NEAR(network.transfer_time("a", "c", 100.0), 5.0 + 2.0, 1e-6);
}

TEST(Network, EncryptionAddsOverheadAndCpu) {
  TransformSpec transform;
  transform.encrypt = true;
  transform.encrypt_overhead = 1.1;
  transform.cpu_mb_s = 100.0;
  EXPECT_NEAR(transform.effective_size(100.0), 110.0, 1e-9);
  EXPECT_NEAR(transform.processing_time(100.0), 2.0, 1e-9);
}

TEST(Network, ByteSwapCostsOnePass) {
  TransformSpec transform;
  transform.byte_swap = true;
  transform.cpu_mb_s = 50.0;
  EXPECT_DOUBLE_EQ(transform.effective_size(100.0), 100.0);
  EXPECT_NEAR(transform.processing_time(100.0), 2.0, 1e-9);
}

TEST(Network, NoTransformIsFree) {
  TransformSpec transform;
  EXPECT_FALSE(transform.any());
  EXPECT_DOUBLE_EQ(transform.processing_time(1000.0), 0.0);
  EXPECT_DOUBLE_EQ(transform.effective_size(1000.0), 1000.0);
}

TEST(Grid, TopologyConstruction) {
  Grid grid;
  grid.add_node("n1", "one", "d1", fast());
  grid.add_container("c1", "n1");
  EXPECT_NE(grid.find_node("n1"), nullptr);
  EXPECT_NE(grid.find_container("c1"), nullptr);
  EXPECT_EQ(grid.find_node("nope"), nullptr);
  EXPECT_THROW(grid.add_node("n1", "dup", "d1", fast()), std::invalid_argument);
  EXPECT_THROW(grid.add_container("c1", "n1"), std::invalid_argument);
  EXPECT_THROW(grid.add_container("c2", "ghost"), std::invalid_argument);
}

TEST(Grid, ContainersHostingFiltersAvailability) {
  Grid grid;
  grid.add_node("n1", "one", "d1", fast());
  grid.add_node("n2", "two", "d2", fast());
  auto& c1 = grid.add_container("c1", "n1");
  auto& c2 = grid.add_container("c2", "n2");
  c1.host_service("POD");
  c2.host_service("POD");
  EXPECT_EQ(grid.containers_hosting("POD").size(), 2u);

  c1.set_available(false);
  EXPECT_EQ(grid.containers_hosting("POD").size(), 1u);
  EXPECT_EQ(grid.containers_advertising("POD").size(), 2u);

  grid.set_node_state("n2", NodeState::Down);
  EXPECT_TRUE(grid.containers_hosting("POD").empty());
  grid.set_node_state("n2", NodeState::Up);
  grid.set_container_available("c1", true);
  EXPECT_EQ(grid.containers_hosting("POD").size(), 2u);
}

TEST(Grid, ExecuteSuccessAdvancesQueue) {
  Grid grid;
  grid.add_node("n1", "one", "d1", fast());
  auto& container = grid.add_container("c1", "n1");
  container.host_service("POD");
  Simulation sim;
  FailureInjector injector{util::Rng(1)};
  const wfl::ServiceCatalogue catalogue = virolab::make_catalogue();
  const wfl::ServiceType* pod = catalogue.find("POD");
  ASSERT_NE(pod, nullptr);
  const ExecutionResult result = grid.execute(sim, injector, *pod, "c1", 0.0, "d1");
  EXPECT_TRUE(result.success);
  EXPECT_GT(result.completion_time, 0.0);
  EXPECT_EQ(container.dispatch_count(), 1u);
  EXPECT_EQ(container.failure_count(), 0u);
}

TEST(Grid, ExecuteFailsOnUnavailableContainer) {
  Grid grid;
  grid.add_node("n1", "one", "d1", fast());
  auto& container = grid.add_container("c1", "n1");
  container.host_service("POD");
  container.set_available(false);
  Simulation sim;
  FailureInjector injector{util::Rng(1)};
  const auto catalogue = virolab::make_catalogue();
  const ExecutionResult result = grid.execute(sim, injector, *catalogue.find("POD"), "c1", 0, "d1");
  EXPECT_FALSE(result.success);
  EXPECT_EQ(result.failure_reason, "container unavailable");
}

TEST(Grid, ExecuteAlwaysFailsWithCertainFailureProbability) {
  Grid grid;
  grid.add_node("n1", "one", "d1", fast());
  auto& container = grid.add_container("c1", "n1");
  container.host_service("POD");
  container.set_failure_probability(1.0);
  Simulation sim;
  FailureInjector injector{util::Rng(1)};
  const auto catalogue = virolab::make_catalogue();
  const ExecutionResult result = grid.execute(sim, injector, *catalogue.find("POD"), "c1", 0, "d1");
  EXPECT_FALSE(result.success);
  EXPECT_EQ(result.failure_reason, "execution failure");
  EXPECT_EQ(container.failure_count(), 1u);
}

TEST(Grid, ExecuteStagesDataAcrossDomains) {
  Grid grid;
  grid.add_node("n1", "one", "remote", fast());
  auto& container = grid.add_container("c1", "n1");
  container.host_service("POD");
  grid.network().set_link("home", "remote", {1.0, 1.0, {}});  // slow WAN
  Simulation sim;
  FailureInjector injector{util::Rng(1)};
  const auto catalogue = virolab::make_catalogue();
  const ExecutionResult local = grid.execute(sim, injector, *catalogue.find("POD"), "c1", 0, "remote");
  Grid grid2;
  grid2.add_node("n1", "one", "remote", fast());
  grid2.add_container("c1", "n1").host_service("POD");
  grid2.network().set_link("home", "remote", {1.0, 1.0, {}});
  const ExecutionResult remote =
      grid2.execute(sim, injector, *catalogue.find("POD"), "c1", 100.0, "home");
  // Shipping 100 MB over the 1 MB/s WAN adds ~101 s of staging.
  EXPECT_GT(remote.completion_time, local.completion_time + 100.0);
}

TEST(FailureInjection, ScheduledOutageAndRecovery) {
  Grid grid;
  grid.add_node("n1", "one", "d1", fast());
  grid.add_container("c1", "n1").host_service("POD");
  Simulation sim;
  FailureInjector injector{util::Rng(1)};
  injector.schedule_container_outage(sim, grid, "c1", 5.0, 10.0);
  sim.run_until(6.0);
  EXPECT_FALSE(grid.find_container("c1")->available());
  sim.run_until(20.0);
  EXPECT_TRUE(grid.find_container("c1")->available());
}

TEST(FailureInjection, NodeOutage) {
  Grid grid;
  grid.add_node("n1", "one", "d1", fast());
  grid.add_container("c1", "n1").host_service("POD");
  Simulation sim;
  FailureInjector injector{util::Rng(1)};
  injector.schedule_node_outage(sim, grid, "n1", 2.0, 0.0);  // permanent
  sim.run();
  EXPECT_FALSE(grid.find_node("n1")->is_up());
  EXPECT_TRUE(grid.containers_hosting("POD").empty());
}

TEST(Topology, BuilderCoversEveryService) {
  Grid grid;
  TopologyParams params;
  params.domains = 2;
  params.nodes_per_domain = 3;
  params.service_names = {"POD", "P3DR", "POR", "PSF"};
  params.services_per_container = 1;
  util::Rng rng(7);
  build_topology(grid, params, rng);
  EXPECT_EQ(grid.nodes().size(), 6u);
  EXPECT_EQ(grid.containers().size(), 6u);
  for (const auto& service : params.service_names) {
    EXPECT_FALSE(grid.containers_advertising(service).empty()) << service;
  }
  EXPECT_EQ(grid.domains().size(), 2u);
}

TEST(Topology, DeterministicForSeed) {
  TopologyParams params;
  params.service_names = {"POD"};
  Grid a;
  Grid b;
  util::Rng rng_a(9);
  util::Rng rng_b(9);
  build_topology(a, params, rng_a);
  build_topology(b, params, rng_b);
  ASSERT_EQ(a.nodes().size(), b.nodes().size());
  for (std::size_t i = 0; i < a.nodes().size(); ++i) {
    EXPECT_DOUBLE_EQ(a.nodes()[i]->hardware().speed, b.nodes()[i]->hardware().speed);
  }
}

}  // namespace
}  // namespace ig::grid
