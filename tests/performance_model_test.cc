#include "perf/performance_model.h"

#include <gtest/gtest.h>

#include <cmath>

#include "markov/transient.h"
#include "queueing/mg1.h"
#include "statechart/parser.h"
#include "workflow/scenarios.h"

namespace wfms::perf {
namespace {

using workflow::Configuration;
using workflow::Environment;

Environment MakeEpEnv(double rate = 0.5) {
  auto env = workflow::EpEnvironment(rate);
  EXPECT_TRUE(env.ok());
  return *std::move(env);
}

/// A minimal single-activity environment with exactly known analytics:
/// one state (H = 4) inducing (1, 2) requests on two server types.
Environment MakeTinyEnv(double arrival_rate) {
  Environment env;
  auto charts = statechart::ParseCharts(R"(
chart T
  state Work activity=work residence=4
  state Done activity=done residence=1
  initial Work
  final Done
  trans Work -> Done prob=1
end
)");
  EXPECT_TRUE(charts.ok());
  env.charts = *std::move(charts);
  EXPECT_TRUE(env.servers
                  .AddServerType({"engine", workflow::ServerKind::kWorkflowEngine,
                                  queueing::ExponentialService(0.1), 0.001,
                                  0.1})
                  .ok());
  EXPECT_TRUE(
      env.servers
          .AddServerType({"app", workflow::ServerKind::kApplicationServer,
                          queueing::ExponentialService(0.2), 0.001, 0.1})
          .ok());
  EXPECT_TRUE(env.loads.SetLoad("work", {1, 2}).ok());
  EXPECT_TRUE(env.loads.SetLoad("done", {1, 0}).ok());
  env.workflows.push_back({"T", "T", arrival_rate});
  EXPECT_TRUE(env.Validate().ok());
  return env;
}

TEST(WorkflowAnalysisTest, TinyWorkflowExactValues) {
  const Environment env = MakeTinyEnv(0.5);
  auto analysis = AnalyzeWorkflow(env, env.workflows[0]);
  ASSERT_TRUE(analysis.ok()) << analysis.status();
  EXPECT_NEAR(analysis->turnaround_time, 5.0, 1e-9);
  ASSERT_EQ(analysis->expected_requests.size(), 2u);
  // Work once (1,2) + Done once (1,0).
  EXPECT_NEAR(analysis->expected_requests[0], 2.0, 1e-9);
  EXPECT_NEAR(analysis->expected_requests[1], 2.0, 1e-9);
}

// The paper's §4.2.1 uniformized reward summation, with entry rewards
// = row x of state_loads, must reproduce the exact visit-count loads for
// every (workflow type x server type) pair of the benchmark mix, EP's
// included.
TEST(WorkflowAnalysisTest, RewardAndEmbeddedChainMethodsAgreeOnEp) {
  auto env = workflow::BenchmarkEnvironment();
  ASSERT_TRUE(env.ok()) << env.status();
  size_t pairs = 0;
  for (const workflow::WorkflowTypeSpec& spec : env->workflows) {
    auto analysis = AnalyzeWorkflow(*env, spec);
    ASSERT_TRUE(analysis.ok()) << analysis.status();
    const size_t n = analysis->chain.num_states();
    for (size_t x = 0; x < env->num_server_types(); ++x) {
      linalg::Vector rewards(n, 0.0);
      for (size_t s = 0; s < n; ++s) {
        rewards[s] = analysis->state_loads.At(x, s);
      }
      auto reward =
          markov::ExpectedRewardUntilAbsorption(analysis->chain, rewards);
      ASSERT_TRUE(reward.ok()) << reward.status();
      const double exact = analysis->expected_requests[x];
      EXPECT_NEAR(reward->expected_reward, exact, 1e-9 * exact)
          << spec.name << " / " << env->servers.type(x).name;
      ++pairs;
    }
  }
  EXPECT_EQ(pairs, 15u);
}

TEST(WorkflowAnalysisTest, EpEngineRequestsMatchHandComputation) {
  // Engine requests: every activity sends 3 requests to the engine
  // (Fig. 1, both patterns), so r_engine = 3 * expected activity
  // executions. Executions: top level 1 + .5 + .475 + .59375*2 + 1 = 4.1625
  // plus Shipment entries (.95) * (Notify 2 + Delivery (2/0.9 + 1)).
  const Environment env = MakeEpEnv();
  auto analysis = AnalyzeWorkflow(env, env.workflows[0]);
  ASSERT_TRUE(analysis.ok());
  const double shipment_activities = 2.0 + (2.0 / 0.9 + 1.0);
  const double executions = 4.1625 + 0.95 * shipment_activities;
  EXPECT_NEAR(analysis->expected_requests[1], 3.0 * executions, 1e-6);
  // Comm server: 2 requests per activity.
  EXPECT_NEAR(analysis->expected_requests[0], 2.0 * executions, 1e-6);
}

TEST(WorkflowAnalysisTest, CompositeStateCarriesSubworkflowLoad) {
  const Environment env = MakeEpEnv();
  auto analysis = AnalyzeWorkflow(env, env.workflows[0]);
  ASSERT_TRUE(analysis.ok());
  const size_t shipment = *analysis->chain.StateIndex("Shipment");
  // Engine load of the Shipment state = 3 * (2 + 2/0.9 + 1) requests.
  EXPECT_NEAR(analysis->state_loads.At(1, shipment),
              3.0 * (2.0 + 2.0 / 0.9 + 1.0), 1e-6);
}

TEST(PerformanceModelTest, TotalRatesAreArrivalTimesRequests) {
  const Environment env = MakeTinyEnv(0.25);
  auto model = PerformanceModel::Create(env);
  ASSERT_TRUE(model.ok()) << model.status();
  EXPECT_NEAR(model->total_request_rates()[0], 0.25 * 2.0, 1e-12);
  EXPECT_NEAR(model->total_request_rates()[1], 0.25 * 2.0, 1e-12);
}

TEST(PerformanceModelTest, ActiveInstancesLittlesLaw) {
  const Environment env = MakeTinyEnv(0.4);
  auto model = PerformanceModel::Create(env);
  ASSERT_TRUE(model.ok());
  const auto active = model->ActiveInstances();
  ASSERT_EQ(active.size(), 1u);
  EXPECT_NEAR(active[0], 0.4 * 5.0, 1e-9);
}

TEST(PerformanceModelTest, WaitingTimesMatchDirectMg1) {
  const Environment env = MakeTinyEnv(0.5);
  auto model = PerformanceModel::Create(env);
  ASSERT_TRUE(model.ok());
  auto report = model->EvaluateWaitingTimes(Configuration({1, 1}));
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_EQ(report->servers.size(), 2u);
  // Engine: rate 1/min, service Exp(0.1).
  auto direct = queueing::Mg1Metrics(1.0, queueing::ExponentialService(0.1));
  ASSERT_TRUE(direct.ok());
  EXPECT_NEAR(report->servers[0].mean_waiting_time,
              direct->mean_waiting_time, 1e-12);
  EXPECT_NEAR(report->servers[0].utilization, 0.1, 1e-12);
  EXPECT_FALSE(report->any_saturated);
}

TEST(PerformanceModelTest, ReplicationReducesWaiting) {
  const Environment env = MakeEpEnv(1.0);
  auto model = PerformanceModel::Create(env);
  ASSERT_TRUE(model.ok());
  auto one = model->EvaluateWaitingTimes(Configuration({1, 1, 1}));
  auto two = model->EvaluateWaitingTimes(Configuration({2, 2, 2}));
  ASSERT_TRUE(one.ok());
  ASSERT_TRUE(two.ok());
  for (size_t x = 0; x < 3; ++x) {
    EXPECT_LT(two->servers[x].mean_waiting_time,
              one->servers[x].mean_waiting_time);
    EXPECT_NEAR(two->servers[x].per_server_rate,
                one->servers[x].per_server_rate / 2.0, 1e-9);
  }
}

TEST(PerformanceModelTest, SaturationDetected) {
  // Crank the arrival rate until the engine saturates on one server.
  const Environment env = MakeEpEnv(3.0);
  auto model = PerformanceModel::Create(env);
  ASSERT_TRUE(model.ok());
  auto report = model->EvaluateWaitingTimes(Configuration({1, 1, 1}));
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->any_saturated);
  EXPECT_TRUE(std::isinf(report->max_waiting_time));
  // Replication resolves it.
  auto fixed = model->EvaluateWaitingTimes(Configuration({1, 3, 3}));
  ASSERT_TRUE(fixed.ok());
  EXPECT_FALSE(fixed->any_saturated);
}

TEST(PerformanceModelTest, DegradedStateRaisesWaiting) {
  const Environment env = MakeEpEnv(1.0);
  auto model = PerformanceModel::Create(env);
  ASSERT_TRUE(model.ok());
  auto full = model->EvaluateWaitingTimesForState({2, 2, 2});
  auto degraded = model->EvaluateWaitingTimesForState({2, 1, 2});
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(degraded.ok());
  EXPECT_GT(degraded->servers[1].mean_waiting_time,
            full->servers[1].mean_waiting_time);
  EXPECT_DOUBLE_EQ(degraded->servers[0].mean_waiting_time,
                   full->servers[0].mean_waiting_time);
}

TEST(PerformanceModelTest, DownStateRejected) {
  const Environment env = MakeEpEnv();
  auto model = PerformanceModel::Create(env);
  ASSERT_TRUE(model.ok());
  EXPECT_FALSE(model->EvaluateWaitingTimesForState({1, 0, 1}).ok());
  EXPECT_FALSE(model->EvaluateWaitingTimesForState({1, 1}).ok());
}

TEST(PerformanceModelTest, ThroughputBottleneckAndScaling) {
  const Environment env = MakeEpEnv(0.5);
  auto model = PerformanceModel::Create(env);
  ASSERT_TRUE(model.ok());
  auto base = model->MaxSustainableThroughput(Configuration({1, 1, 1}));
  ASSERT_TRUE(base.ok()) << base.status();
  EXPECT_GT(base->max_workflows_per_time_unit, 0.0);
  // EP on one server each: the app server (slowest per-request service)
  // is the busiest resource.
  EXPECT_EQ(base->bottleneck, 2u);
  // Adding a server to the bottleneck increases throughput...
  Configuration more({1, 1, 2});
  auto scaled = model->MaxSustainableThroughput(more);
  ASSERT_TRUE(scaled.ok());
  EXPECT_GT(scaled->max_workflows_per_time_unit,
            base->max_workflows_per_time_unit);
  // ...while adding one to a non-bottleneck type does not.
  auto useless = model->MaxSustainableThroughput(Configuration({2, 1, 1}));
  ASSERT_TRUE(useless.ok());
  EXPECT_NEAR(useless->max_workflows_per_time_unit,
              base->max_workflows_per_time_unit, 1e-9);
}

TEST(PerformanceModelTest, ThroughputConsistentWithSaturation) {
  // At exactly the max sustainable mix scale the utilization of the
  // bottleneck hits 1; slightly below it the system is stable.
  const Environment base_env = MakeEpEnv(0.5);
  auto model = PerformanceModel::Create(base_env);
  ASSERT_TRUE(model.ok());
  auto report = model->MaxSustainableThroughput(Configuration({1, 1, 1}));
  ASSERT_TRUE(report.ok());
  const double safe_rate = 0.5 * report->max_mix_scale * 0.99;
  const Environment safe_env = MakeEpEnv(safe_rate);
  auto safe_model = PerformanceModel::Create(safe_env);
  ASSERT_TRUE(safe_model.ok());
  auto waiting = safe_model->EvaluateWaitingTimes(Configuration({1, 1, 1}));
  ASSERT_TRUE(waiting.ok());
  EXPECT_FALSE(waiting->any_saturated);
  EXPECT_GT(waiting->servers[report->bottleneck].utilization, 0.95);
}

TEST(PerformanceModelTest, ColocationAggregatesLoad) {
  const Environment env = MakeEpEnv(0.5);
  auto model = PerformanceModel::Create(env);
  ASSERT_TRUE(model.ok());
  // All three types on a single computer.
  ColocationGroup all;
  all.server_types = {0, 1, 2};
  all.computers = 1;
  auto report = model->EvaluateColocated({all});
  ASSERT_TRUE(report.ok()) << report.status();
  // Every member reports the same shared queue.
  EXPECT_DOUBLE_EQ(report->servers[0].mean_waiting_time,
                   report->servers[1].mean_waiting_time);
  // The shared computer carries more load than any dedicated server.
  auto dedicated = model->EvaluateWaitingTimes(Configuration({1, 1, 1}));
  ASSERT_TRUE(dedicated.ok());
  EXPECT_GT(report->servers[1].mean_waiting_time,
            dedicated->servers[0].mean_waiting_time);
}

TEST(PerformanceModelTest, ColocationValidation) {
  const Environment env = MakeEpEnv();
  auto model = PerformanceModel::Create(env);
  ASSERT_TRUE(model.ok());
  // Missing type.
  ColocationGroup g01;
  g01.server_types = {0, 1};
  EXPECT_FALSE(model->EvaluateColocated({g01}).ok());
  // Duplicate type.
  ColocationGroup g012{{0, 1, 2}, 1};
  ColocationGroup dup{{2}, 1};
  EXPECT_FALSE(model->EvaluateColocated({g012, dup}).ok());
  // Bad computer count.
  ColocationGroup zero{{0, 1, 2}, 0};
  EXPECT_FALSE(model->EvaluateColocated({zero}).ok());
  // Out-of-range type.
  ColocationGroup oob{{0, 1, 7}, 1};
  EXPECT_FALSE(model->EvaluateColocated({oob}).ok());
}

TEST(PerformanceModelTest, ColocationSeparateGroupsMatchDedicatedServers) {
  const Environment env = MakeEpEnv(0.5);
  auto model = PerformanceModel::Create(env);
  ASSERT_TRUE(model.ok());
  std::vector<ColocationGroup> separate{{{0}, 1}, {{1}, 1}, {{2}, 1}};
  auto colocated = model->EvaluateColocated(separate);
  auto dedicated = model->EvaluateWaitingTimes(Configuration({1, 1, 1}));
  ASSERT_TRUE(colocated.ok());
  ASSERT_TRUE(dedicated.ok());
  for (size_t x = 0; x < 3; ++x) {
    EXPECT_NEAR(colocated->servers[x].mean_waiting_time,
                dedicated->servers[x].mean_waiting_time, 1e-12);
  }
}

TEST(PerformanceModelTest, BenchmarkMixAnalyzesAllTypes) {
  auto env = workflow::BenchmarkEnvironment();
  ASSERT_TRUE(env.ok());
  auto model = PerformanceModel::Create(*env);
  ASSERT_TRUE(model.ok()) << model.status();
  EXPECT_EQ(model->workflows().size(), 3u);
  for (const WorkflowAnalysis& w : model->workflows()) {
    EXPECT_GT(w.turnaround_time, 0.0) << w.workflow_type;
  }
  // Every server type receives load from the mix.
  for (double rate : model->total_request_rates()) {
    EXPECT_GT(rate, 0.0);
  }
}

}  // namespace
}  // namespace wfms::perf
