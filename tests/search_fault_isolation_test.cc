// Fault-isolated configuration search: a candidate whose availability
// solve fails numerically must become data (SearchResult::
// failed_candidates) rather than aborting the search, and a search-level
// deadline must return a best-so-far result with a DeadlineExceeded
// termination status.
#include "configtool/tool.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/metrics.h"
#include "workflow/scenarios.h"

namespace wfms::configtool {
namespace {

using workflow::Configuration;

// Solver options that starve the iterative rungs (2 total iterations) and
// cap the dense LU rescue at 26 states. Every configuration in the
// [1,2]^3 box has prod(Y_x + 1) <= 18 states except (2,2,2) with 27:
// that one candidate terminally fails with a numerical cause while all
// others are rescued by the exact LU rung.
performability::PerformabilityOptions StarvedSolverOptions() {
  performability::PerformabilityOptions options;
  options.availability.solver.budget.max_total_iterations = 2;
  options.availability.solver.max_dense_states = 26;
  return options;
}

Goals ModestGoals() {
  Goals goals;
  goals.max_waiting_time = 10.0;
  goals.min_availability = 0.9995;
  return goals;
}

TEST(SearchFaultIsolationTest, DivergingCandidateIsReportedNotFatal) {
  auto env = workflow::EpEnvironment();
  ASSERT_TRUE(env.ok());
  auto tool = ConfigurationTool::Create(*env, StarvedSolverOptions());
  ASSERT_TRUE(tool.ok()) << tool.status();

  SearchConstraints constraints;
  constraints.max_replicas = {2, 2, 2};
  auto result = tool->ExhaustiveMinCost(ModestGoals(), constraints);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->termination.ok());
  EXPECT_TRUE(result->satisfied);

  ASSERT_EQ(result->failed_candidates.size(), 1u);
  const FailedCandidate& failed = result->failed_candidates[0];
  EXPECT_EQ(failed.config.replicas, (std::vector<int>{2, 2, 2}));
  EXPECT_TRUE(failed.numerical);
  EXPECT_EQ(failed.error.code(), StatusCode::kNumericError)
      << failed.error;
  // The LU retry is gated by the same dense cap that failed the first
  // attempt, so it must not have run.
  EXPECT_FALSE(failed.retried_exact);

  // The winner itself was rescued by the cascade's LU rung.
  EXPECT_EQ(result->assessment.performability.avail_solver_method,
            markov::SteadyStateMethod::kLu);

  // Same winner as a search whose constraints exclude the failing
  // candidate (the winner (1,2,2) lies inside the smaller box).
  auto excluded_tool =
      ConfigurationTool::Create(*env, StarvedSolverOptions());
  ASSERT_TRUE(excluded_tool.ok());
  SearchConstraints excluded = constraints;
  excluded.max_replicas = {1, 2, 2};
  auto reference = excluded_tool->ExhaustiveMinCost(ModestGoals(), excluded);
  ASSERT_TRUE(reference.ok()) << reference.status();
  EXPECT_TRUE(reference->satisfied);
  EXPECT_TRUE(reference->failed_candidates.empty());
  EXPECT_EQ(result->config.replicas, reference->config.replicas);
  EXPECT_DOUBLE_EQ(result->cost, reference->cost);
}

TEST(SearchFaultIsolationTest, EveryStrategySurvivesTheFailingCandidate) {
  auto env = workflow::EpEnvironment();
  ASSERT_TRUE(env.ok());
  auto tool = ConfigurationTool::Create(*env, StarvedSolverOptions());
  ASSERT_TRUE(tool.ok());
  SearchConstraints constraints;
  constraints.max_replicas = {2, 2, 2};
  const Goals goals = ModestGoals();

  auto greedy = tool->GreedyMinCost(goals, constraints);
  ASSERT_TRUE(greedy.ok()) << greedy.status();
  auto bnb = tool->BranchAndBoundMinCost(goals, constraints);
  ASSERT_TRUE(bnb.ok()) << bnb.status();
  // Strategies that touch (2,2,2) record it; none abort. Branch-and-bound
  // probes the all-max bound first, so it must have seen the failure.
  ASSERT_EQ(bnb->failed_candidates.size(), 1u);
  EXPECT_EQ(bnb->failed_candidates[0].config.replicas,
            (std::vector<int>{2, 2, 2}));
  EXPECT_TRUE(bnb->satisfied);
}

TEST(SearchFaultIsolationTest, BatchAssessmentIsolatesFailures) {
  auto env = workflow::EpEnvironment();
  ASSERT_TRUE(env.ok());
  auto tool = ConfigurationTool::Create(*env, StarvedSolverOptions());
  ASSERT_TRUE(tool.ok());
  const std::vector<Configuration> configs = {
      Configuration({1, 2, 2}), Configuration({2, 2, 2})};
  auto batch = tool->AssessBatch(configs, ModestGoals());
  ASSERT_TRUE(batch.ok()) << batch.status();
  ASSERT_EQ(batch->size(), 2u);
  EXPECT_TRUE((*batch)[0].error.ok());
  EXPECT_FALSE((*batch)[1].error.ok());
  EXPECT_TRUE((*batch)[1].numerical_failure);
  EXPECT_FALSE((*batch)[1].Satisfies());
}

TEST(SearchFaultIsolationTest, AssessAndBatchShareTheFailureContract) {
  auto env = workflow::EpEnvironment();
  ASSERT_TRUE(env.ok());
  auto single_tool = ConfigurationTool::Create(*env, StarvedSolverOptions());
  auto batch_tool = ConfigurationTool::Create(*env, StarvedSolverOptions());
  ASSERT_TRUE(single_tool.ok());
  ASSERT_TRUE(batch_tool.ok());
  const Configuration failing({2, 2, 2});

  // The numerical failure is data from both entry points, never a Status.
  // (The cause quotes the solve's wall time, so fresh tools agree on the
  // code, not the text.)
  auto single = single_tool->Assess(failing, ModestGoals());
  ASSERT_TRUE(single.ok()) << single.status();
  auto batch = batch_tool->AssessBatch({&failing, 1}, ModestGoals());
  ASSERT_TRUE(batch.ok()) << batch.status();
  const Assessment& batched = (*batch)[0];
  EXPECT_EQ(single->error.code(), StatusCode::kNumericError) << single->error;
  EXPECT_EQ(single->error.code(), batched.error.code());
  EXPECT_TRUE(single->numerical_failure);
  EXPECT_EQ(single->numerical_failure, batched.numerical_failure);
  EXPECT_EQ(single->retried_exact, batched.retried_exact);
  EXPECT_EQ(single->config, batched.config);
  EXPECT_EQ(single->cost, batched.cost);
  EXPECT_FALSE(single->Satisfies());
  EXPECT_FALSE(batched.Satisfies());

  // Negatively cached: on the same tool both entry points replay the
  // stored cause verbatim, as cache hits.
  const size_t hits = single_tool->cache_stats().hits;
  auto again = single_tool->Assess(failing, ModestGoals());
  ASSERT_TRUE(again.ok()) << again.status();
  auto rebatched = single_tool->AssessBatch({&failing, 1}, ModestGoals());
  ASSERT_TRUE(rebatched.ok()) << rebatched.status();
  EXPECT_EQ(single_tool->cache_stats().hits, hits + 2);
  EXPECT_EQ(again->error, single->error);
  EXPECT_EQ((*rebatched)[0].error, single->error);
}

TEST(SearchFaultIsolationTest, FailedPlacementsWithEqualTotalsAreDistinct) {
  auto env = workflow::GeoEpEnvironment();
  ASSERT_TRUE(env.ok()) << env.status();
  // Starved iterative rungs and no dense rescue: every placement fails.
  performability::PerformabilityOptions options = StarvedSolverOptions();
  options.availability.solver.max_dense_states = 1;
  auto tool = ConfigurationTool::Create(*env, options);
  ASSERT_TRUE(tool.ok()) << tool.status();

  const auto failed_total = [] {
    return metrics::MetricsRegistry::Global().Snapshot().counter(
        "wfms_configtool_candidates_failed_total");
  };
  const uint64_t failed_before = failed_total();
  auto result = tool->GreedySiteMinCost(ModestGoals());
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_FALSE(result->satisfied);

  // The start placement plus its six +1 neighbors all fail. One more
  // engine at EU and one more at US have the same per-type totals; both
  // must be reported, and counted.
  ASSERT_EQ(result->failed_candidates.size(), 7u);
  std::vector<Configuration> grown_engine;
  for (const FailedCandidate& failed : result->failed_candidates) {
    EXPECT_FALSE(failed.error.ok());
    if (failed.config.replicas == std::vector<int>{1, 2, 1}) {
      grown_engine.push_back(failed.config);
    }
  }
  ASSERT_EQ(grown_engine.size(), 2u);
  EXPECT_NE(grown_engine[0].site_counts, grown_engine[1].site_counts);
  EXPECT_EQ(failed_total() - failed_before, result->failed_candidates.size());
}

TEST(SearchFaultIsolationTest, DeadlineReturnsBestSoFar) {
  auto env = workflow::EpEnvironment();
  ASSERT_TRUE(env.ok());
  auto tool = ConfigurationTool::Create(*env);
  ASSERT_TRUE(tool.ok());
  SearchConstraints constraints;
  constraints.max_replicas = {3, 3, 3};
  SearchOptions search;
  search.deadline_seconds = 1e-9;  // expires before the first wave
  auto result = tool->ExhaustiveMinCost(ModestGoals(), constraints,
                                        CostModel::Uniform(), search);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->termination.code(), StatusCode::kDeadlineExceeded);
  EXPECT_FALSE(result->satisfied);

  // An unlimited deadline leaves termination OK.
  search.deadline_seconds = 0.0;
  auto full = tool->ExhaustiveMinCost(ModestGoals(), constraints,
                                      CostModel::Uniform(), search);
  ASSERT_TRUE(full.ok());
  EXPECT_TRUE(full->termination.ok());
  EXPECT_TRUE(full->satisfied);
}

}  // namespace
}  // namespace wfms::configtool
