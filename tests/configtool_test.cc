#include "configtool/tool.h"

#include <gtest/gtest.h>

#include <cmath>

#include "workflow/scenarios.h"

namespace wfms::configtool {
namespace {

using workflow::Configuration;
using workflow::Environment;

Environment MakeEnv(double rate = 1.0) {
  auto env = workflow::EpEnvironment(rate);
  EXPECT_TRUE(env.ok());
  return *std::move(env);
}

ConfigurationTool MakeTool(const Environment& env) {
  auto tool = ConfigurationTool::Create(env);
  EXPECT_TRUE(tool.ok()) << tool.status();
  return *std::move(tool);
}

Goals EasyGoals() {
  Goals goals;
  goals.max_waiting_time = 5.0;       // 5 minutes: very lax
  goals.min_availability = 0.99;      // ~3.7 days/year: very lax
  return goals;
}

Goals StrictGoals() {
  Goals goals;
  goals.max_waiting_time = 0.05;        // 3 seconds
  goals.min_availability = 0.999999;    // ~32 s/year
  return goals;
}

TEST(GoalsTest, Validation) {
  Goals goals;
  EXPECT_TRUE(goals.Validate(3).ok());
  goals.max_waiting_time = 0.0;
  EXPECT_FALSE(goals.Validate(3).ok());
  goals = Goals{};
  goals.min_availability = 1.0;
  EXPECT_FALSE(goals.Validate(3).ok());
  goals = Goals{};
  goals.per_type_max_waiting = {1.0, 2.0};
  EXPECT_FALSE(goals.Validate(3).ok());
  goals.per_type_max_waiting = {1.0, 2.0, 0.0};
  EXPECT_TRUE(goals.Validate(3).ok());
  EXPECT_DOUBLE_EQ(goals.WaitingThreshold(1), 2.0);
  // Entry 0.0 falls back to the global threshold.
  EXPECT_DOUBLE_EQ(goals.WaitingThreshold(2), goals.max_waiting_time);
}

TEST(CostModelTest, UniformAndWeighted) {
  CostModel uniform = CostModel::Uniform();
  EXPECT_DOUBLE_EQ(uniform.Cost({2, 1, 3}), 6.0);
  CostModel weighted;
  weighted.per_server_cost = {10.0, 1.0, 5.0};
  EXPECT_DOUBLE_EQ(weighted.Cost({2, 1, 3}), 36.0);
  EXPECT_TRUE(weighted.Validate(3).ok());
  EXPECT_FALSE(weighted.Validate(2).ok());
  weighted.per_server_cost = {0.0, 1.0, 1.0};
  EXPECT_FALSE(weighted.Validate(3).ok());
}

TEST(SearchConstraintsTest, Validation) {
  SearchConstraints c;
  EXPECT_TRUE(c.Validate(3).ok());
  EXPECT_EQ(c.MinFor(0), 1);
  EXPECT_EQ(c.MaxFor(0), 8);
  c.min_replicas = {2, 2, 2};
  c.max_replicas = {4, 4, 1};
  EXPECT_FALSE(c.Validate(3).ok());  // max < min for type 2
  c.max_replicas = {4, 4, 4};
  EXPECT_TRUE(c.Validate(3).ok());
  c.min_replicas = {0, 1, 1};
  EXPECT_FALSE(c.Validate(3).ok());
}

TEST(AssessTest, VerdictsReflectGoals) {
  const Environment env = MakeEnv(1.0);
  const ConfigurationTool tool = MakeTool(env);
  auto lax = tool.Assess(Configuration({2, 2, 3}), EasyGoals());
  ASSERT_TRUE(lax.ok()) << lax.status();
  EXPECT_TRUE(lax->Satisfies());
  EXPECT_DOUBLE_EQ(lax->cost, 7.0);

  Goals impossible;
  impossible.max_waiting_time = 1e-9;
  impossible.min_availability = 0.99;
  auto strict = tool.Assess(Configuration({2, 2, 3}), impossible);
  ASSERT_TRUE(strict.ok());
  EXPECT_FALSE(strict->meets_waiting_goal);
  EXPECT_TRUE(strict->meets_availability_goal);
  EXPECT_FALSE(strict->Satisfies());
}

TEST(GreedyTest, FindsSatisfyingConfiguration) {
  const Environment env = MakeEnv(1.0);
  const ConfigurationTool tool = MakeTool(env);
  auto result = tool.GreedyMinCost(StrictGoals());
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->satisfied);
  EXPECT_TRUE(result->assessment.Satisfies());
  EXPECT_GT(result->evaluations, 1);
  // It must replicate something beyond the minimum.
  EXPECT_GT(result->config.total_servers(), 3);
}

TEST(GreedyTest, LaxGoalsKeepMinimalConfiguration) {
  const Environment env = MakeEnv(0.3);
  const ConfigurationTool tool = MakeTool(env);
  Goals lax;
  lax.max_waiting_time = 60.0;
  lax.min_availability = 0.5;
  auto result = tool.GreedyMinCost(lax);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->satisfied);
  EXPECT_EQ(result->config, Configuration({1, 1, 1}));
  EXPECT_EQ(result->evaluations, 1);
}

TEST(GreedyTest, RespectsConstraints) {
  const Environment env = MakeEnv(1.0);
  const ConfigurationTool tool = MakeTool(env);
  SearchConstraints constraints;
  constraints.min_replicas = {2, 1, 1};
  constraints.max_replicas = {2, 2, 2};  // comm fixed at 2
  auto result = tool.GreedyMinCost(StrictGoals(), constraints);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->config.replicas[0], 2);
  for (size_t x = 0; x < 3; ++x) {
    EXPECT_GE(result->config.replicas[x], constraints.MinFor(x));
    EXPECT_LE(result->config.replicas[x], constraints.MaxFor(x));
  }
}

TEST(GreedyTest, ReportsFailureWhenGoalsUnreachable) {
  const Environment env = MakeEnv(1.0);
  const ConfigurationTool tool = MakeTool(env);
  SearchConstraints tight;
  tight.max_replicas = {1, 1, 1};  // no replication allowed
  auto result = tool.GreedyMinCost(StrictGoals(), tight);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->satisfied);
  EXPECT_EQ(result->config, Configuration({1, 1, 1}));
}

TEST(ExhaustiveTest, FindsMinimumCost) {
  const Environment env = MakeEnv(1.0);
  const ConfigurationTool tool = MakeTool(env);
  SearchConstraints constraints;
  constraints.max_replicas = {3, 3, 4};
  auto result = tool.ExhaustiveMinCost(StrictGoals(), constraints);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_TRUE(result->satisfied);
  // Nothing cheaper satisfies: check all configurations one server
  // smaller.
  for (size_t x = 0; x < 3; ++x) {
    Configuration smaller = result->config;
    if (--smaller.replicas[x] < 1) continue;
    auto assessment = tool.Assess(smaller, StrictGoals());
    ASSERT_TRUE(assessment.ok());
    EXPECT_FALSE(assessment->Satisfies())
        << smaller.ToString() << " would be cheaper and satisfying";
  }
}

TEST(ExhaustiveTest, GreedyIsNearOptimal) {
  // The headline §7.2 claim: greedy avoids oversizing. Verify its cost is
  // within one server of the exhaustive optimum on the EP scenario.
  const Environment env = MakeEnv(1.0);
  const ConfigurationTool tool = MakeTool(env);
  SearchConstraints constraints;
  constraints.max_replicas = {3, 3, 4};
  auto greedy = tool.GreedyMinCost(StrictGoals(), constraints);
  auto optimal = tool.ExhaustiveMinCost(StrictGoals(), constraints);
  ASSERT_TRUE(greedy.ok());
  ASSERT_TRUE(optimal.ok());
  ASSERT_TRUE(greedy->satisfied);
  ASSERT_TRUE(optimal->satisfied);
  EXPECT_LE(greedy->cost, optimal->cost + 1.0);
  // ...at far fewer model evaluations.
  EXPECT_LT(greedy->evaluations, optimal->evaluations);
}

TEST(ExhaustiveTest, UnsatisfiableReportsFailure) {
  const Environment env = MakeEnv(1.0);
  const ConfigurationTool tool = MakeTool(env);
  SearchConstraints tight;
  tight.max_replicas = {1, 1, 1};
  auto result = tool.ExhaustiveMinCost(StrictGoals(), tight);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->satisfied);
}

TEST(SearchMethodTest, NamesRoundTrip) {
  for (SearchMethod method :
       {SearchMethod::kGreedy, SearchMethod::kGreedySite,
        SearchMethod::kExhaustive, SearchMethod::kBranchAndBound}) {
    auto parsed = ParseSearchMethod(SearchMethodName(method));
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    EXPECT_EQ(*parsed, method);
  }
  EXPECT_STREQ(SearchMethodName(SearchMethod::kGreedySite), "greedy-site");
  EXPECT_STREQ(SearchMethodName(SearchMethod::kBranchAndBound), "bnb");
  auto alias = ParseSearchMethod("branch-and-bound");
  ASSERT_TRUE(alias.ok());
  EXPECT_EQ(*alias, SearchMethod::kBranchAndBound);

  auto unknown = ParseSearchMethod("gradient-descent");
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kInvalidArgument);
  // The removed method gets its own error, naming what is left.
  auto removed = ParseSearchMethod("annealing");
  ASSERT_FALSE(removed.ok());
  EXPECT_EQ(removed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(removed.status().message().find("'annealing' was removed"),
            std::string::npos)
      << removed.status();
  EXPECT_NE(removed.status().message().find(
                "greedy, greedy-site, exhaustive, bnb"),
            std::string::npos)
      << removed.status();
}

TEST(CostModelTest, WeightedCostChangesRecommendation) {
  // Making app servers very expensive should steer the search toward
  // configurations with fewer app servers whenever possible.
  const Environment env = MakeEnv(1.0);
  const ConfigurationTool tool = MakeTool(env);
  SearchConstraints constraints;
  constraints.max_replicas = {3, 3, 4};
  CostModel pricey;
  pricey.per_server_cost = {1.0, 1.0, 100.0};
  auto cheap = tool.ExhaustiveMinCost(StrictGoals(), constraints);
  auto expensive =
      tool.ExhaustiveMinCost(StrictGoals(), constraints, pricey);
  ASSERT_TRUE(cheap.ok());
  ASSERT_TRUE(expensive.ok());
  ASSERT_TRUE(expensive->satisfied);
  EXPECT_LE(expensive->config.replicas[2], cheap->config.replicas[2]);
}

TEST(RecommendationTest, RendersReadableText) {
  const Environment env = MakeEnv(1.0);
  const ConfigurationTool tool = MakeTool(env);
  auto result = tool.GreedyMinCost(EasyGoals());
  ASSERT_TRUE(result.ok());
  const std::string text = tool.RenderRecommendation(*result);
  EXPECT_NE(text.find("Recommended configuration"), std::string::npos);
  EXPECT_NE(text.find("availability"), std::string::npos);
  EXPECT_NE(text.find("engine"), std::string::npos);
}

TEST(ToolTest, PerTypeGoalsApplied) {
  const Environment env = MakeEnv(1.0);
  const ConfigurationTool tool = MakeTool(env);
  Goals goals = EasyGoals();
  // Demand an impossibly snappy app server only.
  goals.per_type_max_waiting = {0.0, 0.0, 1e-9};
  auto assessment = tool.Assess(Configuration({1, 1, 1}), goals);
  ASSERT_TRUE(assessment.ok());
  EXPECT_FALSE(assessment->meets_waiting_goal);
}

}  // namespace
}  // namespace wfms::configtool
