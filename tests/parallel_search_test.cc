// Determinism and cache-correctness guarantees of the parallel assessment
// layer (DESIGN.md "Concurrency model"): search results are bit-identical
// whatever the thread count, and memoized assessments are exact replays of
// fresh ones.
#include <gtest/gtest.h>

#include <vector>

#include "configtool/tool.h"
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

Goals StrictGoals() {
  Goals goals;
  goals.max_waiting_time = 0.05;
  goals.min_availability = 0.999999;
  return goals;
}

// Bitwise comparison of everything a search result derives from the model,
// plus cache_hits: no search assesses speculatively, so on fresh tools the
// hit count is a function of the search alone.
void ExpectBitIdentical(const SearchResult& a, const SearchResult& b) {
  EXPECT_EQ(a.config, b.config);
  EXPECT_EQ(a.cost, b.cost);
  EXPECT_EQ(a.satisfied, b.satisfied);
  EXPECT_EQ(a.evaluations, b.evaluations);
  EXPECT_EQ(a.cache_hits, b.cache_hits);
  const auto& pa = a.assessment.performability;
  const auto& pb = b.assessment.performability;
  EXPECT_EQ(pa.availability, pb.availability);
  EXPECT_EQ(pa.prob_down, pb.prob_down);
  EXPECT_EQ(pa.prob_saturated, pb.prob_saturated);
  EXPECT_EQ(pa.prob_degraded, pb.prob_degraded);
  EXPECT_EQ(pa.max_expected_waiting, pb.max_expected_waiting);
  ASSERT_EQ(pa.expected_waiting.size(), pb.expected_waiting.size());
  for (size_t x = 0; x < pa.expected_waiting.size(); ++x) {
    EXPECT_EQ(pa.expected_waiting[x], pb.expected_waiting[x]) << "type " << x;
  }
  ASSERT_EQ(a.assessment.instance_delays.size(),
            b.assessment.instance_delays.size());
  for (size_t t = 0; t < a.assessment.instance_delays.size(); ++t) {
    EXPECT_EQ(a.assessment.instance_delays[t],
              b.assessment.instance_delays[t]);
  }
}

// Fresh tool per thread count: a shared tool's cache would replay entries
// whose solver round-off depends on which search warmed them first.
ConfigurationTool MakeTool(const Environment& env, size_t threads) {
  auto tool = ConfigurationTool::Create(env);
  EXPECT_TRUE(tool.ok()) << tool.status();
  tool->set_num_threads(threads);
  return *std::move(tool);
}

TEST(ParallelSearchTest, GreedyIsBitIdenticalAcrossThreadCounts) {
  const Environment env = MakeEnv(1.0);
  const ConfigurationTool sequential = MakeTool(env, 1);
  const ConfigurationTool parallel = MakeTool(env, 4);
  auto seq = sequential.GreedyMinCost(StrictGoals());
  auto par = parallel.GreedyMinCost(StrictGoals());
  ASSERT_TRUE(seq.ok()) << seq.status();
  ASSERT_TRUE(par.ok()) << par.status();
  ASSERT_TRUE(seq->satisfied);
  ExpectBitIdentical(*seq, *par);
}

TEST(ParallelSearchTest, BranchAndBoundIsBitIdenticalAcrossThreadCounts) {
  const Environment env = MakeEnv(1.0);
  SearchConstraints constraints;
  constraints.max_replicas = {3, 3, 4};
  const ConfigurationTool sequential = MakeTool(env, 1);
  const ConfigurationTool parallel = MakeTool(env, 4);
  auto seq = sequential.BranchAndBoundMinCost(StrictGoals(), constraints);
  auto par = parallel.BranchAndBoundMinCost(StrictGoals(), constraints);
  ASSERT_TRUE(seq.ok()) << seq.status();
  ASSERT_TRUE(par.ok()) << par.status();
  ASSERT_TRUE(seq->satisfied);
  ExpectBitIdentical(*seq, *par);
}

TEST(ParallelSearchTest, ExhaustiveIsBitIdenticalAcrossThreadCounts) {
  const Environment env = MakeEnv(1.0);
  SearchConstraints constraints;
  constraints.max_replicas = {3, 3, 4};
  const ConfigurationTool sequential = MakeTool(env, 1);
  const ConfigurationTool parallel = MakeTool(env, 4);
  auto seq = sequential.ExhaustiveMinCost(StrictGoals(), constraints);
  auto par = parallel.ExhaustiveMinCost(StrictGoals(), constraints);
  ASSERT_TRUE(seq.ok()) << seq.status();
  ASSERT_TRUE(par.ok()) << par.status();
  ExpectBitIdentical(*seq, *par);
}

TEST(ParallelSearchTest, AssessBatchMatchesSequentialAssess) {
  const Environment env = MakeEnv(1.0);
  const ConfigurationTool batch_tool = MakeTool(env, 4);
  const ConfigurationTool seq_tool = MakeTool(env, 1);
  const std::vector<Configuration> configs = {
      Configuration({1, 1, 1}), Configuration({1, 2, 1}),
      Configuration({2, 1, 2}), Configuration({2, 2, 3}),
      Configuration({1, 1, 4})};
  auto batched = batch_tool.AssessBatch(configs, StrictGoals());
  ASSERT_TRUE(batched.ok()) << batched.status();
  ASSERT_EQ(batched->size(), configs.size());
  for (size_t i = 0; i < configs.size(); ++i) {
    auto single = seq_tool.Assess(configs[i], StrictGoals());
    ASSERT_TRUE(single.ok());
    EXPECT_EQ((*batched)[i].config, configs[i]);
    EXPECT_EQ((*batched)[i].cost, single->cost);
    EXPECT_EQ((*batched)[i].Satisfies(), single->Satisfies());
    EXPECT_EQ((*batched)[i].performability.availability,
              single->performability.availability);
    for (size_t x = 0; x < env.num_server_types(); ++x) {
      EXPECT_EQ((*batched)[i].performability.expected_waiting[x],
                single->performability.expected_waiting[x]);
    }
  }
}

TEST(ParallelSearchTest, MemoizedAssessEqualsFresh) {
  const Environment env = MakeEnv(1.0);
  const ConfigurationTool tool = MakeTool(env, 1);
  const Configuration config({2, 2, 2});
  auto cold = tool.Assess(config, StrictGoals());
  ASSERT_TRUE(cold.ok());
  auto stats = tool.cache_stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 1u);

  auto warm = tool.Assess(config, StrictGoals());
  ASSERT_TRUE(warm.ok());
  stats = tool.cache_stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.hits, 1u);

  EXPECT_EQ(cold->performability.availability,
            warm->performability.availability);
  for (size_t x = 0; x < env.num_server_types(); ++x) {
    EXPECT_EQ(cold->performability.expected_waiting[x],
              warm->performability.expected_waiting[x]);
  }
  EXPECT_EQ(cold->cost, warm->cost);
  EXPECT_EQ(cold->Satisfies(), warm->Satisfies());

  // The memoized report equals what an untouched tool computes from cold.
  const ConfigurationTool fresh = MakeTool(env, 1);
  auto independent = fresh.Assess(config, StrictGoals());
  ASSERT_TRUE(independent.ok());
  EXPECT_EQ(independent->performability.availability,
            warm->performability.availability);
  for (size_t x = 0; x < env.num_server_types(); ++x) {
    EXPECT_EQ(independent->performability.expected_waiting[x],
              warm->performability.expected_waiting[x]);
  }
}

TEST(ParallelSearchTest, CacheServesDifferentGoalsWithoutResolving) {
  const Environment env = MakeEnv(1.0);
  const ConfigurationTool tool = MakeTool(env, 1);
  const Configuration config({2, 2, 2});
  ASSERT_TRUE(tool.Assess(config, StrictGoals()).ok());

  Goals lax;
  lax.max_waiting_time = 60.0;
  lax.min_availability = 0.5;
  auto relaxed = tool.Assess(config, lax);
  ASSERT_TRUE(relaxed.ok());
  EXPECT_TRUE(relaxed->Satisfies());
  // Same replication vector: the goal change must not trigger a new solve.
  EXPECT_EQ(tool.cache_stats().misses, 1u);
  EXPECT_EQ(tool.cache_stats().hits, 1u);
}

TEST(ParallelSearchTest, ClearAssessmentCacheForcesResolve) {
  const Environment env = MakeEnv(1.0);
  ConfigurationTool tool = MakeTool(env, 1);
  const Configuration config({2, 2, 2});
  ASSERT_TRUE(tool.Assess(config, StrictGoals()).ok());
  tool.ClearAssessmentCache();
  EXPECT_EQ(tool.cache_stats().entries, 0u);
  ASSERT_TRUE(tool.Assess(config, StrictGoals()).ok());
  EXPECT_EQ(tool.cache_stats().misses, 2u);
}

TEST(ParallelSearchTest, SearchReportsCacheHits) {
  const Environment env = MakeEnv(1.0);
  const ConfigurationTool tool = MakeTool(env, 1);
  SearchConstraints constraints;
  constraints.max_replicas = {3, 3, 4};
  auto first = tool.BranchAndBoundMinCost(StrictGoals(), constraints);
  ASSERT_TRUE(first.ok());
  // Replaying the same search on the warmed tool answers purely from cache.
  auto replay = tool.BranchAndBoundMinCost(StrictGoals(), constraints);
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay->cache_hits, replay->evaluations);
  EXPECT_EQ(replay->config, first->config);
  EXPECT_EQ(replay->cost, first->cost);
}

}  // namespace
}  // namespace wfms::configtool
