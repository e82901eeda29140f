// Search checkpoint/resume guarantees (DESIGN.md "Checkpointing and
// recovery"): a search cancelled mid-flight and resumed on a fresh tool
// finishes with a bit-identical recommendation, pays no re-assessment for
// restored cache entries, and stale or mismatched checkpoints are
// rejected before any state is mixed in.
#include "configtool/checkpoint.h"

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "configtool/tool.h"
#include "workflow/scenarios.h"

namespace wfms::configtool {
namespace {

using workflow::Environment;

std::string TempPath(const char* name) {
  return (std::filesystem::temp_directory_path() /
          (std::string("wfms_checkpoint_test_") + name))
      .string();
}

Environment MakeEnv() {
  auto env = workflow::EpEnvironment(1.0);
  EXPECT_TRUE(env.ok());
  return *std::move(env);
}

ConfigurationTool MakeTool(const Environment& env, size_t threads = 1) {
  auto tool = ConfigurationTool::Create(env);
  EXPECT_TRUE(tool.ok()) << tool.status();
  tool->set_num_threads(threads);
  return *std::move(tool);
}

Goals TestGoals() {
  Goals goals;
  goals.max_waiting_time = 0.05;
  goals.min_availability = 0.999999;
  return goals;
}

void ExpectBitIdentical(const SearchResult& a, const SearchResult& b) {
  EXPECT_EQ(a.config, b.config);
  EXPECT_EQ(a.cost, b.cost);
  EXPECT_EQ(a.satisfied, b.satisfied);
  EXPECT_EQ(a.evaluations, b.evaluations);
  const auto& pa = a.assessment.performability;
  const auto& pb = b.assessment.performability;
  EXPECT_EQ(pa.availability, pb.availability);
  EXPECT_EQ(pa.max_expected_waiting, pb.max_expected_waiting);
  ASSERT_EQ(pa.expected_waiting.size(), pb.expected_waiting.size());
  for (size_t x = 0; x < pa.expected_waiting.size(); ++x) {
    EXPECT_EQ(pa.expected_waiting[x], pb.expected_waiting[x]) << "type " << x;
  }
}

TEST(SearchFingerprintTest, SensitiveToEveryInput) {
  const Environment env = MakeEnv();
  const Goals goals = TestGoals();
  const SearchConstraints constraints;
  const CostModel cost = CostModel::Uniform();
  const uint64_t base =
      SearchFingerprint(env, goals, constraints, cost, "greedy");
  EXPECT_EQ(base, SearchFingerprint(env, goals, constraints, cost, "greedy"));

  Goals other_goals = goals;
  other_goals.max_waiting_time *= 2;
  EXPECT_NE(base,
            SearchFingerprint(env, other_goals, constraints, cost, "greedy"));

  SearchConstraints other_constraints;
  other_constraints.max_replicas.assign(env.num_server_types(), 4);
  EXPECT_NE(base, SearchFingerprint(env, goals, other_constraints, cost,
                                    "greedy"));

  CostModel other_cost;
  other_cost.per_server_cost.assign(env.num_server_types(), 2.0);
  EXPECT_NE(base, SearchFingerprint(env, goals, constraints, other_cost,
                                    "greedy"));

  EXPECT_NE(base, SearchFingerprint(env, goals, constraints, cost, "bnb"));
}

TEST(SearchCheckpointTest, ResumedSearchIsBitIdenticalAndSkipsRework) {
  const Environment env = MakeEnv();
  const Goals goals = TestGoals();

  // Uninterrupted baseline.
  const ConfigurationTool baseline_tool = MakeTool(env);
  auto baseline = baseline_tool.GreedyMinCost(goals);
  ASSERT_TRUE(baseline.ok()) << baseline.status();
  const size_t baseline_misses = baseline_tool.cache_stats().misses;

  // Interrupted run: cancel after the second checkpoint write.
  const std::string path = TempPath("skips_rework");
  const uint64_t fingerprint = SearchFingerprint(
      env, goals, SearchConstraints{}, CostModel::Uniform(), "greedy");
  const ConfigurationTool crashed_tool = MakeTool(env);
  std::atomic<bool> cancel{false};
  int checkpoints = 0;
  SearchOptions search;
  search.cancel = &cancel;
  search.checkpoint_interval_seconds = 0.0;  // every boundary
  search.on_checkpoint = [&] {
    ASSERT_TRUE(WriteSearchCheckpoint(path, crashed_tool, fingerprint,
                                      "greedy")
                    .ok());
    if (++checkpoints >= 2) cancel.store(true);
  };
  auto interrupted = crashed_tool.GreedyMinCost(goals, {}, {}, search);
  ASSERT_TRUE(interrupted.ok()) << interrupted.status();
  ASSERT_EQ(interrupted->termination.code(), StatusCode::kCancelled);
  ASSERT_LT(interrupted->evaluations, baseline->evaluations)
      << "cancel fired too late to interrupt anything";

  // Resume on a fresh tool (a new process after the crash).
  const ConfigurationTool resumed_tool = MakeTool(env);
  auto meta = ResumeSearchFrom(resumed_tool, path, fingerprint, "greedy");
  ASSERT_TRUE(meta.ok()) << meta.status();
  EXPECT_GT(meta->cached_reports, 0u);
  EXPECT_EQ(meta->cached_reports, resumed_tool.cache_stats().entries);

  auto resumed = resumed_tool.GreedyMinCost(goals);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  ASSERT_TRUE(resumed->termination.ok()) << resumed->termination;
  ExpectBitIdentical(*baseline, *resumed);

  // No re-assessment of restored vectors: every checkpointed entry is a
  // solve the resumed run did not repeat.
  EXPECT_EQ(resumed_tool.cache_stats().misses,
            baseline_misses - meta->cached_reports);
  std::remove(path.c_str());
}

TEST(SearchCheckpointTest, AllFourStrategiesResumeBitIdentically) {
  const Environment ep = MakeEnv();
  auto geo = workflow::GeoEpEnvironment();
  ASSERT_TRUE(geo.ok()) << geo.status();
  const Goals goals = TestGoals();
  SearchConstraints constraints;
  constraints.max_replicas.assign(ep.num_server_types(), 4);
  SiteSearchConstraints site;
  site.max_per_type = 4;

  for (const SearchMethod method :
       {SearchMethod::kGreedy, SearchMethod::kGreedySite,
        SearchMethod::kExhaustive, SearchMethod::kBranchAndBound}) {
    const char* name = SearchMethodName(method);
    SCOPED_TRACE(name);
    // greedy-site places replicas on sites, so it runs on the two-site EP.
    const Environment& env = method == SearchMethod::kGreedySite ? *geo : ep;
    const auto run = [&](const ConfigurationTool& t, const SearchOptions& s) {
      return RunSearch(t, method, goals, constraints, site,
                       CostModel::Uniform(), s);
    };
    const ConfigurationTool baseline_tool = MakeTool(env);
    auto baseline = run(baseline_tool, SearchOptions{});
    ASSERT_TRUE(baseline.ok()) << baseline.status();

    const std::string path =
        TempPath((std::string("all_four_") + name).c_str());
    const uint64_t fingerprint =
        SearchFingerprint(env, goals, constraints, CostModel::Uniform(), name);
    const ConfigurationTool crashed_tool = MakeTool(env);
    std::atomic<bool> cancel{false};
    SearchOptions search;
    search.cancel = &cancel;
    search.checkpoint_interval_seconds = 0.0;
    search.on_checkpoint = [&] {
      ASSERT_TRUE(
          WriteSearchCheckpoint(path, crashed_tool, fingerprint, name).ok());
      cancel.store(true);  // "crash" at the first checkpoint
    };
    auto interrupted = run(crashed_tool, search);
    ASSERT_TRUE(interrupted.ok()) << interrupted.status();
    ASSERT_EQ(interrupted->termination.code(), StatusCode::kCancelled);

    const ConfigurationTool resumed_tool = MakeTool(env);
    auto meta = ResumeSearchFrom(resumed_tool, path, fingerprint, name);
    ASSERT_TRUE(meta.ok()) << meta.status();
    auto resumed = run(resumed_tool, SearchOptions{});
    ASSERT_TRUE(resumed.ok()) << resumed.status();
    ExpectBitIdentical(*baseline, *resumed);
    EXPECT_EQ(baseline->failed_candidates.size(),
              resumed->failed_candidates.size());
    std::remove(path.c_str());
  }
}

TEST(SearchCheckpointTest, StaleFingerprintIsRejected) {
  const Environment env = MakeEnv();
  const Goals goals = TestGoals();
  const ConfigurationTool tool = MakeTool(env);
  const std::string path = TempPath("stale");
  const uint64_t fingerprint = SearchFingerprint(
      env, goals, SearchConstraints{}, CostModel::Uniform(), "greedy");
  ASSERT_TRUE(
      WriteSearchCheckpoint(path, tool, fingerprint, "greedy").ok());

  // Different goals => different fingerprint => rejected.
  Goals other = goals;
  other.min_availability = 0.9;
  const uint64_t other_fingerprint = SearchFingerprint(
      env, other, SearchConstraints{}, CostModel::Uniform(), "greedy");
  ASSERT_NE(fingerprint, other_fingerprint);
  const ConfigurationTool fresh = MakeTool(env);
  auto rejected = ResumeSearchFrom(fresh, path, other_fingerprint, "greedy");
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(rejected.status().message().find("hash mismatch"),
            std::string::npos)
      << rejected.status();
  // Nothing was mixed into the fresh tool.
  EXPECT_EQ(fresh.cache_stats().entries, 0u);

  // Same fingerprint but a different strategy name is also stale.
  auto wrong_strategy = ResumeSearchFrom(fresh, path, fingerprint, "bnb");
  ASSERT_FALSE(wrong_strategy.ok());
  EXPECT_EQ(wrong_strategy.status().code(),
            StatusCode::kFailedPrecondition);
  std::remove(path.c_str());
}

TEST(SearchCheckpointTest, CheckpointPreservesNegativeFailureEntries) {
  const Environment env = MakeEnv();
  const ConfigurationTool tool = MakeTool(env);
  ConfigurationTool::CacheDump dump;
  dump.failures.push_back(
      {{9, 9, 9},
       {Status::NumericError("synthetic solver failure"), true, true}});
  tool.RestoreAssessmentCache(dump);

  const std::string path = TempPath("negative");
  ASSERT_TRUE(WriteSearchCheckpoint(path, tool, 123, "greedy").ok());
  const ConfigurationTool fresh = MakeTool(env);
  auto meta = ResumeSearchFrom(fresh, path, 123, "greedy");
  ASSERT_TRUE(meta.ok()) << meta.status();
  EXPECT_EQ(meta->cached_failures, 1u);
  const auto restored = fresh.DumpAssessmentCache();
  ASSERT_EQ(restored.failures.size(), 1u);
  EXPECT_EQ(restored.failures[0].first, (std::vector<int>{9, 9, 9}));
  EXPECT_EQ(restored.failures[0].second.error.code(),
            StatusCode::kNumericError);
  EXPECT_TRUE(restored.failures[0].second.numerical);
  EXPECT_TRUE(restored.failures[0].second.retried_exact);
  std::remove(path.c_str());
}

TEST(SearchCheckpointTest, SaveLoadSaveIsByteIdentical) {
  const Environment env = MakeEnv();
  const ConfigurationTool tool = MakeTool(env);
  auto result = tool.GreedyMinCost(TestGoals());
  ASSERT_TRUE(result.ok());

  const std::string path = TempPath("byteident");
  ASSERT_TRUE(
      WriteSearchCheckpoint(path, tool, 7, "greedy", &*result).ok());
  std::ifstream first_in(path, std::ios::binary);
  std::ostringstream first;
  first << first_in.rdbuf();

  const ConfigurationTool loaded = MakeTool(env);
  auto meta = ResumeSearchFrom(loaded, path, 7, "greedy");
  ASSERT_TRUE(meta.ok()) << meta.status();
  EXPECT_TRUE(meta->have_best);
  EXPECT_EQ(meta->best_config, result->config);
  ASSERT_TRUE(
      WriteSearchCheckpoint(path, loaded, 7, "greedy", &*result).ok());
  std::ifstream second_in(path, std::ios::binary);
  std::ostringstream second;
  second << second_in.rdbuf();
  EXPECT_EQ(first.str(), second.str());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace wfms::configtool
