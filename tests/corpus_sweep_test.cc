#include "corpus/sweep.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "configtool/tool.h"
#include "corpus/compile.h"
#include "corpus/importer.h"

namespace wfms::corpus {
namespace {

constexpr uint64_t kSeedMask = (1ull << 53) - 1;

TEST(CorpusSweepTest, GenerateManifestShape) {
  const Manifest m = GenerateManifest(10, 42, 256);
  ASSERT_EQ(m.entries.size(), 10u);
  EXPECT_EQ(m.seed, 42u);
  EXPECT_EQ(m.entries.front().id, "env-0000");
  EXPECT_EQ(m.entries.back().id, "env-0009");
  EXPECT_EQ(m.entries.front().recipe.num_tasks, 8u);
  // The ramp ends exactly at max_tasks so a sweep always contains its
  // largest advertised environment.
  EXPECT_EQ(m.entries.back().recipe.num_tasks, 256u);
  for (const ManifestEntry& e : m.entries) {
    EXPECT_FALSE(e.is_import());
    EXPECT_TRUE(e.recipe.Validate().ok());
    // Seeds fit in 53 bits so the JSON double round-trip is lossless.
    EXPECT_EQ(e.recipe.seed & ~kSeedMask, 0u);
  }
}

TEST(CorpusSweepTest, GenerateManifestIsDeterministic) {
  EXPECT_EQ(ManifestToJson(GenerateManifest(12, 7, 128)),
            ManifestToJson(GenerateManifest(12, 7, 128)));
}

TEST(CorpusSweepTest, ManifestJsonRoundTrips) {
  const Manifest m = GenerateManifest(8, 9, 64);
  const std::string text = ManifestToJson(m);
  const auto back = ManifestFromJson(text);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(ManifestToJson(*back), text);
}

TEST(CorpusSweepTest, ManifestFromJsonRejectsGarbage) {
  EXPECT_FALSE(ManifestFromJson("not json").ok());
  EXPECT_FALSE(ManifestFromJson("{}").ok());
  EXPECT_FALSE(ManifestFromJson(R"({"environments": []})").ok());
}

TEST(CorpusSweepTest, RejectsEmptyManifest) {
  const Manifest empty;
  SweepOptions options;
  EXPECT_FALSE(RunSweep(empty, options).ok());
}

// The determinism contract: the serialized report (timings stripped) is
// byte-identical whatever the sweep-level thread count.
TEST(CorpusSweepTest, ReportIsByteIdenticalAcrossThreadCounts) {
  const Manifest m = GenerateManifest(6, 123, 48);
  SweepOptions options;
  options.include_timings = false;

  options.num_threads = 1;
  const auto serial = RunSweep(m, options);
  ASSERT_TRUE(serial.ok()) << serial.status();

  options.num_threads = 4;
  const auto parallel = RunSweep(m, options);
  ASSERT_TRUE(parallel.ok()) << parallel.status();

  EXPECT_EQ(ReportToJson(*serial, false).Dump(),
            ReportToJson(*parallel, false).Dump());
}

TEST(CorpusSweepTest, AssessModeEvaluatesEveryEnvironment) {
  const Manifest m = GenerateManifest(5, 11, 32);
  SweepOptions options;
  options.num_threads = 2;
  const auto report = RunSweep(m, options);
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_EQ(report->results.size(), 5u);
  EXPECT_EQ(report->error_count, 0u);
  for (const EnvironmentResult& r : report->results) {
    EXPECT_TRUE(r.error.empty()) << r.id << ": " << r.error;
    EXPECT_GT(r.tasks, 0u) << r.id;
    EXPECT_GT(r.chart_states, 0u) << r.id;
    EXPECT_GT(r.server_types, 0u) << r.id;
    EXPECT_GT(r.availability, 0.0) << r.id;
    EXPECT_EQ(r.evaluations, 0) << r.id;  // assess mode never searches
  }
}

TEST(CorpusSweepTest, RecommendModeSatisfiesReachableGoals) {
  const Manifest m = GenerateManifest(4, 17, 32);
  SweepOptions options;
  options.mode = SweepMode::kRecommend;
  options.goals.max_waiting_time = 5.0;
  options.goals.min_availability = 0.99;
  options.max_replicas = 6;
  const auto report = RunSweep(m, options);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->error_count, 0u);
  EXPECT_EQ(report->satisfied_count, 4u);
  for (const EnvironmentResult& r : report->results) {
    EXPECT_TRUE(r.satisfied) << r.id;
    EXPECT_GT(r.evaluations, 0) << r.id;
    EXPECT_LE(r.max_expected_waiting, 5.0) << r.id;
    EXPECT_GE(r.availability, 0.99) << r.id;
  }
}

TEST(CorpusSweepTest, ImportEntriesSweepAlongsideRecipes) {
  Manifest m = GenerateManifest(2, 5, 16);
  ManifestEntry import_entry;
  import_entry.id = "env-import";
  import_entry.wfcommons_path =
      std::string(WFMS_TEST_DATA_DIR) + "/wfcommons_mixed.json";
  m.entries.push_back(import_entry);

  SweepOptions options;
  options.include_timings = false;
  const auto report = RunSweep(m, options);
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_EQ(report->results.size(), 3u);
  const EnvironmentResult& imported = report->results.back();
  EXPECT_TRUE(imported.error.empty()) << imported.error;
  EXPECT_EQ(imported.pattern, "imported");
  EXPECT_EQ(imported.workflow, "seismic-mixed");
  EXPECT_EQ(imported.tasks, 8u);
}

// The sweep assesses under default options: each committed fixture,
// imported, compiled and assessed at all-ones by a default-constructed
// tool, gives exactly the sweep's answer.
TEST(CorpusSweepTest, FixturesAssessUnderDefaultOptions) {
  Manifest m;
  for (const char* which : {"chain", "forkjoin", "mixed"}) {
    ManifestEntry entry;
    entry.id = which;
    entry.wfcommons_path = std::string(WFMS_TEST_DATA_DIR) + "/wfcommons_" +
                           which + ".json";
    m.entries.push_back(entry);
  }
  SweepOptions options;
  options.include_timings = false;
  const auto report = RunSweep(m, options);
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_EQ(report->results.size(), m.entries.size());

  for (size_t i = 0; i < m.entries.size(); ++i) {
    const EnvironmentResult& swept = report->results[i];
    ASSERT_TRUE(swept.error.empty()) << swept.id << ": " << swept.error;
    std::ifstream in(m.entries[i].wfcommons_path);
    ASSERT_TRUE(in) << m.entries[i].wfcommons_path;
    std::ostringstream text;
    text << in.rdbuf();
    const auto dag = ParseWfCommons(text.str());
    ASSERT_TRUE(dag.ok()) << dag.status();
    const auto env = CompileDag(*dag);
    ASSERT_TRUE(env.ok()) << env.status();
    auto tool = configtool::ConfigurationTool::Create(*env);
    ASSERT_TRUE(tool.ok()) << swept.id << ": " << tool.status();
    tool->set_num_threads(1);
    const auto assessment = tool->Assess(
        workflow::Configuration::Ones(env->servers.size()), options.goals);
    ASSERT_TRUE(assessment.ok()) << assessment.status();
    ASSERT_TRUE(assessment->error.ok()) << assessment->error;
    EXPECT_EQ(assessment->performability.availability, swept.availability)
        << swept.id;
    EXPECT_EQ(assessment->performability.max_expected_waiting,
              swept.max_expected_waiting)
        << swept.id;
  }
}

TEST(CorpusSweepTest, MissingImportFileFailsOnlyThatEntry) {
  Manifest m = GenerateManifest(1, 5, 16);
  ManifestEntry bad;
  bad.id = "env-missing";
  bad.wfcommons_path = "/nonexistent/workflow.json";
  m.entries.push_back(bad);

  SweepOptions options;
  const auto report = RunSweep(m, options);
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_EQ(report->results.size(), 2u);
  EXPECT_TRUE(report->results[0].error.empty());
  EXPECT_FALSE(report->results[1].error.empty());
  EXPECT_EQ(report->error_count, 1u);
}

}  // namespace
}  // namespace wfms::corpus
