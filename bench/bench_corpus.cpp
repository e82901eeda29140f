// E14 — corpus engine scalability: generated workflows from 16 to 1024
// tasks (chain and fork_join patterns) run the full corpus pipeline —
// generate, compile to an environment, build the performability tool, and
// assess the all-ones configuration — with per-stage wall times and peak
// RSS recorded. The committed BENCH_corpus.json pins wall time against
// workflow size so a compile- or solve-path regression shows up as a
// trajectory diff.
//
// Usage: bench_corpus [--benchmark_format=json] [--max_tasks=N]
// JSON mode emits a machine-readable array on stdout (one object per
// measurement) for regression tracking.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "configtool/tool.h"
#include "corpus/compile.h"
#include "corpus/generator.h"

namespace {

using wfms::corpus::GenerateDag;
using wfms::corpus::Pattern;
using wfms::corpus::Recipe;

double MillisSince(const std::chrono::steady_clock::time_point& start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Peak resident set size of this process in MiB (VmHWM, Linux; 0 when
/// unavailable). Monotone over the process lifetime, so later rows
/// dominate earlier ones.
double PeakRssMiB() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  long kib = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
  }
  std::fclose(f);
  return static_cast<double>(kib) / 1024.0;
}

struct Measurement {
  std::string pattern;
  size_t requested_tasks = 0;
  size_t tasks = 0;
  size_t chart_states = 0;
  size_t server_types = 0;
  double generate_ms = 0.0;
  double compile_ms = 0.0;
  double build_ms = 0.0;  // ConfigurationTool::Create (model construction)
  double solve_ms = 0.0;  // Assess of the all-ones configuration
  double max_expected_waiting = 0.0;
  double availability = 0.0;
  double peak_rss_mib = 0.0;
};

wfms::Result<Measurement> RunOne(Pattern pattern, size_t num_tasks) {
  Recipe recipe;
  recipe.pattern = pattern;
  recipe.num_tasks = num_tasks;
  recipe.seed = 42 + num_tasks;
  recipe.service_scv = 4.0;

  Measurement m;
  m.pattern = wfms::corpus::PatternName(pattern);
  m.requested_tasks = num_tasks;

  const auto generate_start = std::chrono::steady_clock::now();
  WFMS_ASSIGN_OR_RETURN(const wfms::corpus::TaskDag dag, GenerateDag(recipe));
  m.generate_ms = MillisSince(generate_start);
  m.tasks = dag.tasks.size();

  const auto compile_start = std::chrono::steady_clock::now();
  WFMS_ASSIGN_OR_RETURN(const wfms::workflow::Environment env,
                        wfms::corpus::CompileDag(dag));
  m.compile_ms = MillisSince(compile_start);
  m.server_types = env.servers.size();
  for (const std::string& name : env.charts.ChartNames()) {
    m.chart_states += (*env.charts.GetChart(name))->num_states();
  }

  const auto build_start = std::chrono::steady_clock::now();
  WFMS_ASSIGN_OR_RETURN(
      wfms::configtool::ConfigurationTool tool,
      wfms::configtool::ConfigurationTool::Create(env));
  tool.set_num_threads(1);
  m.build_ms = MillisSince(build_start);

  const wfms::workflow::Configuration config =
      wfms::workflow::Configuration::Ones(env.servers.size());
  wfms::configtool::Goals goals;  // defaults; satisfaction is not the point
  const auto solve_start = std::chrono::steady_clock::now();
  WFMS_ASSIGN_OR_RETURN(const wfms::configtool::Assessment assessment,
                        tool.Assess(config, goals));
  m.solve_ms = MillisSince(solve_start);
  WFMS_RETURN_NOT_OK(assessment.error);
  m.max_expected_waiting = assessment.performability.max_expected_waiting;
  m.availability = assessment.performability.availability;
  m.peak_rss_mib = PeakRssMiB();
  return m;
}

void EmitJson(const std::vector<Measurement>& measurements) {
  std::printf("[\n");
  for (size_t i = 0; i < measurements.size(); ++i) {
    const Measurement& m = measurements[i];
    std::printf(
        "  {\"pattern\": \"%s\", \"requested_tasks\": %zu, \"tasks\": %zu, "
        "\"chart_states\": %zu, \"server_types\": %zu, "
        "\"generate_ms\": %.3f, \"compile_ms\": %.3f, \"build_ms\": %.3f, "
        "\"solve_ms\": %.3f, \"max_expected_waiting\": %.6f, "
        "\"availability\": %.12f, \"peak_rss_mib\": %.1f}%s\n",
        m.pattern.c_str(), m.requested_tasks, m.tasks, m.chart_states,
        m.server_types, m.generate_ms, m.compile_ms, m.build_ms, m.solve_ms,
        m.max_expected_waiting, m.availability, m.peak_rss_mib,
        i + 1 < measurements.size() ? "," : "");
  }
  std::printf("]\n");
}

void EmitTable(const std::vector<Measurement>& measurements) {
  std::printf("E14 — corpus pipeline trajectory (generate + compile + "
              "build + assess, all-ones config)\n");
  std::printf("%12s %8s %8s %8s %6s %8s %8s %8s %8s %10s\n", "pattern",
              "req", "tasks", "states", "types", "gen_ms", "comp_ms",
              "build_ms", "solve_ms", "rss_mib");
  for (const Measurement& m : measurements) {
    std::printf("%12s %8zu %8zu %8zu %6zu %8.2f %8.2f %8.2f %8.2f %10.1f\n",
                m.pattern.c_str(), m.requested_tasks, m.tasks,
                m.chart_states, m.server_types, m.generate_ms, m.compile_ms,
                m.build_ms, m.solve_ms, m.peak_rss_mib);
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  size_t max_tasks = 1024;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--benchmark_format=json") == 0) {
      json = true;
    } else if (std::strncmp(arg, "--max_tasks=", 12) == 0) {
      max_tasks = static_cast<size_t>(std::strtoull(arg + 12, nullptr, 10));
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg);
      return 2;
    }
  }

  std::vector<Measurement> measurements;
  for (const Pattern pattern : {Pattern::kChain, Pattern::kForkJoin}) {
    for (size_t tasks = 16; tasks <= max_tasks; tasks *= 2) {
      auto m = RunOne(pattern, tasks);
      if (!m.ok()) {
        std::fprintf(stderr, "bench_corpus: %s/%zu failed: %s\n",
                     wfms::corpus::PatternName(pattern), tasks,
                     m.status().ToString().c_str());
        return 1;
      }
      measurements.push_back(*std::move(m));
    }
  }

  if (json) {
    EmitJson(measurements);
  } else {
    EmitTable(measurements);
  }
  return 0;
}
