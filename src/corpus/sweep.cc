#include "corpus/sweep.h"

#include <chrono>
#include <cmath>
#include <fstream>
#include <mutex>
#include <sstream>
#include <utility>

#include "common/random.h"
#include "common/thread_pool.h"
#include "configtool/tool.h"
#include "corpus/compile.h"
#include "corpus/importer.h"

namespace wfms::corpus {

namespace {

std::string PadId(size_t i) {
  std::string digits = std::to_string(i);
  std::string id = "env-";
  for (size_t k = digits.size(); k < 4; ++k) id.push_back('0');
  return id + digits;
}

double MillisBetween(std::chrono::steady_clock::time_point a,
                     std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

Json RecipeToJson(const Recipe& r) {
  Json j = Json::Object();
  j.Set("pattern", Json::Str(PatternName(r.pattern)))
      .Set("num_tasks", Json::Number(static_cast<double>(r.num_tasks)))
      .Set("seed", Json::Number(static_cast<double>(r.seed)))
      .Set("service_dist", Json::Str(ServiceDistName(r.service_dist)))
      .Set("service_mean", Json::Number(r.service_mean))
      .Set("service_scv", Json::Number(r.service_scv))
      .Set("fan_out_min", Json::Number(static_cast<double>(r.fan_out_min)))
      .Set("fan_out_max", Json::Number(static_cast<double>(r.fan_out_max)))
      .Set("max_depth", Json::Number(static_cast<double>(r.max_depth)))
      .Set("data_mean_bytes", Json::Number(r.data_mean_bytes));
  if (!r.name.empty()) j.Set("name", Json::Str(r.name));
  return j;
}

Result<Recipe> RecipeFromJson(const Json& j, const std::string& id) {
  Recipe r;
  const std::string context = "manifest entry '" + id + "': ";
  WFMS_ASSIGN_OR_RETURN(r.pattern,
                        PatternFromName(j.GetString("pattern", "chain")));
  WFMS_ASSIGN_OR_RETURN(
      r.service_dist,
      ServiceDistFromName(j.GetString("service_dist", "lognormal")));
  const double tasks = j.GetNumber("num_tasks", 16.0);
  const double seed = j.GetNumber("seed", 42.0);
  const double fan_min = j.GetNumber("fan_out_min", 2.0);
  const double fan_max = j.GetNumber("fan_out_max", 8.0);
  const double depth = j.GetNumber("max_depth", 0.0);
  if (tasks < 1.0 || fan_min < 1.0 || fan_max < fan_min || depth < 0.0 ||
      seed < 0.0) {
    return Status::ParseError(context + "invalid recipe shape parameters");
  }
  r.num_tasks = static_cast<size_t>(tasks);
  r.seed = static_cast<uint64_t>(seed);
  r.fan_out_min = static_cast<size_t>(fan_min);
  r.fan_out_max = static_cast<size_t>(fan_max);
  r.max_depth = static_cast<size_t>(depth);
  r.service_mean = j.GetNumber("service_mean", 2.0);
  r.service_scv = j.GetNumber("service_scv", 4.0);
  r.data_mean_bytes = j.GetNumber("data_mean_bytes", 16.0 * 1024 * 1024);
  r.name = j.GetString("name", "");
  WFMS_RETURN_NOT_OK(r.Validate());
  return r;
}

Result<TaskDag> LoadEntryDag(const ManifestEntry& entry) {
  if (!entry.is_import()) return GenerateDag(entry.recipe);
  std::ifstream in(entry.wfcommons_path);
  if (!in) {
    return Status::NotFound("cannot open WfCommons file '" +
                            entry.wfcommons_path + "'");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return ParseWfCommons(buffer.str());
}

EnvironmentResult EvaluateEntry(const ManifestEntry& entry,
                                const SweepOptions& options) {
  EnvironmentResult result;
  result.id = entry.id;
  result.pattern = entry.is_import() ? std::string("imported")
                                     : PatternName(entry.recipe.pattern);
  const auto started = std::chrono::steady_clock::now();
  const auto fail = [&](const Status& status) {
    result.error = status.ToString();
    result.solve_ms =
        MillisBetween(started, std::chrono::steady_clock::now());
    return result;
  };

  const Result<TaskDag> dag = LoadEntryDag(entry);
  if (!dag.ok()) return fail(dag.status());
  result.workflow = dag->name;
  result.tasks = dag->tasks.size();

  const Result<workflow::Environment> env = CompileDag(*dag);
  if (!env.ok()) return fail(env.status());
  result.server_types = env->servers.size();
  for (const std::string& name : env->charts.ChartNames()) {
    result.chart_states += (*env->charts.GetChart(name))->num_states();
  }

  performability::PerformabilityOptions popts;
  popts.availability.solver.lumping = options.lumping;
  popts.analysis.mapping.phase_type_composites =
      options.phase_type_composites;
  Result<configtool::ConfigurationTool> tool =
      configtool::ConfigurationTool::Create(*env, popts);
  if (!tool.ok()) return fail(tool.status());
  // One lane per environment: the sweep parallelizes across environments,
  // and a single-lane tool is the bit-deterministic reference mode.
  tool->set_num_threads(1);

  workflow::Configuration config =
      workflow::Configuration::Ones(env->servers.size());
  if (options.mode == SweepMode::kRecommend) {
    configtool::SearchConstraints constraints;
    constraints.max_replicas.assign(env->servers.size(),
                                    options.max_replicas);
    const Result<configtool::SearchResult> search =
        tool->GreedyMinCost(options.goals, constraints);
    if (!search.ok()) return fail(search.status());
    config = search->config;
    result.evaluations = search->evaluations;
  }

  const Result<configtool::Assessment> assessment =
      tool->Assess(config, options.goals);
  if (!assessment.ok()) return fail(assessment.status());
  if (!assessment->error.ok()) return fail(assessment->error);
  result.config = config.replicas;
  result.satisfied = assessment->Satisfies();
  result.max_expected_waiting =
      assessment->performability.max_expected_waiting;
  result.availability = assessment->performability.availability;
  result.cost = assessment->cost;

  // The performability report does not expose the lumping verdict, so ask
  // the availability model directly (cheap at corpus replica counts).
  const Result<avail::AvailabilityReport> avail_report =
      tool->model().availability().Evaluate(config);
  if (avail_report.ok()) {
    result.avail_states = avail_report->state_probabilities.size();
    result.lumping_applied = avail_report->lumping_applied;
    result.lumped_states = avail_report->lumped_states;
  }

  result.solve_ms = MillisBetween(started, std::chrono::steady_clock::now());
  return result;
}

}  // namespace

Manifest GenerateManifest(size_t count, uint64_t seed, size_t max_tasks) {
  Manifest manifest;
  manifest.seed = seed;
  Rng rng(seed);
  const double lo = 8.0;
  const double hi = static_cast<double>(max_tasks < 8 ? 8 : max_tasks);
  constexpr Pattern kPatterns[] = {Pattern::kChain, Pattern::kForkJoin,
                                   Pattern::kDiamondLadder,
                                   Pattern::kTreeReduce};
  constexpr double kScvs[] = {1.0, 4.0, 16.0};
  for (size_t i = 0; i < count; ++i) {
    ManifestEntry entry;
    entry.id = PadId(i);
    Recipe& r = entry.recipe;
    r.pattern = kPatterns[i % 4];
    const double frac =
        count > 1 ? static_cast<double>(i) / static_cast<double>(count - 1)
                  : 1.0;
    r.num_tasks = static_cast<size_t>(
        std::llround(lo * std::pow(hi / lo, frac)));
    // Masked to 53 bits so the seed survives the JSON double round-trip
    // exactly.
    r.seed = rng.Next() & ((uint64_t{1} << 53) - 1);
    r.service_dist =
        (i % 2 == 0) ? ServiceDist::kLognormal : ServiceDist::kPareto;
    r.service_scv = kScvs[i % 3];
    r.fan_out_min = 2;
    r.fan_out_max = 2 + i % 7;
    manifest.entries.push_back(std::move(entry));
  }
  return manifest;
}

std::string ManifestToJson(const Manifest& manifest) {
  Json entries = Json::Array();
  for (const ManifestEntry& entry : manifest.entries) {
    Json e = Json::Object();
    e.Set("id", Json::Str(entry.id));
    if (entry.is_import()) {
      e.Set("wfcommons", Json::Str(entry.wfcommons_path));
    } else {
      e.Set("recipe", RecipeToJson(entry.recipe));
    }
    entries.Append(std::move(e));
  }
  Json doc = Json::Object();
  doc.Set("seed", Json::Number(static_cast<double>(manifest.seed)))
      .Set("count",
           Json::Number(static_cast<double>(manifest.entries.size())))
      .Set("environments", std::move(entries));
  return doc.Dump();
}

Result<Manifest> ManifestFromJson(std::string_view text) {
  WFMS_ASSIGN_OR_RETURN(const Json doc, Json::Parse(text));
  if (!doc.is_object()) {
    return Status::ParseError("manifest must be a JSON object");
  }
  Manifest manifest;
  manifest.seed = static_cast<uint64_t>(doc.GetNumber("seed", 0.0));
  const Json* entries = doc.Find("environments");
  if (entries == nullptr || !entries->is_array() ||
      entries->items().empty()) {
    return Status::ParseError(
        "manifest 'environments' must be a non-empty array");
  }
  for (size_t i = 0; i < entries->items().size(); ++i) {
    const Json& e = entries->items()[i];
    if (!e.is_object()) {
      return Status::ParseError("manifest entry " + std::to_string(i) +
                                " is not an object");
    }
    ManifestEntry entry;
    entry.id = e.GetString("id", PadId(i));
    entry.wfcommons_path = e.GetString("wfcommons", "");
    const Json* recipe = e.Find("recipe");
    if (entry.is_import() == (recipe != nullptr)) {
      return Status::ParseError("manifest entry '" + entry.id +
                                "' needs exactly one of 'recipe' or "
                                "'wfcommons'");
    }
    if (recipe != nullptr) {
      WFMS_ASSIGN_OR_RETURN(entry.recipe,
                            RecipeFromJson(*recipe, entry.id));
    }
    manifest.entries.push_back(std::move(entry));
  }
  return manifest;
}

Result<SweepReport> RunSweep(const Manifest& manifest,
                             const SweepOptions& options) {
  if (manifest.entries.empty()) {
    return Status::InvalidArgument("manifest has no environments");
  }
  SweepReport report;
  report.seed = manifest.seed;
  report.mode = options.mode;
  report.results.resize(manifest.entries.size());

  const auto started = std::chrono::steady_clock::now();
  const size_t lanes = options.num_threads > 0
                           ? options.num_threads
                           : ThreadPool::DefaultThreadCount();
  ThreadPool pool(lanes);
  std::mutex progress_mutex;
  size_t done = 0;
  pool.ParallelFor(manifest.entries.size(), [&](size_t i) {
    EnvironmentResult result =
        EvaluateEntry(manifest.entries[i], options);
    {
      std::lock_guard<std::mutex> lock(progress_mutex);
      ++done;
      if (options.progress) {
        options.progress(result, done, manifest.entries.size());
      }
    }
    report.results[i] = std::move(result);
  });

  for (const EnvironmentResult& r : report.results) {
    if (!r.error.empty()) {
      ++report.error_count;
    } else if (r.satisfied) {
      ++report.satisfied_count;
    }
  }
  report.total_ms =
      MillisBetween(started, std::chrono::steady_clock::now());
  return report;
}

Json ReportToJson(const SweepReport& report, bool include_timings) {
  Json environments = Json::Array();
  for (const EnvironmentResult& r : report.results) {
    Json e = Json::Object();
    e.Set("id", Json::Str(r.id));
    if (!r.error.empty()) {
      e.Set("error", Json::Str(r.error));
      environments.Append(std::move(e));
      continue;
    }
    Json config = Json::Array();
    for (int y : r.config) {
      config.Append(Json::Number(static_cast<double>(y)));
    }
    e.Set("workflow", Json::Str(r.workflow))
        .Set("pattern", Json::Str(r.pattern))
        .Set("tasks", Json::Number(static_cast<double>(r.tasks)))
        .Set("chart_states",
             Json::Number(static_cast<double>(r.chart_states)))
        .Set("server_types",
             Json::Number(static_cast<double>(r.server_types)))
        .Set("avail_states",
             Json::Number(static_cast<double>(r.avail_states)))
        .Set("lumping_applied", Json::Bool(r.lumping_applied))
        .Set("lumped_states",
             Json::Number(static_cast<double>(r.lumped_states)))
        .Set("config", std::move(config))
        .Set("satisfied", Json::Bool(r.satisfied))
        .Set("max_expected_waiting", Json::Number(r.max_expected_waiting))
        .Set("availability", Json::Number(r.availability))
        .Set("cost", Json::Number(r.cost))
        .Set("evaluations",
             Json::Number(static_cast<double>(r.evaluations)));
    if (include_timings) e.Set("solve_ms", Json::Number(r.solve_ms));
    environments.Append(std::move(e));
  }
  Json summary = Json::Object();
  summary
      .Set("environments",
           Json::Number(static_cast<double>(report.results.size())))
      .Set("satisfied",
           Json::Number(static_cast<double>(report.satisfied_count)))
      .Set("errors", Json::Number(static_cast<double>(report.error_count)));
  if (include_timings) summary.Set("total_ms", Json::Number(report.total_ms));
  Json doc = Json::Object();
  doc.Set("report", Json::Str("corpus_sweep"))
      .Set("mode", Json::Str(report.mode == SweepMode::kRecommend
                                 ? "recommend"
                                 : "assess"))
      .Set("seed", Json::Number(static_cast<double>(report.seed)))
      .Set("environments", std::move(environments))
      .Set("summary", std::move(summary));
  return doc;
}

}  // namespace wfms::corpus
