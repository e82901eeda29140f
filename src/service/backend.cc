#include "service/backend.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "adapt/autotune.h"
#include "common/metrics.h"
#include "common/snapshot.h"
#include "common/trace.h"
#include "configtool/checkpoint.h"
#include "workflow/environment_io.h"
#include "workflow/scenarios.h"

namespace wfms::service {

namespace {

// Service-cache snapshot payload tags (top level; per-entry tags come
// from the checkpoint codec and live in disjoint ranges).
constexpr uint32_t kTagScenarioCount = 1;
constexpr uint32_t kTagEnvText = 2;
constexpr uint32_t kTagFingerprint = 3;
constexpr uint32_t kTagReportCount = 4;
constexpr uint32_t kTagFailureCount = 5;

// Degraded (level 1) searches get at most this much wall clock, however
// generous the request's own deadline is.
constexpr double kDegradedSearchBudgetSeconds = 2.0;
// Autotune horizon clamps: the daemon is an assessment service, not a
// batch simulation farm.
constexpr double kMaxAutotuneDuration = 50000.0;

metrics::Counter& CacheOnlyHitsTotal() {
  static metrics::Counter& counter = metrics::MetricsRegistry::Global()
      .GetCounter("wfms_service_cache_only_hits_total");
  return counter;
}

metrics::Counter& SnapshotWritesTotal() {
  static metrics::Counter& counter = metrics::MetricsRegistry::Global()
      .GetCounter("wfms_service_snapshot_writes_total");
  return counter;
}

metrics::Counter& SnapshotLoadsTotal() {
  static metrics::Counter& counter = metrics::MetricsRegistry::Global()
      .GetCounter("wfms_service_snapshot_loads_total");
  return counter;
}

Response ErrorResponse(const Request& req, Status cause) {
  Response resp;
  resp.id = req.id;
  resp.disposition = Disposition::kError;
  resp.error = cause.ToString();
  return resp;
}

Response ShedResponse(const Request& req, std::string reason) {
  Response resp;
  resp.id = req.id;
  resp.disposition = Disposition::kRejectedOverloaded;
  resp.error = std::move(reason);
  return resp;
}

Response DeadlineResponse(const Request& req, std::string detail) {
  Response resp;
  resp.id = req.id;
  resp.disposition = Disposition::kDeadlineExceeded;
  resp.error = std::move(detail);
  return resp;
}

configtool::Goals GoalsOf(const Request& req) {
  configtool::Goals goals;
  goals.max_waiting_time = req.max_wait;
  goals.min_availability = req.min_avail;
  goals.survive_sites = req.survive_sites;
  goals.survive_partitions = req.survive_partitions;
  goals.degraded_max_waiting_time = req.degraded_max_wait;
  goals.degraded_min_availability = req.degraded_min_avail;
  return goals;
}

Json VectorJson(const std::vector<double>& values) {
  Json array = Json::Array();
  for (double v : values) array.Append(Json::Number(v));
  return array;
}

Json ReplicasJson(const std::vector<int>& replicas) {
  Json array = Json::Array();
  for (int r : replicas) array.Append(Json::Number(r));
  return array;
}

/// Per-contingency survivability verdicts (multi-site assessments with
/// survive goals only).
Json ContingenciesJson(const configtool::Assessment& assessment) {
  Json table = Json::Array();
  for (const configtool::ContingencyAssessment& c :
       assessment.contingencies) {
    Json entry = Json::Object();
    entry.Set("contingency", Json::Str(c.label));
    entry.Set("availability", Json::Number(c.availability));
    entry.Set("max_waiting", Json::Number(c.max_expected_waiting));
    entry.Set("satisfied", Json::Bool(c.satisfied));
    table.Append(std::move(entry));
  }
  return table;
}

/// The deterministic assess payload: pure solver output, no wall-clock,
/// no cache accounting.
Json AssessmentJson(const configtool::Assessment& assessment) {
  Json result = Json::Object();
  result.Set("config", ReplicasJson(assessment.config.replicas));
  result.Set("cost", Json::Number(assessment.cost));
  result.Set("satisfies", Json::Bool(assessment.Satisfies()));
  result.Set("availability",
             Json::Number(assessment.performability.availability));
  result.Set("max_waiting",
             Json::Number(assessment.performability.max_expected_waiting));
  result.Set("expected_waiting",
             VectorJson(assessment.performability.expected_waiting));
  result.Set("prob_saturated",
             Json::Number(assessment.performability.prob_saturated));
  result.Set("prob_degraded",
             Json::Number(assessment.performability.prob_degraded));
  result.Set("meets_waiting_goal", Json::Bool(assessment.meets_waiting_goal));
  result.Set("meets_availability_goal",
             Json::Bool(assessment.meets_availability_goal));
  if (assessment.config.has_sites()) {
    result.Set("site_config", ReplicasJson(assessment.config.site_counts));
  }
  if (!assessment.contingencies.empty()) {
    result.Set("contingencies", ContingenciesJson(assessment));
    result.Set("meets_survivability_goal",
               Json::Bool(assessment.meets_survivability_goal));
  }
  return result;
}

}  // namespace

struct Backend::ScenarioState {
  std::unique_ptr<workflow::Environment> env;
  std::string env_text;  // canonical serialized form (the map key)
  uint64_t fingerprint = 0;
  std::unique_ptr<configtool::ConfigurationTool> tool;
};

uint64_t ServiceFingerprint(
    const workflow::Environment& env,
    const performability::PerformabilityOptions& options) {
  // Everything that changes what a cached report means. Same TLV-then-FNV
  // scheme as configtool::SearchFingerprint, but over solver options
  // instead of search inputs: the service cache is goal-independent (the
  // memoized report is; goals are applied per request).
  SnapshotWriter w;
  w.Str(1, workflow::SerializeEnvironment(env));
  const markov::SteadyStateOptions& solver = options.availability.solver;
  w.U32(2, static_cast<uint32_t>(solver.method));
  w.I64(3, solver.max_iterations);
  w.F64(4, solver.tolerance);
  w.F64(5, solver.sor_omega);
  w.U64(6, solver.max_dense_states);
  w.U32(7, static_cast<uint32_t>(solver.lumping));
  w.U64(8, solver.lumping_min_states);
  w.U32(9, static_cast<uint32_t>(options.saturation_policy));
  w.F64(10, options.penalty_waiting_time);
  return Fnv1a64(w.payload());
}

Backend::Backend(const BackendOptions& options) : options_(options) {}
Backend::~Backend() = default;

Result<Backend::ScenarioState*> Backend::GetScenario(
    const std::string& scenario) {
  std::lock_guard<std::mutex> lock(mutex_);
  // Fast path: this exact request string resolved before (builtin name,
  // canonical text, or previously seen inline text).
  if (auto alias = aliases_.find(scenario); alias != aliases_.end()) {
    return scenarios_.at(alias->second).get();
  }

  Result<workflow::Environment> parsed = [&]() {
    if (scenario == "ep") return workflow::EpEnvironment();
    if (scenario == "geo") return workflow::GeoEpEnvironment();
    if (scenario == "benchmark") return workflow::BenchmarkEnvironment();
    return workflow::ParseEnvironment(scenario);
  }();
  if (!parsed.ok()) {
    return parsed.status().WithContext("resolving scenario");
  }

  auto state = std::make_unique<ScenarioState>();
  state->env = std::make_unique<workflow::Environment>(*std::move(parsed));
  state->env_text = workflow::SerializeEnvironment(*state->env);

  // States are keyed by the canonical serialization, so two request
  // strings naming the same environment (a builtin name and its exported
  // text, say) share one tool — and one cache.
  auto it = scenarios_.find(state->env_text);
  if (it == scenarios_.end()) {
    state->fingerprint =
        ServiceFingerprint(*state->env, options_.tool_options);
    WFMS_ASSIGN_OR_RETURN(
        configtool::ConfigurationTool tool,
        configtool::ConfigurationTool::Create(*state->env,
                                              options_.tool_options));
    state->tool =
        std::make_unique<configtool::ConfigurationTool>(std::move(tool));
    // Single-lane tools: request-level parallelism comes from the server's
    // worker pool; inline assessment keeps each request deterministic and
    // makes the degradation ladder's queue depth meaningful.
    state->tool->set_num_threads(1);
    state->tool->set_cache_limits(options_.cache_limits);
    const std::string key = state->env_text;
    it = scenarios_.emplace(key, std::move(state)).first;
  }
  aliases_.emplace(scenario, it->first);
  return it->second.get();
}

Response Backend::Handle(const Request& req, int degrade_level,
                         std::chrono::steady_clock::time_point admitted_at,
                         RequestTelemetry* telemetry) {
  const auto start = std::chrono::steady_clock::now();
  // The request's trace context rides the telemetry struct (explicitly —
  // never a thread-local — so pool workers cannot mix contexts).
  std::string span_name = "service/";
  span_name += OpName(req.op);
  trace::TraceSpan span(span_name, "service",
                        telemetry != nullptr ? telemetry->context
                                             : trace::TraceContext{});
  const trace::TraceContext handler_ctx = span.context();
  const auto phase_seconds = [](std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
  };

  Response resp = [&]() -> Response {
    if (req.op == Op::kPing) {
      Response pong;
      pong.id = req.id;
      Json result = Json::Object();
      result.Set("pong", Json::Bool(true));
      pong.result = std::move(result);
      return pong;
    }

    double deadline_seconds = req.deadline_seconds > 0.0
                                  ? req.deadline_seconds
                                  : options_.default_deadline_seconds;
    const bool has_deadline = deadline_seconds > 0.0;
    const auto deadline_point =
        admitted_at + std::chrono::duration_cast<
                          std::chrono::steady_clock::duration>(
                          std::chrono::duration<double>(
                              has_deadline ? deadline_seconds : 0.0));
    double remaining = std::numeric_limits<double>::infinity();
    if (has_deadline) {
      remaining = std::chrono::duration<double>(deadline_point - start)
                      .count();
      if (remaining <= 0.0) {
        // Expired while queued: answer immediately instead of burning a
        // solve on a request nobody is waiting for.
        return DeadlineResponse(
            req, "deadline of " + std::to_string(deadline_seconds) +
                     "s expired in queue");
      }
    }

    const auto resolve_start = std::chrono::steady_clock::now();
    auto scenario = GetScenario(req.scenario);
    if (telemetry != nullptr) {
      telemetry->phases.emplace_back("resolve_scenario",
                                     phase_seconds(resolve_start));
    }
    if (!scenario.ok()) return ErrorResponse(req, scenario.status());
    ScenarioState& state = **scenario;

    const auto execute_start = std::chrono::steady_clock::now();
    Response out = [&]() -> Response {
      switch (req.op) {
        case Op::kAssess:
          return HandleAssess(req, state, degrade_level, remaining,
                              handler_ctx, telemetry);
        case Op::kRecommend:
          return HandleRecommend(req, state, degrade_level, remaining,
                                 handler_ctx, telemetry);
        case Op::kAutotune:
          return HandleAutotune(req, state, degrade_level, remaining,
                                handler_ctx, telemetry);
        case Op::kPing:
          break;  // handled above
      }
      return ErrorResponse(req, Status::Internal("unhandled op"));
    }();
    if (telemetry != nullptr) {
      telemetry->phases.emplace_back("execute",
                                     phase_seconds(execute_start));
    }

    // Uniform deadline enforcement: a request that overshot its deadline
    // reports deadline-exceeded no matter which op or rung it took. The
    // (deterministic) result is dropped — a half-time answer under a
    // violated deadline would be misleading.
    if (has_deadline && out.disposition == Disposition::kCompleted &&
        std::chrono::steady_clock::now() > deadline_point) {
      return DeadlineResponse(
          req, "deadline of " + std::to_string(deadline_seconds) +
                   "s exceeded while solving");
    }
    return out;
  }();

  resp.id = req.id;
  resp.elapsed_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return resp;
}

Response Backend::HandleAssess(const Request& req, ScenarioState& state,
                               int degrade_level, double remaining_seconds,
                               const trace::TraceContext& trace,
                               RequestTelemetry* telemetry) {
  workflow::Configuration config;
  if (!req.site_config.empty()) {
    const size_t num_sites = state.env->topology.num_sites();
    if (num_sites == 0) {
      return ErrorResponse(
          req, Status::InvalidArgument(
                   "'site_config' requires a scenario with a sites section"));
    }
    config =
        workflow::Configuration::FromSiteCounts(req.site_config, num_sites);
    if (Status valid =
            config.ValidateSites(state.env->num_server_types(), num_sites);
        !valid.ok()) {
      return ErrorResponse(req, valid.WithContext("bad 'site_config'"));
    }
  } else {
    config.replicas = req.config;
    if (Status valid = config.Validate(state.env->num_server_types());
        !valid.ok()) {
      return ErrorResponse(req, valid.WithContext("bad 'config'"));
    }
  }

  const bool was_cached = state.tool->HasCachedAssessment(config.CacheKey());
  if (telemetry != nullptr) telemetry->cache_hit = was_cached;
  if (degrade_level >= 2 && !was_cached) {
    // Cache-only rung: answers come from the memoization cache alone; a
    // miss is shed rather than starting a solve under heavy load.
    return ShedResponse(req,
                        "cache-only degraded mode and this configuration "
                        "is not cached");
  }

  configtool::AssessOptions assess_options;
  if (std::isfinite(remaining_seconds)) {
    assess_options.deadline_seconds = remaining_seconds;
  }
  assess_options.trace = trace;
  Result<configtool::Assessment> assessed = state.tool->Assess(
      config, GoalsOf(req), configtool::CostModel::Uniform(), assess_options);
  if (!assessed.ok()) return ErrorResponse(req, assessed.status());
  if (telemetry != nullptr && !was_cached) {
    telemetry->solver_rungs = assessed->performability.solver_rungs;
  }
  if (!assessed->error.ok()) {
    if (assessed->error.code() == StatusCode::kDeadlineExceeded) {
      return DeadlineResponse(req, assessed->error.ToString());
    }
    return ErrorResponse(req, assessed->error);
  }

  Response resp;
  resp.id = req.id;
  resp.result = AssessmentJson(*assessed);
  if (degrade_level >= 2) {
    CacheOnlyHitsTotal().Increment();
    resp.disposition = Disposition::kDegraded;
    resp.degrade_reason = "cache-only";
  } else if (degrade_level == 1) {
    // Assess is already a single bounded solve; level 1 only labels the
    // response so clients see the server is shedding fidelity elsewhere.
    resp.disposition = Disposition::kDegraded;
    resp.degrade_reason = "degraded load level 1";
  }
  return resp;
}

Response Backend::HandleRecommend(const Request& req, ScenarioState& state,
                                  int degrade_level,
                                  double remaining_seconds,
                                  const trace::TraceContext& trace,
                                  RequestTelemetry* telemetry) {
  if (degrade_level >= 2) {
    return ShedResponse(req, "recommend shed in cache-only degraded mode");
  }

  // Parse before the downgrade below, so a bad name is an error at every
  // load level.
  Result<configtool::SearchMethod> method =
      configtool::ParseSearchMethod(req.method);
  if (!method.ok()) return ErrorResponse(req, method.status());
  std::string degrade_reason;
  if (degrade_level >= 1) {
    // greedy-site is already the cheapest multi-site strategy (and the
    // classic greedy cannot place sites), so it is not downgraded.
    if (*method != configtool::SearchMethod::kGreedy &&
        *method != configtool::SearchMethod::kGreedySite) {
      degrade_reason = std::string("strategy downgraded ") +
                       configtool::SearchMethodName(*method) + " -> greedy";
      method = configtool::SearchMethod::kGreedy;
    }
    if (!(remaining_seconds < kDegradedSearchBudgetSeconds)) {
      remaining_seconds = kDegradedSearchBudgetSeconds;
      degrade_reason += degrade_reason.empty() ? "" : "; ";
      degrade_reason += "search budget tightened to " +
                        std::to_string(kDegradedSearchBudgetSeconds) + "s";
    }
  }

  configtool::SearchConstraints constraints;
  constraints.max_replicas.assign(state.env->num_server_types(),
                                  std::max(1, req.max_replicas));
  configtool::SearchOptions search;
  search.trace = trace;
  if (std::isfinite(remaining_seconds)) {
    search.deadline_seconds = remaining_seconds;
  }
  configtool::SiteSearchConstraints site_constraints;
  site_constraints.max_per_type = std::max(1, req.max_replicas);

  Result<configtool::SearchResult> result = configtool::RunSearch(
      *state.tool, *method, GoalsOf(req), constraints, site_constraints,
      configtool::CostModel::Uniform(), search);
  if (!result.ok()) return ErrorResponse(req, result.status());
  if (result->termination.code() == StatusCode::kDeadlineExceeded) {
    return DeadlineResponse(req, result->termination.ToString());
  }
  if (!result->termination.ok()) {
    return ErrorResponse(req, result->termination);
  }
  if (telemetry != nullptr) {
    // The winner's solve cost stands in for the whole search (per-candidate
    // rungs live in the trace, not the flight record).
    telemetry->solver_rungs = result->assessment.performability.solver_rungs;
  }

  Response resp;
  resp.id = req.id;
  Json payload = Json::Object();
  payload.Set("config", ReplicasJson(result->config.replicas));
  if (result->config.has_sites()) {
    payload.Set("site_config", ReplicasJson(result->config.site_counts));
  }
  payload.Set("cost", Json::Number(result->cost));
  payload.Set("satisfied", Json::Bool(result->satisfied));
  payload.Set("method", Json::Str(configtool::SearchMethodName(*method)));
  payload.Set("evaluations", Json::Number(result->evaluations));
  payload.Set("failed_candidates",
              Json::Number(static_cast<double>(
                  result->failed_candidates.size())));
  if (result->assessment.error.ok() &&
      !result->assessment.performability.expected_waiting.empty()) {
    payload.Set("availability",
                Json::Number(result->assessment.performability.availability));
    payload.Set(
        "max_waiting",
        Json::Number(result->assessment.performability.max_expected_waiting));
  }
  if (!result->assessment.contingencies.empty()) {
    payload.Set("contingencies", ContingenciesJson(result->assessment));
    payload.Set(
        "meets_survivability_goal",
        Json::Bool(result->assessment.meets_survivability_goal));
  }
  resp.result = std::move(payload);
  if (!degrade_reason.empty()) {
    resp.disposition = Disposition::kDegraded;
    resp.degrade_reason = degrade_reason;
  }
  return resp;
}

Response Backend::HandleAutotune(const Request& req, ScenarioState& state,
                                 int degrade_level,
                                 double remaining_seconds,
                                 const trace::TraceContext& trace,
                                 RequestTelemetry* telemetry) {
  (void)telemetry;  // autotune's cost shows up in its trace spans
  if (degrade_level >= 1) {
    // Autotune simulates whole control horizons — the most expensive op
    // by far. It is the first thing the ladder sheds.
    return ShedResponse(req, "autotune shed under degraded load");
  }

  adapt::AutotuneOptions options;
  options.trace = trace;
  if (!req.config.empty()) {
    options.initial.replicas = req.config;
    if (Status valid =
            options.initial.Validate(state.env->num_server_types());
        !valid.ok()) {
      return ErrorResponse(req, valid.WithContext("bad 'config'"));
    }
  } else {
    options.initial =
        workflow::Configuration::Ones(state.env->num_server_types());
  }
  options.duration =
      std::clamp(req.duration, 100.0, kMaxAutotuneDuration);
  options.epoch = std::clamp(req.epoch, 100.0, options.duration);
  options.controller.goals = GoalsOf(req);
  options.controller.constraints.max_replicas.assign(
      state.env->num_server_types(), std::max(1, req.max_replicas));
  options.controller.max_turnaround = req.max_turnaround;
  auto method = configtool::ParseSearchMethod(req.method);
  if (!method.ok()) return ErrorResponse(req, method.status());
  options.controller.method = *method;
  if (std::isfinite(remaining_seconds)) {
    options.controller.search_deadline_seconds = remaining_seconds;
  }

  auto report = adapt::RunAutotune(*state.env, options);
  if (!report.ok()) return ErrorResponse(req, report.status());

  Response resp;
  resp.id = req.id;
  Json payload = Json::Object();
  payload.Set("final_config", ReplicasJson(report->final_config.replicas));
  payload.Set("reconfigurations", Json::Number(report->reconfigurations));
  payload.Set("epochs",
              Json::Number(static_cast<double>(report->epochs.size())));
  payload.Set("events_total",
              Json::Number(static_cast<double>(report->events_total)));
  resp.result = std::move(payload);
  return resp;
}

Status Backend::SaveCacheSnapshot() const {
  if (options_.snapshot_path.empty()) return Status::OK();
  trace::TraceSpan span("service/snapshot_write", "service");

  // Stable iteration order (map key = scenario string / env text) keeps
  // the snapshot deterministic for a deterministic request history.
  std::vector<ScenarioState*> states;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    states.reserve(scenarios_.size());
    for (const auto& [key, state] : scenarios_) {
      if (state != nullptr && state->tool != nullptr) {
        states.push_back(state.get());
      }
    }
  }

  SnapshotWriter w;
  w.U64(kTagScenarioCount, states.size());
  for (ScenarioState* state : states) {
    const configtool::ConfigurationTool::CacheDump dump =
        state->tool->DumpAssessmentCache();
    w.Str(kTagEnvText, state->env_text);
    w.U64(kTagFingerprint, state->fingerprint);
    w.U64(kTagReportCount, dump.reports.size());
    for (const auto& [replicas, report] : dump.reports) {
      configtool::EncodeCachedReport(&w, replicas, report);
    }
    w.U64(kTagFailureCount, dump.failures.size());
    for (const auto& [replicas, failure] : dump.failures) {
      configtool::EncodeCachedFailure(&w, replicas, failure);
    }
  }
  Status written = WriteSnapshotFile(options_.snapshot_path,
                                     SnapshotKind::kServiceCache, w.payload())
                       .WithContext("writing service cache snapshot");
  if (written.ok()) SnapshotWritesTotal().Increment();
  return written;
}

Result<Backend::SnapshotLoadStats> Backend::LoadCacheSnapshot() {
  SnapshotLoadStats stats;
  if (options_.snapshot_path.empty()) return stats;
  auto payload =
      ReadSnapshotFile(options_.snapshot_path, SnapshotKind::kServiceCache);
  if (payload.status().code() == StatusCode::kNotFound) {
    return stats;  // first boot: cold start, not an error
  }
  WFMS_RETURN_NOT_OK(payload.status());

  SnapshotReader r(*payload);
  WFMS_ASSIGN_OR_RETURN(uint64_t scenario_count, r.U64(kTagScenarioCount));
  for (uint64_t s = 0; s < scenario_count; ++s) {
    WFMS_ASSIGN_OR_RETURN(std::string env_text, r.Str(kTagEnvText));
    WFMS_ASSIGN_OR_RETURN(uint64_t stored_fingerprint,
                          r.U64(kTagFingerprint));

    // Decode the entry's cache unconditionally (the reader is positional)
    // and decide afterwards whether it may be used.
    configtool::ConfigurationTool::CacheDump dump;
    WFMS_ASSIGN_OR_RETURN(uint64_t report_count, r.U64(kTagReportCount));
    dump.reports.reserve(report_count);
    for (uint64_t i = 0; i < report_count; ++i) {
      WFMS_ASSIGN_OR_RETURN(auto entry, configtool::DecodeCachedReport(&r));
      dump.reports.push_back(std::move(entry));
    }
    WFMS_ASSIGN_OR_RETURN(uint64_t failure_count, r.U64(kTagFailureCount));
    dump.failures.reserve(failure_count);
    for (uint64_t i = 0; i < failure_count; ++i) {
      WFMS_ASSIGN_OR_RETURN(auto entry, configtool::DecodeCachedFailure(&r));
      dump.failures.push_back(std::move(entry));
    }

    auto parsed = workflow::ParseEnvironment(env_text);
    if (!parsed.ok()) {
      stats.rejected.push_back(
          "snapshot scenario " + std::to_string(s) +
          " rejected: " + parsed.status().ToString());
      continue;
    }
    const uint64_t current_fingerprint =
        ServiceFingerprint(*parsed, options_.tool_options);
    if (current_fingerprint != stored_fingerprint) {
      // Clean staleness error: the snapshot was taken under different
      // solver options (or an incompatible environment encoding). The
      // scenario starts cold instead of mixing in reports that no longer
      // mean the same thing.
      stats.rejected.push_back(
          "snapshot scenario " + std::to_string(s) +
          " rejected: fingerprint mismatch (snapshot " +
          std::to_string(stored_fingerprint) + ", current " +
          std::to_string(current_fingerprint) +
          ") — taken under different solver options; starting cold");
      continue;
    }

    WFMS_ASSIGN_OR_RETURN(ScenarioState * state, GetScenario(env_text));
    state->tool->RestoreAssessmentCache(dump);
    ++stats.scenarios;
    stats.reports += dump.reports.size();
    stats.failures += dump.failures.size();
  }
  if (!r.AtEnd()) {
    return Status::ParseError("service cache snapshot has trailing bytes");
  }
  SnapshotLoadsTotal().Increment();
  return stats;
}

size_t Backend::TotalCachedReports() const {
  std::lock_guard<std::mutex> lock(mutex_);
  size_t total = 0;
  for (const auto& [key, state] : scenarios_) {
    if (state != nullptr && state->tool != nullptr) {
      total += state->tool->cache_stats().entries;
    }
  }
  return total;
}

}  // namespace wfms::service
