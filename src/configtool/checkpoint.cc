#include "configtool/checkpoint.h"

#include <chrono>
#include <utility>

#include "common/metrics.h"
#include "common/snapshot.h"
#include "common/trace.h"
#include "workflow/environment_io.h"

namespace wfms::configtool {

namespace {

// Top-level payload tags.
constexpr uint32_t kTagFingerprint = 1;
constexpr uint32_t kTagStrategy = 2;
constexpr uint32_t kTagEvaluations = 3;
constexpr uint32_t kTagHaveBest = 4;
constexpr uint32_t kTagBestReplicas = 5;
constexpr uint32_t kTagBestCost = 6;
constexpr uint32_t kTagBestSatisfied = 7;
constexpr uint32_t kTagReportCount = 8;
constexpr uint32_t kTagFailureCount = 9;
// Per memoized report.
constexpr uint32_t kTagReplicas = 10;
constexpr uint32_t kTagExpectedWaiting = 11;
constexpr uint32_t kTagMaxExpectedWaiting = 12;
constexpr uint32_t kTagFullConfigWaiting = 13;
constexpr uint32_t kTagProbDown = 14;
constexpr uint32_t kTagProbSaturated = 15;
constexpr uint32_t kTagProbDegraded = 16;
constexpr uint32_t kTagAvailability = 17;
constexpr uint32_t kTagAvailStateProbabilities = 18;
constexpr uint32_t kTagSolverIterations = 19;
constexpr uint32_t kTagSolverMethod = 20;
constexpr uint32_t kTagDiagFlags = 21;
constexpr uint32_t kTagDiagIterations = 22;
constexpr uint32_t kTagDiagResidual = 23;
constexpr uint32_t kTagDiagWallTime = 24;
// Per negatively cached failure.
constexpr uint32_t kTagFailureReplicas = 30;
constexpr uint32_t kTagFailureCode = 31;
constexpr uint32_t kTagFailureMessage = 32;
constexpr uint32_t kTagFailureFlags = 33;

void WriteReport(SnapshotWriter* w, const std::vector<int>& replicas,
                 const performability::PerformabilityReport& report) {
  w->VecI32(kTagReplicas, replicas);
  w->VecF64(kTagExpectedWaiting, report.expected_waiting);
  w->F64(kTagMaxExpectedWaiting, report.max_expected_waiting);
  w->VecF64(kTagFullConfigWaiting, report.full_config_waiting);
  w->F64(kTagProbDown, report.prob_down);
  w->F64(kTagProbSaturated, report.prob_saturated);
  w->F64(kTagProbDegraded, report.prob_degraded);
  w->F64(kTagAvailability, report.availability);
  w->VecF64(kTagAvailStateProbabilities, report.avail_state_probabilities);
  w->I64(kTagSolverIterations, report.solver_iterations);
  w->U32(kTagSolverMethod,
         static_cast<uint32_t>(report.avail_solver_method));
  const SolveDiagnostics& diag = report.avail_solver_diagnostics;
  w->U32(kTagDiagFlags, (diag.converged ? 1u : 0u) |
                            (diag.diverged ? 2u : 0u) |
                            (diag.stalled ? 4u : 0u));
  w->I64(kTagDiagIterations, diag.iterations);
  w->F64(kTagDiagResidual, diag.final_residual);
  w->F64(kTagDiagWallTime, diag.wall_time_seconds);
}

Result<std::pair<std::vector<int>, performability::PerformabilityReport>>
ReadReport(SnapshotReader* r) {
  std::pair<std::vector<int>, performability::PerformabilityReport> entry;
  performability::PerformabilityReport& report = entry.second;
  WFMS_ASSIGN_OR_RETURN(entry.first, r->VecI32(kTagReplicas));
  WFMS_ASSIGN_OR_RETURN(report.expected_waiting,
                        r->VecF64(kTagExpectedWaiting));
  WFMS_ASSIGN_OR_RETURN(report.max_expected_waiting,
                        r->F64(kTagMaxExpectedWaiting));
  WFMS_ASSIGN_OR_RETURN(report.full_config_waiting,
                        r->VecF64(kTagFullConfigWaiting));
  WFMS_ASSIGN_OR_RETURN(report.prob_down, r->F64(kTagProbDown));
  WFMS_ASSIGN_OR_RETURN(report.prob_saturated, r->F64(kTagProbSaturated));
  WFMS_ASSIGN_OR_RETURN(report.prob_degraded, r->F64(kTagProbDegraded));
  WFMS_ASSIGN_OR_RETURN(report.availability, r->F64(kTagAvailability));
  WFMS_ASSIGN_OR_RETURN(report.avail_state_probabilities,
                        r->VecF64(kTagAvailStateProbabilities));
  WFMS_ASSIGN_OR_RETURN(int64_t solver_iterations,
                        r->I64(kTagSolverIterations));
  report.solver_iterations = static_cast<int>(solver_iterations);
  WFMS_ASSIGN_OR_RETURN(uint32_t method, r->U32(kTagSolverMethod));
  report.avail_solver_method =
      static_cast<markov::SteadyStateMethod>(method);
  SolveDiagnostics& diag = report.avail_solver_diagnostics;
  WFMS_ASSIGN_OR_RETURN(uint32_t flags, r->U32(kTagDiagFlags));
  diag.converged = (flags & 1u) != 0;
  diag.diverged = (flags & 2u) != 0;
  diag.stalled = (flags & 4u) != 0;
  WFMS_ASSIGN_OR_RETURN(int64_t diag_iterations, r->I64(kTagDiagIterations));
  diag.iterations = static_cast<int>(diag_iterations);
  WFMS_ASSIGN_OR_RETURN(diag.final_residual, r->F64(kTagDiagResidual));
  WFMS_ASSIGN_OR_RETURN(diag.wall_time_seconds, r->F64(kTagDiagWallTime));
  return entry;
}

}  // namespace

void EncodeCachedReport(SnapshotWriter* w, const std::vector<int>& replicas,
                        const performability::PerformabilityReport& report) {
  WriteReport(w, replicas, report);
}

Result<std::pair<std::vector<int>, performability::PerformabilityReport>>
DecodeCachedReport(SnapshotReader* r) {
  return ReadReport(r);
}

void EncodeCachedFailure(SnapshotWriter* w, const std::vector<int>& replicas,
                         const ConfigurationTool::CachedFailure& failure) {
  w->VecI32(kTagFailureReplicas, replicas);
  w->U32(kTagFailureCode, static_cast<uint32_t>(failure.error.code()));
  w->Str(kTagFailureMessage, failure.error.message());
  w->U32(kTagFailureFlags, (failure.numerical ? 1u : 0u) |
                               (failure.retried_exact ? 2u : 0u));
}

Result<std::pair<std::vector<int>, ConfigurationTool::CachedFailure>>
DecodeCachedFailure(SnapshotReader* r) {
  std::pair<std::vector<int>, ConfigurationTool::CachedFailure> entry;
  WFMS_ASSIGN_OR_RETURN(entry.first, r->VecI32(kTagFailureReplicas));
  WFMS_ASSIGN_OR_RETURN(uint32_t code, r->U32(kTagFailureCode));
  WFMS_ASSIGN_OR_RETURN(std::string message, r->Str(kTagFailureMessage));
  entry.second.error =
      Status(static_cast<StatusCode>(code), std::move(message));
  WFMS_ASSIGN_OR_RETURN(uint32_t flags, r->U32(kTagFailureFlags));
  entry.second.numerical = (flags & 1u) != 0;
  entry.second.retried_exact = (flags & 2u) != 0;
  return entry;
}

uint64_t SearchFingerprint(const workflow::Environment& env,
                           const Goals& goals,
                           const SearchConstraints& constraints,
                           const CostModel& cost, std::string_view strategy) {
  // Canonical encoding via the same TLV codec the payload uses: every
  // input that changes what a cached report means (or which candidates a
  // search visits) lands in the hash, bit-exactly for doubles.
  SnapshotWriter w;
  w.Str(1, workflow::SerializeEnvironment(env));
  w.F64(2, goals.max_waiting_time);
  w.F64(3, goals.min_availability);
  w.VecF64(4, goals.per_type_max_waiting);
  w.F64(5, goals.max_saturation_probability);
  for (const auto& [workflow_type, bound] : goals.max_instance_delay) {
    w.Str(6, workflow_type);
    w.F64(7, bound);
  }
  w.VecI32(8, constraints.min_replicas);
  w.VecI32(9, constraints.max_replicas);
  w.VecF64(10, cost.per_server_cost);
  w.Str(11, strategy);
  return Fnv1a64(w.payload());
}

Status WriteSearchCheckpoint(const std::string& path,
                             const ConfigurationTool& tool,
                             uint64_t fingerprint, std::string_view strategy,
                             const SearchResult* best_so_far) {
  auto& registry = metrics::MetricsRegistry::Global();
  static metrics::Counter& writes =
      registry.GetCounter("wfms_configtool_checkpoint_writes_total");
  static metrics::Histogram& write_seconds =
      registry.GetHistogram("wfms_configtool_checkpoint_write_seconds");
  writes.Increment();
  trace::TraceSpan span("configtool/checkpoint_write", "configtool");
  const auto start = std::chrono::steady_clock::now();
  const auto observe = [&start]() {
    write_seconds.Observe(
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count());
  };

  const ConfigurationTool::CacheDump dump = tool.DumpAssessmentCache();
  SnapshotWriter w;
  w.U64(kTagFingerprint, fingerprint);
  w.Str(kTagStrategy, strategy);
  w.I64(kTagEvaluations,
        best_so_far != nullptr ? best_so_far->evaluations : 0);
  w.U32(kTagHaveBest, best_so_far != nullptr ? 1u : 0u);
  if (best_so_far != nullptr) {
    w.VecI32(kTagBestReplicas, best_so_far->config.replicas);
    w.F64(kTagBestCost, best_so_far->cost);
    w.U32(kTagBestSatisfied, best_so_far->satisfied ? 1u : 0u);
  }
  w.U64(kTagReportCount, dump.reports.size());
  for (const auto& [replicas, report] : dump.reports) {
    WriteReport(&w, replicas, report);
  }
  w.U64(kTagFailureCount, dump.failures.size());
  for (const auto& [replicas, failure] : dump.failures) {
    w.VecI32(kTagFailureReplicas, replicas);
    w.U32(kTagFailureCode, static_cast<uint32_t>(failure.error.code()));
    w.Str(kTagFailureMessage, failure.error.message());
    w.U32(kTagFailureFlags, (failure.numerical ? 1u : 0u) |
                                (failure.retried_exact ? 2u : 0u));
  }
  Status status = WriteSnapshotFile(path, SnapshotKind::kSearchCheckpoint,
                                    w.payload())
                      .WithContext("writing search checkpoint");
  observe();
  return status;
}

Result<CheckpointMetadata> ResumeSearchFrom(const ConfigurationTool& tool,
                                            const std::string& path,
                                            uint64_t fingerprint,
                                            std::string_view strategy) {
  WFMS_ASSIGN_OR_RETURN(
      const std::string payload,
      ReadSnapshotFile(path, SnapshotKind::kSearchCheckpoint));
  SnapshotReader r(payload);
  CheckpointMetadata meta;
  WFMS_ASSIGN_OR_RETURN(meta.fingerprint, r.U64(kTagFingerprint));
  WFMS_ASSIGN_OR_RETURN(meta.strategy, r.Str(kTagStrategy));
  WFMS_ASSIGN_OR_RETURN(meta.evaluations, r.I64(kTagEvaluations));
  WFMS_ASSIGN_OR_RETURN(uint32_t have_best, r.U32(kTagHaveBest));
  meta.have_best = have_best != 0;
  if (meta.have_best) {
    WFMS_ASSIGN_OR_RETURN(meta.best_config.replicas,
                          r.VecI32(kTagBestReplicas));
    WFMS_ASSIGN_OR_RETURN(meta.best_cost, r.F64(kTagBestCost));
    WFMS_ASSIGN_OR_RETURN(uint32_t satisfied, r.U32(kTagBestSatisfied));
    meta.best_satisfied = satisfied != 0;
  }

  // Freshness first, cache parsing second: a stale checkpoint is rejected
  // before any of its contents are interpreted.
  if (meta.strategy != strategy) {
    return Status::FailedPrecondition(
        "stale checkpoint '" + path + "': taken by the '" + meta.strategy +
        "' search, resuming '" + std::string(strategy) + "'");
  }
  if (meta.fingerprint != fingerprint) {
    return Status::FailedPrecondition(
        "stale checkpoint '" + path +
        "': environment/goals/options hash mismatch (checkpoint " +
        std::to_string(meta.fingerprint) + ", current " +
        std::to_string(fingerprint) +
        ") — it was taken under a different scenario, goal set, cost "
        "model, or constraint box and cannot be mixed in");
  }

  ConfigurationTool::CacheDump dump;
  WFMS_ASSIGN_OR_RETURN(uint64_t report_count, r.U64(kTagReportCount));
  dump.reports.reserve(report_count);
  for (uint64_t i = 0; i < report_count; ++i) {
    WFMS_ASSIGN_OR_RETURN(auto entry, ReadReport(&r));
    dump.reports.push_back(std::move(entry));
  }
  WFMS_ASSIGN_OR_RETURN(uint64_t failure_count, r.U64(kTagFailureCount));
  dump.failures.reserve(failure_count);
  for (uint64_t i = 0; i < failure_count; ++i) {
    std::pair<std::vector<int>, ConfigurationTool::CachedFailure> entry;
    WFMS_ASSIGN_OR_RETURN(entry.first, r.VecI32(kTagFailureReplicas));
    WFMS_ASSIGN_OR_RETURN(uint32_t code, r.U32(kTagFailureCode));
    WFMS_ASSIGN_OR_RETURN(std::string message, r.Str(kTagFailureMessage));
    entry.second.error =
        Status(static_cast<StatusCode>(code), std::move(message));
    WFMS_ASSIGN_OR_RETURN(uint32_t flags, r.U32(kTagFailureFlags));
    entry.second.numerical = (flags & 1u) != 0;
    entry.second.retried_exact = (flags & 2u) != 0;
    dump.failures.push_back(std::move(entry));
  }
  if (!r.AtEnd()) {
    return Status::ParseError("checkpoint '" + path +
                              "' has trailing bytes after the last field");
  }
  meta.cached_reports = dump.reports.size();
  meta.cached_failures = dump.failures.size();
  tool.RestoreAssessmentCache(dump);
  return meta;
}

}  // namespace wfms::configtool
