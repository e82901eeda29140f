#include "adapt/controller.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/snapshot.h"
#include "common/trace.h"
#include "configtool/checkpoint.h"
#include "workflow/environment_io.h"

namespace wfms::adapt {

namespace {

metrics::Counter& EvaluationsCounter() {
  static metrics::Counter& counter = metrics::MetricsRegistry::Global()
      .GetCounter("wfms_adapt_evaluations_total");
  return counter;
}

metrics::Counter& TriggersCounter() {
  static metrics::Counter& counter = metrics::MetricsRegistry::Global()
      .GetCounter("wfms_adapt_triggers_total");
  return counter;
}

metrics::Counter& SearchesCounter() {
  static metrics::Counter& counter = metrics::MetricsRegistry::Global()
      .GetCounter("wfms_adapt_searches_total");
  return counter;
}

metrics::Counter& ReconfigurationsCounter() {
  static metrics::Counter& counter = metrics::MetricsRegistry::Global()
      .GetCounter("wfms_adapt_reconfigurations_total");
  return counter;
}

metrics::Gauge& MarginGauge() {
  static metrics::Gauge& gauge = metrics::MetricsRegistry::Global().GetGauge(
      "wfms_adapt_predicted_margin");
  return gauge;
}

metrics::Gauge& DriftScoreGauge() {
  static metrics::Gauge& gauge = metrics::MetricsRegistry::Global().GetGauge(
      "wfms_adapt_drift_score_peak");
  return gauge;
}

std::string JoinNames(const std::vector<std::string>& names) {
  std::ostringstream os;
  for (size_t i = 0; i < names.size(); ++i) os << (i ? "," : "") << names[i];
  return os.str();
}

}  // namespace

std::string ReconfigurationPlan::ToString() const {
  std::ostringstream os;
  os << from.ToString() << " -> " << to.ToString() << " (delta";
  for (size_t i = 0; i < delta.size(); ++i) {
    os << (i ? "," : " ") << (delta[i] >= 0 ? "+" : "") << delta[i];
  }
  os << "; cost " << old_cost << " -> " << new_cost << ", migration "
     << migration_cost << "; predicted margin "
     << predicted.Min() << (predicted_satisfied ? ", goals met" : ", goals NOT met")
     << ")";
  return os.str();
}

ReconfigurationController::ReconfigurationController(
    const workflow::Environment* designed, workflow::Configuration initial,
    ControllerOptions options, OnlineCalibratorOptions calibrator_options)
    : designed_(designed),
      options_(std::move(options)),
      current_(std::move(initial)),
      calibrator_(designed, calibrator_options) {
  WFMS_CHECK(designed_ != nullptr);
  Rebaseline(*designed_);
}

void ReconfigurationController::Observe(const AuditEvent& event) {
  calibrator_.Consume(event);
}

void ReconfigurationController::Rebaseline(
    const workflow::Environment& regime) {
  monitors_.clear();
  for (const auto& wf : regime.workflows) {
    DriftMonitor monitor;
    monitor.name = "arrival:" + wf.name;
    monitor.baseline = wf.arrival_rate;
    monitor.detector = PageHinkleyDetector(options_.drift);
    monitors_.push_back(std::move(monitor));
  }
  for (size_t i = 0; i < regime.servers.size(); ++i) {
    DriftMonitor monitor;
    monitor.name = "service:" + regime.servers.type(i).name;
    monitor.baseline = regime.servers.type(i).service.mean;
    monitor.detector = PageHinkleyDetector(options_.drift);
    monitors_.push_back(std::move(monitor));
  }
}

GoalMargins ReconfigurationController::MarginsOf(
    const configtool::Assessment& assessment) const {
  GoalMargins margins;
  margins.waiting = 1.0;
  const linalg::Vector& waiting = assessment.performability.expected_waiting;
  for (size_t x = 0; x < waiting.size(); ++x) {
    const double threshold = options_.goals.WaitingThreshold(x);
    if (threshold <= 0.0) continue;
    margins.waiting =
        std::min(margins.waiting, (threshold - waiting[x]) / threshold);
  }
  const double headroom = 1.0 - options_.goals.min_availability;
  margins.availability =
      (assessment.performability.availability - options_.goals.min_availability) /
      (headroom > 0.0 ? headroom : 1.0);
  return margins;
}

bool ReconfigurationController::DetectTriggers(double now,
                                               ControllerDecision* decision) {
  double peak_score = 0.0;
  size_t monitor_index = 0;
  for (const auto& wf : designed_->workflows) {
    const WorkflowEstimate estimate = calibrator_.EstimateFor(wf.name);
    DriftMonitor& monitor = monitors_[monitor_index++];
    if (estimate.arrivals >= options_.min_observations) {
      if (monitor.Observe(estimate.arrival_rate)) {
        decision->drifted.push_back(monitor.name);
      }
      peak_score = std::max(peak_score, monitor.detector.score());
    }
  }
  for (size_t x = 0; x < designed_->servers.size(); ++x) {
    const DecayedMoments& moments = calibrator_.ServiceMoments(x);
    DriftMonitor& monitor = monitors_[monitor_index++];
    if (moments.effective_samples(now) >=
        static_cast<double>(options_.min_observations)) {
      if (monitor.Observe(moments.mean())) {
        decision->drifted.push_back(monitor.name);
      }
      peak_score = std::max(peak_score, monitor.detector.score());
    }
  }
  DriftScoreGauge().UpdateMax(peak_score);

  std::ostringstream reason;
  if (!decision->drifted.empty()) {
    reason << "drift in [" << JoinNames(decision->drifted) << "]";
  }
  if (options_.max_turnaround > 0.0) {
    for (const auto& wf : designed_->workflows) {
      const WorkflowEstimate estimate = calibrator_.EstimateFor(wf.name);
      if (estimate.completions < options_.min_observations) continue;
      // Violation only when the SLO sits outside the confidence interval —
      // a noisy mean alone does not page the controller.
      if (estimate.turnaround_mean - estimate.turnaround_half_width >
          options_.max_turnaround) {
        decision->goal_violation = true;
        if (reason.tellp() > 0) reason << "; ";
        reason << "turnaround SLO violated for '" << wf.name << "' ("
               << estimate.turnaround_mean << " > " << options_.max_turnaround
               << ")";
      }
    }
  }
  const double observed_availability = calibrator_.ObservedAvailability();
  if (observed_availability < options_.goals.min_availability) {
    decision->goal_violation = true;
    if (reason.tellp() > 0) reason << "; ";
    reason << "observed availability " << observed_availability
           << " below goal " << options_.goals.min_availability;
  }
  decision->trigger_reason = reason.str();
  return !decision->drifted.empty() || decision->goal_violation;
}

Status ReconfigurationController::RunSearch(double now,
                                            ControllerDecision* decision) {
  trace::TraceSpan span("adapt/search", "adapt", options_.trace);
  SearchesCounter().Increment();
  decision->searched = true;

  WFMS_ASSIGN_OR_RETURN(workflow::Environment regime,
                        calibrator_.RebuildEnvironment());
  WFMS_RETURN_NOT_OK(regime.Validate());

  WFMS_ASSIGN_OR_RETURN(configtool::ConfigurationTool tool,
                        configtool::ConfigurationTool::Create(regime));

  // Cache carryover: while the rebuilt environment is unchanged (hash of
  // its serialized form), every assessment from earlier control periods is
  // a free cache hit in this one.
  const uint64_t fingerprint =
      Fnv1a64(workflow::SerializeEnvironment(regime));
  if (cache_.has_value() && cache_fingerprint_ == fingerprint) {
    tool.RestoreAssessmentCache(*cache_);
  }

  const char* method_name = configtool::SearchMethodName(options_.method);
  configtool::SearchOptions search_options;
  search_options.deadline_seconds = options_.search_deadline_seconds;
  search_options.trace = span.context();
  uint64_t search_fingerprint = 0;
  if (!options_.checkpoint_path.empty()) {
    search_fingerprint = configtool::SearchFingerprint(
        regime, options_.goals, options_.constraints, options_.cost,
        method_name);
    // A stale or missing checkpoint is not an error for the loop — the
    // search simply starts cold.
    auto resumed = configtool::ResumeSearchFrom(
        tool, options_.checkpoint_path, search_fingerprint, method_name);
    (void)resumed;
    search_options.on_checkpoint = [&tool, search_fingerprint, method_name,
                                    this] {
      Status status = configtool::WriteSearchCheckpoint(
          options_.checkpoint_path, tool, search_fingerprint, method_name);
      if (!status.ok()) {
        WFMS_LOG(Warning) << "adapt: checkpoint write failed: "
                          << status.ToString();
      }
    };
  }

  WFMS_ASSIGN_OR_RETURN(
      configtool::Assessment current_assessment,
      tool.Assess(current_, options_.goals, options_.cost));
  WFMS_RETURN_NOT_OK(current_assessment.error);
  const GoalMargins current_margins = MarginsOf(current_assessment);

  Result<configtool::SearchResult> search = configtool::RunSearch(
      tool, options_.method, options_.goals, options_.constraints,
      /*site=*/{}, options_.cost, search_options);
  WFMS_RETURN_NOT_OK(search.status());

  cache_ = tool.DumpAssessmentCache();
  cache_fingerprint_ = fingerprint;
  if (!options_.checkpoint_path.empty()) {
    Status status = configtool::WriteSearchCheckpoint(
        options_.checkpoint_path, tool, search_fingerprint, method_name,
        &*search);
    if (!status.ok()) {
      WFMS_LOG(Warning) << "adapt: final checkpoint write failed: "
                        << status.ToString();
    }
  }

  ReconfigurationPlan& plan = decision->plan;
  plan.from = current_;
  plan.to = search->config;
  plan.old_cost = options_.cost.Cost(current_.replicas);
  plan.new_cost = search->cost;
  plan.predicted = MarginsOf(search->assessment);
  plan.predicted_satisfied = search->satisfied;
  plan.search_evaluations = search->evaluations;
  plan.search_cache_hits = search->cache_hits;
  plan.delta.assign(search->config.replicas.size(), 0);
  for (size_t x = 0; x < plan.delta.size(); ++x) {
    const int before =
        x < current_.replicas.size() ? current_.replicas[x] : 0;
    plan.delta[x] = search->config.replicas[x] - before;
    if (plan.delta[x] > 0) plan.replicas_added += plan.delta[x];
    if (plan.delta[x] < 0) plan.replicas_removed -= plan.delta[x];
  }
  plan.migration_cost =
      options_.migration_cost_per_server *
      static_cast<double>(plan.replicas_added + plan.replicas_removed);
  MarginGauge().Set(plan.predicted.Min());

  // --- Gate the plan ----------------------------------------------------
  const bool same_config = search->config == current_;
  if (!search->satisfied) {
    decision->reason =
        "search found no satisfying configuration within constraints; "
        "holding " + current_.ToString();
    // Re-baseline so a persistent but unfixable regime does not fire a
    // search at every period.
    Rebaseline(regime);
    return Status::OK();
  }
  if (same_config) {
    decision->reason = "current configuration " + current_.ToString() +
                       " remains the recommendation; re-baselining";
    Rebaseline(regime);
    return Status::OK();
  }
  const bool grows = plan.new_cost > plan.old_cost;
  if (grows) {
    const bool current_ok = current_assessment.Satisfies() &&
                            !decision->goal_violation &&
                            current_margins.Min() >= options_.min_margin_gain;
    if (current_ok) {
      decision->reason =
          "grow plan not applied: current configuration still meets goals "
          "with margin " + std::to_string(current_margins.Min());
      return Status::OK();
    }
  } else {
    const double saving = plan.old_cost - plan.new_cost;
    if (saving < options_.min_margin_gain + plan.migration_cost) {
      decision->reason =
          "shrink plan not applied: saving " + std::to_string(saving) +
          " does not cover migration cost " +
          std::to_string(plan.migration_cost);
      return Status::OK();
    }
  }

  // --- Apply ------------------------------------------------------------
  decision->reconfigured = true;
  decision->reason = "reconfigured: " + plan.ToString();
  current_ = search->config;
  have_reconfigured_ = true;
  last_reconfig_time_ = now;
  consecutive_triggers_ = 0;
  ReconfigurationsCounter().Increment();
  // The old regime's statistics describe the old configuration; start the
  // next control period clean and re-baseline drift on the new regime.
  calibrator_.ResetEstimators();
  Rebaseline(regime);
  return Status::OK();
}

Result<ControllerDecision> ReconfigurationController::Evaluate(double now) {
  trace::TraceSpan span("adapt/evaluate", "adapt", options_.trace);
  EvaluationsCounter().Increment();
  ControllerDecision decision;
  decision.time = now;

  const bool triggered = DetectTriggers(now, &decision);
  if (triggered) {
    TriggersCounter().Increment();
    ++consecutive_triggers_;
  } else {
    consecutive_triggers_ = 0;
  }
  decision.consecutive_triggers = consecutive_triggers_;

  if (!triggered) {
    decision.reason = "no drift, goals met";
    decisions_.push_back(decision);
    return decisions_.back();
  }
  if (consecutive_triggers_ < options_.hysteresis) {
    decision.reason = "trigger below hysteresis (" +
                      std::to_string(consecutive_triggers_) + "/" +
                      std::to_string(options_.hysteresis) + "): " +
                      decision.trigger_reason;
    decisions_.push_back(decision);
    return decisions_.back();
  }
  if (have_reconfigured_ &&
      now - last_reconfig_time_ < options_.cooldown) {
    decision.reason = "in cooldown (" +
                      std::to_string(now - last_reconfig_time_) + " of " +
                      std::to_string(options_.cooldown) + "): " +
                      decision.trigger_reason;
    decisions_.push_back(decision);
    return decisions_.back();
  }

  WFMS_RETURN_NOT_OK(RunSearch(now, &decision));
  decisions_.push_back(decision);
  return decisions_.back();
}

std::vector<ReconfigurationPlan> ReconfigurationController::applied_plans()
    const {
  std::vector<ReconfigurationPlan> plans;
  for (const auto& decision : decisions_) {
    if (decision.reconfigured) plans.push_back(decision.plan);
  }
  return plans;
}

}  // namespace wfms::adapt
