// The decision core of the adaptive reconfiguration loop (§7's feedback
// vision): at every control-period boundary the controller
//
//   1. feeds the drift detectors from the online estimates and checks the
//      observed turnaround / availability directly against the goals,
//   2. applies hysteresis (consecutive triggered evaluations) and a
//      cooldown window so one noisy period cannot flap the system,
//   3. rebuilds the Environment from the online estimators and re-invokes
//      the §7 configuration search — reusing the assessment memoization
//      cache across control periods (and optionally the on-disk search
//      checkpoint) so repeated searches under an unchanged regime cost
//      almost nothing,
//   4. emits a ReconfigurationPlan (replication delta, migration cost,
//      predicted goal margins) and applies it only when the predicted
//      improvement clears the minimum-improvement threshold.
//
// Everything the controller decides is mirrored into the metrics registry
// (wfms_adapt_*) and wrapped in trace spans, so a --metrics-out /
// --trace-out run shows each evaluation, trigger, search, and
// reconfiguration.
#ifndef WFMS_ADAPT_CONTROLLER_H_
#define WFMS_ADAPT_CONTROLLER_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "adapt/drift.h"
#include "adapt/online_estimator.h"
#include "common/result.h"
#include "configtool/tool.h"
#include "workflow/configuration.h"
#include "workflow/environment.h"

namespace wfms::adapt {

struct ControllerOptions {
  configtool::Goals goals;
  configtool::SearchConstraints constraints;
  configtool::CostModel cost = configtool::CostModel::Uniform();
  /// Any replication-vector search; RunAutotune rejects greedy-site, which
  /// places sites instead.
  configtool::SearchMethod method = configtool::SearchMethod::kGreedy;

  /// Direct SLO on the *observed* mean turnaround (model time units);
  /// <= 0 disables the check. This is the goal the operator actually
  /// feels — it catches load shifts even before the drift detectors do.
  double max_turnaround = 0.0;

  /// Drift detection on normalized estimates (estimate / designed value).
  PageHinkleyOptions drift;

  /// Evaluations that must trigger back-to-back before a search runs.
  int hysteresis = 2;
  /// Minimum model time between reconfigurations.
  double cooldown = 0.0;
  /// A grow plan is applied only when the current configuration misses
  /// the goals or its predicted margin falls below this; a shrink plan
  /// only when it nets at least this much cost saving after migration.
  double min_margin_gain = 0.05;
  /// Migration cost charged per replica added or removed (same unit as
  /// the cost model).
  double migration_cost_per_server = 0.5;

  /// Estimates backed by fewer observations than this neither feed the
  /// drift detectors nor count as goal violations.
  int min_observations = 10;

  /// Request-trace context the controller runs under (DESIGN.md §13):
  /// parents the evaluate/search spans, and re-parents into the
  /// reconfiguration searches' SearchOptions. Invalid (default) outside a
  /// traced request.
  trace::TraceContext trace;

  /// Non-empty: the search persists/reuses its assessment cache on disk
  /// via configtool/checkpoint.h, surviving a crash of the whole loop.
  std::string checkpoint_path;

  /// Wall-clock cap for each reconfiguration search (seconds); <= 0 means
  /// unlimited. Propagated into SearchOptions::deadline_seconds, so it
  /// also bounds each candidate's steady-state solve — a slow period
  /// yields a best-so-far plan instead of stalling the control loop.
  double search_deadline_seconds = 0.0;
};

/// Predicted safety margins of a configuration, normalized so 0 is "at
/// the goal boundary" and negative is "violating".
struct GoalMargins {
  /// min over server types of (threshold_x - W_x) / threshold_x.
  double waiting = 0.0;
  /// (availability - min_availability) / (1 - min_availability).
  double availability = 0.0;

  double Min() const { return waiting < availability ? waiting : availability; }
};

/// What a reconfiguration would do — the §7.1 "recommendation", extended
/// with the delta and the predicted effect the closed loop needs.
struct ReconfigurationPlan {
  workflow::Configuration from;
  workflow::Configuration to;
  /// to - from, per server type.
  std::vector<int> delta;
  int replicas_added = 0;
  int replicas_removed = 0;
  double migration_cost = 0.0;
  /// Steady-state cost of `to` under the cost model.
  double new_cost = 0.0;
  double old_cost = 0.0;
  /// Margins of `to` as predicted by the analytic models on the rebuilt
  /// environment.
  GoalMargins predicted;
  bool predicted_satisfied = false;
  int search_evaluations = 0;
  int search_cache_hits = 0;

  std::string ToString() const;
};

/// Outcome of one control-period evaluation.
struct ControllerDecision {
  double time = 0.0;
  /// Parameters whose drift detector is triggered ("arrival:<wf>",
  /// "service:<server type>").
  std::vector<std::string> drifted;
  bool goal_violation = false;
  /// Human-readable violation/trigger summary.
  std::string trigger_reason;
  /// Consecutive triggered evaluations including this one (0 when calm).
  int consecutive_triggers = 0;
  bool searched = false;
  bool reconfigured = false;
  /// Why the decision came out the way it did.
  std::string reason;
  /// Valid iff `searched`.
  ReconfigurationPlan plan;
};

class ReconfigurationController {
 public:
  /// `designed` is the designed model (baseline for drift detection and
  /// calibration prior); must outlive the controller. `initial` is the
  /// configuration the system currently runs.
  ReconfigurationController(const workflow::Environment* designed,
                            workflow::Configuration initial,
                            ControllerOptions options,
                            OnlineCalibratorOptions calibrator_options = {});

  /// Feeds one monitored event (call in stream order, single-threaded).
  void Observe(const AuditEvent& event);

  /// Control-period boundary: runs the detect → (maybe) search → (maybe)
  /// reconfigure pipeline at model time `now`.
  Result<ControllerDecision> Evaluate(double now);

  const workflow::Configuration& current_config() const { return current_; }
  const OnlineCalibrator& calibrator() const { return calibrator_; }
  const std::vector<ControllerDecision>& decisions() const {
    return decisions_;
  }
  /// Plans actually applied, in application order.
  std::vector<ReconfigurationPlan> applied_plans() const;

 private:
  /// Margins of an assessment under the controller's goals.
  GoalMargins MarginsOf(const configtool::Assessment& assessment) const;
  /// Feeds detectors, checks observed SLOs; fills decision.drifted /
  /// goal_violation / trigger_reason. Returns whether anything triggered.
  bool DetectTriggers(double now, ControllerDecision* decision);
  /// Rebuild + search + gate. Fills decision.searched/plan/reason and
  /// flips decision.reconfigured when the plan is applied.
  Status RunSearch(double now, ControllerDecision* decision);
  void Rebaseline(const workflow::Environment& regime);

  const workflow::Environment* designed_;
  ControllerOptions options_;
  workflow::Configuration current_;
  OnlineCalibrator calibrator_;

  std::vector<DriftMonitor> monitors_;  // arrival per wf, service per type
  int consecutive_triggers_ = 0;
  bool have_reconfigured_ = false;
  double last_reconfig_time_ = 0.0;

  /// Assessment-cache carryover between control periods: valid while the
  /// rebuilt environment hashes to `cache_fingerprint_`.
  std::optional<configtool::ConfigurationTool::CacheDump> cache_;
  uint64_t cache_fingerprint_ = 0;

  std::vector<ControllerDecision> decisions_;
};

}  // namespace wfms::adapt

#endif  // WFMS_ADAPT_CONTROLLER_H_
