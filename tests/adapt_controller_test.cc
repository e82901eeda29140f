// The reconfiguration controller and the closed autotune loop: trigger
// detection, hysteresis, cooldown, plan gating, and the end-to-end
// monitor → calibrate → assess → reconfigure cycle on simulated load.
#include "adapt/controller.h"

#include <gtest/gtest.h>


#include "adapt/autotune.h"
#include "sim/load_schedule.h"
#include "workflow/scenarios.h"

namespace wfms::adapt {
namespace {

using workflow::Configuration;
using workflow::Environment;

Environment Ep(double rate = 0.5) {
  auto env = workflow::EpEnvironment(rate);
  EXPECT_TRUE(env.ok()) << env.status();
  return *std::move(env);
}


ControllerOptions TestOptions() {
  ControllerOptions options;
  options.goals.max_waiting_time = 0.05;
  options.goals.min_availability = 0.99;
  options.hysteresis = 1;
  options.cooldown = 0.0;
  options.drift.min_samples = 3;
  options.drift.lambda = 0.5;
  return options;
}

OnlineCalibratorOptions TestCalibrator() {
  OnlineCalibratorOptions options;
  options.window = 500.0;
  options.tau = 250.0;
  return options;
}

/// Feeds evenly spaced EP arrivals at `rate` over [t0, t1).
void FeedArrivals(ReconfigurationController* controller, double t0, double t1,
                  double rate) {
  for (double t = t0; t < t1; t += 1.0 / rate) {
    controller->Observe(workflow::ArrivalRecord{"EP", t});
  }
}

/// Feeds `n` completions ending in [t0, t1) with the given turnaround.
void FeedCompletions(ReconfigurationController* controller, double t0,
                     double t1, int n, double turnaround) {
  const double step = (t1 - t0) / n;
  for (int i = 0; i < n; ++i) {
    const double end = t0 + i * step;
    controller->Observe(
        workflow::CompletionRecord{"EP", end - turnaround, end});
  }
}

TEST(ControllerTest, SteadyLoadNeverSearches) {
  const Environment env = Ep(0.5);
  ReconfigurationController controller(&env, Configuration({1, 1, 2}),
                                       TestOptions(), TestCalibrator());
  for (int epoch = 0; epoch < 5; ++epoch) {
    FeedArrivals(&controller, epoch * 500.0, (epoch + 1) * 500.0, 0.5);
    auto decision = controller.Evaluate((epoch + 1) * 500.0);
    ASSERT_TRUE(decision.ok()) << decision.status();
    EXPECT_TRUE(decision->drifted.empty());
    EXPECT_FALSE(decision->goal_violation);
    EXPECT_FALSE(decision->searched);
    EXPECT_FALSE(decision->reconfigured);
    EXPECT_EQ(decision->consecutive_triggers, 0);
  }
  EXPECT_EQ(controller.current_config(), Configuration({1, 1, 2}));
  EXPECT_TRUE(controller.applied_plans().empty());
  EXPECT_EQ(controller.decisions().size(), 5u);
}

TEST(ControllerTest, ArrivalSurgeGrowsConfiguration) {
  const Environment env = Ep(0.5);
  const Configuration initial({1, 1, 2});
  ReconfigurationController controller(&env, initial, TestOptions(),
                                       TestCalibrator());
  // Establish the baseline regime, then quadruple the arrival rate.
  double t = 0.0;
  for (int epoch = 0; epoch < 3; ++epoch, t += 500.0) {
    FeedArrivals(&controller, t, t + 500.0, 0.5);
    ASSERT_TRUE(controller.Evaluate(t + 500.0).ok());
  }
  bool reconfigured = false;
  for (int epoch = 0; epoch < 6 && !reconfigured; ++epoch, t += 500.0) {
    FeedArrivals(&controller, t, t + 500.0, 2.0);
    auto decision = controller.Evaluate(t + 500.0);
    ASSERT_TRUE(decision.ok()) << decision.status();
    reconfigured = decision->reconfigured;
    if (reconfigured) {
      EXPECT_FALSE(decision->drifted.empty());
      EXPECT_TRUE(decision->searched);
      EXPECT_TRUE(decision->plan.predicted_satisfied);
      EXPECT_GT(decision->plan.replicas_added, 0);
      EXPECT_FALSE(decision->plan.ToString().empty());
    }
  }
  ASSERT_TRUE(reconfigured);
  // The new configuration serves 4x the load: strictly more replicas,
  // component-wise no smaller.
  const Configuration& current = controller.current_config();
  EXPECT_GT(current.total_servers(), initial.total_servers());
  for (size_t x = 0; x < initial.replicas.size(); ++x) {
    EXPECT_GE(current.replicas[x], initial.replicas[x]);
  }
  ASSERT_EQ(controller.applied_plans().size(), 1u);
  EXPECT_EQ(controller.applied_plans()[0].to, current);
}

TEST(ControllerTest, TurnaroundSloViolationTriggersSearch) {
  const Environment env = Ep(0.5);
  ControllerOptions options = TestOptions();
  options.max_turnaround = 100.0;
  ReconfigurationController controller(&env, Configuration({1, 1, 1}),
                                       options, TestCalibrator());
  FeedArrivals(&controller, 0.0, 500.0, 0.5);
  FeedCompletions(&controller, 400.0, 500.0, 50, 300.0);  // 3x the SLO
  auto decision = controller.Evaluate(500.0);
  ASSERT_TRUE(decision.ok()) << decision.status();
  EXPECT_TRUE(decision->goal_violation);
  EXPECT_NE(decision->trigger_reason.find("turnaround"), std::string::npos)
      << decision->trigger_reason;
  EXPECT_TRUE(decision->searched);
}

TEST(ControllerTest, HysteresisRequiresConsecutiveTriggers) {
  const Environment env = Ep(0.5);
  ControllerOptions options = TestOptions();
  options.max_turnaround = 100.0;
  options.hysteresis = 2;
  ReconfigurationController controller(&env, Configuration({1, 1, 1}),
                                       options, TestCalibrator());
  FeedCompletions(&controller, 400.0, 500.0, 50, 300.0);
  auto first = controller.Evaluate(500.0);
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(first->goal_violation);
  EXPECT_EQ(first->consecutive_triggers, 1);
  EXPECT_FALSE(first->searched);  // below the hysteresis threshold

  FeedCompletions(&controller, 900.0, 1000.0, 50, 300.0);
  auto second = controller.Evaluate(1000.0);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->consecutive_triggers, 2);
  EXPECT_TRUE(second->searched);
}

TEST(ControllerTest, CooldownBlocksBackToBackReconfigurations) {
  const Environment env = Ep(0.5);
  ControllerOptions options = TestOptions();
  options.max_turnaround = 100.0;
  options.cooldown = 10000.0;
  ReconfigurationController controller(&env, Configuration({1, 1, 1}),
                                       options, TestCalibrator());
  FeedCompletions(&controller, 400.0, 500.0, 50, 300.0);
  auto first = controller.Evaluate(500.0);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first->reconfigured);  // (1,1,1) misses the goals: grow

  // The violation persists, but the cooldown window must hold the line.
  FeedCompletions(&controller, 900.0, 1000.0, 50, 300.0);
  auto second = controller.Evaluate(1000.0);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->goal_violation);
  EXPECT_FALSE(second->searched);
  EXPECT_FALSE(second->reconfigured);
  EXPECT_EQ(controller.applied_plans().size(), 1u);
}

AutotuneOptions BaseAutotune(const Configuration& initial) {
  AutotuneOptions options;
  options.initial = initial;
  options.duration = 6000.0;
  options.epoch = 1000.0;
  options.seed = 7;
  options.enable_failures = false;
  options.controller = TestOptions();
  options.controller.max_turnaround = 250.0;
  options.controller.hysteresis = 1;
  options.calibrator.window = 2000.0;
  options.calibrator.tau = 1000.0;
  return options;
}

TEST(AutotuneTest, SteadyLoadHoldsConfiguration) {
  const Environment env = Ep(0.5);
  // Start from the recommended configuration for the designed load: the
  // control run must never reconfigure.
  auto report = RunAutotune(env, BaseAutotune(Configuration({1, 1, 2})));
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->reconfigurations, 0);
  EXPECT_EQ(report->final_config, Configuration({1, 1, 2}));
  EXPECT_EQ(report->epochs.size(), 6u);
  EXPECT_GT(report->events_total, 0u);
  EXPECT_EQ(report->dropped_total, 0u);
  for (const EpochReport& epoch : report->epochs) {
    EXPECT_EQ(epoch.config, Configuration({1, 1, 2}));
    EXPECT_FALSE(epoch.decision.reconfigured);
  }
}

TEST(AutotuneTest, LoadDoublingGrowsConfiguration) {
  const Environment env = Ep(0.5);
  AutotuneOptions options = BaseAutotune(Configuration({1, 1, 2}));
  options.duration = 8000.0;
  options.load.events = {{2500.0, sim::LoadAction::kScaleAll, 0, 2.0}};
  auto report = RunAutotune(env, options);
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_GE(report->reconfigurations, 1);
  // Strictly more capacity, component-wise no smaller, goals predicted
  // met again under the doubled load.
  EXPECT_GT(report->final_config.total_servers(), 4);
  for (size_t x = 0; x < 3; ++x) {
    EXPECT_GE(report->final_config.replicas[x],
              Configuration({1, 1, 2}).replicas[x]);
  }
  bool found_plan = false;
  for (const EpochReport& epoch : report->epochs) {
    if (epoch.decision.reconfigured) {
      EXPECT_TRUE(epoch.decision.plan.predicted_satisfied);
      EXPECT_GE(epoch.start, 2500.0 - options.epoch);  // after the shift
      found_plan = true;
      break;
    }
  }
  EXPECT_TRUE(found_plan);
}

TEST(AutotuneTest, RejectsGreedySite) {
  const Environment env = Ep(0.5);
  AutotuneOptions options = BaseAutotune(Configuration({1, 1, 2}));
  options.controller.method = configtool::SearchMethod::kGreedySite;
  auto report = RunAutotune(env, options);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(report.status().message().find("greedy-site"), std::string::npos)
      << report.status();
}

TEST(AutotuneTest, RunsAreDeterministic) {
  const Environment env = Ep(0.5);
  AutotuneOptions options = BaseAutotune(Configuration({1, 1, 1}));
  options.load.events = {{2000.0, sim::LoadAction::kScaleAll, 0, 2.0}};
  options.controller.max_turnaround = 150.0;
  auto a = RunAutotune(env, options);
  auto b = RunAutotune(env, options);
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE(b.ok()) << b.status();
  EXPECT_EQ(a->events_total, b->events_total);
  EXPECT_EQ(a->reconfigurations, b->reconfigurations);
  EXPECT_EQ(a->final_config, b->final_config);
  ASSERT_EQ(a->epochs.size(), b->epochs.size());
  for (size_t i = 0; i < a->epochs.size(); ++i) {
    EXPECT_EQ(a->epochs[i].events, b->epochs[i].events);
    EXPECT_EQ(a->epochs[i].config, b->epochs[i].config);
    EXPECT_DOUBLE_EQ(a->epochs[i].observed_turnaround,
                     b->epochs[i].observed_turnaround);
  }
  EXPECT_EQ(a->ToString(), b->ToString());
}

}  // namespace
}  // namespace wfms::adapt
