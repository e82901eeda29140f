// Split-brain showcase (the ISSUE acceptance scenario): a placement that
// meets every steady-state goal but dies the moment the WAN partitions —
// all engines in the EU, all application servers in the US — versus the
// survivable placement the per-site search recommends under
// --survive-sites=1 with degraded goals. The analytic partition
// contingency is then cross-checked against a simulated replay that pins
// the partition for the whole run (overlay mode: the random per-replica
// failure processes stay on).
//
// Build & run:  ./build/examples/geo_split_brain

#include <cstdio>

#include "avail/availability_model.h"
#include "configtool/tool.h"
#include "sim/fault_schedule.h"
#include "sim/simulator.h"
#include "workflow/configuration.h"
#include "workflow/scenarios.h"

namespace {

double SimulateUnderPartition(const wfms::workflow::Environment& env,
                              const wfms::workflow::Configuration& config) {
  using namespace wfms;
  auto schedule = sim::ParseFaultSchedule("mode overlay\nat 0 partition EU|US\n",
                                          env.servers, &env.topology);
  if (!schedule.ok()) return -1.0;
  sim::SimulationOptions options;
  options.config = config;
  options.duration = 20000.0;
  options.warmup = 1000.0;
  options.seed = 7;
  options.enable_failures = true;
  options.faults = *schedule;
  auto simulator = sim::Simulator::Create(env, options);
  if (!simulator.ok()) return -1.0;
  auto result = simulator->Run();
  if (!result.ok()) return -1.0;
  return result->observed_availability;
}

}  // namespace

int main() {
  using namespace wfms;

  auto env = workflow::GeoEpEnvironment();
  if (!env.ok()) {
    std::fprintf(stderr, "environment: %s\n", env.status().ToString().c_str());
    return 1;
  }
  auto tool = configtool::ConfigurationTool::Create(*env);
  if (!tool.ok()) {
    std::fprintf(stderr, "tool: %s\n", tool.status().ToString().c_str());
    return 1;
  }
  tool->set_num_threads(1);  // deterministic evaluation counts

  configtool::Goals goals;
  goals.max_waiting_time = 0.2;
  goals.min_availability = 0.999;
  goals.survive_sites = 1;
  goals.survive_partitions = true;
  goals.degraded_max_waiting_time = 0.2;
  goals.degraded_min_availability = 0.995;

  // The baseline looks healthy in steady state...
  const auto baseline =
      workflow::Configuration::FromSiteCounts({1, 1, 2, 0, 0, 2}, 2);
  auto assessment = tool->Assess(baseline, goals);
  if (!assessment.ok()) {
    std::fprintf(stderr, "assess: %s\n",
                 assessment.status().ToString().c_str());
    return 1;
  }
  if (!assessment->error.ok()) {
    std::fprintf(stderr, "assess: %s\n", assessment->error.ToString().c_str());
    return 1;
  }
  std::printf("Baseline %s: availability %.8f, waiting goal %s\n",
              baseline.ToString().c_str(),
              assessment->performability.availability,
              assessment->meets_waiting_goal ? "met" : "NOT met");
  // ...but no side of a partition hosts every server type:
  for (const auto& c : assessment->contingencies) {
    std::printf("  %-18s availability %.8f  %s\n", c.label.c_str(),
                c.availability, c.satisfied ? "ok" : "VIOLATED");
  }

  // The placement search fixes it (per-site coverage moves make the
  // one-site-down contingencies reachable from any starting placement).
  auto result = tool->GreedySiteMinCost(goals);
  if (!result.ok()) {
    std::fprintf(stderr, "search: %s\n", result.status().ToString().c_str());
    return 1;
  }
  std::printf("\nRecommended %s: cost %.0f, %s (%d evaluations)\n",
              result->config.ToString().c_str(), result->cost,
              result->satisfied ? "degraded goals met under every contingency"
                                : "goals NOT met",
              result->evaluations);

  // Cross-check: analytic partition contingency vs a simulated replay
  // with the partition pinned for the whole horizon.
  auto model =
      avail::AvailabilityModel::Create(env->servers, {}, &env->topology);
  if (!model.ok()) {
    std::fprintf(stderr, "model: %s\n", model.status().ToString().c_str());
    return 1;
  }
  avail::SiteContingency partition;
  partition.partitioned_pairs = 0b1;
  for (const workflow::Configuration& config : {baseline, result->config}) {
    auto analytic = model->EvaluateSites(config, partition);
    if (!analytic.ok()) {
      std::fprintf(stderr, "analytic: %s\n",
                   analytic.status().ToString().c_str());
      return 1;
    }
    const double simulated = SimulateUnderPartition(*env, config);
    std::printf("Partitioned %s: analytic availability %.6f, "
                "simulated replay %.6f\n",
                config.ToString().c_str(), analytic->availability, simulated);
  }
  return 0;
}
