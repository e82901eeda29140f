// Two-region active/active deployment (DESIGN.md §12): the EP workflow
// placed across the EU and US sites, assessed against survivability goals
// (every single-site loss and the EU|US partition must still meet the
// degraded targets), then the per-site placement search asked for the
// cheapest placement that achieves this.
//
// Build & run:  ./build/examples/geo_active_active

#include <cstdio>

#include "configtool/tool.h"
#include "workflow/configuration.h"
#include "workflow/scenarios.h"

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

  // Goals: the usual steady-state targets, plus survivability — under any
  // one-site loss or a WAN partition, the degraded targets must still
  // hold (a region loss may justify slower responses, not an outage).
  configtool::Goals goals;
  goals.max_waiting_time = 0.2;
  goals.min_availability = 0.999;
  goals.survive_sites = 1;
  goals.survive_partitions = true;
  goals.degraded_max_waiting_time = 0.2;
  goals.degraded_min_availability = 0.995;

  // Active/active: every server type present in both regions.
  const auto placement =
      workflow::Configuration::FromSiteCounts({1, 1, 1, 1, 2, 2}, 2);
  auto assessment = tool->Assess(placement, goals);
  if (!assessment.ok()) {
    std::fprintf(stderr, "assess: %s\n",
                 assessment.status().ToString().c_str());
    return 1;
  }
  if (!assessment->error.ok()) {
    std::fprintf(stderr, "assess: %s\n", assessment->error.ToString().c_str());
    return 1;
  }
  std::printf("Placement %s: cost %.0f, availability %.8f\n",
              placement.ToString().c_str(), assessment->cost,
              assessment->performability.availability);
  for (const auto& c : assessment->contingencies) {
    std::printf("  %-18s availability %.8f  %s\n", c.label.c_str(),
                c.availability, c.satisfied ? "ok" : "VIOLATED");
  }
  std::printf("  survivability: %s\n\n",
              assessment->meets_survivability_goal ? "met" : "NOT met");

  // The placement search grows one (type, site) replica at a time, with
  // per-site coverage moves so a one-site-down contingency can be lifted.
  auto result = tool->GreedySiteMinCost(goals);
  if (!result.ok()) {
    std::fprintf(stderr, "search: %s\n", result.status().ToString().c_str());
    return 1;
  }
  std::printf("Recommended placement %s: cost %.0f, %s (%d evaluations)\n",
              result->config.ToString().c_str(), result->cost,
              result->satisfied ? "goals met" : "goals NOT met",
              result->evaluations);
  return 0;
}
