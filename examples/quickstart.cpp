// Quickstart: assess a distributed WFMS configuration and ask the tool
// for a minimum-cost recommendation.
//
// The scenario is the paper's running example: the electronic purchase
// (EP) workflow on three server types (communication server, workflow
// engine, application server) with the §5.2 failure/repair rates.
//
// Build & run:  ./build/examples/quickstart

#include <cstdio>

#include "configtool/tool.h"
#include "common/time_units.h"
#include "workflow/scenarios.h"

int main() {
  using namespace wfms;

  // 1. Load the workflow environment: charts, server types, load matrix,
  //    arrival rates (here: 1 EP workflow per minute).
  auto env = workflow::EpEnvironment(/*arrival_rate=*/1.0);
  if (!env.ok()) {
    std::fprintf(stderr, "environment: %s\n", env.status().ToString().c_str());
    return 1;
  }

  // 2. Build the configuration tool (performance + availability +
  //    performability models).
  auto tool = configtool::ConfigurationTool::Create(*env);
  if (!tool.ok()) {
    std::fprintf(stderr, "tool: %s\n", tool.status().ToString().c_str());
    return 1;
  }

  // 3. Assess a candidate configuration: 1 comm server, 2 engines,
  //    2 application servers.
  configtool::Goals goals;
  goals.max_waiting_time = 0.05;     // 3 seconds mean waiting
  goals.min_availability = 0.99999;  // ~5 min downtime/year
  const workflow::Configuration candidate({1, 2, 2});
  auto assessment = tool->Assess(candidate, goals);
  if (!assessment.ok()) {
    std::fprintf(stderr, "assess: %s\n",
                 assessment.status().ToString().c_str());
    return 1;
  }
  if (!assessment->error.ok()) {
    std::fprintf(stderr, "assess: %s\n", assessment->error.ToString().c_str());
    return 1;
  }
  std::printf("Candidate %s: cost %.0f, availability %.6f, max W = %s -> %s\n",
              candidate.ToString().c_str(), assessment->cost,
              assessment->performability.availability,
              FormatMinutes(assessment->performability.max_expected_waiting)
                  .c_str(),
              assessment->Satisfies() ? "goals met" : "goals NOT met");

  // 4. Ask for the minimum-cost configuration meeting the goals (§7.2
  //    greedy heuristic).
  auto recommendation = tool->GreedyMinCost(goals);
  if (!recommendation.ok()) {
    std::fprintf(stderr, "search: %s\n",
                 recommendation.status().ToString().c_str());
    return 1;
  }
  std::printf("\n%s\n",
              tool->RenderRecommendation(*recommendation).c_str());
  return 0;
}
