// The dynamic reconfiguration loop of §7.1: an operational WFMS is
// monitored (here: simulated), the audit trail re-calibrates the models,
// and the tool decides whether the current configuration still meets the
// goals — recommending a new one when the real workload has drifted from
// the designed assumptions.
//
// Scenario: the EP workflow was *designed* assuming 0.5 arrivals/min and
// a 20% dunning loop, but in production customers pay late twice as often
// (40% loop) and load has grown to 1.5/min.
//
// Build & run:  ./build/examples/reconfiguration_monitoring

#include <cstdio>

#include "common/time_units.h"
#include "configtool/tool.h"
#include "sim/simulator.h"
#include "statechart/builder.h"
#include "statechart/parser.h"
#include "workflow/calibration.h"
#include "workflow/scenarios.h"

int main() {
  using namespace wfms;

  // The environment the system was designed with.
  auto designed = workflow::EpEnvironment(/*arrival_rate=*/0.5);
  if (!designed.ok()) return 1;

  // The production reality: heavier load, more dunning iterations.
  auto production = workflow::EpEnvironment(/*arrival_rate=*/1.5);
  if (!production.ok()) return 1;
  {
    auto charts = statechart::ParseCharts(workflow::EpChartsDsl());
    // Rebuild the EP chart with a 40% loop back to SendInvoice.
    const statechart::StateChart* ep = *charts->GetChart("EP");
    statechart::ChartBuilder patched("EP");
    for (const auto& s : ep->states()) {
      if (s.kind == statechart::StateKind::kComposite) {
        patched.AddCompositeState(s.name, s.subcharts);
      } else {
        patched.AddActivityState(s.name, s.activity, s.residence_time);
      }
    }
    patched.SetInitial(ep->initial_state()).SetFinal(ep->final_state());
    for (const auto& t : ep->transitions()) {
      double p = t.probability;
      if (t.from == "CollectPayment") p = (t.to == "SendInvoice") ? 0.4 : 0.6;
      patched.AddTransition(t.from, t.to, p, t.rule);
    }
    statechart::ChartRegistry registry;
    (void)registry.AddChart(*patched.Build());
    (void)registry.AddChart(**charts->GetChart("Notify"));
    (void)registry.AddChart(**charts->GetChart("Delivery"));
    production->charts = std::move(registry);
  }

  configtool::Goals goals;
  goals.max_waiting_time = 0.05;
  goals.min_availability = 0.99999;

  // The configuration recommended at design time.
  auto design_tool = configtool::ConfigurationTool::Create(*designed);
  if (!design_tool.ok()) return 1;
  auto initial = design_tool->GreedyMinCost(goals);
  if (!initial.ok()) return 1;
  std::printf("design-time recommendation: %s (cost %.0f)\n",
              initial->config.ToString().c_str(), initial->cost);

  // Run "production" for a month of simulated time, recording the audit
  // trail the monitoring component would collect.
  sim::SimulationOptions sim_options;
  sim_options.config = initial->config;
  sim_options.duration = 43200.0;  // one month in minutes
  sim_options.warmup = 2000.0;
  sim_options.record_audit_trail = true;
  sim_options.seed = 2026;
  auto simulator = sim::Simulator::Create(*production, sim_options);
  if (!simulator.ok()) return 1;
  auto observed = simulator->Run();
  if (!observed.ok()) return 1;
  std::printf("observed month: %lld EP instances, engine W = %s, "
              "availability %.6f\n",
              static_cast<long long>(observed->workflows.at("EP").completed),
              FormatMinutes(observed->servers[1].waiting_time.mean()).c_str(),
              observed->observed_availability);

  // Calibrate the *designed* model from the observed trail (§7.1).
  workflow::CalibrationReport report;
  auto calibrated =
      workflow::CalibrateEnvironment(*designed, observed->trail, {}, &report);
  if (!calibrated.ok()) {
    std::fprintf(stderr, "%s\n", calibrated.status().ToString().c_str());
    return 1;
  }
  std::printf("calibration: %d states re-estimated, arrival rate now "
              "%.3f/min\n",
              report.states_recalibrated,
              calibrated->workflows[0].arrival_rate);
  const auto* ep = *calibrated->charts.GetChart("EP");
  for (const auto* t : ep->OutgoingTransitions("CollectPayment")) {
    std::printf("  CollectPayment -> %-12s p = %.3f\n", t->to.c_str(),
                t->probability);
  }

  // Re-assess and re-recommend on the calibrated model.
  auto prod_tool = configtool::ConfigurationTool::Create(*calibrated);
  if (!prod_tool.ok()) return 1;
  auto current = prod_tool->Assess(initial->config, goals);
  if (!current.ok() || !current->error.ok()) return 1;
  std::printf("\ncurrent configuration %s now %s\n",
              initial->config.ToString().c_str(),
              current->Satisfies() ? "still meets the goals"
                                   : "VIOLATES the goals");
  if (!current->Satisfies()) {
    auto reconfigured = prod_tool->GreedyMinCost(goals);
    if (reconfigured.ok()) {
      std::printf("\n%s\n",
                  prod_tool->RenderRecommendation(*reconfigured).c_str());
    }
  }
  return 0;
}
