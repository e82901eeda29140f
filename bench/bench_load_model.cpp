// E3 — §4.2 load model: expected service requests r_{x,t} per workflow
// instance and server type. The production loads come from the exact
// expected visit counts of the embedded jump chain; the paper's
// uniformization / taboo-probability Markov reward summation recomputes
// them as the cross-check. Exits 1 when any relative difference exceeds
// 1e-9. Also reports the paper's z_max (steps to 99% absorption) and the
// truncation sensitivity.

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "markov/transient.h"
#include "perf/workflow_analysis.h"
#include "workflow/scenarios.h"

namespace {

/// Entry rewards of server type x: row x of the analysis's state loads.
wfms::linalg::Vector EntryRewards(const wfms::perf::WorkflowAnalysis& analysis,
                                  size_t x) {
  wfms::linalg::Vector rewards(analysis.chain.num_states(), 0.0);
  for (size_t s = 0; s < rewards.size(); ++s) {
    rewards[s] = analysis.state_loads.At(x, s);
  }
  return rewards;
}

}  // namespace

int main() {
  using namespace wfms;
  constexpr double kGate = 1e-9;
  auto env = workflow::BenchmarkEnvironment();
  if (!env.ok()) return 1;

  std::printf("E3: expected service requests per workflow instance "
              "(Markov reward model, §4.2)\n\n");
  std::printf("%-8s %-10s %12s %12s %10s\n", "type", "server", "reward",
              "embedded", "rel.diff");
  double worst = 0.0;
  for (const auto& spec : env->workflows) {
    auto analysis = perf::AnalyzeWorkflow(*env, spec);
    if (!analysis.ok()) {
      std::fprintf(stderr, "analysis failed: %s\n",
                   analysis.status().ToString().c_str());
      return 1;
    }
    for (size_t x = 0; x < env->num_server_types(); ++x) {
      auto reward = markov::ExpectedRewardUntilAbsorption(
          analysis->chain, EntryRewards(*analysis, x));
      if (!reward.ok()) {
        std::fprintf(stderr, "reward summation failed: %s\n",
                     reward.status().ToString().c_str());
        return 1;
      }
      const double a = reward->expected_reward;
      const double b = analysis->expected_requests[x];
      const double diff = b > 0 ? std::fabs(a - b) / b : std::fabs(a);
      worst = std::max(worst, diff);
      std::printf("%-8s %-10s %12.4f %12.4f %10.2e\n", spec.name.c_str(),
                  env->servers.type(x).name.c_str(), a, b, diff);
    }
  }
  if (!(worst <= kGate)) {
    std::fprintf(stderr,
                 "E3 gate: reward summation and visit loads differ by "
                 "%.2e (> %.0e)\n",
                 worst, kGate);
    return 1;
  }

  // z_max (§4.2.1): steps until the chain is absorbed with 99 percent
  // probability, per workflow type.
  std::printf("\nz_max (99%% absorption) and truncation error:\n");
  for (const auto& spec : env->workflows) {
    auto analysis = perf::AnalyzeWorkflow(*env, spec);
    if (!analysis.ok()) return 1;
    auto z99 = markov::AbsorptionStepBound(analysis->chain, 0.99);
    auto z999 = markov::AbsorptionStepBound(analysis->chain, 0.999);
    if (!z99.ok() || !z999.ok()) return 1;
    std::printf("  %-8s z_max(0.99) = %3d, z_max(0.999) = %3d\n",
                spec.name.c_str(), *z99, *z999);
    // Comm-server reward at truncated vs tight residual thresholds (the
    // comm server is loaded by every workflow type).
    const linalg::Vector rewards = EntryRewards(*analysis, 0);
    markov::RewardOptions loose;
    loose.residual_mass_threshold = 0.01;  // the paper's 99% suggestion
    auto loose_r =
        markov::ExpectedRewardUntilAbsorption(analysis->chain, rewards, loose);
    markov::RewardOptions tight;
    tight.residual_mass_threshold = 1e-12;
    auto tight_r =
        markov::ExpectedRewardUntilAbsorption(analysis->chain, rewards, tight);
    if (loose_r.ok() && tight_r.ok() && tight_r->expected_reward > 0) {
      std::printf(
          "           truncation at 99%%: %.4f vs exact %.4f "
          "(rel. err. %.2e, steps %d vs %d)\n",
          loose_r->expected_reward, tight_r->expected_reward,
          std::fabs(loose_r->expected_reward - tight_r->expected_reward) /
              tight_r->expected_reward,
          loose_r->steps, tight_r->steps);
    }
  }
  return 0;
}
