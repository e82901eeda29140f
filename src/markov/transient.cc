#include "markov/transient.h"

#include <cmath>

#include "linalg/dense_matrix.h"
#include "linalg/lu_solver.h"

namespace wfms::markov {

using linalg::DenseMatrix;
using linalg::Vector;

Result<RewardResult> ExpectedRewardUntilAbsorption(
    const AbsorbingCtmc& chain, const Vector& entry_rewards,
    const RewardOptions& options) {
  const size_t n = chain.num_states();
  if (entry_rewards.size() != n) {
    return Status::InvalidArgument("entry reward vector size mismatch");
  }
  if (options.residual_mass_threshold <= 0.0 ||
      options.residual_mass_threshold >= 1.0) {
    return Status::InvalidArgument(
        "residual mass threshold must be in (0, 1)");
  }
  const size_t a = chain.absorbing_state();
  const size_t s0 = chain.initial_state();

  // Uniformized one-step matrix restricted to taboo of the absorbing state:
  // we simply never propagate mass out of column/row A, so the state vector
  // u(z) carries exactly the taboo probabilities \bar p_{0a}(z).
  const DenseMatrix u_matrix = chain.UniformizedTransitionMatrix();

  // Per-state expected one-step reward: g_a = sum_{b != A, b != a}
  // \bar p_ab * l_b. Note (1/v) q_ab == \bar p_ab for b != a, so the
  // paper's (1/v) sum q_ab l_b equals this inner product.
  Vector step_reward(n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    if (i == a) continue;
    double g = 0.0;
    for (size_t b = 0; b < n; ++b) {
      if (b == a || b == i) continue;
      g += u_matrix.At(i, b) * entry_rewards[b];
    }
    step_reward[i] = g;
  }

  RewardResult result;
  result.expected_reward = entry_rewards[s0];

  Vector u(n, 0.0);  // taboo distribution over non-absorbing states
  u[s0] = 1.0;
  double mass = 1.0;
  for (int z = 0; z < options.max_steps && mass > options.residual_mass_threshold;
       ++z) {
    // Accumulate this step's expected reward.
    double reward = 0.0;
    for (size_t i = 0; i < n; ++i) {
      if (u[i] != 0.0) reward += u[i] * step_reward[i];
    }
    result.expected_reward += reward;
    result.steps = z + 1;

    // Advance: u(z+1)_b = sum_{c != A} u(z)_c * \bar p_cb for b != A.
    Vector next(n, 0.0);
    for (size_t c = 0; c < n; ++c) {
      if (c == a || u[c] == 0.0) continue;
      for (size_t b = 0; b < n; ++b) {
        if (b == a) continue;
        next[b] += u[c] * u_matrix.At(c, b);
      }
    }
    u.swap(next);
    mass = 0.0;
    for (size_t i = 0; i < n; ++i) {
      if (i != a) mass += u[i];
    }
  }
  result.residual_mass = mass;
  if (mass > options.residual_mass_threshold) {
    // The caller asked for more precision than the step cap allowed.
    return Status::NumericError(
        "reward summation truncated with residual mass " +
        std::to_string(mass));
  }
  return result;
}

Result<Vector> ExpectedStateVisits(const AbsorbingCtmc& chain) {
  // The transient states T are all but the absorbing one. N_{start,b} =
  // e_start^T N e_b, so the whole row comes from one solve of
  // (I - P_T)^T y = e_start.
  const size_t n = chain.num_states();
  const size_t a = chain.absorbing_state();
  const auto compact = [a](size_t i) { return i < a ? i : i - 1; };
  const DenseMatrix& p = chain.transition_probabilities();
  DenseMatrix system(n - 1, n - 1);
  for (size_t i = 0; i < n; ++i) {
    if (i == a) continue;
    for (size_t j = 0; j < n; ++j) {
      if (j == a) continue;
      system.At(compact(j), compact(i)) = (i == j ? 1.0 : 0.0) - p.At(i, j);
    }
  }
  Vector e(n - 1, 0.0);
  e[compact(chain.initial_state())] = 1.0;
  auto solved = linalg::LuSolve(system, e);
  if (!solved.ok()) {
    return solved.status().WithContext(
        "chain has transient states with no path to absorption");
  }
  Vector visits(n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    if (i != a) visits[i] = (*solved)[compact(i)];
  }
  return visits;
}

Result<int> AbsorptionStepBound(const AbsorbingCtmc& chain, double confidence,
                                int max_steps) {
  if (confidence <= 0.0 || confidence >= 1.0) {
    return Status::InvalidArgument("confidence must be in (0, 1)");
  }
  RewardOptions options;
  options.residual_mass_threshold = 1.0 - confidence;
  options.max_steps = max_steps;
  auto run = ExpectedRewardUntilAbsorption(
      chain, Vector(chain.num_states(), 0.0), options);
  if (!run.ok()) return run.status().WithContext("absorption step bound");
  return run->steps;
}

}  // namespace wfms::markov
