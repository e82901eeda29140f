// Transient analysis of the workflow CTMC (§4.2 of the paper). The exact
// expected entries per state, from the embedded jump chain's fundamental
// matrix, are what the performance model computes its loads r_{x,t} from.
// The paper's §4.2.1 Markov reward summation (uniformization and taboo
// probabilities) yields the same loads; it stays as the independent
// reference that the tests and E3 (bench_load_model) compare against.
#ifndef WFMS_MARKOV_TRANSIENT_H_
#define WFMS_MARKOV_TRANSIENT_H_

#include "common/result.h"
#include "linalg/vector.h"
#include "markov/absorbing_ctmc.h"

namespace wfms::markov {

struct RewardOptions {
  /// Stop the step summation once the probability of *not* yet having been
  /// absorbed falls below this (the paper suggests bounding z_max so that
  /// absorption has occurred with e.g. 99 percent probability; the default
  /// is much tighter so results are effectively exact).
  double residual_mass_threshold = 1e-12;
  /// Hard cap on the number of uniformized steps.
  int max_steps = 1000000;
};

struct RewardResult {
  /// Expected total reward accumulated until absorption.
  double expected_reward = 0.0;
  /// Number of uniformized steps actually summed (the paper's z_max).
  int steps = 0;
  /// Unabsorbed probability mass remaining at the last step — an upper
  /// bound indicator of truncation error.
  double residual_mass = 0.0;
};

/// Expected reward earned until absorption when entering state s yields
/// reward `entry_rewards[s]` (§4.2.1): the initial state's reward is earned
/// once at start, and every subsequent *entry* into a state earns that
/// state's reward. The absorbing state's reward is ignored.
///
///   r = l_0 + (1/v) * sum_z sum_{a != A} taboo_p(z)_{0a}
///                      * sum_{b != A, b != a} q_ab * l_b
///
/// computed with taboo probabilities of the uniformized chain.
Result<RewardResult> ExpectedRewardUntilAbsorption(
    const AbsorbingCtmc& chain, const linalg::Vector& entry_rewards,
    const RewardOptions& options = {});

/// Expected number of entries into each state until absorption, starting
/// from the chain's initial state (initial occupancy counts as one entry).
/// Exact: row `initial` of the fundamental matrix N = (I - P_T)^{-1} of
/// the embedded jump chain, by one dense LU solve. The absorbing state's
/// entry is 0. Fails if a transient state, reachable or not, has no path
/// to absorption (singular I - P_T).
Result<linalg::Vector> ExpectedStateVisits(const AbsorbingCtmc& chain);

/// Determines the paper's z_max: the smallest number of uniformized steps
/// after which the chain has been absorbed with probability at least
/// `confidence` (default 0.99), capped at `max_steps`. This is the step
/// count of the reward summation run to residual mass 1 - confidence.
Result<int> AbsorptionStepBound(const AbsorbingCtmc& chain,
                                double confidence = 0.99,
                                int max_steps = 1000000);

}  // namespace wfms::markov

#endif  // WFMS_MARKOV_TRANSIENT_H_
