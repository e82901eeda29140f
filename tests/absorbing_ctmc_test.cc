#include "markov/absorbing_ctmc.h"

#include <gtest/gtest.h>

#include <cmath>

#include "markov/first_passage.h"
#include "markov/phase_type.h"
#include "markov/transient.h"

namespace wfms::markov {
namespace {

using linalg::DenseMatrix;
using linalg::Vector;

/// s0 --(1.0)--> s1; s1 --(q)--> s0, --(1-q)--> A. Closed forms:
/// visits(s0) = visits(s1) = 1/(1-q); R = (H0+H1)/(1-q).
AbsorbingCtmc MakeLoopChain(double q, double h0, double h1) {
  DenseMatrix p{{0, 1, 0}, {q, 0, 1 - q}, {0, 0, 0}};
  auto chain = AbsorbingCtmc::Create(std::move(p),
                                     {h0, h1, kInfiniteResidence},
                                     {"s0", "s1", "A"}, 0, 2);
  EXPECT_TRUE(chain.ok()) << chain.status();
  return *std::move(chain);
}

TEST(AbsorbingCtmcTest, CreateValidations) {
  // Self loop on a transient state.
  DenseMatrix self{{0.5, 0.5}, {0, 0}};
  EXPECT_FALSE(AbsorbingCtmc::Create(self, {1.0, kInfiniteResidence},
                                     {"a", "A"}, 0, 1)
                   .ok());
  // Row not summing to one.
  DenseMatrix bad_sum{{0, 0.5}, {0, 0}};
  EXPECT_FALSE(AbsorbingCtmc::Create(bad_sum, {1.0, kInfiniteResidence},
                                     {"a", "A"}, 0, 1)
                   .ok());
  // Non-positive residence time on a transient state.
  DenseMatrix ok_p{{0, 1}, {0, 0}};
  EXPECT_FALSE(AbsorbingCtmc::Create(ok_p, {0.0, kInfiniteResidence},
                                     {"a", "A"}, 0, 1)
                   .ok());
  // Initial == absorbing.
  EXPECT_FALSE(AbsorbingCtmc::Create(ok_p, {1.0, kInfiniteResidence},
                                     {"a", "A"}, 1, 1)
                   .ok());
  // Absorbing state unreachable.
  DenseMatrix cyc{{0, 1, 0}, {1, 0, 0}, {0, 0, 0}};
  EXPECT_FALSE(AbsorbingCtmc::Create(cyc, {1.0, 1.0, kInfiniteResidence},
                                     {"a", "b", "A"}, 0, 2)
                   .ok());
}

TEST(AbsorbingCtmcTest, TrapStateRejected) {
  // s1 is reachable but cannot reach absorption.
  DenseMatrix p{{0, 0.5, 0.5, 0}, {0, 0, 0, 0}, {0, 0, 0, 1}, {0, 0, 0, 0}};
  p.At(1, 1) = 0.0;  // s1 has no outgoing edges at all -> invalid row
  EXPECT_FALSE(
      AbsorbingCtmc::Create(p, {1, 1, 1, kInfiniteResidence},
                            {"a", "trap", "b", "A"}, 0, 3)
          .ok());
}

TEST(AbsorbingCtmcTest, CreateRenormalizesWithinTolerance) {
  DenseMatrix p{{0, 0.3 + 1e-12, 0.7}, {0, 0, 1}, {0, 0, 0}};
  auto chain = AbsorbingCtmc::Create(std::move(p),
                                     {1.0, 1.0, kInfiniteResidence},
                                     {"a", "b", "A"}, 0, 2);
  ASSERT_TRUE(chain.ok()) << chain.status();
  const DenseMatrix& q = chain->transition_probabilities();
  EXPECT_DOUBLE_EQ(q.At(0, 1) + q.At(0, 2), 1.0);
}

TEST(AbsorbingCtmcTest, StateLookup) {
  const AbsorbingCtmc chain = MakeLoopChain(0.25, 1.0, 1.0);
  auto idx = chain.StateIndex("s1");
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ(*idx, 1u);
  EXPECT_FALSE(chain.StateIndex("nope").ok());
  EXPECT_EQ(chain.state_name(2), "A");
}

// The jump chain P of an AbsorbingCtmc is a DTMC: Create validates it as
// one, and ExpectedStateVisits solves its fundamental matrix.

TEST(DtmcTest, CreateRejectsNonSquare) {
  EXPECT_FALSE(AbsorbingCtmc::Create(DenseMatrix(2, 3),
                                     {1.0, kInfiniteResidence}, {"a", "A"},
                                     0, 1)
                   .ok());
}

TEST(DtmcTest, CreateRejectsNameMismatch) {
  DenseMatrix p{{0, 1}, {0, 0}};
  EXPECT_FALSE(
      AbsorbingCtmc::Create(p, {1.0, kInfiniteResidence}, {"a"}, 0, 1).ok());
}

TEST(DtmcTest, CreateRejectsBadRowSum) {
  DenseMatrix p{{0, 0.5, 0.4}, {0, 0, 1}, {0, 0, 0}};
  EXPECT_FALSE(AbsorbingCtmc::Create(std::move(p),
                                     {1.0, 1.0, kInfiniteResidence},
                                     {"a", "b", "A"}, 0, 2)
                   .ok());
}

TEST(DtmcTest, CreateRejectsNegativeProbability) {
  // The row still sums to one.
  DenseMatrix p{{0, 1.5, -0.5}, {0, 0, 1}, {0, 0, 0}};
  EXPECT_FALSE(AbsorbingCtmc::Create(std::move(p),
                                     {1.0, 1.0, kInfiniteResidence},
                                     {"a", "b", "A"}, 0, 2)
                   .ok());
}

TEST(DtmcTest, GeometricLoopVisits) {
  // Visits depend on the jump chain only, not on the residence times:
  // 1/(1-q) to each loop state, none to the absorbing state.
  for (double q : {0.0, 0.25, 0.5, 0.9}) {
    const AbsorbingCtmc chain = MakeLoopChain(q, 2.0, 7.0);
    auto visits = ExpectedStateVisits(chain);
    ASSERT_TRUE(visits.ok()) << visits.status();
    EXPECT_NEAR((*visits)[0], 1.0 / (1.0 - q), 1e-12) << "q=" << q;
    EXPECT_NEAR((*visits)[1], 1.0 / (1.0 - q), 1e-12) << "q=" << q;
    EXPECT_DOUBLE_EQ((*visits)[2], 0.0) << "q=" << q;
  }
}

TEST(DtmcTest, OutOfRangeStart) {
  // The start is fixed at Create, which rejects an initial or absorbing
  // state outside the chain.
  DenseMatrix p{{0, 1}, {0, 0}};
  EXPECT_FALSE(AbsorbingCtmc::Create(p, {1.0, kInfiniteResidence},
                                     {"a", "A"}, 99, 1)
                   .ok());
  EXPECT_FALSE(AbsorbingCtmc::Create(p, {1.0, kInfiniteResidence},
                                     {"a", "A"}, 0, 99)
                   .ok());
}

TEST(AbsorbingCtmcTest, AbsorbingRowNormalizedToSelfLoop) {
  const AbsorbingCtmc chain = MakeLoopChain(0.0, 1.0, 1.0);
  EXPECT_DOUBLE_EQ(chain.transition_probabilities().At(2, 2), 1.0);
  EXPECT_TRUE(std::isinf(chain.residence_times()[2]));
}

TEST(AbsorbingCtmcTest, RatesAndGenerator) {
  const AbsorbingCtmc chain = MakeLoopChain(0.25, 2.0, 4.0);
  EXPECT_DOUBLE_EQ(chain.DepartureRate(0), 0.5);
  EXPECT_DOUBLE_EQ(chain.DepartureRate(1), 0.25);
  EXPECT_DOUBLE_EQ(chain.DepartureRate(2), 0.0);
  EXPECT_DOUBLE_EQ(chain.UniformizationRate(), 0.5);
  EXPECT_DOUBLE_EQ(chain.TransitionRate(0, 1), 0.5);
  EXPECT_DOUBLE_EQ(chain.TransitionRate(1, 0), 0.25 * 0.25);

  const DenseMatrix q = chain.Generator();
  for (size_t i = 0; i < chain.num_states(); ++i) {
    double row = 0.0;
    for (size_t j = 0; j < chain.num_states(); ++j) row += q.At(i, j);
    EXPECT_NEAR(row, 0.0, 1e-12) << "row " << i;
  }
  EXPECT_DOUBLE_EQ(q.At(0, 0), -0.5);
}

TEST(AbsorbingCtmcTest, UniformizedMatrixIsStochastic) {
  const AbsorbingCtmc chain = MakeLoopChain(0.3, 1.0, 5.0);
  const DenseMatrix u = chain.UniformizedTransitionMatrix();
  for (size_t i = 0; i < chain.num_states(); ++i) {
    double row = 0.0;
    for (size_t j = 0; j < chain.num_states(); ++j) {
      EXPECT_GE(u.At(i, j), 0.0);
      row += u.At(i, j);
    }
    EXPECT_NEAR(row, 1.0, 1e-12);
  }
  // The slow state (H=5) keeps a large self-loop after uniformization.
  EXPECT_NEAR(u.At(1, 1), 1.0 - 0.2 / 1.0, 1e-12);
}

TEST(FirstPassageTest, SingleActivityChain) {
  DenseMatrix p{{0, 1}, {0, 0}};
  auto chain = AbsorbingCtmc::Create(p, {7.5, kInfiniteResidence}, {"a", "A"},
                                     0, 1);
  ASSERT_TRUE(chain.ok());
  auto r = MeanTurnaroundTime(*chain);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(*r, 7.5, 1e-12);
}

TEST(FirstPassageTest, LoopChainClosedForm) {
  for (double q : {0.0, 0.2, 0.5, 0.9}) {
    const AbsorbingCtmc chain = MakeLoopChain(q, 2.0, 3.0);
    auto r = MeanTurnaroundTime(chain);
    ASSERT_TRUE(r.ok());
    EXPECT_NEAR(*r, (2.0 + 3.0) / (1.0 - q), 1e-9) << "q=" << q;
  }
}

TEST(FirstPassageTest, GaussSeidelMatchesLu) {
  const AbsorbingCtmc chain = MakeLoopChain(0.7, 1.5, 0.5);
  auto lu = MeanFirstPassageTimes(chain, FirstPassageMethod::kLu);
  auto gs = MeanFirstPassageTimes(chain, FirstPassageMethod::kGaussSeidel);
  ASSERT_TRUE(lu.ok());
  ASSERT_TRUE(gs.ok()) << gs.status();
  for (size_t i = 0; i < chain.num_states(); ++i) {
    EXPECT_NEAR((*gs)[i], (*lu)[i], 1e-8);
  }
}

TEST(FirstPassageTest, EqualsVisitWeightedResidenceTimes) {
  // R_t = sum_b visits(b) * H_b — two independent derivations must agree.
  const AbsorbingCtmc chain = MakeLoopChain(0.35, 2.5, 4.0);
  auto r = MeanTurnaroundTime(chain);
  auto visits = ExpectedStateVisits(chain);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(visits.ok());
  double weighted = 0.0;
  for (size_t i = 0; i < chain.num_states(); ++i) {
    if (i == chain.absorbing_state()) continue;
    weighted += (*visits)[i] * chain.residence_times()[i];
  }
  EXPECT_NEAR(*r, weighted, 1e-9);
}

TEST(TransientTest, VisitsMatchClosedForm) {
  const AbsorbingCtmc chain = MakeLoopChain(0.25, 1.0, 1.0);
  auto visits = ExpectedStateVisits(chain);
  ASSERT_TRUE(visits.ok());
  EXPECT_NEAR((*visits)[0], 4.0 / 3.0, 1e-12);
  EXPECT_NEAR((*visits)[1], 4.0 / 3.0, 1e-12);
}

TEST(TransientTest, GamblersRuinExpectedVisits) {
  // Fair gambler's ruin on {one, two}; both ruin ends are merged into the
  // absorbing state, which sits first so the transient states are not a
  // prefix of the state order.
  DenseMatrix p{{0, 0, 0}, {0.5, 0, 0.5}, {0.5, 0.5, 0}};
  auto chain = AbsorbingCtmc::Create(std::move(p),
                                     {kInfiniteResidence, 1.0, 1.0},
                                     {"A", "one", "two"}, 1, 0);
  ASSERT_TRUE(chain.ok()) << chain.status();
  auto visits = ExpectedStateVisits(*chain);
  ASSERT_TRUE(visits.ok()) << visits.status();
  // N = (I - [[0, .5], [.5, 0]])^-1 = [[4/3, 2/3], [2/3, 4/3]].
  EXPECT_NEAR((*visits)[1], 4.0 / 3.0, 1e-12);
  EXPECT_NEAR((*visits)[2], 2.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ((*visits)[0], 0.0);
}

TEST(TransientTest, NoAbsorptionPathIsError) {
  // start -> A directly; b <-> c is a closed 2-cycle that start never
  // reaches. Create only checks states reachable from the start, so it
  // accepts the chain, but I - P_T is singular and the solve must fail.
  DenseMatrix p{{0, 0, 0, 1}, {0, 0, 1, 0}, {0, 1, 0, 0}, {0, 0, 0, 0}};
  auto chain = AbsorbingCtmc::Create(std::move(p),
                                     {1.0, 1.0, 1.0, kInfiniteResidence},
                                     {"start", "b", "c", "A"}, 0, 3);
  ASSERT_TRUE(chain.ok()) << chain.status();
  EXPECT_FALSE(ExpectedStateVisits(*chain).ok());
}

TEST(TransientTest, RewardMatchesVisitInnerProduct) {
  // The uniformization/taboo computation (§4.2.1) must agree with the
  // exact embedded-chain fundamental matrix: r = sum_b visits(b) * l_b.
  const AbsorbingCtmc chain = MakeLoopChain(0.4, 2.0, 6.0);
  const Vector rewards{3.0, 2.0, 0.0};  // e.g. requests on some server type
  auto reward = ExpectedRewardUntilAbsorption(chain, rewards);
  auto visits = ExpectedStateVisits(chain);
  ASSERT_TRUE(reward.ok()) << reward.status();
  ASSERT_TRUE(visits.ok());
  const double expected = (*visits)[0] * 3.0 + (*visits)[1] * 2.0;
  EXPECT_NEAR(reward->expected_reward, expected, 1e-8);
  EXPECT_LE(reward->residual_mass, 1e-12);
}

TEST(TransientTest, RewardCountsInitialEntryOnce) {
  DenseMatrix p{{0, 1}, {0, 0}};
  auto chain = AbsorbingCtmc::Create(p, {1.0, kInfiniteResidence}, {"a", "A"},
                                     0, 1);
  ASSERT_TRUE(chain.ok());
  auto reward = ExpectedRewardUntilAbsorption(*chain, Vector{5.0, 100.0});
  ASSERT_TRUE(reward.ok());
  // One visit to s0 earning 5; absorbing state's reward must be ignored.
  EXPECT_NEAR(reward->expected_reward, 5.0, 1e-10);
}

TEST(TransientTest, RewardSizeMismatchRejected) {
  const AbsorbingCtmc chain = MakeLoopChain(0.2, 1.0, 1.0);
  EXPECT_FALSE(ExpectedRewardUntilAbsorption(chain, Vector{1.0}).ok());
}

TEST(TransientTest, StepCapTooSmallIsError) {
  const AbsorbingCtmc chain = MakeLoopChain(0.9, 1.0, 1.0);
  RewardOptions opts;
  opts.max_steps = 2;
  const auto r = ExpectedRewardUntilAbsorption(chain, Vector{1, 1, 0}, opts);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNumericError);
}

TEST(TransientTest, AbsorptionStepBoundMonotoneInConfidence) {
  const AbsorbingCtmc chain = MakeLoopChain(0.5, 1.0, 2.0);
  auto z90 = AbsorptionStepBound(chain, 0.90);
  auto z99 = AbsorptionStepBound(chain, 0.99);
  auto z999 = AbsorptionStepBound(chain, 0.999);
  ASSERT_TRUE(z90.ok());
  ASSERT_TRUE(z99.ok());
  ASSERT_TRUE(z999.ok());
  EXPECT_LE(*z90, *z99);
  EXPECT_LE(*z99, *z999);
  EXPECT_GT(*z999, 0);
}

TEST(TransientTest, AbsorptionStepBoundRejectsBadConfidence) {
  const AbsorbingCtmc chain = MakeLoopChain(0.5, 1.0, 2.0);
  EXPECT_FALSE(AbsorptionStepBound(chain, 0.0).ok());
  EXPECT_FALSE(AbsorptionStepBound(chain, 1.0).ok());
}

TEST(PhaseTypeTest, ExpansionPreservesTurnaroundTime) {
  const AbsorbingCtmc chain = MakeLoopChain(0.3, 2.0, 4.0);
  auto expansion = ExpandErlangStages(chain, {3, 2, 1});
  ASSERT_TRUE(expansion.ok()) << expansion.status();
  EXPECT_EQ(expansion->chain.num_states(), 6u);
  auto r0 = MeanTurnaroundTime(chain);
  auto r1 = MeanTurnaroundTime(expansion->chain);
  ASSERT_TRUE(r0.ok());
  ASSERT_TRUE(r1.ok());
  EXPECT_NEAR(*r0, *r1, 1e-9);
}

TEST(PhaseTypeTest, ExpansionPreservesEntryRewards) {
  const AbsorbingCtmc chain = MakeLoopChain(0.3, 2.0, 4.0);
  const Vector rewards{5.0, 7.0, 0.0};
  auto expansion = ExpandErlangStages(chain, {4, 1, 1});
  ASSERT_TRUE(expansion.ok());
  const Vector lifted = expansion->LiftEntryRewards(rewards);
  auto orig = ExpectedRewardUntilAbsorption(chain, rewards);
  auto expanded = ExpectedRewardUntilAbsorption(expansion->chain, lifted);
  ASSERT_TRUE(orig.ok());
  ASSERT_TRUE(expanded.ok());
  EXPECT_NEAR(orig->expected_reward, expanded->expected_reward, 1e-7);
}

TEST(PhaseTypeTest, RejectsInvalidStages) {
  const AbsorbingCtmc chain = MakeLoopChain(0.3, 2.0, 4.0);
  EXPECT_FALSE(ExpandErlangStages(chain, {0, 1, 1}).ok());
  EXPECT_FALSE(ExpandErlangStages(chain, {1, 1, 2}).ok());  // absorbing
  EXPECT_FALSE(ExpandErlangStages(chain, {1, 1}).ok());     // size mismatch
}

TEST(PhaseTypeTest, StageNamesAndOrigins) {
  const AbsorbingCtmc chain = MakeLoopChain(0.0, 1.0, 1.0);
  auto expansion = ExpandErlangStages(chain, {2, 1, 1});
  ASSERT_TRUE(expansion.ok());
  EXPECT_EQ(expansion->chain.state_name(0), "s0#1");
  EXPECT_EQ(expansion->chain.state_name(1), "s0#2");
  EXPECT_EQ(expansion->chain.state_name(2), "s1");
  EXPECT_EQ(expansion->origin[1], 0u);
  EXPECT_TRUE(expansion->is_first_stage[0]);
  EXPECT_FALSE(expansion->is_first_stage[1]);
}

}  // namespace
}  // namespace wfms::markov
