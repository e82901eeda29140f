#include "markov/first_passage.h"

#include <vector>

#include "linalg/iterative_solver.h"
#include "linalg/lu_solver.h"
#include "linalg/sparse_matrix.h"

namespace wfms::markov {

using linalg::DenseMatrix;
using linalg::Vector;

Result<Vector> MeanFirstPassageTimes(const AbsorbingCtmc& chain,
                                     FirstPassageMethod method) {
  const size_t n = chain.num_states();
  const size_t a = chain.absorbing_state();

  // Compact the transient states; the system matrix is the generator
  // restricted to them (diagonal -v_i, off-diagonal q_ij), RHS -1.
  std::vector<size_t> transient;
  for (size_t i = 0; i < n; ++i) {
    if (i != a) transient.push_back(i);
  }
  const size_t m = transient.size();
  Vector rhs(m, -1.0);

  Vector solution(m, 0.0);
  if (method == FirstPassageMethod::kLu) {
    DenseMatrix sys(m, m);
    for (size_t i = 0; i < m; ++i) {
      const size_t si = transient[i];
      sys.At(i, i) = -chain.DepartureRate(si);
      for (size_t j = 0; j < m; ++j) {
        if (j == i) continue;
        sys.At(i, j) = chain.TransitionRate(si, transient[j]);
      }
    }
    auto solved = linalg::LuSolve(sys, rhs);
    if (!solved.ok()) {
      return solved.status().WithContext("first-passage system");
    }
    solution = *std::move(solved);
  } else {
    linalg::SparseMatrixBuilder builder(m, m);
    for (size_t i = 0; i < m; ++i) {
      const size_t si = transient[i];
      builder.Add(i, i, -chain.DepartureRate(si));
      for (size_t j = 0; j < m; ++j) {
        if (j == i) continue;
        const double rate = chain.TransitionRate(si, transient[j]);
        if (rate != 0.0) builder.Add(i, j, rate);
      }
    }
    const linalg::SparseMatrix sys = builder.Build();
    // Initialize with the single-visit lower bound H_i.
    for (size_t i = 0; i < m; ++i) {
      solution[i] = chain.residence_times()[transient[i]];
    }
    linalg::IterativeOptions opts;
    opts.tolerance = 1e-12;
    auto stats = linalg::GaussSeidelSolve(sys, rhs, &solution, opts);
    if (!stats.ok()) {
      return stats.status().WithContext("first-passage Gauss-Seidel");
    }
    if (!stats->converged) {
      return Status::NumericError(
          "first-passage Gauss-Seidel did not converge");
    }
  }

  Vector full(n, 0.0);
  for (size_t i = 0; i < m; ++i) {
    if (solution[i] < 0.0) {
      return Status::NumericError(
          "negative first-passage time; chain is ill-conditioned");
    }
    full[transient[i]] = solution[i];
  }
  return full;
}

Result<double> MeanTurnaroundTime(const AbsorbingCtmc& chain,
                                  FirstPassageMethod method) {
  WFMS_ASSIGN_OR_RETURN(Vector times, MeanFirstPassageTimes(chain, method));
  return times[chain.initial_state()];
}

}  // namespace wfms::markov
