#include "markov/absorbing_ctmc.h"

#include <cmath>
#include <queue>

namespace wfms::markov {

using linalg::DenseMatrix;
using linalg::Vector;

namespace {

/// Breadth-first reachability over nonzero transition probabilities.
std::vector<bool> ReachableFrom(const DenseMatrix& p, size_t start) {
  std::vector<bool> seen(p.rows(), false);
  std::queue<size_t> queue;
  seen[start] = true;
  queue.push(start);
  while (!queue.empty()) {
    const size_t i = queue.front();
    queue.pop();
    for (size_t j = 0; j < p.cols(); ++j) {
      if (p.At(i, j) > 0.0 && !seen[j]) {
        seen[j] = true;
        queue.push(j);
      }
    }
  }
  return seen;
}

}  // namespace

Result<AbsorbingCtmc> AbsorbingCtmc::Create(
    DenseMatrix p, Vector residence_times,
    std::vector<std::string> state_names, size_t initial_state,
    size_t absorbing_state) {
  const size_t n = p.rows();
  if (p.cols() != n) {
    return Status::InvalidArgument("transition matrix must be square");
  }
  if (residence_times.size() != n || state_names.size() != n) {
    return Status::InvalidArgument(
        "residence time / state name count must match matrix size");
  }
  if (initial_state >= n || absorbing_state >= n) {
    return Status::OutOfRange("initial or absorbing state out of range");
  }
  if (initial_state == absorbing_state) {
    return Status::InvalidArgument(
        "initial state must differ from the absorbing state");
  }

  for (size_t i = 0; i < n; ++i) {
    double row_sum = 0.0;
    for (size_t j = 0; j < n; ++j) {
      if (p.At(i, j) < 0.0) {
        return Status::InvalidArgument("negative probability in row '" +
                                       state_names[i] + "'");
      }
      row_sum += p.At(i, j);
    }
    if (i == absorbing_state) {
      // Accept either an all-zero row or a pure self-loop; normalize to a
      // self-loop so the uniformized matrix is stochastic.
      const bool zero_row = row_sum == 0.0;
      const bool self_loop =
          std::fabs(p.At(i, i) - 1.0) < 1e-9 && std::fabs(row_sum - 1.0) < 1e-9;
      if (!zero_row && !self_loop) {
        return Status::InvalidArgument(
            "absorbing state row must be zero or a self-loop");
      }
      for (size_t j = 0; j < n; ++j) p.At(i, j) = 0.0;
      p.At(i, i) = 1.0;
      continue;
    }
    if (p.At(i, i) != 0.0) {
      return Status::InvalidArgument("jump chain must have p_ii = 0 (state '" +
                                     state_names[i] + "')");
    }
    if (std::fabs(row_sum - 1.0) > 1e-9) {
      return Status::InvalidArgument("row '" + state_names[i] + "' sums to " +
                                     std::to_string(row_sum) + ", expected 1");
    }
    for (size_t j = 0; j < n; ++j) p.At(i, j) /= row_sum;
  }

  for (size_t i = 0; i < n; ++i) {
    if (i == absorbing_state) {
      residence_times[i] = kInfiniteResidence;
      continue;
    }
    if (!(residence_times[i] > 0.0) || std::isinf(residence_times[i])) {
      return Status::InvalidArgument(
          "transient state '" + state_names[i] +
          "' must have a positive finite residence time");
    }
  }

  // Every state reachable from the start must reach absorption; otherwise
  // turnaround times are infinite and the workflow never terminates.
  const std::vector<bool> from_start = ReachableFrom(p, initial_state);
  if (!from_start[absorbing_state]) {
    return Status::InvalidArgument(
        "absorbing state unreachable from the initial state");
  }
  // Reverse reachability: states that can reach absorption.
  DenseMatrix pt = p.Transposed();
  const std::vector<bool> reaches_absorbing =
      ReachableFrom(pt, absorbing_state);
  for (size_t i = 0; i < n; ++i) {
    if (from_start[i] && !reaches_absorbing[i]) {
      return Status::InvalidArgument("state '" + state_names[i] +
                                     "' cannot reach the absorbing state");
    }
  }

  return AbsorbingCtmc(std::move(p), std::move(residence_times),
                       std::move(state_names), initial_state, absorbing_state);
}

Result<size_t> AbsorbingCtmc::StateIndex(const std::string& name) const {
  for (size_t i = 0; i < state_names_.size(); ++i) {
    if (state_names_[i] == name) return i;
  }
  return Status::NotFound("no state named '" + name + "'");
}

double AbsorbingCtmc::DepartureRate(size_t i) const {
  if (i == absorbing_state_) return 0.0;
  return 1.0 / h_[i];
}

double AbsorbingCtmc::UniformizationRate() const {
  double v = 0.0;
  for (size_t i = 0; i < num_states(); ++i) {
    v = std::max(v, DepartureRate(i));
  }
  return v;
}

double AbsorbingCtmc::TransitionRate(size_t i, size_t j) const {
  return DepartureRate(i) * p_.At(i, j);
}

DenseMatrix AbsorbingCtmc::Generator() const {
  const size_t n = num_states();
  DenseMatrix q(n, n);
  for (size_t i = 0; i < n; ++i) {
    if (i == absorbing_state_) continue;  // zero row
    const double vi = DepartureRate(i);
    for (size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      q.At(i, j) = vi * p_.At(i, j);
    }
    q.At(i, i) = -vi;
  }
  return q;
}

DenseMatrix AbsorbingCtmc::UniformizedTransitionMatrix() const {
  const size_t n = num_states();
  const double v = UniformizationRate();
  DenseMatrix u(n, n);
  for (size_t i = 0; i < n; ++i) {
    if (i == absorbing_state_) {
      u.At(i, i) = 1.0;
      continue;
    }
    const double ratio = DepartureRate(i) / v;
    for (size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      u.At(i, j) = ratio * p_.At(i, j);
    }
    u.At(i, i) = 1.0 - ratio;
  }
  return u;
}

}  // namespace wfms::markov
