// Per-workflow-type analysis (§4.1-§4.2 of the paper): mean turnaround
// time R_t via first-passage analysis, and the expected number of service
// requests r_{x,t} per server type, including the hierarchical treatment
// of (parallel) subworkflows of §4.2.2: a composite state contributes the
// *sum* of its subworkflows' expected requests and resides for the
// *maximum* of their turnaround times.
//
// r_{x,t} = sum_s visits_s * state_loads(x, s), with the exact expected
// visits of the embedded jump chain. The paper's §4.2.1 uniformized reward
// summation (markov::ExpectedRewardUntilAbsorption) yields the same value
// and is the cross-check in the tests and E3, not a production path.
#ifndef WFMS_PERF_WORKFLOW_ANALYSIS_H_
#define WFMS_PERF_WORKFLOW_ANALYSIS_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "linalg/dense_matrix.h"
#include "linalg/vector.h"
#include "markov/absorbing_ctmc.h"
#include "statechart/to_ctmc.h"
#include "workflow/environment.h"

namespace wfms::perf {

/// How r_{x,t} is computed. Exact expected visits are the only method; the
/// type exists only because the end-to-end benchmark (e2ebench/src/corpus.cc)
/// names it.
enum class LoadMethod {
  /// Expected visit counts via the embedded chain's fundamental matrix.
  kEmbeddedChain,
};

struct AnalysisOptions {
  LoadMethod method = LoadMethod::kEmbeddedChain;
  statechart::MappingOptions mapping;
};

/// Configuration-independent analysis of one workflow type.
struct WorkflowAnalysis {
  std::string workflow_type;
  std::string chart;
  /// Mean turnaround time R_t (model time units).
  double turnaround_time = 0.0;
  /// r_{x,t}: expected service requests per server type x for one instance.
  linalg::Vector expected_requests;
  /// The mapped top-level CTMC (one state per chart state + s_A).
  markov::AbsorbingCtmc chain;
  /// Descriptors of the non-absorbing states.
  std::vector<statechart::MappedState> states;
  /// Entry-load matrix: state_loads(x, s) = service requests on server
  /// type x per entry of chain state s (composite states already carry
  /// their subworkflows' aggregate requests, §4.2.2).
  linalg::DenseMatrix state_loads;
  /// Expected number of entries per chain state (from the embedded chain);
  /// expected_requests[x] = sum_s state_visits[s] * state_loads(x, s).
  linalg::Vector state_visits;
};

/// Analyzes the chart of `spec` against the environment's load table.
Result<WorkflowAnalysis> AnalyzeWorkflow(const workflow::Environment& env,
                                         const workflow::WorkflowTypeSpec& spec,
                                         const AnalysisOptions& options = {});

}  // namespace wfms::perf

#endif  // WFMS_PERF_WORKFLOW_ANALYSIS_H_
