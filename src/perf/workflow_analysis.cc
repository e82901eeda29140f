#include "perf/workflow_analysis.h"

#include <map>

#include "markov/transient.h"

namespace wfms::perf {

using linalg::DenseMatrix;
using linalg::Vector;

namespace {

/// Computes r_{x, chart} for one mapped chart, recursing into subcharts.
/// `cache` memoizes per-chart request vectors to keep shared subcharts
/// linear.
class LoadAnalyzer {
 public:
  LoadAnalyzer(const workflow::Environment& env,
               const statechart::MappingOptions& mapping)
      : env_(env), mapping_(mapping) {}

  /// Expected requests per server type generated by one execution of the
  /// chart (including all nested subworkflows).
  Result<Vector> ChartRequests(const std::string& chart_name) {
    const auto it = cache_.find(chart_name);
    if (it != cache_.end()) return it->second;
    WFMS_ASSIGN_OR_RETURN(statechart::MappedWorkflow mapped,
                          statechart::MapChartToCtmc(env_.charts, chart_name,
                                                     mapping_));
    WFMS_ASSIGN_OR_RETURN(Vector requests, AnalyzeMapped(mapped).requests);
    cache_[chart_name] = requests;
    return requests;
  }

  struct MappedAnalysis {
    Result<Vector> requests;
    DenseMatrix state_loads;
    Vector state_visits;
  };

  /// Full analysis of an already-mapped chart.
  MappedAnalysis AnalyzeMapped(const statechart::MappedWorkflow& mapped) {
    const size_t k = env_.num_server_types();
    const size_t n = mapped.chain.num_states();

    // Per-state entry loads (§4.2.2): activity load for simple states,
    // sum of subchart request vectors for composite states.
    DenseMatrix state_loads(k, n);
    for (size_t s = 0; s < mapped.states.size(); ++s) {
      const statechart::MappedState& info = mapped.states[s];
      Vector load(k, 0.0);
      if (!info.subcharts.empty()) {
        for (const std::string& sub : info.subcharts) {
          auto sub_requests = ChartRequests(sub);
          if (!sub_requests.ok()) {
            return {sub_requests.status(), DenseMatrix(), Vector()};
          }
          for (size_t x = 0; x < k; ++x) load[x] += (*sub_requests)[x];
        }
      } else if (!info.activity.empty()) {
        load = env_.loads.LoadOf(info.activity, k);
      }
      for (size_t x = 0; x < k; ++x) state_loads.At(x, s) = load[x];
    }

    // r_x = sum_s visits_s * state_loads(x, s) (§4.2.1's expected reward
    // until absorption, with entry rewards state_loads(x, .)).
    auto visits = markov::ExpectedStateVisits(mapped.chain);
    if (!visits.ok()) return {visits.status(), DenseMatrix(), Vector()};
    Vector requests(k, 0.0);
    for (size_t x = 0; x < k; ++x) {
      for (size_t s = 0; s < n; ++s) {
        requests[x] += (*visits)[s] * state_loads.At(x, s);
      }
    }
    return {std::move(requests), std::move(state_loads), *std::move(visits)};
  }

 private:
  const workflow::Environment& env_;
  const statechart::MappingOptions& mapping_;
  std::map<std::string, Vector> cache_;
};

}  // namespace

Result<WorkflowAnalysis> AnalyzeWorkflow(
    const workflow::Environment& env, const workflow::WorkflowTypeSpec& spec,
    const AnalysisOptions& options) {
  WFMS_ASSIGN_OR_RETURN(
      statechart::MappedWorkflow mapped,
      statechart::MapChartToCtmc(env.charts, spec.chart, options.mapping));

  LoadAnalyzer analyzer(env, options.mapping);
  LoadAnalyzer::MappedAnalysis analysis = analyzer.AnalyzeMapped(mapped);
  if (!analysis.requests.ok()) {
    return analysis.requests.status().WithContext("workflow type '" +
                                                  spec.name + "'");
  }

  return WorkflowAnalysis{spec.name,
                          spec.chart,
                          mapped.turnaround_time,
                          *std::move(analysis.requests),
                          std::move(mapped.chain),
                          std::move(mapped.states),
                          std::move(analysis.state_loads),
                          std::move(analysis.state_visits)};
}

}  // namespace wfms::perf
