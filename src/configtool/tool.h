// The configuration tool of §7: assessment of candidate configurations
// against performability goals and search for a (near-)minimum-cost
// configuration. Four search methods, named by one table (SearchMethod):
//  - greedy (§7.2): interleaves the availability and performability
//    criteria, adding one replica of the most critical server type at a
//    time — the paper's first-version heuristic.
//  - greedy-site: the same idea over per-site placements (DESIGN.md §12).
//  - exhaustive: enumerates the constrained configuration space and
//    returns the cheapest satisfying configuration — the optimality
//    baseline the greedy result is benchmarked against.
//  - bnb (branch-and-bound): the exact "full-fledged mathematical
//    optimization" the paper names as the greedy heuristic's successor.
//
// Throughput layer (see DESIGN.md "Concurrency model"): candidate
// assessments are memoized in a thread-safe cache keyed by the replication
// vector, the exhaustive and branch-and-bound waves fan out across a
// fixed-size thread pool via AssessBatch, and the iterative availability
// solves on the greedy path are warm-started from the parent
// configuration's stationary vector. Search results are bit-identical
// whatever the thread count: parallel waves are reduced in candidate-index
// order, never completion order.
#ifndef WFMS_CONFIGTOOL_TOOL_H_
#define WFMS_CONFIGTOOL_TOOL_H_

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "configtool/goals.h"
#include "performability/performability_model.h"
#include "workflow/configuration.h"
#include "workflow/environment.h"

namespace wfms::configtool {

/// Bounds on the search space; also expresses the paper's "specific
/// constraints such as limiting or fixing the degree of replication of
/// particular server types" (fix type x by setting min == max).
struct SearchConstraints {
  std::vector<int> min_replicas;  // empty: all 1
  std::vector<int> max_replicas;  // empty: all 8

  int MinFor(size_t x) const {
    return x < min_replicas.size() ? min_replicas[x] : 1;
  }
  int MaxFor(size_t x) const {
    return x < max_replicas.size() ? max_replicas[x] : 8;
  }
  Status Validate(size_t num_types) const;
};

/// Bounds on the per-site placement search (GreedySiteMinCost). Placement
/// vectors are type-major: entry x * num_sites + a is the replica count of
/// server type x at site a.
struct SiteSearchConstraints {
  /// Minimum replicas per (type, site); empty means all 0. Expresses data
  /// residency or anchoring constraints ("the EU site always keeps one
  /// workflow server").
  std::vector<int> min_per_site;
  /// Upper bound on the *total* replicas of each server type across all
  /// sites.
  int max_per_type = 8;

  int MinFor(size_t x, size_t a, size_t num_sites) const {
    const size_t i = x * num_sites + a;
    return i < min_per_site.size() ? min_per_site[i] : 0;
  }
  Status Validate(size_t num_types, size_t num_sites) const;
};

/// Verdict of one contingency (single-site loss or two-way partition)
/// re-evaluation against the degraded goals (DESIGN.md §12).
struct ContingencyAssessment {
  avail::SiteContingency contingency;
  /// Human-readable form ("site EU down", "partition EU|US").
  std::string label;
  double availability = 0.0;
  double max_expected_waiting = 0.0;
  /// Both degraded goals hold under this contingency.
  bool satisfied = false;
};

/// Verdict of one configuration against the goals.
struct Assessment {
  workflow::Configuration config;
  performability::PerformabilityReport performability;
  double cost = 0.0;
  bool meets_waiting_goal = false;
  bool meets_availability_goal = false;
  bool meets_saturation_goal = false;
  bool meets_instance_delay_goal = true;
  /// Per-contingency verdicts when the goals ask for survivability and the
  /// configuration is site-placed; empty otherwise. Each contingency's
  /// report is memoized under its own cache fingerprint.
  std::vector<ContingencyAssessment> contingencies;
  /// False when any requested contingency misses the degraded goals.
  /// Vacuously true for single-site configurations (survivability is a
  /// property of a placement; classic searches are unaffected).
  bool meets_survivability_goal = true;
  /// Expected queueing delay per workflow-type instance under W^Y
  /// (aligned with the environment's workflow list).
  linalg::Vector instance_delays;
  /// Fault isolation (see DESIGN.md "Failure handling"): when the model
  /// evaluation failed, the cause lands here instead of aborting the
  /// search, `performability` is empty, and Satisfies() is false — the
  /// candidate is infeasible-with-cause.
  Status error;
  /// The failure was numerical (solver divergence/non-convergence) rather
  /// than structural.
  bool numerical_failure = false;
  /// A retry with the exact LU solver ran (either rescuing the assessment
  /// or, when `error` is still set, also failing).
  bool retried_exact = false;

  bool Satisfies() const {
    return error.ok() && meets_waiting_goal && meets_availability_goal &&
           meets_saturation_goal && meets_instance_delay_goal &&
           meets_survivability_goal;
  }
};

/// A candidate whose assessment terminally failed during a search.
struct FailedCandidate {
  workflow::Configuration config;
  Status error;               // the terminal cause
  bool numerical = false;     // solver trouble, not a structural problem
  bool retried_exact = false;  // the LU retry also ran and failed
};

/// The search-method table: every search the tool offers, by the one name
/// the CLI, the daemon protocol, the adapt controller and checkpoint
/// fingerprints all use.
enum class SearchMethod { kGreedy, kGreedySite, kExhaustive, kBranchAndBound };

/// Canonical name: "greedy", "greedy-site", "exhaustive" or "bnb".
const char* SearchMethodName(SearchMethod method);
/// Inverse of SearchMethodName; also accepts "branch-and-bound" for bnb.
/// Anything else is InvalidArgument naming the supported methods.
Result<SearchMethod> ParseSearchMethod(std::string_view name);

/// Per-call controls for ConfigurationTool::Assess.
struct AssessOptions {
  /// Wall-clock cap on the assessment's steady-state solves, counted from
  /// the call; <= 0 means unlimited. An expiry comes back as
  /// Assessment::error = DeadlineExceeded and is never negatively cached,
  /// so a later call re-solves cleanly.
  double deadline_seconds = 0.0;
  /// Request-trace context (DESIGN.md §13): parents the assessment's
  /// solver spans. Invalid (default) outside a traced request.
  trace::TraceContext trace;
};

/// Search-level execution controls, orthogonal to goals and constraints.
struct SearchOptions {
  /// Wall-clock cap for the whole search, counted from the call; <= 0
  /// means unlimited. On expiry the search stops at the next wave/step
  /// boundary and returns its best-so-far with SearchResult::termination
  /// set to DeadlineExceeded. Each candidate's steady-state solve is also
  /// bounded by the time remaining when its assessment starts, so one slow
  /// solve cannot overshoot the deadline; such an expiry is never
  /// negatively cached (the candidate re-assesses cleanly on resume).
  double deadline_seconds = 0.0;
  /// Cooperative cancellation (e.g. a SIGINT/SIGTERM flag), polled at the
  /// same wave/step boundaries as the deadline. When it reads true the
  /// search stops and returns its best-so-far with termination set to
  /// Cancelled — the caller can then write a final checkpoint.
  const std::atomic<bool>* cancel = nullptr;
  /// Periodic checkpoint hook, invoked on the search thread at wave/step
  /// boundaries (never mid-assessment, never concurrently with itself) at
  /// most once per checkpoint_interval_seconds. Typically writes the
  /// assessment cache to disk via configtool/checkpoint.h.
  std::function<void()> on_checkpoint;
  /// Minimum seconds between on_checkpoint invocations; 0 fires at every
  /// boundary.
  double checkpoint_interval_seconds = 0.0;
  /// Request-trace context the search runs under (DESIGN.md §13): the
  /// daemon sets it from the request's `trace` field, and the search
  /// re-parents it into every candidate's SolveBudget so the solver spans
  /// attach under the search span. Carried explicitly — never through a
  /// thread-local — so pool workers cannot mix contexts across requests.
  trace::TraceContext trace;
};

struct SearchResult {
  /// The recommended configuration (the cheapest satisfying one found; if
  /// `satisfied` is false, the best-effort final candidate).
  workflow::Configuration config;
  double cost = 0.0;
  bool satisfied = false;
  /// Number of candidate configurations evaluated by the search logic.
  int evaluations = 0;
  /// Of `evaluations`, how many were served from the assessment cache.
  /// Depends on what earlier calls left in the cache, but not on the
  /// thread count — except in a greedy-site wave that lists one placement
  /// twice (a coverage move that adds a single replica), where concurrent
  /// lanes may both miss.
  int cache_hits = 0;
  /// Candidates whose assessment terminally failed (deduplicated by
  /// configuration, placement included, in the order the search first
  /// encountered them). The search continues around them; they are never
  /// recommended.
  std::vector<FailedCandidate> failed_candidates;
  /// OK for a complete search; DeadlineExceeded when the search stopped at
  /// SearchOptions::deadline_seconds and `config` is only best-so-far.
  Status termination;
  Assessment assessment;
};

class ConfigurationTool {
 public:
  /// The environment must outlive the tool.
  static Result<ConfigurationTool> Create(
      const workflow::Environment& env,
      const performability::PerformabilityOptions& options = {});

  ConfigurationTool(ConfigurationTool&&) noexcept;
  ConfigurationTool& operator=(ConfigurationTool&&) noexcept;
  ConfigurationTool(const ConfigurationTool&) = delete;
  ConfigurationTool& operator=(const ConfigurationTool&) = delete;
  ~ConfigurationTool();

  /// Evaluates one candidate configuration against the goals (§7.1: "for
  /// a given system configuration"). Memoized: the goal-independent
  /// performability report is cached per replication vector, so repeated
  /// assessments of the same configuration — even under different goals or
  /// cost models — skip the CTMC construction and solve entirely.
  /// Fault-isolated (DESIGN.md §6): a numerical evaluation failure is
  /// retried once with the exact LU solver when the state space fits the
  /// configured dense cap, and a terminal one comes back as an Assessment
  /// with `error` set (and is negatively cached). Only structural errors
  /// (invalid goals/cost/configuration) are a Status.
  Result<Assessment> Assess(const workflow::Configuration& config,
                            const Goals& goals,
                            const CostModel& cost = CostModel::Uniform(),
                            const AssessOptions& options = {}) const;

  /// Assesses a batch of candidates, fanning the model evaluations out
  /// across the tool's thread pool. The returned vector is index-aligned
  /// with `configs`; entry i is bit-identical to what a sequential
  /// Assess(configs[i], ...) would produce, failures included. Only
  /// structural errors abort, with the first (lowest-index) one winning
  /// deterministically.
  Result<std::vector<Assessment>> AssessBatch(
      std::span<const workflow::Configuration> configs, const Goals& goals,
      const CostModel& cost = CostModel::Uniform()) const;

  /// §7.2 greedy heuristic. Iterative availability solves along the chain
  /// of grown configurations are warm-started from the parent's stationary
  /// vector. Each step assesses only the child it picked, on the calling
  /// thread. A growth step whose candidate fails assessment excludes that
  /// server type for the step and re-picks the next most critical one.
  Result<SearchResult> GreedyMinCost(
      const Goals& goals, const SearchConstraints& constraints = {},
      const CostModel& cost = CostModel::Uniform(),
      const SearchOptions& search = {}) const;

  /// Exhaustive minimum-cost search over the constrained space; candidates
  /// are drained in fixed-size enumeration-ordered waves that the pool
  /// assesses concurrently. Failed candidates are skipped (recorded in
  /// SearchResult::failed_candidates).
  Result<SearchResult> ExhaustiveMinCost(
      const Goals& goals, const SearchConstraints& constraints = {},
      const CostModel& cost = CostModel::Uniform(),
      const SearchOptions& search = {}) const;

  /// Branch-and-bound search (the "full-fledged" optimizer the paper
  /// names): best-first expansion in cost order with monotonicity
  /// pruning — adding a replica never hurts either goal, so (a) the first
  /// satisfying configuration dequeued is cost-optimal, and (b) if even
  /// the all-max configuration fails, the search aborts immediately.
  /// Exact like ExhaustiveMinCost but typically evaluates far fewer
  /// candidates. The cost-ordered frontier is drained in equal-cost waves
  /// assessed in parallel. When the all-max feasibility probe itself fails
  /// assessment, the early abort is skipped (the bound is unverified) and
  /// lattice exhaustion returns a best-effort unsatisfied result instead
  /// of an internal error.
  Result<SearchResult> BranchAndBoundMinCost(
      const Goals& goals, const SearchConstraints& constraints = {},
      const CostModel& cost = CostModel::Uniform(),
      const SearchOptions& search = {}) const;

  /// Greedy minimum-cost search over per-site placements (DESIGN.md §12):
  /// grows one replica of one (type, site) pair per step, assessing every
  /// admissible +1 neighbor in parallel and picking deterministically —
  /// a satisfying candidate with the lowest cost (then lowest (type, site)
  /// index) wins; otherwise the candidate with the smallest remaining goal
  /// violation (survivability contingencies included). Requires a
  /// multi-site environment; honors `goals.survive_sites` /
  /// `goals.survive_partitions` via the per-contingency re-assessment in
  /// Assess. Deadline/cancel are polled at step boundaries.
  Result<SearchResult> GreedySiteMinCost(
      const Goals& goals, const SiteSearchConstraints& constraints = {},
      const CostModel& cost = CostModel::Uniform(),
      const SearchOptions& search = {}) const;

  /// Human-readable recommendation (§7.1's "recommendations" component).
  std::string RenderRecommendation(const SearchResult& result) const;

  const performability::PerformabilityModel& model() const { return model_; }

  /// Execution lanes used by AssessBatch and the search strategies.
  /// 1 (the deterministic reference mode) runs everything inline on the
  /// calling thread; n > 1 spawns n - 1 pool workers. Defaults to
  /// ThreadPool::DefaultThreadCount(), so WFMS_NUM_THREADS=1 pins the
  /// whole process to sequential assessment. Not safe to call concurrently
  /// with a running search.
  void set_num_threads(size_t n);
  size_t num_threads() const { return num_threads_; }

  struct CacheStats {
    size_t entries = 0;
    size_t hits = 0;
    size_t misses = 0;
    /// Reports dropped by the LRU bound (0 with unlimited limits).
    size_t evictions = 0;
    /// Estimated bytes held by the memoized reports.
    size_t bytes = 0;
  };
  CacheStats cache_stats() const;
  /// True when a memoized report for `replicas` is resident right now.
  /// The daemon's cache-only degraded mode probes this to answer from the
  /// cache without ever starting a solve. Does not touch LRU recency and
  /// counts neither a hit nor a miss.
  bool HasCachedAssessment(const std::vector<int>& replicas) const;
  /// Drops every memoized assessment (e.g. to benchmark cold paths).
  void ClearAssessmentCache();

  /// Budget for the memoized-report cache. Unlimited by default (one-shot
  /// searches want every assessment kept); a long-lived daemon sets a
  /// bound so the cache cannot grow without limit. When either bound is
  /// exceeded the least-recently-used report is evicted (counted by the
  /// `wfms_configtool_cache_evictions_total` metric). Eviction only costs
  /// recomputation — results are bit-identical whatever the cache holds
  /// (the PR-1 invariant). Negative failure entries are a few bytes each
  /// and stay unbounded.
  struct CacheLimits {
    size_t max_entries = 0;  // 0 = unlimited
    size_t max_bytes = 0;    // 0 = unlimited (estimated footprint)
  };
  /// Applies `limits` and immediately evicts down to the new budget.
  /// Thread-safe (takes the cache lock).
  void set_cache_limits(const CacheLimits& limits);

  /// A terminally failed evaluation as stored in the negative cache.
  struct CachedFailure {
    Status error;
    bool numerical = false;
    bool retried_exact = false;
  };
  /// The memoized assessment state, externalized. This is the search's
  /// durable progress: every report (and negative failure entry) a resumed
  /// search finds here is a cache hit it does not have to re-solve, so a
  /// deterministic re-run through a restored dump fast-forwards to where
  /// the dumped run stopped (see configtool/checkpoint.h and DESIGN.md
  /// "Checkpointing and recovery").
  struct CacheDump {
    std::vector<std::pair<std::vector<int>,
                          performability::PerformabilityReport>>
        reports;
    std::vector<std::pair<std::vector<int>, CachedFailure>> failures;
  };
  /// Copies the cache contents in deterministic (key) order.
  CacheDump DumpAssessmentCache() const;
  /// Merges a dump into the cache (existing entries win, like any other
  /// insert race). Logically const for the same reason Assess is: the
  /// cache holds pure functions of the environment.
  void RestoreAssessmentCache(const CacheDump& dump) const;

 private:
  struct AssessmentCache;

  ConfigurationTool(const workflow::Environment* env,
                    performability::PerformabilityModel model);

  /// The one assessment core behind Assess, AssessBatch and the searches:
  /// negative then positive cache lookup and, on a miss, the model
  /// evaluation — warm-started from `avail_guess` when non-null, its
  /// solves bounded by the wall clock left until `deadline` (the epoch
  /// means unbounded) and parented under `trace` — with the fault
  /// isolation Assess documents. `cache_hit` (optional) reports whether
  /// the answer came from the cache.
  Result<Assessment> AssessCore(const workflow::Configuration& config,
                                const Goals& goals, const CostModel& cost,
                                const linalg::Vector* avail_guess,
                                std::chrono::steady_clock::time_point deadline,
                                const trace::TraceContext& trace,
                                bool* cache_hit) const;
  /// AssessCore across the pool, reduced in index order; records every
  /// candidate on `result` when it is non-null.
  Result<std::vector<Assessment>> AssessBatchCore(
      std::span<const workflow::Configuration> configs, const Goals& goals,
      const CostModel& cost, std::chrono::steady_clock::time_point deadline,
      const trace::TraceContext& trace, SearchResult* result) const;
  /// Derives goal verdicts and instance delays from a memoized report.
  Assessment BuildAssessment(const workflow::Configuration& config,
                             performability::PerformabilityReport report,
                             const Goals& goals, const CostModel& cost) const;
  /// When the goals ask for survivability and `assessment->config` is
  /// site-placed, re-evaluates every requested contingency (each memoized
  /// under its own cache fingerprint: CacheKey() ++ {-2, down_mask,
  /// part_mask}) and fills `contingencies` / `meets_survivability_goal`.
  /// No-op otherwise.
  Status ApplySurvivability(
      Assessment* assessment, const Goals& goals,
      const markov::SteadyStateOptions* solver_override) const;

  /// Degree of goal violation, the greedy-site pick's ranking of
  /// unsatisfying candidates (0 when satisfied).
  double ViolationMeasure(const Assessment& assessment,
                          const Goals& goals) const;

  ThreadPool& pool() const;

  const workflow::Environment* env_;
  performability::PerformabilityModel model_;
  size_t num_threads_;
  std::unique_ptr<AssessmentCache> cache_;
  /// Lazily constructed; declared last so that pool destruction joins the
  /// workers while the model and cache are still alive.
  mutable std::unique_ptr<ThreadPool> pool_;
};

/// Runs `method` on `tool`: the one place a parsed method name becomes a
/// search. greedy-site searches per-site placements under `site`; every
/// other method searches replication vectors under `constraints`.
Result<SearchResult> RunSearch(const ConfigurationTool& tool,
                               SearchMethod method, const Goals& goals,
                               const SearchConstraints& constraints,
                               const SiteSearchConstraints& site,
                               const CostModel& cost,
                               const SearchOptions& search);

}  // namespace wfms::configtool

#endif  // WFMS_CONFIGTOOL_TOOL_H_
