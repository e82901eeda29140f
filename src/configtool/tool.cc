#include "configtool/tool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <list>
#include <map>
#include <mutex>
#include <optional>
#include <queue>
#include <set>
#include <sstream>

#include "common/metrics.h"
#include "common/time_units.h"
#include "common/trace.h"
#include "markov/state_space.h"

namespace wfms::configtool {

using workflow::Configuration;

namespace {

// Registry handles for the search pipeline, resolved once. Cache-level
// counters are mirrored at the exact sites that maintain the per-tool
// CacheStats atomics, so stderr accounting and --metrics-out exports are
// two views of the same increments and can never disagree.
metrics::Counter& CacheHitsTotal() {
  static metrics::Counter& counter = metrics::MetricsRegistry::Global()
      .GetCounter("wfms_configtool_cache_hits_total");
  return counter;
}
metrics::Counter& CacheMissesTotal() {
  static metrics::Counter& counter = metrics::MetricsRegistry::Global()
      .GetCounter("wfms_configtool_cache_misses_total");
  return counter;
}
metrics::Gauge& CacheEntriesGauge() {
  static metrics::Gauge& gauge = metrics::MetricsRegistry::Global()
      .GetGauge("wfms_configtool_cache_entries");
  return gauge;
}
metrics::Counter& CacheEvictionsTotal() {
  static metrics::Counter& counter = metrics::MetricsRegistry::Global()
      .GetCounter("wfms_configtool_cache_evictions_total");
  return counter;
}
metrics::Counter& CandidatesAssessedTotal() {
  static metrics::Counter& counter = metrics::MetricsRegistry::Global()
      .GetCounter("wfms_configtool_candidates_assessed_total");
  return counter;
}
metrics::Counter& SearchCacheHitsTotal() {
  static metrics::Counter& counter = metrics::MetricsRegistry::Global()
      .GetCounter("wfms_configtool_search_cache_hits_total");
  return counter;
}
metrics::Counter& CandidatesFailedTotal() {
  static metrics::Counter& counter = metrics::MetricsRegistry::Global()
      .GetCounter("wfms_configtool_candidates_failed_total");
  return counter;
}
metrics::Counter& CandidatesPrunedTotal() {
  static metrics::Counter& counter = metrics::MetricsRegistry::Global()
      .GetCounter("wfms_configtool_candidates_pruned_total");
  return counter;
}
metrics::Histogram& AssessmentSeconds() {
  static metrics::Histogram& histogram = metrics::MetricsRegistry::Global()
      .GetHistogram("wfms_configtool_assessment_seconds");
  return histogram;
}
metrics::Gauge& FrontierDepthGauge() {
  static metrics::Gauge& gauge = metrics::MetricsRegistry::Global()
      .GetGauge("wfms_configtool_frontier_depth");
  return gauge;
}

}  // namespace

Status SearchConstraints::Validate(size_t num_types) const {
  if (!min_replicas.empty() && min_replicas.size() != num_types) {
    return Status::InvalidArgument("min_replicas size mismatch");
  }
  if (!max_replicas.empty() && max_replicas.size() != num_types) {
    return Status::InvalidArgument("max_replicas size mismatch");
  }
  for (size_t x = 0; x < num_types; ++x) {
    if (MinFor(x) < 1) {
      return Status::InvalidArgument("minimum replication must be >= 1");
    }
    if (MaxFor(x) < MinFor(x)) {
      return Status::InvalidArgument(
          "max replication below min for server type " + std::to_string(x));
    }
  }
  return Status::OK();
}

Status SiteSearchConstraints::Validate(size_t num_types,
                                       size_t num_sites) const {
  if (num_sites == 0) {
    return Status::InvalidArgument(
        "site placement search needs a multi-site environment");
  }
  if (!min_per_site.empty() &&
      min_per_site.size() != num_types * num_sites) {
    return Status::InvalidArgument(
        "min_per_site must have num_types * num_sites entries");
  }
  if (max_per_type < 1) {
    return Status::InvalidArgument("max replicas per type must be >= 1");
  }
  for (size_t x = 0; x < num_types; ++x) {
    int total = 0;
    for (size_t a = 0; a < num_sites; ++a) {
      const int m = MinFor(x, a, num_sites);
      if (m < 0) {
        return Status::InvalidArgument(
            "per-site minimum placement must be >= 0");
      }
      total += m;
    }
    if (total > max_per_type) {
      return Status::InvalidArgument(
          "per-site minimums for server type " + std::to_string(x) +
          " exceed the per-type maximum of " + std::to_string(max_per_type));
    }
  }
  return Status::OK();
}

/// Memoized goal-independent assessments, keyed by the replication vector.
/// The report for a configuration is a pure function of the environment, so
/// cache hits are exact, not approximations. Guarded by a mutex: entries are
/// small (the report plus the availability stationary vector) and the solves
/// they save dominate the lock by orders of magnitude.
struct ConfigurationTool::AssessmentCache {
  /// A terminally failed evaluation, negatively cached so repeated
  /// encounters of the same bad candidate stay cheap and deterministic.
  struct FailureEntry {
    Status error;
    bool numerical = false;
    bool retried_exact = false;
  };

  struct Entry;
  using EntryMap = std::map<std::vector<int>, Entry>;

  /// A memoized report plus its LRU bookkeeping. The recency list holds
  /// map iterators (stable under insert/erase of other keys); front =
  /// most recently used.
  struct Entry {
    performability::PerformabilityReport report;
    std::list<EntryMap::iterator>::iterator lru_it;
    size_t bytes = 0;
  };

  mutable std::mutex mutex;
  EntryMap entries;
  std::list<EntryMap::iterator> lru;
  size_t total_bytes = 0;
  CacheLimits limits;
  size_t evictions = 0;
  std::map<std::vector<int>, FailureEntry> failures;
  std::atomic<size_t> hits{0};
  std::atomic<size_t> misses{0};

  /// Estimated resident footprint of one memoized report: the three
  /// per-type vectors, the stationary vector (the dominant term), the key,
  /// and a fixed allowance for map/list/struct overhead.
  static size_t EntryBytes(const std::vector<int>& key,
                           const performability::PerformabilityReport& r) {
    return 256 + key.size() * sizeof(int) +
           (r.expected_waiting.size() + r.full_config_waiting.size() +
            r.avail_state_probabilities.size()) *
               sizeof(double);
  }

  bool OverBudget() const {
    return (limits.max_entries > 0 && entries.size() > limits.max_entries) ||
           (limits.max_bytes > 0 && total_bytes > limits.max_bytes);
  }

  /// Drops least-recently-used reports until the budget holds. Always
  /// keeps at least one entry, so the report just inserted survives long
  /// enough to be returned (budgets smaller than a single report would
  /// otherwise make Insert useless). Caller holds the lock.
  void EvictToBudget() {
    while (OverBudget() && entries.size() > 1) {
      EntryMap::iterator victim = lru.back();
      lru.pop_back();
      total_bytes -= victim->second.bytes;
      entries.erase(victim);
      ++evictions;
      CacheEvictionsTotal().Increment();
    }
    CacheEntriesGauge().Set(static_cast<double>(entries.size()));
  }

  /// Marks `it` most recently used. Caller holds the lock.
  void Touch(EntryMap::iterator it) {
    lru.splice(lru.begin(), lru, it->second.lru_it);
  }

  /// Returns a copy of the entry, if present, refreshing its recency.
  std::optional<performability::PerformabilityReport> Lookup(
      const std::vector<int>& key) {
    std::lock_guard<std::mutex> lock(mutex);
    auto it = entries.find(key);
    if (it == entries.end()) return std::nullopt;
    Touch(it);
    return it->second.report;
  }

  /// Inserts unless another thread won the race; returns the stored entry.
  performability::PerformabilityReport Insert(
      const std::vector<int>& key,
      performability::PerformabilityReport report) {
    std::lock_guard<std::mutex> lock(mutex);
    auto [it, inserted] = entries.try_emplace(key);
    if (inserted) {
      it->second.report = std::move(report);
      it->second.bytes = EntryBytes(key, it->second.report);
      lru.push_front(it);
      it->second.lru_it = lru.begin();
      total_bytes += it->second.bytes;
      EvictToBudget();
    } else {
      Touch(it);
    }
    return it->second.report;
  }

  std::optional<FailureEntry> LookupFailure(const std::vector<int>& key) {
    std::lock_guard<std::mutex> lock(mutex);
    auto it = failures.find(key);
    if (it == failures.end()) return std::nullopt;
    return it->second;
  }

  FailureEntry InsertFailure(const std::vector<int>& key,
                             FailureEntry entry) {
    std::lock_guard<std::mutex> lock(mutex);
    auto [it, inserted] = failures.try_emplace(key, std::move(entry));
    return it->second;
  }
};

ConfigurationTool::ConfigurationTool(const workflow::Environment* env,
                                     performability::PerformabilityModel model)
    : env_(env),
      model_(std::move(model)),
      num_threads_(ThreadPool::DefaultThreadCount()),
      cache_(std::make_unique<AssessmentCache>()) {}

ConfigurationTool::ConfigurationTool(ConfigurationTool&&) noexcept = default;
ConfigurationTool& ConfigurationTool::operator=(ConfigurationTool&&) noexcept =
    default;
ConfigurationTool::~ConfigurationTool() = default;

Result<ConfigurationTool> ConfigurationTool::Create(
    const workflow::Environment& env,
    const performability::PerformabilityOptions& options) {
  WFMS_ASSIGN_OR_RETURN(performability::PerformabilityModel model,
                        performability::PerformabilityModel::Create(env,
                                                                    options));
  return ConfigurationTool(&env, std::move(model));
}

void ConfigurationTool::set_num_threads(size_t n) {
  num_threads_ = std::max<size_t>(1, n);
  pool_.reset();
}

ThreadPool& ConfigurationTool::pool() const {
  // Guarded: the daemon assesses on the same tool from many worker
  // threads, so first-use construction must not race (the cache mutex is
  // a convenient always-present lock; the fast path after construction is
  // one uncontended acquire).
  std::lock_guard<std::mutex> lock(cache_->mutex);
  if (!pool_) pool_ = std::make_unique<ThreadPool>(num_threads_);
  return *pool_;
}

ConfigurationTool::CacheStats ConfigurationTool::cache_stats() const {
  CacheStats stats;
  {
    std::lock_guard<std::mutex> lock(cache_->mutex);
    stats.entries = cache_->entries.size();
    stats.evictions = cache_->evictions;
    stats.bytes = cache_->total_bytes;
  }
  stats.hits = cache_->hits.load();
  stats.misses = cache_->misses.load();
  return stats;
}

bool ConfigurationTool::HasCachedAssessment(
    const std::vector<int>& replicas) const {
  std::lock_guard<std::mutex> lock(cache_->mutex);
  return cache_->entries.find(replicas) != cache_->entries.end();
}

void ConfigurationTool::ClearAssessmentCache() {
  std::lock_guard<std::mutex> lock(cache_->mutex);
  cache_->entries.clear();
  cache_->lru.clear();
  cache_->total_bytes = 0;
  cache_->failures.clear();
  CacheEntriesGauge().Set(0.0);
}

void ConfigurationTool::set_cache_limits(const CacheLimits& limits) {
  std::lock_guard<std::mutex> lock(cache_->mutex);
  cache_->limits = limits;
  cache_->EvictToBudget();
}

ConfigurationTool::CacheDump ConfigurationTool::DumpAssessmentCache() const {
  CacheDump dump;
  std::lock_guard<std::mutex> lock(cache_->mutex);
  dump.reports.reserve(cache_->entries.size());
  for (const auto& [key, entry] : cache_->entries) {
    dump.reports.emplace_back(key, entry.report);
  }
  dump.failures.reserve(cache_->failures.size());
  for (const auto& [key, failure] : cache_->failures) {
    dump.failures.emplace_back(
        key, CachedFailure{failure.error, failure.numerical,
                           failure.retried_exact});
  }
  return dump;
}

void ConfigurationTool::RestoreAssessmentCache(const CacheDump& dump) const {
  std::lock_guard<std::mutex> lock(cache_->mutex);
  for (const auto& [key, report] : dump.reports) {
    auto [it, inserted] = cache_->entries.try_emplace(key);
    if (!inserted) continue;  // existing entries win, like any insert race
    it->second.report = report;
    it->second.bytes = AssessmentCache::EntryBytes(key, report);
    cache_->lru.push_front(it);
    it->second.lru_it = cache_->lru.begin();
    cache_->total_bytes += it->second.bytes;
  }
  for (const auto& [key, failure] : dump.failures) {
    cache_->failures.try_emplace(
        key, AssessmentCache::FailureEntry{failure.error, failure.numerical,
                                           failure.retried_exact});
  }
  cache_->EvictToBudget();
}

Assessment ConfigurationTool::BuildAssessment(
    const Configuration& config, performability::PerformabilityReport report,
    const Goals& goals, const CostModel& cost) const {
  const size_t k = env_->num_server_types();
  Assessment assessment;
  assessment.config = config;
  assessment.performability = std::move(report);
  assessment.cost = cost.Cost(config.replicas);
  assessment.meets_waiting_goal = true;
  for (size_t x = 0; x < k; ++x) {
    const double w = assessment.performability.expected_waiting[x];
    if (!(w <= goals.WaitingThreshold(x))) {  // NaN/inf fail too
      assessment.meets_waiting_goal = false;
    }
  }
  assessment.meets_availability_goal =
      assessment.performability.availability >= goals.min_availability;
  assessment.meets_saturation_goal =
      assessment.performability.prob_saturated <=
      goals.max_saturation_probability;

  // §7.1's workflow-type-specific refinement: per-instance queueing delay
  // under the performability waiting times W^Y.
  const auto& workflows = model_.performance().workflows();
  assessment.instance_delays.assign(workflows.size(), 0.0);
  for (size_t t = 0; t < workflows.size(); ++t) {
    double delay = 0.0;
    for (size_t x = 0; x < k; ++x) {
      const double requests = workflows[t].expected_requests[x];
      if (requests > 0.0) {
        delay += requests * assessment.performability.expected_waiting[x];
      }
    }
    assessment.instance_delays[t] = delay;
    const auto bound = goals.max_instance_delay.find(
        workflows[t].workflow_type);
    if (bound != goals.max_instance_delay.end() &&
        !(delay <= bound->second)) {
      assessment.meets_instance_delay_goal = false;
    }
  }
  return assessment;
}

Status ConfigurationTool::ApplySurvivability(
    Assessment* assessment, const Goals& goals,
    const markov::SteadyStateOptions* solver_override) const {
  const workflow::Configuration& config = assessment->config;
  if (!goals.wants_survivability() ||
      !model_.availability().site_mode(config)) {
    return Status::OK();
  }
  const workflow::SiteTopology& topology = model_.availability().topology();
  const size_t s = topology.num_sites();

  // Enumerate the requested contingencies in a fixed order: every
  // single-site loss first, then every two-way partition.
  std::vector<avail::SiteContingency> contingencies;
  if (goals.survive_sites > 0) {
    for (size_t a = 0; a < s; ++a) {
      avail::SiteContingency c;
      c.down_sites = uint64_t{1} << a;
      contingencies.push_back(c);
    }
  }
  if (goals.survive_partitions) {
    for (size_t a = 0; a < s; ++a) {
      for (size_t b = a + 1; b < s; ++b) {
        avail::SiteContingency c;
        c.partitioned_pairs = uint64_t{1} << workflow::PairIndex(a, b, s);
        contingencies.push_back(c);
      }
    }
  }

  const double degraded_wait = goals.DegradedWaitingThreshold();
  const double degraded_avail = goals.DegradedAvailabilityGoal();
  assessment->contingencies.clear();
  assessment->contingencies.reserve(contingencies.size());
  assessment->meets_survivability_goal = true;
  for (const avail::SiteContingency& contingency : contingencies) {
    // Each contingency's report is memoized under its own fingerprint:
    // the configuration key extended by a -2 marker and the two masks.
    std::vector<int> key = config.CacheKey();
    key.push_back(-2);
    key.push_back(static_cast<int>(contingency.down_sites));
    key.push_back(static_cast<int>(contingency.partitioned_pairs));
    performability::PerformabilityReport report;
    if (auto cached = cache_->Lookup(key)) {
      cache_->hits.fetch_add(1);
      CacheHitsTotal().Increment();
      report = *std::move(cached);
    } else {
      cache_->misses.fetch_add(1);
      CacheMissesTotal().Increment();
      WFMS_ASSIGN_OR_RETURN(
          report, model_.Evaluate(config, /*avail_guess=*/nullptr,
                                  solver_override, &contingency));
      report = cache_->Insert(key, std::move(report));
    }
    ContingencyAssessment verdict;
    verdict.contingency = contingency;
    verdict.label = contingency.ToString(topology);
    verdict.availability = report.availability;
    verdict.max_expected_waiting = report.max_expected_waiting;
    verdict.satisfied = report.availability >= degraded_avail &&
                        report.max_expected_waiting <= degraded_wait;
    if (!verdict.satisfied) assessment->meets_survivability_goal = false;
    assessment->contingencies.push_back(std::move(verdict));
  }
  return Status::OK();
}

namespace {

/// Errors a search must survive: numerical solver trouble and internal
/// model failures. Structural errors (invalid goals, configs, constraints)
/// mean the caller is holding the tool wrong and still abort.
bool IsIsolatableFailure(StatusCode code) {
  return code == StatusCode::kNumericError ||
         code == StatusCode::kFailedPrecondition ||
         code == StatusCode::kInternal;
}

/// Infeasible-with-cause assessment for a candidate whose evaluation
/// terminally failed. Every goal flag is false so Satisfies() is false and
/// the greedy availability pick still fires.
Assessment FailedAssessment(const Configuration& config, const CostModel& cost,
                            Status error, bool numerical, bool retried) {
  Assessment assessment;
  assessment.config = config;
  assessment.cost = cost.Cost(config.replicas);
  assessment.meets_instance_delay_goal = false;
  assessment.error = std::move(error);
  assessment.numerical_failure = numerical;
  assessment.retried_exact = retried;
  return assessment;
}

/// Adds one assessed candidate to a search's accounting (no-op for a null
/// `result`). Terminal failures are deduplicated by configuration,
/// placement included: the negative cache re-serves the same candidate
/// across waves, while two placements with equal per-type totals are
/// distinct candidates.
void Record(const Assessment& assessment, bool cache_hit,
            SearchResult* result) {
  if (result == nullptr) return;
  ++result->evaluations;
  CandidatesAssessedTotal().Increment();
  if (cache_hit) {
    ++result->cache_hits;
    SearchCacheHitsTotal().Increment();
  }
  if (assessment.error.ok()) return;
  for (const FailedCandidate& seen : result->failed_candidates) {
    if (seen.config == assessment.config) return;
  }
  // Counted here — the site that builds the --verbose failure list — so
  // the exported counter equals the number of causes printed.
  CandidatesFailedTotal().Increment();
  result->failed_candidates.push_back({assessment.config, assessment.error,
                                       assessment.numerical_failure,
                                       assessment.retried_exact});
}

/// True when the availability state space of `config` fits the dense-LU
/// cap, i.e. an exact retry is worth attempting.
bool FitsDenseCap(const Configuration& config, size_t cap) {
  if (cap == 0) return false;
  // Site-placed state spaces carry extra site/partition dimensions the
  // replica product below does not see; skip the exact retry for them.
  if (config.has_sites()) return false;
  size_t states = 1;
  for (int r : config.replicas) {
    states *= static_cast<size_t>(r) + 1;
    if (states > cap) return false;
  }
  return true;
}

/// The monotonic instant `seconds` from now; the epoch (unbounded) for
/// seconds <= 0.
std::chrono::steady_clock::time_point DeadlineAfter(double seconds) {
  if (seconds <= 0.0) return {};
  return std::chrono::steady_clock::now() +
         std::chrono::duration_cast<std::chrono::steady_clock::duration>(
             std::chrono::duration<double>(seconds));
}

/// Everything a search does at a wave/step boundary besides the search
/// itself: poll the deadline, poll cooperative cancellation, and fire the
/// periodic checkpoint hook. Exactly one instance per search invocation,
/// created at search entry (which starts the deadline clock) and used from
/// the search thread only.
class SearchBoundary {
 public:
  explicit SearchBoundary(const SearchOptions& search)
      : search_(search),
        deadline_(DeadlineAfter(search.deadline_seconds)),
        last_checkpoint_(std::chrono::steady_clock::now()) {}

  /// The absolute deadline each candidate's solve is bounded by.
  std::chrono::steady_clock::time_point deadline() const { return deadline_; }

  /// True when the search must stop now (cancelled or out of time);
  /// `result->termination` is then set and the caller returns its
  /// best-so-far. Otherwise fires the checkpoint hook when it is due.
  bool ShouldStop(const char* strategy, SearchResult* result) {
    if (search_.cancel != nullptr &&
        search_.cancel->load(std::memory_order_relaxed)) {
      result->termination = Status::Cancelled(
          std::string(strategy) + " search cancelled after " +
          std::to_string(result->evaluations) +
          " evaluations; result is best-so-far");
      return true;
    }
    if (deadline_ != std::chrono::steady_clock::time_point{} &&
        std::chrono::steady_clock::now() >= deadline_) {
      result->termination = Status::DeadlineExceeded(
          std::string(strategy) + " search hit its deadline of " +
          std::to_string(search_.deadline_seconds) + "s after " +
          std::to_string(result->evaluations) +
          " evaluations; result is best-so-far");
      return true;
    }
    if (search_.on_checkpoint) {
      const auto now = std::chrono::steady_clock::now();
      if (std::chrono::duration<double>(now - last_checkpoint_).count() >=
          search_.checkpoint_interval_seconds) {
        search_.on_checkpoint();
        last_checkpoint_ = std::chrono::steady_clock::now();
      }
    }
    return false;
  }

 private:
  const SearchOptions& search_;
  std::chrono::steady_clock::time_point deadline_;
  std::chrono::steady_clock::time_point last_checkpoint_;
};

/// Per-strategy search accounting: opens a trace span for the whole search
/// and, on scope exit (any return path), bumps the strategy's search and
/// evaluation counters from the accumulating SearchResult.
class SearchScope {
 public:
  SearchScope(const char* strategy, const SearchResult* result,
              const trace::TraceContext& trace = {})
      : span_(std::string("configtool/") + strategy + "_search",
              "configtool", trace),
        strategy_(strategy),
        result_(result) {}

  /// Context for spans under this search (candidate solves).
  trace::TraceContext context() const { return span_.context(); }

  ~SearchScope() {
    auto& registry = metrics::MetricsRegistry::Global();
    const std::string prefix = std::string("wfms_configtool_") + strategy_;
    registry.GetCounter(prefix + "_searches_total").Increment();
    if (result_->evaluations > 0) {
      registry.GetCounter(prefix + "_evaluations_total")
          .Increment(static_cast<uint64_t>(result_->evaluations));
    }
  }

  SearchScope(const SearchScope&) = delete;
  SearchScope& operator=(const SearchScope&) = delete;

 private:
  trace::TraceSpan span_;
  const char* strategy_;
  const SearchResult* result_;
};

}  // namespace

Result<Assessment> ConfigurationTool::AssessCore(
    const Configuration& config, const Goals& goals, const CostModel& cost,
    const linalg::Vector* avail_guess,
    std::chrono::steady_clock::time_point deadline,
    const trace::TraceContext& trace, bool* cache_hit) const {
  const size_t k = env_->num_server_types();
  WFMS_RETURN_NOT_OK(goals.Validate(k));
  WFMS_RETURN_NOT_OK(cost.Validate(k));
  WFMS_RETURN_NOT_OK(config.Validate(k));

  if (cache_hit != nullptr) *cache_hit = false;
  const auto count_hit = [&] {
    cache_->hits.fetch_add(1);
    CacheHitsTotal().Increment();
    if (cache_hit != nullptr) *cache_hit = true;
  };
  // Site-placed configurations key the cache by replicas ++ {-1} ++
  // site_counts, so a placement and its aggregate never collide.
  const std::vector<int> key = config.CacheKey();
  if (auto failed = cache_->LookupFailure(key)) {
    count_hit();
    return FailedAssessment(config, cost, std::move(failed->error),
                            failed->numerical, failed->retried_exact);
  }

  // With a deadline in force, bound the steady-state solve by the wall
  // clock remaining right now: the deadline is enforced *inside* a solve,
  // not just between candidates, so one heavyweight candidate cannot
  // overshoot a whole search's budget. A traced request takes the same
  // override path so its context reaches the steady-state solver.
  markov::SteadyStateOptions solver = model_.options().availability.solver;
  const markov::SteadyStateOptions* solver_override = nullptr;
  if (deadline != std::chrono::steady_clock::time_point{}) {
    // Floor at 1ms: a search's boundary check will stop it; the solve
    // itself still gets a sliver so an instant candidate can complete.
    const double cap = std::max(
        std::chrono::duration<double>(deadline -
                                      std::chrono::steady_clock::now())
            .count(),
        1e-3);
    if (solver.budget.max_wall_time_seconds <= 0.0 ||
        cap < solver.budget.max_wall_time_seconds) {
      solver.budget.max_wall_time_seconds = cap;
    }
    solver_override = &solver;
  }
  if (trace.valid()) {
    solver.budget.trace = trace;
    solver_override = &solver;
  }

  Result<Assessment> assessed = [&]() -> Result<Assessment> {
    if (auto cached = cache_->Lookup(key)) {
      count_hit();
      Assessment assessment =
          BuildAssessment(config, *std::move(cached), goals, cost);
      WFMS_RETURN_NOT_OK(
          ApplySurvivability(&assessment, goals, solver_override));
      return assessment;
    }
    cache_->misses.fetch_add(1);
    CacheMissesTotal().Increment();
    trace::TraceSpan span("configtool/assess", "configtool", trace);
    // Re-parent the solver's context under this span so the steady-state
    // solve appears as a child of the assessment in the merged trace tree.
    if (trace.valid()) solver.budget.trace = span.context();
    const auto eval_start = std::chrono::steady_clock::now();
    WFMS_ASSIGN_OR_RETURN(
        performability::PerformabilityReport report,
        model_.Evaluate(config, avail_guess, solver_override));
    AssessmentSeconds().Observe(
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      eval_start)
            .count());
    report = cache_->Insert(key, std::move(report));
    Assessment assessment =
        BuildAssessment(config, std::move(report), goals, cost);
    WFMS_RETURN_NOT_OK(
        ApplySurvivability(&assessment, goals, solver_override));
    return assessment;
  }();
  if (assessed.ok()) return assessed;

  Status cause = assessed.status();
  if (cause.code() == StatusCode::kDeadlineExceeded) {
    // The solve ran out of wall clock. That says nothing about the
    // candidate itself, so it is returned as an isolated failure but never
    // negatively cached and never retried with the exact solver — a
    // resumed or re-issued request re-assesses it cleanly.
    return FailedAssessment(config, cost, std::move(cause),
                            /*numerical=*/false, /*retried=*/false);
  }
  if (!IsIsolatableFailure(cause.code())) return cause;

  const bool numerical = cause.code() == StatusCode::kNumericError;
  bool retried = false;
  if (numerical &&
      FitsDenseCap(config,
                   model_.options().availability.solver.max_dense_states)) {
    retried = true;
    markov::SteadyStateOptions lu_options =
        model_.options().availability.solver;
    lu_options.method = markov::SteadyStateMethod::kLu;
    lu_options.budget = {};
    lu_options.budget.trace = trace;  // survive the budget reset
    auto exact = model_.Evaluate(config, /*avail_guess=*/nullptr, &lu_options);
    if (exact.ok()) {
      auto report = cache_->Insert(key, *std::move(exact));
      Assessment assessment =
          BuildAssessment(config, std::move(report), goals, cost);
      assessment.retried_exact = true;
      Status applied = ApplySurvivability(&assessment, goals, &lu_options);
      if (applied.ok()) return assessment;
      cause = applied.WithContext("after exact LU retry");
    } else {
      cause = exact.status().WithContext("exact LU retry also failed; first " +
                                         cause.ToString());
    }
  }
  auto stored =
      cache_->InsertFailure(key, {std::move(cause), numerical, retried});
  return FailedAssessment(config, cost, std::move(stored.error),
                          stored.numerical, stored.retried_exact);
}

Result<Assessment> ConfigurationTool::Assess(
    const Configuration& config, const Goals& goals, const CostModel& cost,
    const AssessOptions& options) const {
  return AssessCore(config, goals, cost, /*avail_guess=*/nullptr,
                    DeadlineAfter(options.deadline_seconds), options.trace,
                    /*cache_hit=*/nullptr);
}

Result<std::vector<Assessment>> ConfigurationTool::AssessBatchCore(
    std::span<const Configuration> configs, const Goals& goals,
    const CostModel& cost, std::chrono::steady_clock::time_point deadline,
    const trace::TraceContext& trace, SearchResult* result) const {
  const size_t n = configs.size();
  std::vector<std::optional<Assessment>> slots(n);
  std::vector<Status> errors(n, Status::OK());
  std::vector<char> hits(n, 0);  // not vector<bool>: lanes write concurrently
  pool().ParallelFor(n, [&](size_t i) {
    bool hit = false;
    auto assessed = AssessCore(configs[i], goals, cost,
                               /*avail_guess=*/nullptr, deadline, trace, &hit);
    if (assessed.ok()) {
      slots[i] = *std::move(assessed);
    } else {
      errors[i] = assessed.status();
    }
    hits[i] = hit ? 1 : 0;
  });
  // Reduce in candidate-index order (first structural error wins
  // deterministically; isolated failures are data and get recorded in the
  // same order).
  std::vector<Assessment> assessments;
  assessments.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (!errors[i].ok()) {
      return errors[i].WithContext("assessing candidate " +
                                   configs[i].ToString());
    }
    Record(*slots[i], hits[i] != 0, result);
    assessments.push_back(*std::move(slots[i]));
  }
  return assessments;
}

Result<std::vector<Assessment>> ConfigurationTool::AssessBatch(
    std::span<const Configuration> configs, const Goals& goals,
    const CostModel& cost) const {
  return AssessBatchCore(configs, goals, cost, /*deadline=*/{}, /*trace=*/{},
                         /*result=*/nullptr);
}

double ConfigurationTool::ViolationMeasure(const Assessment& assessment,
                                           const Goals& goals) const {
  const size_t k = env_->num_server_types();
  // A failed assessment carries no waiting-time data; treat it as worse
  // than any real violation.
  if (!assessment.error.ok() ||
      assessment.performability.expected_waiting.size() < k) {
    return 100.0;
  }
  double violation = 0.0;
  for (size_t x = 0; x < k; ++x) {
    const double w = assessment.performability.expected_waiting[x];
    const double threshold = goals.WaitingThreshold(x);
    if (std::isinf(w) || std::isnan(w)) {
      violation += 10.0;
    } else if (w > threshold) {
      violation += (w - threshold) / threshold;
    }
  }
  const double unavail_goal = 1.0 - goals.min_availability;
  const double unavail = 1.0 - assessment.performability.availability;
  if (unavail > unavail_goal && unavail_goal > 0.0) {
    violation += std::log10(unavail / unavail_goal);
  }
  if (assessment.performability.prob_saturated >
      goals.max_saturation_probability) {
    violation += assessment.performability.prob_saturated -
                 goals.max_saturation_probability;
  }
  const auto& workflows = model_.performance().workflows();
  for (size_t t = 0; t < workflows.size() &&
                     t < assessment.instance_delays.size();
       ++t) {
    const auto bound =
        goals.max_instance_delay.find(workflows[t].workflow_type);
    if (bound == goals.max_instance_delay.end()) continue;
    const double delay = assessment.instance_delays[t];
    if (std::isinf(delay) || std::isnan(delay)) {
      violation += 10.0;
    } else if (delay > bound->second) {
      violation += (delay - bound->second) / bound->second;
    }
  }
  // Survivability: each contingency that misses its degraded goals adds
  // its own shortfall, so placements that survive more contingencies rank
  // strictly better even while none fully satisfies.
  const double degraded_wait = goals.DegradedWaitingThreshold();
  const double degraded_unavail = 1.0 - goals.DegradedAvailabilityGoal();
  for (const ContingencyAssessment& c : assessment.contingencies) {
    if (c.satisfied) continue;
    const double w = c.max_expected_waiting;
    if (std::isinf(w) || std::isnan(w)) {
      violation += 10.0;
    } else if (w > degraded_wait) {
      violation += (w - degraded_wait) / degraded_wait;
    }
    const double unavail = 1.0 - c.availability;
    if (unavail > degraded_unavail && degraded_unavail > 0.0) {
      violation += std::log10(unavail / degraded_unavail);
    } else if (degraded_unavail <= 0.0 && unavail > 0.0) {
      violation += 1.0;
    }
  }
  return violation;
}

namespace {

Configuration MinimalConfig(const SearchConstraints& constraints, size_t k) {
  Configuration config;
  config.replicas.resize(k);
  for (size_t x = 0; x < k; ++x) config.replicas[x] = constraints.MinFor(x);
  return config;
}

/// Projects `parent`'s availability stationary vector onto the state space
/// of `child`; empty on any failure (the caller then cold-starts).
linalg::Vector WarmStartGuess(const Assessment& parent,
                              const Configuration& child) {
  const linalg::Vector& parent_pi =
      parent.performability.avail_state_probabilities;
  if (parent_pi.empty()) return {};
  // Site-placed state spaces are not the replica mixed-radix space the
  // projection below assumes; the site path cold-starts instead.
  if (parent.config.has_sites() || child.has_sites()) return {};
  auto parent_space = markov::MixedRadixSpace::Create(parent.config.replicas);
  auto child_space = markov::MixedRadixSpace::Create(child.replicas);
  if (!parent_space.ok() || !child_space.ok()) return {};
  auto guess = markov::ProjectDistribution(*parent_space, parent_pi,
                                           *child_space);
  if (!guess.ok()) return {};
  return *std::move(guess);
}

/// Candidates the exhaustive search drains per parallel wave. Fixed (never
/// derived from the thread count) so that evaluation counts — and thus
/// SearchResult — are identical across pool sizes.
constexpr size_t kExhaustiveWaveSize = 32;
/// Upper bound on an equal-cost branch-and-bound wave, for the same reason.
constexpr size_t kBnbWaveSize = 16;

}  // namespace

Result<SearchResult> ConfigurationTool::GreedyMinCost(
    const Goals& goals, const SearchConstraints& constraints,
    const CostModel& cost, const SearchOptions& search) const {
  const size_t k = env_->num_server_types();
  WFMS_RETURN_NOT_OK(constraints.Validate(k));
  Configuration config = MinimalConfig(constraints, k);

  int budget = 0;  // total replicas that can still be added
  for (size_t x = 0; x < k; ++x) {
    budget += constraints.MaxFor(x) - constraints.MinFor(x);
  }

  SearchResult result;
  SearchScope scope("greedy", &result, search.trace);
  SearchBoundary boundary(search);
  const auto assess = [&](const Configuration& candidate,
                          const linalg::Vector* guess) -> Result<Assessment> {
    bool hit = false;
    WFMS_ASSIGN_OR_RETURN(
        Assessment assessed,
        AssessCore(candidate, goals, cost, guess, boundary.deadline(),
                   scope.context(), &hit));
    Record(assessed, hit, &result);
    return assessed;
  };
  WFMS_ASSIGN_OR_RETURN(Assessment assessment,
                        assess(config, /*guess=*/nullptr));

  // Fault isolation: a step's candidate failing assessment excludes that
  // server type for the step; the next most critical type is tried. The
  // failure is already recorded in result.failed_candidates.
  const auto try_grow = [&](size_t pick) -> Result<bool> {
    Configuration child = config;
    ++child.replicas[pick];
    // Warm start: the parent's availability distribution seeds the
    // child's iterative solve.
    const linalg::Vector guess = WarmStartGuess(assessment, child);
    WFMS_ASSIGN_OR_RETURN(Assessment next,
                          assess(child, guess.empty() ? nullptr : &guess));
    if (!next.error.ok()) return false;
    config = std::move(child);
    assessment = std::move(next);
    --budget;
    return true;
  };

  // §7.2: consider the availability and the performability criterion in an
  // interleaved manner, re-evaluating after every added replica so the
  // configuration is never oversized.
  while (!assessment.Satisfies() && budget > 0) {
    if (boundary.ShouldStop("greedy", &result)) break;
    bool added = false;

    if (!assessment.meets_availability_goal) {
      // Most critical type for availability: the one whose probability of
      // being completely down is largest (i.e. the weakest link).
      std::set<size_t> excluded;
      while (true) {
        double worst = -1.0;
        size_t pick = SIZE_MAX;
        for (size_t x = 0; x < k; ++x) {
          if (config.replicas[x] >= constraints.MaxFor(x)) continue;
          if (excluded.count(x) != 0) continue;
          auto dist = model_.availability().PerTypeDistribution(
              x, config.replicas[x]);
          if (!dist.ok()) return dist.status();
          const double down = (*dist)[0];
          if (down > worst) {
            worst = down;
            pick = x;
          }
        }
        if (pick == SIZE_MAX) break;
        WFMS_ASSIGN_OR_RETURN(bool grown, try_grow(pick));
        if (grown) {
          added = true;
          break;
        }
        excluded.insert(pick);
      }
      if (assessment.Satisfies()) break;
    }

    if (assessment.error.ok() &&
        (!assessment.meets_waiting_goal || !assessment.meets_saturation_goal ||
         !assessment.meets_instance_delay_goal)) {
      // Most critical type for responsiveness: the one with the largest
      // relative waiting-time violation (saturated types first, then by
      // utilization). A pure instance-delay violation steers toward the
      // type contributing the most delay to the violating workflows.
      const auto& workflows = model_.performance().workflows();
      std::set<size_t> excluded;
      while (true) {
        double worst = -1.0;
        size_t pick = SIZE_MAX;
        for (size_t x = 0; x < k; ++x) {
          if (config.replicas[x] >= constraints.MaxFor(x)) continue;
          if (excluded.count(x) != 0) continue;
          const double w = assessment.performability.expected_waiting[x];
          double score =
              std::isinf(w) || std::isnan(w)
                  ? 1e12 + assessment.performability.full_config_waiting[x]
                  : w / goals.WaitingThreshold(x);
          if (!assessment.meets_instance_delay_goal && std::isfinite(w)) {
            for (size_t t = 0; t < workflows.size(); ++t) {
              const auto bound = goals.max_instance_delay.find(
                  workflows[t].workflow_type);
              if (bound == goals.max_instance_delay.end()) continue;
              if (assessment.instance_delays[t] <= bound->second) continue;
              score += workflows[t].expected_requests[x] * w / bound->second;
            }
          }
          if (score > worst) {
            worst = score;
            pick = x;
          }
        }
        if (pick == SIZE_MAX) break;
        WFMS_ASSIGN_OR_RETURN(bool grown, try_grow(pick));
        if (grown) {
          added = true;
          break;
        }
        excluded.insert(pick);
      }
    }

    if (!added) break;  // every critical type is capped or failed
  }

  result.config = config;
  result.cost = cost.Cost(config.replicas);
  result.satisfied = assessment.Satisfies();
  result.assessment = std::move(assessment);
  return result;
}

Result<SearchResult> ConfigurationTool::GreedySiteMinCost(
    const Goals& goals, const SiteSearchConstraints& constraints,
    const CostModel& cost, const SearchOptions& search) const {
  const size_t k = env_->num_server_types();
  const workflow::SiteTopology& topology = model_.availability().topology();
  const size_t s = topology.num_sites();
  if (s == 0) {
    return Status::InvalidArgument(
        "site placement search needs an environment with a sites section");
  }
  WFMS_RETURN_NOT_OK(constraints.Validate(k, s));

  // Start from the per-site minimums, raising each all-zero type to one
  // replica at the lowest site index so the configuration is valid.
  std::vector<int> counts(k * s, 0);
  for (size_t x = 0; x < k; ++x) {
    int total = 0;
    for (size_t a = 0; a < s; ++a) {
      counts[x * s + a] = constraints.MinFor(x, a, s);
      total += counts[x * s + a];
    }
    if (total == 0) counts[x * s] = 1;
  }
  Configuration config = Configuration::FromSiteCounts(std::move(counts), s);

  SearchResult result;
  SearchScope scope("greedy_site", &result, search.trace);
  SearchBoundary boundary(search);
  bool hit = false;
  WFMS_ASSIGN_OR_RETURN(Assessment assessment,
                        AssessCore(config, goals, cost, /*avail_guess=*/nullptr,
                                   boundary.deadline(), scope.context(), &hit));
  Record(assessment, hit, &result);

  while (!assessment.Satisfies()) {
    if (boundary.ShouldStop("greedy-site", &result)) break;
    // Admissible +1 neighbors: one more replica of type x at site a,
    // subject to the per-type total cap. Enumerated (type, site)-ascending
    // so index order is the deterministic tie-break below.
    std::vector<Configuration> wave;
    wave.reserve(k * s);
    for (size_t x = 0; x < k; ++x) {
      if (config.replicas[x] >= constraints.max_per_type) continue;
      for (size_t a = 0; a < s; ++a) {
        std::vector<int> next = config.site_counts;
        ++next[x * s + a];
        wave.push_back(Configuration::FromSiteCounts(std::move(next), s));
      }
    }
    // Coverage moves: a single +1 can never lift a contingency whose
    // surviving component is missing a whole server type (its availability
    // stays 0 however many replicas the covered types gain), so the +1
    // landscape is flat exactly where survivability needs progress. Per
    // site, also offer the smallest move that completes coverage there:
    // one replica of every type the site lacks.
    if (goals.wants_survivability()) {
      for (size_t a = 0; a < s; ++a) {
        std::vector<int> next = config.site_counts;
        bool changed = false;
        bool feasible = true;
        for (size_t x = 0; x < k; ++x) {
          if (next[x * s + a] > 0) continue;
          if (config.replicas[x] >= constraints.max_per_type) {
            feasible = false;
            break;
          }
          ++next[x * s + a];
          changed = true;
        }
        if (feasible && changed) {
          wave.push_back(Configuration::FromSiteCounts(std::move(next), s));
        }
      }
    }
    if (wave.empty()) break;  // every type is at its cap
    WFMS_ASSIGN_OR_RETURN(std::vector<Assessment> assessed,
                          AssessBatchCore(wave, goals, cost,
                                          boundary.deadline(), scope.context(),
                                          &result));
    // Pick: a satisfying candidate with the lowest cost wins; otherwise
    // the candidate with the smallest remaining goal violation
    // (survivability contingencies included). Strict comparisons keep the
    // lowest (type, site) index on ties.
    size_t pick = SIZE_MAX;
    bool pick_satisfies = false;
    double pick_cost = 0.0;
    double pick_violation = 0.0;
    for (size_t i = 0; i < assessed.size(); ++i) {
      if (!assessed[i].error.ok()) continue;  // recorded and skipped
      const bool satisfies = assessed[i].Satisfies();
      const double violation = ViolationMeasure(assessed[i], goals);
      const bool better =
          pick == SIZE_MAX || (satisfies && !pick_satisfies) ||
          (satisfies == pick_satisfies &&
           (satisfies ? assessed[i].cost < pick_cost
                      : violation < pick_violation));
      if (better) {
        pick = i;
        pick_satisfies = satisfies;
        pick_cost = assessed[i].cost;
        pick_violation = violation;
      }
    }
    if (pick == SIZE_MAX) break;  // the whole frontier failed assessment
    config = wave[pick];
    assessment = std::move(assessed[pick]);
  }

  result.config = config;
  result.cost = cost.Cost(config.replicas);
  result.satisfied = assessment.Satisfies();
  result.assessment = std::move(assessment);
  return result;
}

Result<SearchResult> ConfigurationTool::ExhaustiveMinCost(
    const Goals& goals, const SearchConstraints& constraints,
    const CostModel& cost, const SearchOptions& search) const {
  const size_t k = env_->num_server_types();
  WFMS_RETURN_NOT_OK(constraints.Validate(k));

  SearchResult result;
  SearchScope scope("exhaustive", &result, search.trace);
  SearchBoundary boundary(search);
  bool have_best = false;
  Configuration best;
  double best_cost = 0.0;

  Configuration current = MinimalConfig(constraints, k);
  Assessment best_assessment;
  best_assessment.config = current;
  Assessment last_assessment = best_assessment;

  // Mixed-radix enumeration, drained in fixed-size waves the pool assesses
  // concurrently. The incumbent filter uses the best cost as of the wave
  // start; the reduction below walks the wave in enumeration order, so the
  // recommended configuration is the same as the fully sequential sweep's.
  std::vector<Configuration> wave;
  wave.reserve(kExhaustiveWaveSize);
  bool enumeration_done = false;
  while (!enumeration_done) {
    if (boundary.ShouldStop("exhaustive", &result)) break;
    wave.clear();
    while (wave.size() < kExhaustiveWaveSize && !enumeration_done) {
      if (!have_best || cost.Cost(current.replicas) < best_cost) {
        wave.push_back(current);
      } else {
        CandidatesPrunedTotal().Increment();  // dominated by the incumbent
      }
      size_t x = 0;
      for (; x < k; ++x) {
        if (current.replicas[x] < constraints.MaxFor(x)) {
          ++current.replicas[x];
          for (size_t y = 0; y < x; ++y) {
            current.replicas[y] = constraints.MinFor(y);
          }
          break;
        }
      }
      if (x == k) enumeration_done = true;  // wrapped: enumeration over
    }
    if (wave.empty()) continue;
    WFMS_ASSIGN_OR_RETURN(std::vector<Assessment> assessed,
                          AssessBatchCore(wave, goals, cost,
                                          boundary.deadline(), scope.context(),
                                          &result));
    for (size_t i = 0; i < assessed.size(); ++i) {
      if (assessed[i].Satisfies() &&
          (!have_best || assessed[i].cost < best_cost)) {
        have_best = true;
        best = wave[i];
        best_cost = assessed[i].cost;
        best_assessment = std::move(assessed[i]);
      }
    }
    if (!have_best) last_assessment = std::move(assessed.back());
  }

  if (have_best) {
    result.config = best;
    result.cost = best_cost;
    result.satisfied = true;
    result.assessment = std::move(best_assessment);
  } else {
    result.config = MinimalConfig(constraints, k);
    result.cost = cost.Cost(result.config.replicas);
    result.satisfied = false;
    result.assessment = std::move(last_assessment);
  }
  return result;
}

Result<SearchResult> ConfigurationTool::BranchAndBoundMinCost(
    const Goals& goals, const SearchConstraints& constraints,
    const CostModel& cost, const SearchOptions& search) const {
  const size_t k = env_->num_server_types();
  WFMS_RETURN_NOT_OK(constraints.Validate(k));
  SearchResult result;
  SearchScope scope("branch_and_bound", &result, search.trace);
  SearchBoundary boundary(search);

  // Feasibility bound: if the most generous configuration fails, nothing
  // in the box can succeed (goals are monotone in replication). When the
  // probe itself fails assessment the bound is unverified: the early abort
  // is skipped and lattice exhaustion below degrades to a best-effort
  // unsatisfied result instead of an internal error.
  Configuration max_config;
  max_config.replicas.resize(k);
  for (size_t x = 0; x < k; ++x) max_config.replicas[x] = constraints.MaxFor(x);
  bool hit = false;
  WFMS_ASSIGN_OR_RETURN(Assessment max_assessment,
                        AssessCore(max_config, goals, cost,
                                   /*avail_guess=*/nullptr, boundary.deadline(),
                                   scope.context(), &hit));
  Record(max_assessment, hit, &result);
  const bool bound_verified = max_assessment.error.ok();
  if (bound_verified && !max_assessment.Satisfies()) {
    result.config = max_config;
    result.cost = max_assessment.cost;
    result.satisfied = false;
    result.assessment = std::move(max_assessment);
    return result;
  }

  // Best-first search in cost order over the lattice of configurations.
  // Each node expands by adding one replica to one type; because the cost
  // model is additive with positive per-server costs, nodes are dequeued
  // in nondecreasing cost, so the first satisfying node is optimal. The
  // frontier is drained in equal-cost waves (bounded, sorted by replica
  // vector) that the pool assesses concurrently; any satisfying member of
  // a wave ties the sequential optimum on cost, and taking the first in
  // sorted order keeps the recommendation deterministic.
  struct Node {
    double cost;
    std::vector<int> replicas;
    bool operator>(const Node& other) const { return cost > other.cost; }
  };
  std::priority_queue<Node, std::vector<Node>, std::greater<Node>> frontier;
  std::set<std::vector<int>> visited;
  const Configuration minimal = MinimalConfig(constraints, k);
  frontier.push({cost.Cost(minimal.replicas), minimal.replicas});
  visited.insert(minimal.replicas);

  std::vector<Configuration> wave;
  wave.reserve(kBnbWaveSize);
  Assessment last_assessment = max_assessment;
  while (!frontier.empty()) {
    if (boundary.ShouldStop("branch-and-bound", &result)) {
      result.config = max_config;
      result.cost = cost.Cost(max_config.replicas);
      result.satisfied = false;
      result.assessment = std::move(last_assessment);
      return result;
    }
    FrontierDepthGauge().Set(static_cast<double>(frontier.size()));
    const double wave_cost = frontier.top().cost;
    wave.clear();
    while (!frontier.empty() && wave.size() < kBnbWaveSize &&
           frontier.top().cost == wave_cost) {
      wave.emplace_back(frontier.top().replicas);
      frontier.pop();
    }
    std::sort(wave.begin(), wave.end(),
              [](const Configuration& a, const Configuration& b) {
                return a.replicas < b.replicas;
              });
    WFMS_ASSIGN_OR_RETURN(std::vector<Assessment> assessed,
                          AssessBatchCore(wave, goals, cost,
                                          boundary.deadline(), scope.context(),
                                          &result));
    for (size_t i = 0; i < assessed.size(); ++i) {
      if (assessed[i].Satisfies()) {
        result.config = wave[i];
        result.cost = assessed[i].cost;
        result.satisfied = true;
        result.assessment = std::move(assessed[i]);
        return result;
      }
    }
    last_assessment = std::move(assessed.back());
    for (const Configuration& node : wave) {
      for (size_t x = 0; x < k; ++x) {
        if (node.replicas[x] >= constraints.MaxFor(x)) continue;
        std::vector<int> next = node.replicas;
        ++next[x];
        if (visited.insert(next).second) {
          frontier.push({cost.Cost(next), std::move(next)});
        }
      }
    }
  }
  if (bound_verified) {
    return Status::Internal(
        "branch-and-bound exhausted the lattice despite a feasible maximum");
  }
  // The feasibility probe failed assessment, so exhaustion without a
  // satisfying candidate is a legitimate outcome: report best-effort.
  result.config = max_config;
  result.cost = cost.Cost(max_config.replicas);
  result.satisfied = false;
  result.assessment = std::move(last_assessment);
  return result;
}

namespace {

/// The search-method table. Order is the order error messages list them.
struct MethodEntry {
  SearchMethod method;
  const char* name;
};
constexpr MethodEntry kSearchMethods[] = {
    {SearchMethod::kGreedy, "greedy"},
    {SearchMethod::kGreedySite, "greedy-site"},
    {SearchMethod::kExhaustive, "exhaustive"},
    {SearchMethod::kBranchAndBound, "bnb"},
};

std::string SupportedSearchMethods() {
  std::string names;
  for (const MethodEntry& entry : kSearchMethods) {
    if (!names.empty()) names += ", ";
    names += entry.name;
  }
  return names;
}

}  // namespace

const char* SearchMethodName(SearchMethod method) {
  for (const MethodEntry& entry : kSearchMethods) {
    if (entry.method == method) return entry.name;
  }
  return "unknown";
}

Result<SearchMethod> ParseSearchMethod(std::string_view name) {
  for (const MethodEntry& entry : kSearchMethods) {
    if (name == entry.name) return entry.method;
  }
  if (name == "branch-and-bound") return SearchMethod::kBranchAndBound;
  if (name == "annealing") {
    return Status::InvalidArgument(
        "search method 'annealing' was removed (branch-and-bound is exact "
        "and cheaper); supported methods: " +
        SupportedSearchMethods());
  }
  return Status::InvalidArgument("unknown search method '" +
                                 std::string(name) +
                                 "'; supported methods: " +
                                 SupportedSearchMethods());
}

Result<SearchResult> RunSearch(const ConfigurationTool& tool,
                               SearchMethod method, const Goals& goals,
                               const SearchConstraints& constraints,
                               const SiteSearchConstraints& site,
                               const CostModel& cost,
                               const SearchOptions& search) {
  switch (method) {
    case SearchMethod::kGreedy:
      return tool.GreedyMinCost(goals, constraints, cost, search);
    case SearchMethod::kGreedySite:
      return tool.GreedySiteMinCost(goals, site, cost, search);
    case SearchMethod::kExhaustive:
      return tool.ExhaustiveMinCost(goals, constraints, cost, search);
    case SearchMethod::kBranchAndBound:
      return tool.BranchAndBoundMinCost(goals, constraints, cost, search);
  }
  return Status::Internal("unhandled search method");
}

std::string ConfigurationTool::RenderRecommendation(
    const SearchResult& result) const {
  std::ostringstream os;
  os << (result.satisfied ? "Recommended configuration "
                          : "No satisfying configuration found; best "
                            "candidate ")
     << result.config.ToString() << " (cost " << result.cost << ", "
     << result.evaluations << " evaluations)\n";
  const auto& waiting = result.assessment.performability.expected_waiting;
  const workflow::SiteTopology& topology = env_->topology;
  const bool sited = result.config.has_sites() && !topology.empty();
  for (size_t x = 0; x < env_->num_server_types(); ++x) {
    os << "  " << env_->servers.type(x).name << ": " << result.config.replicas[x]
       << " server(s)";
    if (sited) {
      os << " [";
      const size_t s = topology.num_sites();
      for (size_t a = 0; a < s; ++a) {
        if (a > 0) os << ", ";
        os << topology.sites[a].name << "="
           << result.config.SiteCount(x, a);
      }
      os << "]";
    }
    os << ", W = ";
    if (x >= waiting.size()) {
      os << "unknown";  // the final assessment failed; no waiting data
    } else if (std::isinf(waiting[x])) {
      os << "saturated";
    } else {
      os << FormatMinutes(waiting[x]);
    }
    os << "\n";
  }
  if (result.assessment.error.ok()) {
    os << "  availability: "
       << result.assessment.performability.availability << " (downtime "
       << FormatMinutes(UnavailabilityToDowntimeMinutesPerYear(
              1.0 - result.assessment.performability.availability))
       << "/year)\n";
  } else {
    os << "  assessment failed: " << result.assessment.error.ToString()
       << "\n";
  }
  if (!result.assessment.contingencies.empty()) {
    os << "  survivability:\n";
    for (const ContingencyAssessment& c : result.assessment.contingencies) {
      os << "    " << c.label << ": availability " << c.availability
         << ", W = ";
      if (std::isinf(c.max_expected_waiting)) {
        os << "saturated";
      } else {
        os << FormatMinutes(c.max_expected_waiting);
      }
      os << (c.satisfied ? " [ok]" : " [violated]") << "\n";
    }
  }
  if (!result.failed_candidates.empty()) {
    os << "  " << result.failed_candidates.size()
       << " candidate(s) failed assessment and were skipped:\n";
    for (const FailedCandidate& failed : result.failed_candidates) {
      os << "    " << failed.config.ToString() << ": "
         << failed.error.ToString()
         << (failed.retried_exact ? " [after exact LU retry]" : "") << "\n";
    }
  }
  if (!result.termination.ok()) {
    os << "  note: " << result.termination.ToString() << "\n";
  }
  return os.str();
}

}  // namespace wfms::configtool
