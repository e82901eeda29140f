// Crash-safe checkpoint/resume for the configuration search (see
// DESIGN.md "Checkpointing and recovery").
//
// The durable progress of every search strategy is the assessment
// memoization cache: each memoized performability report (and each
// negatively cached terminal failure) is a CTMC construction + solve a
// resumed search does not repeat. Because every search method is
// deterministic given (environment, goals, constraints, cost model,
// method) and produces results independent of cache state (the PR-1
// invariant), restoring the cache and re-running the search fast-forwards
// through pure cache hits to the first unassessed candidate and finishes
// with a recommendation bit-identical to an uninterrupted run — no
// frontier cursor needs to survive the crash.
//
// A checkpoint is therefore: a fingerprint of everything the cache
// contents depend on, the strategy name, the externalized cache, and (for
// operator display) the best-so-far at save time. The fingerprint is
// validated on load so a checkpoint taken under a different environment,
// goal set, cost model, constraint box, or strategy is rejected with a
// descriptive FailedPrecondition — never silently mixed in. Torn or
// corrupted files are rejected by the snapshot layer's CRC/length checks.
#ifndef WFMS_CONFIGTOOL_CHECKPOINT_H_
#define WFMS_CONFIGTOOL_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/snapshot.h"
#include "configtool/tool.h"
#include "workflow/environment.h"

namespace wfms::configtool {

/// What a loaded checkpoint reports back (everything except the cache
/// contents, which go straight into the tool).
struct CheckpointMetadata {
  std::string strategy;
  uint64_t fingerprint = 0;
  /// SearchResult::evaluations at save time (informational; the resumed
  /// search recounts from the start of its deterministic replay).
  int64_t evaluations = 0;
  size_t cached_reports = 0;
  size_t cached_failures = 0;
  /// Best-so-far at save time, when the saver had one.
  bool have_best = false;
  workflow::Configuration best_config;
  double best_cost = 0.0;
  bool best_satisfied = false;
};

/// Hash of everything the checkpointed cache depends on: the serialized
/// environment, the goals, the constraint box, the cost model, and the
/// strategy (the canonical SearchMethodName). Two searches agree on this
/// value iff a checkpoint of one is a valid resume point for the other.
uint64_t SearchFingerprint(const workflow::Environment& env,
                           const Goals& goals,
                           const SearchConstraints& constraints,
                           const CostModel& cost, std::string_view strategy);

/// Atomically writes the tool's assessment cache plus metadata to `path`.
/// `best_so_far` may be null (periodic mid-search checkpoints pass null;
/// the final on-signal checkpoint passes the partial SearchResult).
Status WriteSearchCheckpoint(const std::string& path,
                             const ConfigurationTool& tool,
                             uint64_t fingerprint, std::string_view strategy,
                             const SearchResult* best_so_far = nullptr);

/// Loads `path`, validates integrity (CRC, framing, version) and
/// freshness (fingerprint and strategy must match), and prefills the
/// tool's assessment cache. On success the caller re-runs the same search
/// and gets a bit-identical recommendation without re-assessing any
/// restored replication vector.
Result<CheckpointMetadata> ResumeSearchFrom(const ConfigurationTool& tool,
                                            const std::string& path,
                                            uint64_t fingerprint,
                                            std::string_view strategy);

/// The TLV codec for one memoized (replicas -> report) cache entry — the
/// same field encoding the search checkpoint payload uses, exposed so the
/// wfmsd service-cache snapshot (SnapshotKind::kServiceCache) stores
/// reports byte-compatibly instead of inventing a second format.
void EncodeCachedReport(SnapshotWriter* w, const std::vector<int>& replicas,
                        const performability::PerformabilityReport& report);
Result<std::pair<std::vector<int>, performability::PerformabilityReport>>
DecodeCachedReport(SnapshotReader* r);

/// Same, for one negatively cached terminal failure.
void EncodeCachedFailure(SnapshotWriter* w, const std::vector<int>& replicas,
                         const ConfigurationTool::CachedFailure& failure);
Result<std::pair<std::vector<int>, ConfigurationTool::CachedFailure>>
DecodeCachedFailure(SnapshotReader* r);

}  // namespace wfms::configtool

#endif  // WFMS_CONFIGTOOL_CHECKPOINT_H_
