// wfmsctl — command-line front end of the configuration tool (§7 of the
// paper): analyze workflows, assess candidate configurations, recommend
// minimum-cost configurations, and validate by simulation, driven by
// scenario files (see src/workflow/environment_io.h) or the built-in
// scenarios.
//
//   wfmsctl analyze   --scenario ep
//   wfmsctl assess    --scenario ep --config 2,2,3 --max-wait 0.05
//                     --min-avail 0.99999
//   wfmsctl recommend --scenario scenario.wfms --method greedy
//   wfmsctl simulate  --scenario ep --config 2,2,3 --duration 50000
//   wfmsctl autotune  --scenario ep --config 1,1,1 --load load.schedule
//                     --max-turnaround 40
//   wfmsctl export    --scenario benchmark > my_scenario.wfms

#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "adapt/autotune.h"
#include "avail/availability_model.h"
#include "common/json.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "common/trace.h"
#include "common/time_units.h"
#include "configtool/checkpoint.h"
#include "configtool/tool.h"
#include "corpus/sweep.h"
#include "markov/first_passage_moments.h"
#include "markov/transient_distribution.h"
#include "perf/performance_model.h"
#include "service/client.h"
#include "sim/fault_schedule.h"
#include "sim/load_schedule.h"
#include "sim/simulator.h"
#include "workflow/calibration.h"
#include "workflow/environment_io.h"
#include "workflow/scenarios.h"

namespace wfms {
namespace {

// Exit codes (documented in README): 0 success / goals met, 1 internal
// error, 2 usage error, 3 goals not met, 4 bad input (parse or
// validation, including stale/corrupt checkpoints), 5 numerical solve
// failure, 6 interrupted by SIGINT/SIGTERM with a final checkpoint
// written (resume with --resume), 7 deadline exceeded or service
// unavailable (daemon shed the request or cannot be reached).
int ExitCodeFor(const Status& status) {
  switch (status.code()) {
    case StatusCode::kParseError:
    case StatusCode::kInvalidArgument:
    case StatusCode::kNotFound:
    case StatusCode::kOutOfRange:
    case StatusCode::kFailedPrecondition:
      return 4;
    case StatusCode::kNumericError:
      return 5;
    case StatusCode::kCancelled:
      return 6;
    case StatusCode::kDeadlineExceeded:
    case StatusCode::kUnavailable:
      return 7;
    default:
      return 1;
  }
}

// SIGINT/SIGTERM raise this flag; the searches and the simulator poll it
// at their wave/step/event boundaries, stop with best-so-far, and the
// front end writes a final checkpoint before exiting with code 6.
std::atomic<bool> g_cancel{false};

void HandleTerminationSignal(int) { g_cancel.store(true); }

void InstallSignalHandlers() {
  std::signal(SIGINT, HandleTerminationSignal);
  std::signal(SIGTERM, HandleTerminationSignal);
}

// Prints the full status chain (root cause plus every WithContext frame)
// to stderr and returns the matching exit code.
int FailWith(const Status& status) {
  std::fprintf(stderr, "wfmsctl: %s\n", status.ToString().c_str());
  return ExitCodeFor(status);
}

struct Flags {
  std::map<std::string, std::string> values;

  bool Has(const std::string& name) const { return values.count(name) > 0; }
  std::string Get(const std::string& name, const std::string& fallback) const {
    const auto it = values.find(name);
    return it == values.end() ? fallback : it->second;
  }
  double GetDouble(const std::string& name, double fallback) const {
    const auto it = values.find(name);
    double value = fallback;
    if (it != values.end()) ParseDouble(it->second, &value);
    return value;
  }
};

int Usage() {
  std::fprintf(stderr, R"(usage: wfmsctl <command> [--flag value]...

commands:
  analyze     turnaround times, loads, and quantiles per workflow type
  assess      evaluate one configuration against performability goals
  recommend   search a minimum-cost configuration
              (greedy | greedy-site | exhaustive | bnb)
  simulate    discrete-event simulation of a configuration
              (--trail-out FILE records the audit trail;
               --bind-instances uses per-instance server binding)
  calibrate   re-estimate the scenario from an audit trail (--trail FILE);
              prints the calibrated scenario to stdout
  autotune    closed-loop adaptive reconfiguration: simulate under a
              scripted load schedule, monitor the audit stream, detect
              drift / goal violations, and re-run the configuration
              search when warranted
  corpus      generate (or load) a manifest of workflow environments —
              WfCommons-style imports and recipe-generated DAGs — and
              sweep assess/recommend across all of them in parallel,
              writing a per-environment JSON report
  export      print a scenario file for a built-in scenario
  ping        liveness probe of a running wfmsd (requires --connect)

client mode (assess, recommend, autotune, ping):
  --connect HOST:PORT    execute the command on a running wfmsd instead
                         of in-process; scenario files are inlined into
                         the request, so the daemon needs no file access
  --tenant NAME          tenant id for the daemon's per-tenant admission
  --timeout S            response wait per attempt   (default 120)

common flags:
  --scenario  ep | geo | benchmark | <path to scenario file> (default: ep;
              geo = EP placed across two sites EU/US, see DESIGN.md §12)
  --config    comma-separated replication vector, e.g. 2,2,3; multi-site
              scenarios also accept per-site counts with '/', e.g.
              2/1,1/1,2/2 (type-major: type 0 gets 2 at site A + 1 at B)
  --max-wait  waiting-time goal in minutes      (default 0.05)
  --min-avail availability goal                 (default 0.99999)
  --method    greedy | greedy-site | exhaustive | bnb
              (default greedy; greedy-site searches per-site placements
               in a multi-site scenario; bnb is the exact branch-and-bound
               search, also accepted as branch-and-bound)
  --max-replicas per-type search bound          (default 8)
  --lumping   off | auto | on — lumpability aggregation for the CTMC
              steady-state solve (assess, recommend). off (default)
              keeps solves bit-identical to previous releases; auto
              engages aggregation once a chain reaches 32768 states
              (falling back transparently when no symmetry is found)
  --deadline  wall-clock deadline in seconds. recommend/autotune: bounds
              the whole search AND each candidate's steady-state solve;
              on expiry the best-so-far result is reported. assess: bounds
              the solve itself; on expiry the command fails with exit 7
  --duration / --warmup / --seed / --no-failures   (simulate)
  --faults    fault-schedule file: scripted crash/repair/outage events
              replacing the random failure processes (simulate)
  --load      load-schedule file: timed arrival-rate phase changes
              (simulate, autotune)
  --verbose   also report cache statistics and per-candidate failure
              causes on stderr (recommend)

survivability goals (multi-site scenarios; assess, recommend):
  --survive-sites N      goals must also hold with any N sites down
                         (N = 0 or 1; default 0)
  --survive-partitions   goals must also hold under any two-way partition
  --degraded-max-wait    waiting-time goal under contingencies
                         (default: inherit --max-wait)
  --degraded-min-avail   availability goal under contingencies
                         (default: inherit --min-avail)
  --min-per-site         per-(type,site) placement minimums for
                         greedy-site: type-major comma list, e.g.
                         1,0,0,1 anchors types 0/1 at sites A/B

corpus flags:
  --generate N       generate an N-environment manifest (with --manifest:
                     also write it to that file)
  --manifest FILE    without --generate: load this manifest and sweep it
  --seed             manifest generation seed       (default 42)
  --max-tasks        largest generated workflow     (default 512)
  --mode             assess | recommend             (default assess)
  --max-replicas     recommend-mode per-type cap    (default 4)
  --phase-type       Erlang macro-state expansion for parallel regions
  --jobs N           sweep fan-out (default: WFMS_NUM_THREADS or cores)
  --report FILE      write the JSON report here instead of stdout
  --no-timings       omit wall times from the report (byte-stable output)
  --max-wait / --min-avail / --lumping as for assess and recommend

autotune flags:
  --config          initial configuration        (default all-ones)
  --load FILE       load schedule: timed arrival-rate phase changes
                    (at <t> rate <wf> <r> | scale <wf> <f> | scale-all <f>)
  --duration        total model minutes          (default 20000)
  --epoch           control period in model minutes (default 2000)
  --max-turnaround  observed mean-turnaround SLO in minutes (0 = off)
  --window / --tau  estimator window / decay constant (model minutes)
  --hysteresis      consecutive triggered periods before a search (default 2)
  --cooldown        minimum model minutes between reconfigurations
                    (default 2 epochs)
  --min-margin-gain minimum predicted improvement to act (default 0.05)
  --checkpoint PATH persist the search's assessment cache across periods

observability (any command):
  --metrics-out FILE     write a metrics snapshot after the command runs
  --metrics-format       json | prometheus        (default json)
  --trace-out FILE       record trace spans as Chrome trace_event JSON
                         (open in Perfetto or chrome://tracing)
  passing either export flag also prints a run-report summary to stdout

checkpointing (recommend, simulate):
  --checkpoint PATH      write crash-safe checkpoints to PATH (atomic
                         rename + CRC); on SIGINT/SIGTERM a final
                         checkpoint is written and the exit code is 6
  --checkpoint-interval  seconds between periodic search checkpoints
                         (recommend, default 60; 0 = every boundary)
  --checkpoint-events    events between simulator checkpoints
                         (simulate, default 100000)
  --resume               load PATH first: a search resumes from its
                         memoized assessments; a simulation replays and
                         verifies the saved cursor. A checkpoint from a
                         different scenario/goals/options is rejected.

exit codes:
  0 success / goals met     3 goals not met
  1 internal error          4 bad input (parse, validation, or a stale/
  2 usage error               corrupt checkpoint)
  5 numerical solve failure 6 interrupted; checkpoint written (resumable)
  7 deadline exceeded, request shed by the daemon, or daemon unreachable
)");
  return 2;
}

Result<workflow::Environment> LoadScenario(const std::string& name) {
  if (name == "ep") return workflow::EpEnvironment();
  if (name == "geo") return workflow::GeoEpEnvironment();
  if (name == "benchmark") return workflow::BenchmarkEnvironment();
  std::ifstream file(name);
  if (!file) {
    return Status::NotFound("cannot open scenario file '" + name + "'");
  }
  std::stringstream buffer;
  buffer << file.rdbuf();
  return workflow::ParseEnvironment(buffer.str());
}

// Classic form "2,2,3" or, in a multi-site scenario, per-site counts with
// '/' separators: "2/1,1/1,2/2" places type 0 as 2 at site A + 1 at site B,
// and so on (type-major, one slash-group per server type).
Result<workflow::Configuration> ParseConfig(const std::string& text,
                                            size_t num_types,
                                            size_t num_sites) {
  if (text.empty()) {
    return Status::InvalidArgument("--config is required for this command");
  }
  if (text.find('/') != std::string::npos) {
    if (num_sites == 0) {
      return Status::InvalidArgument(
          "per-site --config (the a/b/... form) needs a scenario with a "
          "sites section");
    }
    std::vector<int> counts;
    for (const std::string& part : SplitString(text, ',')) {
      const std::vector<std::string> per_site = SplitString(part, '/');
      if (per_site.size() != num_sites) {
        return Status::InvalidArgument(
            "--config entry '" + part + "' must list one count per site (" +
            std::to_string(num_sites) + " sites)");
      }
      for (const std::string& entry : per_site) {
        int value = 0;
        if (!ParseInt(entry, &value)) {
          return Status::InvalidArgument("bad --config entry '" + entry +
                                         "'");
        }
        counts.push_back(value);
      }
    }
    workflow::Configuration config =
        workflow::Configuration::FromSiteCounts(std::move(counts), num_sites);
    WFMS_RETURN_NOT_OK(config.ValidateSites(num_types, num_sites));
    return config;
  }
  workflow::Configuration config;
  for (const std::string& part : SplitString(text, ',')) {
    int value = 0;
    if (!ParseInt(part, &value)) {
      return Status::InvalidArgument("bad --config entry '" + part + "'");
    }
    config.replicas.push_back(value);
  }
  WFMS_RETURN_NOT_OK(config.Validate(num_types));
  return config;
}

configtool::Goals GoalsFromFlags(const Flags& flags) {
  configtool::Goals goals;
  goals.max_waiting_time = flags.GetDouble("max-wait", 0.05);
  goals.min_availability = flags.GetDouble("min-avail", 0.99999);
  goals.survive_sites =
      static_cast<int>(flags.GetDouble("survive-sites", 0));
  goals.survive_partitions = flags.Has("survive-partitions");
  goals.degraded_max_waiting_time =
      flags.GetDouble("degraded-max-wait", 0.0);
  goals.degraded_min_availability =
      flags.GetDouble("degraded-min-avail", -1.0);
  return goals;
}

/// Solver-related tool options shared by assess and recommend. --lumping
/// selects lumpability aggregation for the availability CTMC solve; off is
/// the default so existing runs stay bit-identical.
Result<performability::PerformabilityOptions> ToolOptionsFromFlags(
    const Flags& flags) {
  performability::PerformabilityOptions options;
  const std::string lumping = flags.Get("lumping", "off");
  if (lumping == "off") {
    options.availability.solver.lumping = markov::LumpingMode::kOff;
  } else if (lumping == "auto") {
    options.availability.solver.lumping = markov::LumpingMode::kAuto;
  } else if (lumping == "on") {
    options.availability.solver.lumping = markov::LumpingMode::kOn;
  } else {
    return Status::InvalidArgument("bad --lumping '" + lumping +
                                   "' (on|off|auto)");
  }
  return options;
}

int Analyze(const workflow::Environment& env) {
  auto model = perf::PerformanceModel::Create(env);
  if (!model.ok()) return FailWith(model.status());
  for (const perf::WorkflowAnalysis& wf : model->workflows()) {
    std::printf("workflow %s (chart %s)\n", wf.workflow_type.c_str(),
                wf.chart.c_str());
    std::printf("  mean turnaround: %s\n",
                FormatMinutes(wf.turnaround_time).c_str());
    auto moments = markov::TurnaroundTimeMoments(wf.chain);
    if (moments.ok()) {
      std::printf("  turnaround stddev: %s (SCV %.2f)\n",
                  FormatMinutes(moments->stddev()).c_str(), moments->scv());
    }
    for (double q : {0.5, 0.95}) {
      auto quantile = markov::TurnaroundQuantile(wf.chain, q);
      if (quantile.ok()) {
        std::printf("  p%.0f turnaround: %s\n", q * 100,
                    FormatMinutes(*quantile).c_str());
      }
    }
    std::printf("  expected requests:");
    for (size_t x = 0; x < env.num_server_types(); ++x) {
      std::printf(" %s=%.2f", env.servers.type(x).name.c_str(),
                  wf.expected_requests[x]);
    }
    std::printf("\n");
  }
  std::printf("aggregate request rates (req/min):");
  for (size_t x = 0; x < env.num_server_types(); ++x) {
    std::printf(" %s=%.2f", env.servers.type(x).name.c_str(),
                model->total_request_rates()[x]);
  }
  std::printf("\n");
  return 0;
}

int Assess(const workflow::Environment& env, const Flags& flags) {
  auto config = ParseConfig(flags.Get("config", ""), env.num_server_types(),
                            env.topology.num_sites());
  if (!config.ok()) return FailWith(config.status());
  auto tool_options = ToolOptionsFromFlags(flags);
  if (!tool_options.ok()) return FailWith(tool_options.status());
  auto tool = configtool::ConfigurationTool::Create(env, *tool_options);
  if (!tool.ok()) return FailWith(tool.status());
  // --deadline bounds the assessment's steady-state solves themselves, not
  // just the caller's patience: on expiry the assessment fails with
  // DeadlineExceeded (exit 7).
  configtool::AssessOptions assess_options;
  assess_options.deadline_seconds = flags.GetDouble("deadline", 0.0);
  auto assessment = tool->Assess(*config, GoalsFromFlags(flags),
                                 configtool::CostModel::Uniform(),
                                 assess_options);
  if (!assessment.ok()) return FailWith(assessment.status());
  if (!assessment->error.ok()) return FailWith(assessment->error);
  std::printf("configuration %s (cost %.0f)\n", config->ToString().c_str(),
              assessment->cost);
  for (size_t x = 0; x < env.num_server_types(); ++x) {
    const double w = assessment->performability.expected_waiting[x];
    std::printf("  %-10s W^Y = %s\n", env.servers.type(x).name.c_str(),
                std::isinf(w) ? "saturated" : FormatMinutes(w).c_str());
  }
  std::printf("  availability %.8f (downtime %s/year)\n",
              assessment->performability.availability,
              FormatMinutes(UnavailabilityToDowntimeMinutesPerYear(
                                1.0 - assessment->performability.availability))
                  .c_str());
  std::printf("  P(saturated) %.3g, P(degraded) %.3g\n",
              assessment->performability.prob_saturated,
              assessment->performability.prob_degraded);
  if (!assessment->contingencies.empty()) {
    std::printf("  survivability:\n");
    for (const configtool::ContingencyAssessment& c :
         assessment->contingencies) {
      const double w = c.max_expected_waiting;
      std::printf("    %-20s availability %.8f, W = %s [%s]\n",
                  c.label.c_str(), c.availability,
                  std::isinf(w) ? "saturated" : FormatMinutes(w).c_str(),
                  c.satisfied ? "ok" : "violated");
    }
  }
  std::printf("verdict: %s\n",
              assessment->Satisfies() ? "goals met" : "goals NOT met");
  return assessment->Satisfies() ? 0 : 3;
}

int Recommend(const workflow::Environment& env, const Flags& flags) {
  auto method = configtool::ParseSearchMethod(flags.Get("method", "greedy"));
  if (!method.ok()) return FailWith(method.status());
  // Checkpoints are keyed by the canonical name, so an alias resumes the
  // same search.
  const char* method_name = configtool::SearchMethodName(*method);
  auto tool_options = ToolOptionsFromFlags(flags);
  if (!tool_options.ok()) return FailWith(tool_options.status());
  auto tool = configtool::ConfigurationTool::Create(env, *tool_options);
  if (!tool.ok()) return FailWith(tool.status());
  configtool::SearchConstraints constraints;
  const int max_replicas =
      static_cast<int>(flags.GetDouble("max-replicas", 8));
  constraints.max_replicas.assign(env.num_server_types(), max_replicas);
  const configtool::Goals goals = GoalsFromFlags(flags);
  configtool::SearchOptions search;
  search.deadline_seconds = flags.GetDouble("deadline", 0.0);
  search.cancel = &g_cancel;

  // Crash-safe checkpointing: the memoized assessment cache is the
  // search's durable progress (see configtool/checkpoint.h). `--resume`
  // restores it; periodic and on-signal checkpoints persist it.
  const std::string checkpoint_path = flags.Get("checkpoint", "");
  uint64_t fingerprint = 0;
  // Deterministic crash injection for the chaos harness: SIGKILL
  // ourselves after the Nth checkpoint write (undocumented).
  const int crash_after =
      static_cast<int>(flags.GetDouble("crash-after-checkpoints", 0));
  int checkpoints_written = 0;
  Status checkpoint_error;
  if (!checkpoint_path.empty()) {
    fingerprint = configtool::SearchFingerprint(
        env, goals, constraints, configtool::CostModel::Uniform(),
        method_name);
    if (flags.Has("resume")) {
      auto resumed = configtool::ResumeSearchFrom(*tool, checkpoint_path,
                                                  fingerprint, method_name);
      if (resumed.ok()) {
        std::fprintf(stderr,
                     "wfmsctl: resumed from %s (%zu cached assessments, "
                     "%zu cached failures)\n",
                     checkpoint_path.c_str(), resumed->cached_reports,
                     resumed->cached_failures);
      } else if (resumed.status().code() != StatusCode::kNotFound) {
        return FailWith(resumed.status());  // stale or corrupt: refuse
      }
      // NotFound: nothing to resume yet; run from scratch.
    }
    search.checkpoint_interval_seconds =
        flags.GetDouble("checkpoint-interval", 60.0);
    search.on_checkpoint = [&] {
      const Status written = configtool::WriteSearchCheckpoint(
          checkpoint_path, *tool, fingerprint, method_name);
      if (!written.ok() && checkpoint_error.ok()) {
        checkpoint_error = written;  // surfaced after the search returns
      }
      if (written.ok() && crash_after > 0 &&
          ++checkpoints_written >= crash_after) {
        std::raise(SIGKILL);
      }
    };
  }

  configtool::SiteSearchConstraints site_constraints;
  site_constraints.max_per_type = max_replicas;
  if (*method == configtool::SearchMethod::kGreedySite &&
      flags.Has("min-per-site")) {
    for (const std::string& part :
         SplitString(flags.Get("min-per-site", ""), ',')) {
      int value = 0;
      if (!ParseInt(part, &value)) {
        return FailWith(Status::InvalidArgument(
            "bad --min-per-site entry '" + part + "'"));
      }
      site_constraints.min_per_site.push_back(value);
    }
  }
  Result<configtool::SearchResult> result = configtool::RunSearch(
      *tool, *method, goals, constraints, site_constraints,
      configtool::CostModel::Uniform(), search);
  if (!result.ok()) return FailWith(result.status());
  if (!checkpoint_error.ok()) return FailWith(checkpoint_error);

  const bool cancelled =
      result->termination.code() == StatusCode::kCancelled;
  if (!checkpoint_path.empty() && cancelled) {
    // Final checkpoint carries the best-so-far so an operator can inspect
    // it without resuming.
    const Status written = configtool::WriteSearchCheckpoint(
        checkpoint_path, *tool, fingerprint, method_name, &*result);
    if (!written.ok()) return FailWith(written);
    std::fprintf(stderr, "wfmsctl: interrupted; checkpoint written to %s\n",
                 checkpoint_path.c_str());
  }
  std::printf("%s", tool->RenderRecommendation(*result).c_str());
  if (flags.Has("verbose")) {
    // Cache accounting is read back from the metrics registry — the same
    // counters --metrics-out exports — so stderr and the machine-readable
    // snapshot can never disagree. The counts are mirrored at the exact
    // sites that maintain the tool's own cache_stats() atomics.
    const metrics::MetricsSnapshot snap =
        metrics::MetricsRegistry::Global().Snapshot();
    std::fprintf(
        stderr,
        "cache: %llu entries, %llu hits, %llu misses (%llu of %llu "
        "evaluations served from cache)\n",
        static_cast<unsigned long long>(
            snap.gauge("wfms_configtool_cache_entries")),
        static_cast<unsigned long long>(
            snap.counter("wfms_configtool_cache_hits_total")),
        static_cast<unsigned long long>(
            snap.counter("wfms_configtool_cache_misses_total")),
        static_cast<unsigned long long>(
            snap.counter("wfms_configtool_search_cache_hits_total")),
        static_cast<unsigned long long>(
            snap.counter("wfms_configtool_candidates_assessed_total")));
    if (!result->failed_candidates.empty()) {
      // The counter is incremented exactly where a cause is recorded, so
      // it equals the number of lines below.
      std::fprintf(stderr, "failed candidates (%llu):\n",
                   static_cast<unsigned long long>(snap.counter(
                       "wfms_configtool_candidates_failed_total")));
      for (const configtool::FailedCandidate& failed :
           result->failed_candidates) {
        std::fprintf(stderr, "  %s: %s [%s, solver rung: %s]\n",
                     failed.config.ToString().c_str(),
                     failed.error.ToString().c_str(),
                     failed.numerical ? "numerical" : "structural",
                     failed.retried_exact
                         ? "iterative cascade + exact LU retry"
                         : "iterative cascade");
      }
    }
  }
  if (cancelled) return 6;
  return result->satisfied ? 0 : 3;
}

int Simulate(const workflow::Environment& env, const Flags& flags) {
  auto config = ParseConfig(flags.Get("config", ""), env.num_server_types(),
                            env.topology.num_sites());
  if (!config.ok()) return FailWith(config.status());
  sim::SimulationOptions options;
  options.config = *config;
  options.duration = flags.GetDouble("duration", 50000.0);
  options.warmup = flags.GetDouble("warmup", options.duration * 0.1);
  options.seed = static_cast<uint64_t>(flags.GetDouble("seed", 1.0));
  options.enable_failures = !flags.Has("no-failures");
  options.record_audit_trail = flags.Has("trail-out");
  if (flags.Has("bind-instances")) {
    options.dispatch = sim::DispatchPolicy::kPerInstanceBinding;
  }
  options.checkpoint_path = flags.Get("checkpoint", "");
  options.checkpoint_every_events =
      static_cast<int64_t>(flags.GetDouble("checkpoint-events", 100000.0));
  options.resume = flags.Has("resume");
  options.cancel = &g_cancel;
  if (flags.Has("faults")) {
    const std::string path = flags.Get("faults", "");
    std::ifstream file(path);
    if (!file) {
      return FailWith(
          Status::NotFound("cannot open fault schedule '" + path + "'"));
    }
    std::stringstream buffer;
    buffer << file.rdbuf();
    auto schedule =
        sim::ParseFaultSchedule(buffer.str(), env.servers, &env.topology);
    if (!schedule.ok()) return FailWith(schedule.status());
    options.faults = *std::move(schedule);
  }
  if (flags.Has("load")) {
    const std::string path = flags.Get("load", "");
    std::ifstream file(path);
    if (!file) {
      return FailWith(
          Status::NotFound("cannot open load schedule '" + path + "'"));
    }
    std::stringstream buffer;
    buffer << file.rdbuf();
    auto schedule = sim::ParseLoadSchedule(buffer.str(), env.workflows);
    if (!schedule.ok()) return FailWith(schedule.status());
    options.load = *std::move(schedule);
  }
  auto simulator = sim::Simulator::Create(env, options);
  if (!simulator.ok()) return FailWith(simulator.status());
  auto result = simulator->Run();
  if (!result.ok()) return FailWith(result.status());
  std::printf("simulated %s for %s (%lld events)\n",
              config->ToString().c_str(),
              FormatMinutes(options.duration).c_str(),
              static_cast<long long>(result->events_executed));
  for (size_t x = 0; x < env.num_server_types(); ++x) {
    const auto& stats = result->servers[x];
    std::printf(
        "  %-10s util %.3f, mean wait %s (n=%lld), failovers %lld, "
        "requeued %lld\n",
        env.servers.type(x).name.c_str(), result->utilization[x],
        FormatMinutes(stats.waiting_time.mean()).c_str(),
        static_cast<long long>(stats.waiting_time.count()),
        static_cast<long long>(stats.failovers),
        static_cast<long long>(stats.requeued));
  }
  for (const auto& [name, wf] : result->workflows) {
    std::printf("  workflow %-8s completed %lld, mean turnaround %s\n",
                name.c_str(), static_cast<long long>(wf.completed),
                FormatMinutes(wf.turnaround.mean()).c_str());
  }
  std::printf("  observed availability %.6f\n",
              result->observed_availability);
  if (!options.faults.empty()) {
    auto prescribed = options.faults.PrescribedAvailability(
        *config, env.num_server_types(), options.warmup, options.duration,
        &env.topology);
    if (prescribed.ok()) {
      std::printf("  prescribed availability %.6f (scripted faults)\n",
                  *prescribed);
    }
  }
  if (flags.Has("trail-out")) {
    const std::string path = flags.Get("trail-out", "");
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "cannot write trail to '%s'\n", path.c_str());
      return 1;
    }
    out << result->trail.Serialize();
    std::printf("  audit trail (%zu records) written to %s\n",
                result->trail.size(), path.c_str());
  }
  return 0;
}

int Calibrate(const workflow::Environment& env, const Flags& flags) {
  const std::string path = flags.Get("trail", "");
  if (path.empty()) {
    std::fprintf(stderr, "calibrate requires --trail <file>\n");
    return 2;
  }
  std::ifstream file(path);
  if (!file) {
    return FailWith(Status::NotFound("cannot open trail '" + path + "'"));
  }
  std::stringstream buffer;
  buffer << file.rdbuf();
  auto trail = workflow::AuditTrail::Deserialize(buffer.str());
  if (!trail.ok()) return FailWith(trail.status());
  workflow::CalibrationReport report;
  auto calibrated = workflow::CalibrateEnvironment(env, *trail, {}, &report);
  if (!calibrated.ok()) return FailWith(calibrated.status());
  std::fprintf(stderr,
               "calibrated: %d states re-estimated (%d kept), %d server "
               "types, %d workflow rates\n",
               report.states_recalibrated, report.states_kept,
               report.server_types_recalibrated,
               report.workflow_types_recalibrated);
  // The calibrated scenario goes to stdout so it can be piped to a file
  // and fed back into assess/recommend.
  std::printf("%s", workflow::SerializeEnvironment(*calibrated).c_str());
  return 0;
}

int Autotune(const workflow::Environment& env, const Flags& flags) {
  adapt::AutotuneOptions options;
  if (flags.Has("config")) {
    auto config = ParseConfig(flags.Get("config", ""),
                              env.num_server_types(),
                              env.topology.num_sites());
    if (!config.ok()) return FailWith(config.status());
    options.initial = *config;
  } else {
    options.initial = workflow::Configuration::Ones(env.num_server_types());
  }
  options.duration = flags.GetDouble("duration", 20000.0);
  options.epoch = flags.GetDouble("epoch", 2000.0);
  options.seed = static_cast<uint64_t>(flags.GetDouble("seed", 1.0));
  options.enable_failures = !flags.Has("no-failures");
  if (flags.Has("bind-instances")) {
    options.dispatch = sim::DispatchPolicy::kPerInstanceBinding;
  }
  if (flags.Has("load")) {
    const std::string path = flags.Get("load", "");
    std::ifstream file(path);
    if (!file) {
      return FailWith(
          Status::NotFound("cannot open load schedule '" + path + "'"));
    }
    std::stringstream buffer;
    buffer << file.rdbuf();
    auto schedule = sim::ParseLoadSchedule(buffer.str(), env.workflows);
    if (!schedule.ok()) return FailWith(schedule.status());
    options.load = *std::move(schedule);
  }

  options.controller.goals = GoalsFromFlags(flags);
  const int max_replicas =
      static_cast<int>(flags.GetDouble("max-replicas", 8));
  options.controller.constraints.max_replicas.assign(env.num_server_types(),
                                                     max_replicas);
  auto method = configtool::ParseSearchMethod(flags.Get("method", "greedy"));
  if (!method.ok()) return FailWith(method.status());
  options.controller.method = *method;
  options.controller.max_turnaround = flags.GetDouble("max-turnaround", 0.0);
  options.controller.search_deadline_seconds =
      flags.GetDouble("deadline", 0.0);
  options.controller.hysteresis =
      static_cast<int>(flags.GetDouble("hysteresis", 2));
  options.controller.cooldown =
      flags.GetDouble("cooldown", 2.0 * options.epoch);
  options.controller.min_margin_gain =
      flags.GetDouble("min-margin-gain", 0.05);
  options.controller.migration_cost_per_server =
      flags.GetDouble("migration-cost", 0.5);
  options.controller.min_observations =
      static_cast<int>(flags.GetDouble("min-observations", 10));
  options.controller.checkpoint_path = flags.Get("checkpoint", "");
  options.calibrator.window = flags.GetDouble("window", 2.0 * options.epoch);
  options.calibrator.tau = flags.GetDouble("tau", options.epoch);
  options.calibrator.min_observations = options.controller.min_observations;

  auto report = adapt::RunAutotune(env, options);
  if (!report.ok()) return FailWith(report.status());

  std::printf("autotune: initial %s, %s in epochs of %s\n",
              options.initial.ToString().c_str(),
              FormatMinutes(options.duration).c_str(),
              FormatMinutes(options.epoch).c_str());
  for (const adapt::EpochReport& epoch : report->epochs) {
    std::printf("epoch %d [%.0f, %.0f) config %s rates (", epoch.index,
                epoch.start, epoch.end, epoch.config.ToString().c_str());
    for (size_t i = 0; i < epoch.scheduled_rates.size(); ++i) {
      std::printf("%s%.4g", i ? "," : "", epoch.scheduled_rates[i]);
    }
    std::printf(") turnaround %.3f events %llu\n", epoch.observed_turnaround,
                static_cast<unsigned long long>(epoch.events));
    std::printf("  decision: %s\n", epoch.decision.reason.c_str());
  }
  std::printf("final config %s after %d reconfiguration%s (%zu epochs, "
              "%llu events, %llu dropped)\n",
              report->final_config.ToString().c_str(),
              report->reconfigurations,
              report->reconfigurations == 1 ? "" : "s",
              report->epochs.size(),
              static_cast<unsigned long long>(report->events_total),
              static_cast<unsigned long long>(report->dropped_total));
  return 0;
}

// Human summary of the metrics registry, printed to stdout only alongside
// the machine-readable exports (the default stdout stays byte-identical —
// the chaos harness diffs it). Lines appear only for subsystems that ran.
void PrintRunReport(const metrics::MetricsSnapshot& snap,
                    double wall_seconds) {
  std::printf("run report:\n");
  std::printf("  wall time %.3f s\n", wall_seconds);
  const uint64_t assessed =
      snap.counter("wfms_configtool_candidates_assessed_total");
  if (assessed > 0) {
    const uint64_t hits =
        snap.counter("wfms_configtool_search_cache_hits_total");
    std::printf(
        "  candidates assessed %llu (%.1f/s), cache hits %llu (%.1f%%), "
        "failed %llu, pruned %llu\n",
        static_cast<unsigned long long>(assessed),
        wall_seconds > 0.0 ? static_cast<double>(assessed) / wall_seconds
                           : 0.0,
        static_cast<unsigned long long>(hits),
        100.0 * static_cast<double>(hits) / static_cast<double>(assessed),
        static_cast<unsigned long long>(
            snap.counter("wfms_configtool_candidates_failed_total")),
        static_cast<unsigned long long>(
            snap.counter("wfms_configtool_candidates_pruned_total")));
  }
  if (const metrics::HistogramSnapshot* latency =
          snap.histogram("wfms_configtool_assessment_seconds");
      latency != nullptr && latency->count > 0) {
    std::printf("  assessment latency p50 %.3f ms, p99 %.3f ms\n",
                latency->p50 * 1e3, latency->p99 * 1e3);
  }
  const uint64_t solves = snap.counter("wfms_markov_steady_solves_total");
  if (solves > 0) {
    const uint64_t fallbacks =
        snap.counter("wfms_markov_steady_fallbacks_total");
    std::printf(
        "  steady-state solves %llu, fallbacks %llu (%.1f%%), failures "
        "%llu\n",
        static_cast<unsigned long long>(solves),
        static_cast<unsigned long long>(fallbacks),
        100.0 * static_cast<double>(fallbacks) / static_cast<double>(solves),
        static_cast<unsigned long long>(
            snap.counter("wfms_markov_steady_failures_total")));
  }
  const uint64_t sim_events = snap.counter("wfms_sim_events_total");
  if (sim_events > 0) {
    std::printf("  sim events %llu (%.0f events/s, peak queue %.0f)\n",
                static_cast<unsigned long long>(sim_events),
                snap.gauge("wfms_sim_events_per_second"),
                snap.gauge("wfms_sim_event_queue_peak"));
  }
  const uint64_t adapt_evals = snap.counter("wfms_adapt_evaluations_total");
  if (adapt_evals > 0) {
    std::printf(
        "  adapt evaluations %llu, triggers %llu, searches %llu, "
        "reconfigurations %llu (stream events %llu, dropped %llu)\n",
        static_cast<unsigned long long>(adapt_evals),
        static_cast<unsigned long long>(
            snap.counter("wfms_adapt_triggers_total")),
        static_cast<unsigned long long>(
            snap.counter("wfms_adapt_searches_total")),
        static_cast<unsigned long long>(
            snap.counter("wfms_adapt_reconfigurations_total")),
        static_cast<unsigned long long>(
            snap.counter("wfms_adapt_stream_published_total")),
        static_cast<unsigned long long>(
            snap.counter("wfms_adapt_stream_dropped_total")));
  }
  const uint64_t checkpoint_writes =
      snap.counter("wfms_configtool_checkpoint_writes_total") +
      snap.counter("wfms_sim_checkpoint_writes_total");
  if (checkpoint_writes > 0) {
    std::printf("  checkpoint writes %llu\n",
                static_cast<unsigned long long>(checkpoint_writes));
  }
}

// Writes --metrics-out / --trace-out and prints the run report after the
// command finishes. A failed export turns a successful run into exit 1;
// a failed command keeps its own exit code (exports are still attempted —
// the partial snapshot is exactly what an operator wants post-mortem).
int ObservabilityEpilogue(int code, const Flags& flags,
                          double wall_seconds) {
  const std::string metrics_out = flags.Get("metrics-out", "");
  const std::string trace_out = flags.Get("trace-out", "");
  if (metrics_out.empty() && trace_out.empty()) return code;

  const metrics::MetricsSnapshot snap =
      metrics::MetricsRegistry::Global().Snapshot();
  Status export_error;
  if (!metrics_out.empty()) {
    const std::string body =
        flags.Get("metrics-format", "json") == "prometheus"
            ? snap.ToPrometheusText()
            : snap.ToJson();
    std::ofstream out(metrics_out, std::ios::binary);
    if (out) out << body;
    if (!out) {
      export_error =
          Status::Internal("cannot write metrics to '" + metrics_out + "'");
    }
  }
  if (!trace_out.empty()) {
    const Status written = trace::WriteJson(trace_out);
    if (!written.ok() && export_error.ok()) export_error = written;
  }
  PrintRunReport(snap, wall_seconds);
  if (!export_error.ok()) {
    std::fprintf(stderr, "wfmsctl: %s\n",
                 export_error.ToString().c_str());
    if (code == 0) return 1;
  }
  return code;
}

// Client mode (`--connect HOST:PORT`): the command is executed by a
// running wfmsd instead of in-process. Only the protocol ops (ping,
// assess, recommend, autotune) are supported remotely; the scenario is
// passed by name for the builtins and inlined for scenario files, so the
// daemon needs no filesystem access. Dispositions map onto the standard
// exit codes: completed/degraded follow the goal verdict (0 or 3),
// rejected-overloaded / deadline-exceeded / unreachable exit 7, a server
// error exits 4.
int RemoteCommand(const std::string& command, const Flags& flags) {
  const std::string endpoint = flags.Get("connect", "");
  const size_t colon = endpoint.rfind(':');
  int port = 0;
  if (colon == std::string::npos ||
      !ParseInt(endpoint.substr(colon + 1), &port) || port <= 0 ||
      port > 65535) {
    std::fprintf(stderr, "wfmsctl: bad --connect '%s' (HOST:PORT)\n",
                 endpoint.c_str());
    return 2;
  }

  Json request = Json::Object();
  request.Set("id", Json::Str("wfmsctl"));
  request.Set("op", Json::Str(command));
  if (flags.Has("tenant")) {
    request.Set("tenant", Json::Str(flags.Get("tenant", "")));
  }
  if (command != "ping") {
    const std::string scenario = flags.Get("scenario", "ep");
    if (scenario == "ep" || scenario == "benchmark") {
      request.Set("scenario", Json::Str(scenario));
    } else {
      std::ifstream file(scenario);
      if (!file) {
        return FailWith(Status::NotFound("cannot open scenario file '" +
                                         scenario + "'"));
      }
      std::stringstream buffer;
      buffer << file.rdbuf();
      request.Set("scenario", Json::Str(buffer.str()));
    }
    if (flags.Has("config")) {
      const std::string text = flags.Get("config", "");
      if (text.find('/') != std::string::npos) {
        // Per-site placement: shipped as 'site_config' (type-major); the
        // daemon validates the shape against its scenario's topology.
        Json site_config = Json::Array();
        size_t sites_per_type = 0;
        for (const std::string& part : SplitString(text, ',')) {
          const std::vector<std::string> per_site = SplitString(part, '/');
          if (sites_per_type == 0) sites_per_type = per_site.size();
          if (per_site.size() != sites_per_type) {
            return FailWith(Status::InvalidArgument(
                "per-site --config entries must all list the same number "
                "of sites"));
          }
          for (const std::string& entry : per_site) {
            int value = 0;
            if (!ParseInt(entry, &value)) {
              return FailWith(Status::InvalidArgument(
                  "bad --config entry '" + entry + "'"));
            }
            site_config.Append(Json::Number(value));
          }
        }
        request.Set("site_config", site_config);
      } else {
        Json config = Json::Array();
        for (const std::string& part : SplitString(text, ',')) {
          int value = 0;
          if (!ParseInt(part, &value)) {
            return FailWith(Status::InvalidArgument("bad --config entry '" +
                                                    part + "'"));
          }
          config.Append(Json::Number(value));
        }
        request.Set("config", config);
      }
    }
    request.Set("max_wait", Json::Number(flags.GetDouble("max-wait", 0.05)));
    request.Set("min_avail",
                Json::Number(flags.GetDouble("min-avail", 0.99999)));
    const int survive_sites =
        static_cast<int>(flags.GetDouble("survive-sites", 0));
    if (survive_sites > 0) {
      request.Set("survive_sites", Json::Number(survive_sites));
    }
    if (flags.Has("survive-partitions")) {
      request.Set("survive_partitions", Json::Bool(true));
    }
    const double degraded_max_wait =
        flags.GetDouble("degraded-max-wait", 0.0);
    if (degraded_max_wait > 0.0) {
      request.Set("degraded_max_wait", Json::Number(degraded_max_wait));
    }
    const double degraded_min_avail =
        flags.GetDouble("degraded-min-avail", -1.0);
    if (degraded_min_avail >= 0.0) {
      request.Set("degraded_min_avail", Json::Number(degraded_min_avail));
    }
    request.Set("method", Json::Str(flags.Get("method", "greedy")));
    request.Set("max_replicas",
                Json::Number(flags.GetDouble("max-replicas", 8)));
    const double deadline = flags.GetDouble("deadline", 0.0);
    if (deadline > 0.0) {
      request.Set("deadline_seconds", Json::Number(deadline));
    }
    if (command == "autotune") {
      request.Set("duration",
                  Json::Number(flags.GetDouble("duration", 4000)));
      request.Set("epoch", Json::Number(flags.GetDouble("epoch", 1000)));
      request.Set("max_turnaround",
                  Json::Number(flags.GetDouble("max-turnaround", 0)));
    }
  }

  // Distributed tracing (DESIGN.md §13): the trace is minted client-side
  // and shipped in the request, so the daemon's spans and flight-recorder
  // record attach under this invocation's root span. With --trace-out the
  // root span lands in the client trace; merged with the server's
  // --trace-out file the two render as one tree in Perfetto.
  const trace::TraceContext minted = trace::TraceContext::Mint();
  trace::TraceSpan root_span(std::string("wfmsctl/") + command, "client",
                             minted);
  {
    Json trace_field = Json::Object();
    trace_field.Set("trace_id", Json::Str(minted.trace_id_hex()));
    const trace::TraceContext ctx = root_span.context();
    if (ctx.span_id != 0) {
      trace_field.Set("parent_span_id", Json::Str(ctx.span_id_hex()));
    }
    request.Set("trace", trace_field);
  }

  service::ClientOptions client_options;
  client_options.host = endpoint.substr(0, colon);
  client_options.port = port;
  client_options.io_timeout_seconds = flags.GetDouble("timeout", 120.0);
  service::Client client(client_options);
  // ping/assess/recommend are pure functions of (scenario, request) — safe
  // to retry under the client's backoff. autotune runs a whole control
  // horizon; it is only retried while the request provably never reached
  // the wire (see service/client.h).
  auto response_line = client.Call(request.Dump(), command != "autotune");
  if (!response_line.ok()) return FailWith(response_line.status());

  auto response = Json::Parse(*response_line);
  if (!response.ok()) {
    return FailWith(response.status().WithContext("parsing daemon response"));
  }
  const std::string status = response->GetString("status", "");
  const std::string error = response->GetString("error", "");
  if (status == "rejected-overloaded") {
    std::fprintf(stderr, "wfmsctl: request shed by the daemon: %s\n",
                 error.c_str());
    return 7;
  }
  if (status == "deadline-exceeded") {
    std::fprintf(stderr, "wfmsctl: %s\n", error.c_str());
    return 7;
  }
  if (status == "error") {
    std::fprintf(stderr, "wfmsctl: daemon: %s\n", error.c_str());
    return 4;
  }
  if (status == "degraded") {
    std::fprintf(stderr, "wfmsctl: degraded answer (%s)\n",
                 response->GetString("degrade_reason", "").c_str());
  }
  if (flags.Has("verbose")) {
    // The id to grep for in the daemon's /debug/requests and slow log.
    std::fprintf(stderr, "wfmsctl: trace %s\n",
                 response->GetString("trace_id", "(none)").c_str());
  }
  const Json* result = response->Find("result");
  std::printf("%s\n", result != nullptr ? result->Dump().c_str() : "null");
  if (result != nullptr) {
    if (const Json* goal = result->Find("satisfies")) {
      return goal->bool_value() ? 0 : 3;
    }
    if (const Json* goal = result->Find("satisfied")) {
      return goal->bool_value() ? 0 : 3;
    }
  }
  return 0;
}

/// `wfmsctl corpus`: generate or load a manifest of workflow environments
/// and sweep assess/recommend across them (DESIGN.md §14). Needs no
/// --scenario — the corpus *is* the scenario population.
int Corpus(const Flags& flags) {
  corpus::Manifest manifest;
  const std::string manifest_path = flags.Get("manifest", "");
  if (flags.Has("generate")) {
    const double count = flags.GetDouble("generate", 50.0);
    const double max_tasks = flags.GetDouble("max-tasks", 512.0);
    if (count < 1.0 || max_tasks < 1.0) {
      std::fprintf(stderr,
                   "wfmsctl: --generate and --max-tasks must be >= 1\n");
      return 2;
    }
    manifest = corpus::GenerateManifest(
        static_cast<size_t>(count),
        static_cast<uint64_t>(flags.GetDouble("seed", 42.0)),
        static_cast<size_t>(max_tasks));
    if (!manifest_path.empty()) {
      std::ofstream out(manifest_path);
      if (!out) {
        return FailWith(Status::NotFound("cannot write manifest '" +
                                         manifest_path + "'"));
      }
      out << corpus::ManifestToJson(manifest) << "\n";
    }
  } else if (!manifest_path.empty()) {
    std::ifstream in(manifest_path);
    if (!in) {
      return FailWith(Status::NotFound("cannot open manifest '" +
                                       manifest_path + "'"));
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    auto loaded = corpus::ManifestFromJson(buffer.str());
    if (!loaded.ok()) return FailWith(loaded.status());
    manifest = *std::move(loaded);
  } else {
    std::fprintf(stderr,
                 "wfmsctl: corpus needs --generate N and/or --manifest "
                 "FILE\n");
    return 2;
  }

  corpus::SweepOptions options;
  options.goals = GoalsFromFlags(flags);
  const std::string mode = flags.Get("mode", "assess");
  if (mode == "assess") {
    options.mode = corpus::SweepMode::kAssess;
  } else if (mode == "recommend") {
    options.mode = corpus::SweepMode::kRecommend;
  } else {
    std::fprintf(stderr, "wfmsctl: bad --mode '%s' (assess|recommend)\n",
                 mode.c_str());
    return 2;
  }
  options.max_replicas =
      static_cast<int>(flags.GetDouble("max-replicas", 4.0));
  auto tool_options = ToolOptionsFromFlags(flags);
  if (!tool_options.ok()) return FailWith(tool_options.status());
  options.lumping = tool_options->availability.solver.lumping;
  options.phase_type_composites = flags.Has("phase-type");
  options.num_threads = static_cast<size_t>(flags.GetDouble("jobs", 0.0));
  options.include_timings = !flags.Has("no-timings");
  options.progress = [](const corpus::EnvironmentResult& r, size_t done,
                        size_t total) {
    std::fprintf(stderr, "corpus: [%zu/%zu] %s %s tasks=%zu %s\n", done,
                 total, r.id.c_str(), r.pattern.c_str(), r.tasks,
                 r.error.empty() ? (r.satisfied ? "ok" : "goals-missed")
                                 : r.error.c_str());
  };

  auto report = corpus::RunSweep(manifest, options);
  if (!report.ok()) return FailWith(report.status());
  const std::string dump =
      corpus::ReportToJson(*report, options.include_timings).Dump();
  const std::string report_path = flags.Get("report", "");
  if (report_path.empty()) {
    std::printf("%s\n", dump.c_str());
  } else {
    std::ofstream out(report_path);
    if (!out) {
      return FailWith(
          Status::NotFound("cannot write report '" + report_path + "'"));
    }
    out << dump << "\n";
  }
  std::fprintf(stderr,
               "corpus: %zu environments, %zu satisfied, %zu errors\n",
               report->results.size(), report->satisfied_count,
               report->error_count);
  return report->error_count == 0 ? 0 : 1;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  Flags flags;
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (!StartsWith(arg, "--")) {
      std::fprintf(stderr, "unexpected argument '%s'\n", arg.c_str());
      return Usage();
    }
    arg = arg.substr(2);
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {  // --flag=value form
      flags.values[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (arg == "no-failures" || arg == "bind-instances" ||
               arg == "resume" || arg == "verbose" ||
               arg == "survive-partitions" || arg == "phase-type" ||
               arg == "no-timings") {
      // clear+push_back instead of assigning a literal: GCC 12's
      // -Wrestrict misreads the literal assignment as a potential
      // self-overlap and -Werror trips (GCC PR105329).
      std::string& value = flags.values[arg];
      value.clear();
      value.push_back('1');
    } else if (i + 1 < argc) {
      flags.values[arg] = argv[++i];
    } else {
      std::fprintf(stderr, "flag --%s needs a value\n", arg.c_str());
      return Usage();
    }
  }

  const std::string metrics_format = flags.Get("metrics-format", "json");
  if (metrics_format != "json" && metrics_format != "prometheus") {
    std::fprintf(stderr, "bad --metrics-format '%s' (json|prometheus)\n",
                 metrics_format.c_str());
    return Usage();
  }
  // Tracing must be on before the command runs; spans recorded while
  // disabled are dropped at the start site, not filtered at export.
  if (flags.Has("trace-out")) trace::SetEnabled(true);

  // Client mode runs before any local scenario resolution — the daemon
  // owns the scenario (builtins by name, files inlined by RemoteCommand).
  if (flags.Has("connect")) {
    if (command == "ping" || command == "assess" || command == "recommend" ||
        command == "autotune") {
      // The epilogue runs for remote commands too: --trace-out holds the
      // client half of the distributed trace (the root span plus
      // transport time), mergeable with the daemon's own export.
      const auto remote_start = std::chrono::steady_clock::now();
      const int code = RemoteCommand(command, flags);
      return ObservabilityEpilogue(
          code, flags,
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        remote_start)
              .count());
    }
    std::fprintf(stderr,
                 "wfmsctl: --connect supports ping, assess, recommend, and "
                 "autotune\n");
    return 2;
  }
  if (command == "ping") {
    std::fprintf(stderr, "wfmsctl: ping needs --connect HOST:PORT\n");
    return 2;
  }

  InstallSignalHandlers();
  const auto run_start = std::chrono::steady_clock::now();
  if (command == "corpus") {
    // The corpus carries its own environments; no --scenario involved.
    const int corpus_code = Corpus(flags);
    const double corpus_wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      run_start)
            .count();
    return ObservabilityEpilogue(corpus_code, flags, corpus_wall);
  }
  auto env = LoadScenario(flags.Get("scenario", "ep"));
  if (!env.ok()) return FailWith(env.status());
  int code;
  if (command == "analyze") {
    code = Analyze(*env);
  } else if (command == "assess") {
    code = Assess(*env, flags);
  } else if (command == "recommend") {
    code = Recommend(*env, flags);
  } else if (command == "simulate") {
    code = Simulate(*env, flags);
  } else if (command == "calibrate") {
    code = Calibrate(*env, flags);
  } else if (command == "autotune") {
    code = Autotune(*env, flags);
  } else if (command == "export") {
    std::printf("%s", workflow::SerializeEnvironment(*env).c_str());
    code = 0;
  } else {
    return Usage();
  }
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    run_start)
          .count();
  return ObservabilityEpilogue(code, flags, wall_seconds);
}

}  // namespace
}  // namespace wfms

int main(int argc, char** argv) { return wfms::Main(argc, argv); }
