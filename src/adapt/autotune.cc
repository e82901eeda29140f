#include "adapt/autotune.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <thread>
#include <utility>

#include "adapt/audit_stream.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/random.h"
#include "common/trace.h"

namespace wfms::adapt {

namespace {

/// Re-timestamps epoch-local audit records (the per-epoch simulator's
/// clock restarts at zero) into run-global model time before forwarding.
class OffsetSink : public workflow::AuditSink {
 public:
  OffsetSink(workflow::AuditSink* inner, double offset)
      : inner_(inner), offset_(offset) {}

  void OnStateVisit(const workflow::StateVisitRecord& record) override {
    workflow::StateVisitRecord shifted = record;
    shifted.enter_time += offset_;
    shifted.leave_time += offset_;
    inner_->OnStateVisit(shifted);
  }
  void OnService(const workflow::ServiceRecord& record) override {
    workflow::ServiceRecord shifted = record;
    shifted.time += offset_;
    inner_->OnService(shifted);
  }
  void OnArrival(const workflow::ArrivalRecord& record) override {
    workflow::ArrivalRecord shifted = record;
    shifted.arrival_time += offset_;
    inner_->OnArrival(shifted);
  }
  void OnCompletion(const workflow::CompletionRecord& record) override {
    workflow::CompletionRecord shifted = record;
    shifted.start_time += offset_;
    shifted.end_time += offset_;
    inner_->OnCompletion(shifted);
  }
  void OnServerCount(const workflow::ServerCountRecord& record) override {
    workflow::ServerCountRecord shifted = record;
    shifted.time += offset_;
    inner_->OnServerCount(shifted);
  }

 private:
  workflow::AuditSink* inner_;
  double offset_;
};

metrics::Counter& EpochsCounter() {
  static metrics::Counter& counter = metrics::MetricsRegistry::Global()
      .GetCounter("wfms_adapt_epochs_total");
  return counter;
}

}  // namespace

std::string AutotuneReport::ToString() const {
  std::ostringstream os;
  os << "autotune: " << epochs.size() << " epochs, " << reconfigurations
     << " reconfigurations, final config " << final_config.ToString() << "\n";
  for (const EpochReport& epoch : epochs) {
    os << "  epoch " << epoch.index << " [" << epoch.start << ", "
       << epoch.end << ") config " << epoch.config.ToString() << " rates (";
    for (size_t i = 0; i < epoch.scheduled_rates.size(); ++i) {
      os << (i ? "," : "") << epoch.scheduled_rates[i];
    }
    os << ") turnaround " << epoch.observed_turnaround << " -> "
       << epoch.decision.reason << "\n";
  }
  return os.str();
}

Result<AutotuneReport> RunAutotune(const workflow::Environment& env,
                                   const AutotuneOptions& options) {
  trace::TraceSpan span("adapt/autotune", "adapt", options.trace);
  if (options.duration <= 0.0 || options.epoch <= 0.0) {
    return Status::InvalidArgument(
        "autotune requires positive duration and epoch length");
  }
  if (options.epoch > options.duration) {
    return Status::InvalidArgument(
        "autotune epoch length exceeds the total duration");
  }
  if (options.controller.method == configtool::SearchMethod::kGreedySite) {
    return Status::InvalidArgument(
        "autotune cannot use the greedy-site search: the control loop "
        "resizes replication vectors and never places sites");
  }
  WFMS_RETURN_NOT_OK(env.Validate());
  WFMS_RETURN_NOT_OK(options.initial.Validate(env.num_server_types()));
  WFMS_RETURN_NOT_OK(options.load.Validate(env.workflows.size()));

  std::vector<double> base_rates;
  base_rates.reserve(env.workflows.size());
  for (const auto& wf : env.workflows) base_rates.push_back(wf.arrival_rate);

  ControllerOptions controller_options = options.controller;
  controller_options.trace = span.context();
  ReconfigurationController controller(&env, options.initial,
                                       controller_options,
                                       options.calibrator);
  AutotuneReport report;
  Rng seed_rng(options.seed);

  const int num_epochs = static_cast<int>(
      std::ceil(options.duration / options.epoch - 1e-9));
  for (int e = 0; e < num_epochs; ++e) {
    const double t0 = static_cast<double>(e) * options.epoch;
    const double t1 = std::min(options.duration, t0 + options.epoch);
    const uint64_t epoch_seed = seed_rng.Next();
    EpochsCounter().Increment();

    EpochReport epoch;
    epoch.index = e;
    epoch.start = t0;
    epoch.end = t1;
    epoch.config = controller.current_config();

    // The world this epoch: base rates advanced through the schedule to
    // t0, plus the in-epoch slice replayed on the epoch-local clock.
    WFMS_ASSIGN_OR_RETURN(epoch.scheduled_rates,
                          options.load.RatesAt(t0, base_rates));
    workflow::Environment epoch_env = env;
    for (size_t i = 0; i < epoch_env.workflows.size(); ++i) {
      epoch_env.workflows[i].arrival_rate = epoch.scheduled_rates[i];
    }

    sim::SimulationOptions sim_options;
    sim_options.config = controller.current_config();
    sim_options.dispatch = options.dispatch;
    sim_options.duration = t1 - t0;
    sim_options.warmup = 0.0;
    sim_options.seed = epoch_seed;
    sim_options.enable_failures = options.enable_failures;
    sim_options.exponential_residence = options.exponential_residence;
    sim_options.load = options.load.Slice(t0, t1);
    sim_options.trace = span.context();

    AuditStream stream(options.stream_capacity, AuditStream::Overflow::kBlock);
    OffsetSink offset_sink(&stream, t0);
    sim_options.sink = &offset_sink;

    WFMS_ASSIGN_OR_RETURN(sim::Simulator simulator,
                          sim::Simulator::Create(epoch_env, sim_options));

    // Producer: the simulation, publishing (with backpressure) into the
    // stream. Consumer: this thread, feeding the controller in FIFO order.
    Result<sim::SimulationResult> sim_result =
        Status::Internal("simulation thread did not run");
    std::thread producer([&simulator, &sim_result, &stream] {
      sim_result = simulator.Run();
      stream.Close();
    });
    std::vector<AuditEvent> batch;
    while (true) {
      batch.clear();
      if (stream.WaitDrain(&batch) == 0) break;
      for (const AuditEvent& event : batch) controller.Observe(event);
    }
    producer.join();
    WFMS_RETURN_NOT_OK(sim_result.status());

    epoch.events = stream.published();
    report.events_total += stream.published();
    report.dropped_total += stream.dropped();

    double turnaround_sum = 0.0;
    int64_t turnaround_count = 0;
    for (const auto& [name, wf_result] : sim_result->workflows) {
      turnaround_sum +=
          wf_result.turnaround.sum();
      turnaround_count += wf_result.turnaround.count();
    }
    epoch.observed_turnaround =
        turnaround_count > 0
            ? turnaround_sum / static_cast<double>(turnaround_count)
            : 0.0;

    WFMS_ASSIGN_OR_RETURN(epoch.decision, controller.Evaluate(t1));
    if (epoch.decision.reconfigured) ++report.reconfigurations;
    report.epochs.push_back(std::move(epoch));
  }

  report.final_config = controller.current_config();
  return report;
}

}  // namespace wfms::adapt
