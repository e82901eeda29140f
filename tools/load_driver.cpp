// load_driver — hammers a running wfmsd with concurrent pipelined
// requests and cross-checks the daemon's own accounting against the
// driver's ground truth (the acceptance harness of the service PR):
//
//   * every request must end in exactly one terminal disposition
//     (completed | degraded | rejected-overloaded | deadline-exceeded |
//     error) — a missing or duplicate response fails the run;
//   * the daemon's per-disposition counters, scraped from /metrics.json
//     before and after, must agree exactly with the driver's tallies;
//   * client-observed latency quantiles (p50/p90/p99/max) and the
//     daemon's wfms_service_request_seconds histogram land in a
//     machine-readable report (BENCH_daemon.json schema).
//
//   load_driver --port P [--requests 2000] [--connections 50]
//               [--pipeline 25] [--op assess] [--tenant-stripes 4]
//               [--deadline S] [--out BENCH_daemon.json]
//
// Concurrency = connections x pipeline requests in flight; the defaults
// put up to 1250 requests in flight against a worker queue of 64, so the
// run exercises admission shedding and the degradation ladder, not just
// the happy path. Exit 0 iff all invariants hold.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "common/string_util.h"
#include "common/trace.h"
#include "service/client.h"

namespace wfms {
namespace {

struct DriverOptions {
  std::string host = "127.0.0.1";
  int port = 0;
  int requests = 2000;
  int connections = 50;
  int pipeline = 25;  // requests in flight per connection
  std::string op = "assess";
  int tenant_stripes = 4;  // requests round-robin over this many tenants
  double deadline_seconds = 0.0;  // per-request; 0 = server default
  std::string out = "BENCH_daemon.json";
  std::string scenario = "ep";
};

struct Tally {
  uint64_t completed = 0;
  uint64_t degraded = 0;
  uint64_t rejected = 0;
  uint64_t deadline = 0;
  uint64_t error = 0;
  uint64_t transport_failures = 0;  // no response at all

  uint64_t answered() const {
    return completed + degraded + rejected + deadline + error;
  }
  void Merge(const Tally& other) {
    completed += other.completed;
    degraded += other.degraded;
    rejected += other.rejected;
    deadline += other.deadline;
    error += other.error;
    transport_failures += other.transport_failures;
  }
};

/// Minimal HTTP/1.0 GET on a throwaway socket; returns the body.
Result<std::string> HttpScrape(const std::string& host, int port,
                               const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::Unavailable("socket failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 ||
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return Status::Unavailable("cannot connect to " + host + ":" +
                               std::to_string(port));
  }
  const std::string request =
      "GET " + path + " HTTP/1.0\r\nHost: " + host + "\r\n\r\n";
  size_t off = 0;
  while (off < request.size()) {
    const ssize_t n = ::write(fd, request.data() + off, request.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return Status::Unavailable("scrape write failed");
    }
    off += static_cast<size_t>(n);
  }
  std::string response;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return Status::Unavailable("scrape read failed");
    }
    if (n == 0) break;
    response.append(chunk, static_cast<size_t>(n));
  }
  ::close(fd);
  const size_t body_at = response.find("\r\n\r\n");
  if (body_at == std::string::npos) {
    return Status::ParseError("scrape response has no header/body split");
  }
  if (response.compare(0, 12, "HTTP/1.1 200") != 0) {
    return Status::Unavailable("scrape answered: " +
                               response.substr(0, response.find('\r')));
  }
  return response.substr(body_at + 4);
}

/// Counter value from a parsed /metrics.json document (0 when absent).
uint64_t CounterOf(const Json& doc, const std::string& name) {
  const Json* counters = doc.Find("counters");
  if (counters == nullptr) return 0;
  const Json* value = counters->Find(name);
  return value == nullptr ? 0 : static_cast<uint64_t>(value->number());
}

std::string BuildRequestLine(const DriverOptions& options, int index,
                             std::string* trace_id_out) {
  // Cycle a small set of replication vectors so the shared cache gets
  // both hits and misses (the ep scenario has three server types).
  static const std::vector<std::vector<int>> kConfigs = {
      {1, 1, 1}, {2, 2, 3}, {1, 2, 2}, {2, 2, 2}, {3, 3, 3}, {1, 1, 2},
  };
  const std::vector<int>& config = kConfigs[static_cast<size_t>(index) %
                                            kConfigs.size()];
  Json req = Json::Object();
  // Two-step id build: GCC 12's -Wrestrict misreads the fused
  // literal+number concatenation as a potential self-overlap and -Werror
  // trips on the false positive (GCC PR105329).
  std::string id(1, 'r');
  id += std::to_string(index);
  req.Set("id", Json::Str(std::move(id)));
  req.Set("op", Json::Str(options.op));
  req.Set("scenario", Json::Str(options.scenario));
  if (options.tenant_stripes > 0) {
    req.Set("tenant", Json::Str("tenant" + std::to_string(
                                    index % options.tenant_stripes)));
  }
  Json cfg = Json::Array();
  for (int r : config) cfg.Append(Json::Number(r));
  req.Set("config", cfg);
  req.Set("max_wait", Json::Number(0.05));
  req.Set("min_avail", Json::Number(0.99));
  if (options.deadline_seconds > 0.0) {
    req.Set("deadline_seconds", Json::Number(options.deadline_seconds));
  }
  // Every request carries its own minted trace id, so a slow outlier in
  // the driver's table can be looked up verbatim in the daemon's
  // /debug/requests flight recorder.
  const trace::TraceContext ctx = trace::TraceContext::Mint();
  Json trace_field = Json::Object();
  trace_field.Set("trace_id", Json::Str(ctx.trace_id_hex()));
  req.Set("trace", trace_field);
  if (trace_id_out != nullptr) *trace_id_out = ctx.trace_id_hex();
  return req.Dump();
}

/// One answered request, kept so the slowest can be named by trace id.
struct Sample {
  double seconds = 0.0;
  std::string trace_id;
  std::string id;
};

struct WorkerResult {
  Tally tally;
  std::vector<Sample> samples;
  std::vector<std::string> failures;  // invariant violations, verbatim
};

/// One connection worker: keeps up to `pipeline` requests in flight,
/// matching (possibly reordered) responses to requests by id.
void RunWorker(const DriverOptions& options, int worker_index,
               int first_request, int request_count, WorkerResult* out) {
  service::ClientOptions copts;
  copts.host = options.host;
  copts.port = options.port;
  copts.io_timeout_seconds = 300.0;  // the hang detector of last resort
  copts.jitter_seed = 1000 + static_cast<uint64_t>(worker_index);
  service::Client client(copts);
  Status connected = client.Connect();
  if (!connected.ok()) {
    out->failures.push_back("worker " + std::to_string(worker_index) +
                            " cannot connect: " + connected.ToString());
    out->tally.transport_failures += static_cast<uint64_t>(request_count);
    return;
  }

  struct InFlight {
    std::chrono::steady_clock::time_point sent_at;
    std::string trace_id;
  };
  std::map<std::string, InFlight> in_flight;
  int sent = 0;
  int answered = 0;
  while (answered < request_count) {
    // Fill the window.
    while (sent < request_count &&
           in_flight.size() < static_cast<size_t>(options.pipeline)) {
      const int index = first_request + sent;
      std::string trace_id;
      Status pushed =
          client.Send(BuildRequestLine(options, index, &trace_id));
      if (!pushed.ok()) {
        out->failures.push_back("send failed: " + pushed.ToString());
        out->tally.transport_failures += static_cast<uint64_t>(
            request_count - answered);
        return;
      }
      // Same two-step build as BuildRequestLine (GCC PR105329).
      std::string key(1, 'r');
      key += std::to_string(index);
      in_flight.emplace(std::move(key),
                        InFlight{std::chrono::steady_clock::now(),
                                 std::move(trace_id)});
      ++sent;
    }

    Result<std::string> line = client.ReadResponse();
    if (!line.ok()) {
      out->failures.push_back("read failed with " +
                              std::to_string(in_flight.size()) +
                              " in flight: " + line.status().ToString());
      out->tally.transport_failures +=
          static_cast<uint64_t>(request_count - answered);
      return;
    }
    ++answered;
    Result<Json> parsed = Json::Parse(*line);
    if (!parsed.ok()) {
      out->failures.push_back("unparseable response: " + *line);
      out->tally.error += 1;
      continue;
    }
    const std::string id = parsed->GetString("id", "");
    auto started = in_flight.find(id);
    if (started == in_flight.end()) {
      out->failures.push_back("response for unknown/duplicate id '" + id +
                              "'");
    } else {
      Sample sample;
      sample.seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        started->second.sent_at)
              .count();
      sample.trace_id = std::move(started->second.trace_id);
      sample.id = id;
      out->samples.push_back(std::move(sample));
      in_flight.erase(started);
    }
    const std::string status = parsed->GetString("status", "");
    if (status == "completed") {
      out->tally.completed += 1;
    } else if (status == "degraded") {
      out->tally.degraded += 1;
    } else if (status == "rejected-overloaded") {
      out->tally.rejected += 1;
    } else if (status == "deadline-exceeded") {
      out->tally.deadline += 1;
    } else if (status == "error") {
      out->tally.error += 1;
    } else {
      out->failures.push_back("unknown disposition '" + status + "' for '" +
                              id + "'");
    }
  }
  if (!in_flight.empty()) {
    out->failures.push_back(std::to_string(in_flight.size()) +
                            " request(s) never answered");
  }
}

double Quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const size_t index = static_cast<size_t>(
      q * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(index, sorted.size() - 1)];
}

int Usage() {
  std::fprintf(stderr,
               "usage: load_driver --port P [--host H] [--requests N] "
               "[--connections C]\n"
               "  [--pipeline K] [--op assess|recommend|autotune] "
               "[--tenant-stripes T]\n"
               "  [--deadline S] [--scenario ep|benchmark] [--out FILE]\n");
  return 2;
}

int Main(int argc, char** argv) {
  DriverOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (value == nullptr) return Usage();
    ++i;
    if (arg == "--host") {
      options.host = value;
    } else if (arg == "--port") {
      if (!ParseInt(value, &options.port)) return Usage();
    } else if (arg == "--requests") {
      if (!ParseInt(value, &options.requests)) return Usage();
    } else if (arg == "--connections") {
      if (!ParseInt(value, &options.connections)) return Usage();
    } else if (arg == "--pipeline") {
      if (!ParseInt(value, &options.pipeline)) return Usage();
    } else if (arg == "--op") {
      options.op = value;
    } else if (arg == "--tenant-stripes") {
      if (!ParseInt(value, &options.tenant_stripes)) return Usage();
    } else if (arg == "--deadline") {
      if (!ParseDouble(value, &options.deadline_seconds)) return Usage();
    } else if (arg == "--scenario") {
      options.scenario = value;
    } else if (arg == "--out") {
      options.out = value;
    } else {
      return Usage();
    }
  }
  if (options.port <= 0 || options.requests < 1 ||
      options.connections < 1 || options.pipeline < 1) {
    return Usage();
  }
  options.connections = std::min(options.connections, options.requests);

  // Before-scrape: the counter baseline the run is diffed against.
  auto before = HttpScrape(options.host, options.port, "/metrics.json");
  if (!before.ok()) {
    std::fprintf(stderr, "load_driver: before-scrape failed: %s\n",
                 before.status().ToString().c_str());
    return 1;
  }
  auto before_doc = Json::Parse(*before);
  if (!before_doc.ok()) {
    std::fprintf(stderr, "load_driver: before-scrape unparseable: %s\n",
                 before_doc.status().ToString().c_str());
    return 1;
  }

  const auto run_start = std::chrono::steady_clock::now();
  std::vector<WorkerResult> results(
      static_cast<size_t>(options.connections));
  std::vector<std::thread> workers;
  const int per_worker = options.requests / options.connections;
  const int remainder = options.requests % options.connections;
  int first = 0;
  for (int w = 0; w < options.connections; ++w) {
    const int count = per_worker + (w < remainder ? 1 : 0);
    workers.emplace_back(RunWorker, options, w, first, count, &results[w]);
    first += count;
  }
  for (std::thread& worker : workers) worker.join();
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    run_start)
          .count();

  Tally tally;
  std::vector<Sample> samples;
  std::vector<std::string> failures;
  for (WorkerResult& result : results) {
    tally.Merge(result.tally);
    for (Sample& s : result.samples) samples.push_back(std::move(s));
    for (const std::string& f : result.failures) failures.push_back(f);
  }
  std::vector<double> latencies;
  latencies.reserve(samples.size());
  for (const Sample& s : samples) latencies.push_back(s.seconds);
  std::sort(latencies.begin(), latencies.end());
  // Slowest first, for the forensics table and the report.
  std::sort(samples.begin(), samples.end(),
            [](const Sample& a, const Sample& b) {
              return a.seconds > b.seconds;
            });
  const size_t slowest_count = std::min<size_t>(10, samples.size());

  // Invariant 1: every request ended in exactly one disposition.
  const uint64_t total = static_cast<uint64_t>(options.requests);
  if (tally.answered() + tally.transport_failures != total) {
    failures.push_back(
        "accounting hole: " + std::to_string(tally.answered()) +
        " answered + " + std::to_string(tally.transport_failures) +
        " transport failures != " + std::to_string(total) + " sent");
  }
  if (tally.transport_failures > 0) {
    failures.push_back(std::to_string(tally.transport_failures) +
                       " request(s) got no response at all");
  }

  // Invariant 2: the daemon's counters moved by exactly our tallies.
  auto after = HttpScrape(options.host, options.port, "/metrics.json");
  if (!after.ok()) {
    std::fprintf(stderr,
                 "load_driver: after-scrape failed (daemon hung or "
                 "crashed?): %s\n",
                 after.status().ToString().c_str());
    return 1;
  }
  auto after_doc = Json::Parse(*after);
  if (!after_doc.ok()) {
    std::fprintf(stderr, "load_driver: after-scrape unparseable\n");
    return 1;
  }
  struct CounterCheck {
    const char* name;
    uint64_t expected;
  };
  const CounterCheck checks[] = {
      {"wfms_service_responses_completed_total", tally.completed},
      {"wfms_service_responses_degraded_total", tally.degraded},
      {"wfms_service_responses_rejected_total", tally.rejected},
      {"wfms_service_responses_deadline_total", tally.deadline},
      {"wfms_service_responses_error_total", tally.error},
  };
  Json server_counters = Json::Object();
  for (const CounterCheck& check : checks) {
    const uint64_t delta = CounterOf(*after_doc, check.name) -
                           CounterOf(*before_doc, check.name);
    server_counters.Set(check.name,
                        Json::Number(static_cast<double>(delta)));
    if (delta != check.expected) {
      failures.push_back(std::string("counter ") + check.name +
                         " moved by " + std::to_string(delta) +
                         ", driver counted " +
                         std::to_string(check.expected));
    }
  }

  // Report (BENCH_daemon.json).
  Json report = Json::Object();
  report.Set("benchmark", Json::Str("wfmsd_load"));
  report.Set("schema_version", Json::Number(1));
  report.Set("requests", Json::Number(options.requests));
  report.Set("connections", Json::Number(options.connections));
  report.Set("pipeline", Json::Number(options.pipeline));
  report.Set("concurrency",
             Json::Number(options.connections * options.pipeline));
  report.Set("op", Json::Str(options.op));
  report.Set("wall_seconds", Json::Number(wall_seconds));
  report.Set("throughput_rps",
             Json::Number(wall_seconds > 0.0
                              ? static_cast<double>(total) / wall_seconds
                              : 0.0));
  Json dispositions = Json::Object();
  dispositions.Set("completed",
                   Json::Number(static_cast<double>(tally.completed)));
  dispositions.Set("degraded",
                   Json::Number(static_cast<double>(tally.degraded)));
  dispositions.Set("rejected_overloaded",
                   Json::Number(static_cast<double>(tally.rejected)));
  dispositions.Set("deadline_exceeded",
                   Json::Number(static_cast<double>(tally.deadline)));
  dispositions.Set("error", Json::Number(static_cast<double>(tally.error)));
  dispositions.Set("transport_failures",
                   Json::Number(static_cast<double>(
                       tally.transport_failures)));
  report.Set("dispositions", dispositions);
  Json latency = Json::Object();
  latency.Set("count",
              Json::Number(static_cast<double>(latencies.size())));
  latency.Set("p50_seconds", Json::Number(Quantile(latencies, 0.50)));
  latency.Set("p90_seconds", Json::Number(Quantile(latencies, 0.90)));
  latency.Set("p99_seconds", Json::Number(Quantile(latencies, 0.99)));
  latency.Set("max_seconds",
              Json::Number(latencies.empty() ? 0.0 : latencies.back()));
  report.Set("client_latency", latency);
  // The slowest requests by name: feed a trace_id to
  // `curl SERVER/debug/requests` to see the server-side phase breakdown.
  Json slowest = Json::Array();
  for (size_t i = 0; i < slowest_count; ++i) {
    Json entry = Json::Object();
    entry.Set("trace_id", Json::Str(samples[i].trace_id));
    entry.Set("id", Json::Str(samples[i].id));
    entry.Set("op", Json::Str(options.op));
    entry.Set("latency_seconds", Json::Number(samples[i].seconds));
    slowest.Append(std::move(entry));
  }
  report.Set("slowest", slowest);
  report.Set("server_counter_deltas", server_counters);
  // The daemon's own latency view of the same port, for offline
  // cross-checks.
  if (const Json* histograms = after_doc->Find("histograms")) {
    if (const Json* h = histograms->Find("wfms_service_request_seconds")) {
      Json server_latency = Json::Object();
      server_latency.Set("p50_seconds",
                         Json::Number(h->GetNumber("p50", 0.0)));
      server_latency.Set("p99_seconds",
                         Json::Number(h->GetNumber("p99", 0.0)));
      server_latency.Set("count", Json::Number(h->GetNumber("count", 0.0)));
      report.Set("server_latency", server_latency);
    }
  }
  report.Set("invariants_ok", Json::Bool(failures.empty()));

  if (!options.out.empty()) {
    std::ofstream out(options.out, std::ios::binary);
    if (out) {
      out << report.Dump() << "\n";
    } else {
      std::fprintf(stderr, "load_driver: cannot write %s\n",
                   options.out.c_str());
      return 1;
    }
  }

  std::printf(
      "load_driver: %d requests over %d connection(s) x %d pipelined in "
      "%.2fs (%.0f req/s)\n",
      options.requests, options.connections, options.pipeline, wall_seconds,
      wall_seconds > 0.0 ? static_cast<double>(total) / wall_seconds : 0.0);
  std::printf(
      "  completed %llu, degraded %llu, rejected %llu, deadline %llu, "
      "error %llu\n",
      static_cast<unsigned long long>(tally.completed),
      static_cast<unsigned long long>(tally.degraded),
      static_cast<unsigned long long>(tally.rejected),
      static_cast<unsigned long long>(tally.deadline),
      static_cast<unsigned long long>(tally.error));
  std::printf(
      "  latency p50 %.1f ms, p90 %.1f ms, p99 %.1f ms, max %.1f ms\n",
      Quantile(latencies, 0.5) * 1e3, Quantile(latencies, 0.9) * 1e3,
      Quantile(latencies, 0.99) * 1e3,
      (latencies.empty() ? 0.0 : latencies.back()) * 1e3);
  if (slowest_count > 0) {
    std::printf("  slowest %zu request(s):\n", slowest_count);
    std::printf("    %-32s %-10s %-10s %s\n", "trace_id", "id", "op",
                "latency_ms");
    for (size_t i = 0; i < slowest_count; ++i) {
      std::printf("    %-32s %-10s %-10s %.1f\n",
                  samples[i].trace_id.c_str(), samples[i].id.c_str(),
                  options.op.c_str(), samples[i].seconds * 1e3);
    }
  }
  for (const std::string& failure : failures) {
    std::fprintf(stderr, "load_driver: INVARIANT VIOLATION: %s\n",
                 failure.c_str());
  }
  return failures.empty() ? 0 : 1;
}

}  // namespace
}  // namespace wfms

int main(int argc, char** argv) { return wfms::Main(argc, argv); }
