// Wire protocol of the wfmsd assessment service: newline-delimited JSON
// over a plain TCP stream (one request object per line, one response
// object per line; responses carry the request's `id` so a pipelining
// client can match them). The same listening socket also answers
// `GET /metrics` and `GET /metrics.json` HTTP requests with the live
// metrics registry, so one port serves both the protocol and scraping.
//
// Request:
//   {"id": "r1", "op": "assess", "scenario": "ep", "tenant": "teamA",
//    "config": [2,2,3], "max_wait": 0.05, "min_avail": 0.99999,
//    "method": "greedy", "max_replicas": 8, "deadline_seconds": 5.0,
//    "trace": {"trace_id": "<32 hex>", "parent_span_id": "<16 hex>"}}
//
// `trace` (optional) is the client's distributed-tracing context
// (DESIGN.md §13): a 128-bit trace id plus the span id of the client-side
// span issuing the request. The server adopts it — or mints a fresh trace
// id when the field is absent or malformed — and echoes the trace id
// top-level in the response, so a client can find the request in the
// server's /debug/requests flight recorder and its server-side spans in a
// merged trace export.
//
// Response:
//   {"id": "r1", "status": "completed", "degraded": false,
//    "result": {...}, "elapsed_seconds": 0.012,
//    "trace_id": "<32 hex>"}
//
// `status` is the request's terminal disposition — exactly one of:
//   completed          full-fidelity answer
//   degraded           answered under degradation (downgraded strategy,
//                      tightened budget, or cache-only); `degrade_reason`
//                      says which rung
//   rejected-overloaded  shed by admission control (queue full or tenant
//                      over quota); carries no result
//   deadline-exceeded  the per-request deadline expired (in queue or
//                      mid-solve); best-so-far is NOT returned — the
//                      answer would be nondeterministic
//   error              malformed or invalid request
//
// Everything inside `result` is deterministic for a given (scenario,
// request): derived only from solver output, never from wall-clock or
// cache state. Nondeterministic observability (elapsed time) stays at the
// top level, so chaos tests can compare `result` byte-for-byte across
// cold and warm-restarted daemons.
#ifndef WFMS_SERVICE_PROTOCOL_H_
#define WFMS_SERVICE_PROTOCOL_H_

#include <string>
#include <vector>

#include "common/json.h"
#include "common/result.h"

namespace wfms::service {

enum class Op {
  kPing,       // liveness probe; answered inline, never queued
  kAssess,
  kRecommend,
  kAutotune,
};

const char* OpName(Op op);

struct Request {
  std::string id;
  Op op = Op::kPing;
  std::string tenant;      // quota key; empty = the shared default tenant
  std::string scenario;    // "ep" | "benchmark" | inline scenario text
  std::vector<int> config;  // replication vector (assess, autotune initial)
  // Per-site placement (type-major, num_types * num_sites entries). When
  // non-empty it overrides `config` for assess: the configuration is built
  // with Configuration::FromSiteCounts, so latency inflation and the
  // site-level CTMC dimensions apply. Requires a scenario with a sites
  // section.
  std::vector<int> site_config;
  double max_wait = 0.05;
  double min_avail = 0.99999;
  // Survivability goals (multi-site scenarios only; see configtool::Goals).
  int survive_sites = 0;          // 0 or 1: tolerate any single site loss
  bool survive_partitions = false;  // tolerate any two-way partition
  double degraded_max_wait = 0.0;   // <= 0: inherit max_wait
  double degraded_min_avail = -1.0;  // < 0: inherit min_avail
  std::string method = "greedy";  // recommend/autotune search strategy
  int max_replicas = 8;
  double deadline_seconds = 0.0;  // <= 0: server default
  // Autotune horizon (model minutes).
  double duration = 4000.0;
  double epoch = 1000.0;
  double max_turnaround = 0.0;
  // Client-supplied trace context ("trace" object); empty trace_id when
  // the request carried none. Validated/minted by the server, never
  // trusted as-is (see trace::TraceContext::WithRemoteParent).
  std::string trace_id;          // 32 hex chars (as sent; unvalidated)
  std::string parent_span_id;    // 16 hex chars (as sent; unvalidated)
};

/// Parses one request line. A missing/unknown `op` or a non-object
/// document is an error; unknown members are ignored (forward
/// compatibility).
Result<Request> ParseRequest(std::string_view line);

/// Terminal disposition of a request (see file comment).
enum class Disposition {
  kCompleted,
  kDegraded,
  kRejectedOverloaded,
  kDeadlineExceeded,
  kError,
};

const char* DispositionName(Disposition d);

struct Response {
  std::string id;
  Disposition disposition = Disposition::kCompleted;
  std::string degrade_reason;  // non-empty iff kDegraded
  std::string error;           // non-empty for rejected/deadline/error
  Json result = Json::Null();  // deterministic payload (or null)
  double elapsed_seconds = 0.0;
  /// Server-side trace id for the request (32 hex chars; adopted from the
  /// request or minted). Top-level like elapsed_seconds — never inside
  /// `result`, which must stay deterministic.
  std::string trace_id;

  /// One response line (no trailing newline).
  std::string Render() const;
};

}  // namespace wfms::service

#endif  // WFMS_SERVICE_PROTOCOL_H_
