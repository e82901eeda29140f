#include "service/protocol.h"

#include <cmath>

namespace wfms::service {

const char* OpName(Op op) {
  switch (op) {
    case Op::kPing: return "ping";
    case Op::kAssess: return "assess";
    case Op::kRecommend: return "recommend";
    case Op::kAutotune: return "autotune";
  }
  return "unknown";
}

const char* DispositionName(Disposition d) {
  switch (d) {
    case Disposition::kCompleted: return "completed";
    case Disposition::kDegraded: return "degraded";
    case Disposition::kRejectedOverloaded: return "rejected-overloaded";
    case Disposition::kDeadlineExceeded: return "deadline-exceeded";
    case Disposition::kError: return "error";
  }
  return "unknown";
}

Result<Request> ParseRequest(std::string_view line) {
  WFMS_ASSIGN_OR_RETURN(Json doc, Json::Parse(line));
  if (!doc.is_object()) {
    return Status::InvalidArgument("request must be a JSON object");
  }
  Request req;
  req.id = doc.GetString("id", "");
  const std::string op = doc.GetString("op", "");
  if (op == "ping") {
    req.op = Op::kPing;
  } else if (op == "assess") {
    req.op = Op::kAssess;
  } else if (op == "recommend") {
    req.op = Op::kRecommend;
  } else if (op == "autotune") {
    req.op = Op::kAutotune;
  } else {
    return Status::InvalidArgument(
        "bad op '" + op + "' (ping|assess|recommend|autotune)");
  }
  req.tenant = doc.GetString("tenant", "");
  req.scenario = doc.GetString("scenario", "ep");
  if (const Json* config = doc.Find("config")) {
    if (!config->is_array()) {
      return Status::InvalidArgument("'config' must be an array of integers");
    }
    for (const Json& item : config->items()) {
      if (!item.is_number() ||
          item.number() != std::floor(item.number())) {
        return Status::InvalidArgument(
            "'config' must be an array of integers");
      }
      req.config.push_back(static_cast<int>(item.number()));
    }
  }
  if (const Json* site_config = doc.Find("site_config")) {
    if (!site_config->is_array()) {
      return Status::InvalidArgument(
          "'site_config' must be an array of integers");
    }
    for (const Json& item : site_config->items()) {
      if (!item.is_number() ||
          item.number() != std::floor(item.number())) {
        return Status::InvalidArgument(
            "'site_config' must be an array of integers");
      }
      req.site_config.push_back(static_cast<int>(item.number()));
    }
  }
  req.max_wait = doc.GetNumber("max_wait", req.max_wait);
  req.min_avail = doc.GetNumber("min_avail", req.min_avail);
  req.survive_sites =
      static_cast<int>(doc.GetNumber("survive_sites", req.survive_sites));
  req.survive_partitions =
      doc.GetBool("survive_partitions", req.survive_partitions);
  req.degraded_max_wait =
      doc.GetNumber("degraded_max_wait", req.degraded_max_wait);
  req.degraded_min_avail =
      doc.GetNumber("degraded_min_avail", req.degraded_min_avail);
  req.method = doc.GetString("method", req.method);
  req.max_replicas =
      static_cast<int>(doc.GetNumber("max_replicas", req.max_replicas));
  req.deadline_seconds =
      doc.GetNumber("deadline_seconds", req.deadline_seconds);
  req.duration = doc.GetNumber("duration", req.duration);
  req.epoch = doc.GetNumber("epoch", req.epoch);
  req.max_turnaround = doc.GetNumber("max_turnaround", req.max_turnaround);
  if (const Json* tr = doc.Find("trace")) {
    // Tolerant: a malformed trace object degrades to "no context" (the
    // server mints one) rather than failing an otherwise valid request.
    if (tr->is_object()) {
      req.trace_id = tr->GetString("trace_id", "");
      req.parent_span_id = tr->GetString("parent_span_id", "");
    }
  }
  return req;
}

std::string Response::Render() const {
  Json doc = Json::Object();
  doc.Set("id", Json::Str(id));
  doc.Set("status", Json::Str(DispositionName(disposition)));
  doc.Set("degraded", Json::Bool(disposition == Disposition::kDegraded));
  if (!degrade_reason.empty()) {
    doc.Set("degrade_reason", Json::Str(degrade_reason));
  }
  if (!error.empty()) doc.Set("error", Json::Str(error));
  doc.Set("result", result);
  doc.Set("elapsed_seconds", Json::Number(elapsed_seconds));
  if (!trace_id.empty()) doc.Set("trace_id", Json::Str(trace_id));
  return doc.Dump();
}

}  // namespace wfms::service
