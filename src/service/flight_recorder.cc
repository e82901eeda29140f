#include "service/flight_recorder.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "common/json.h"

namespace wfms::service {

FlightRecorder::FlightRecorder(size_t capacity, size_t shards) {
  if (shards == 0) shards = 1;
  if (capacity < shards) capacity = shards;
  per_shard_capacity_ = (capacity + shards - 1) / shards;
  shards_ = std::vector<Shard>(shards);
}

void FlightRecorder::Record(RequestRecord record) {
  // The sequence number is assigned outside any shard lock, so two
  // workers never serialize on it; the shard index follows from it, which
  // spreads consecutive requests round-robin.
  const uint64_t seq = seq_.fetch_add(1, std::memory_order_relaxed);
  record.seq = seq;
  Shard& shard = shards_[seq % shards_.size()];
  std::lock_guard<std::mutex> lock(shard.mutex);
  if (shard.ring.size() < per_shard_capacity_) {
    shard.ring.push_back(std::move(record));
  } else {
    shard.ring[shard.next] = std::move(record);
    shard.next = (shard.next + 1) % per_shard_capacity_;
  }
}

std::vector<RequestRecord> FlightRecorder::Newest(size_t n) const {
  std::vector<RequestRecord> all;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    all.insert(all.end(), shard.ring.begin(), shard.ring.end());
  }
  // Newest-first total order across shards via the global sequence number.
  std::sort(all.begin(), all.end(),
            [](const RequestRecord& a, const RequestRecord& b) {
              return a.seq > b.seq;
            });
  if (n > 0 && all.size() > n) all.resize(n);
  return all;
}

std::string FlightRecorder::ToJson(size_t n) const {
  Json doc = Json::Object();
  doc.Set("schema_version", Json::Number(1));
  doc.Set("total_recorded",
          Json::Number(static_cast<double>(total_recorded())));
  Json records = Json::Array();
  for (const RequestRecord& r : Newest(n)) {
    Json entry = Json::Object();
    entry.Set("seq", Json::Number(static_cast<double>(r.seq)));
    entry.Set("trace_id", Json::Str(r.trace_id));
    entry.Set("tenant", Json::Str(r.tenant));
    entry.Set("op", Json::Str(r.op));
    entry.Set("disposition", Json::Str(r.disposition));
    entry.Set("admission_wait_seconds",
              Json::Number(r.admission_wait_seconds));
    entry.Set("elapsed_seconds", Json::Number(r.elapsed_seconds));
    Json phases = Json::Array();
    for (const auto& [name, seconds] : r.phases) {
      Json phase = Json::Object();
      phase.Set("name", Json::Str(name));
      phase.Set("seconds", Json::Number(seconds));
      phases.Append(std::move(phase));
    }
    entry.Set("phases", std::move(phases));
    entry.Set("cache_hit", Json::Bool(r.cache_hit));
    entry.Set("solver_rungs", Json::Number(r.solver_rungs));
    entry.Set("bytes_in", Json::Number(static_cast<double>(r.bytes_in)));
    entry.Set("bytes_out", Json::Number(static_cast<double>(r.bytes_out)));
    records.Append(std::move(entry));
  }
  doc.Set("records", std::move(records));
  return doc.Dump();
}

Status FlightRecorder::DumpJson(const std::string& path, size_t n) const {
  const std::string body = ToJson(n);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::Internal("cannot open flight-recorder dump '" + path +
                            "'");
  }
  const size_t written = std::fwrite(body.data(), 1, body.size(), f);
  const bool flushed = std::fclose(f) == 0;
  if (written != body.size() || !flushed) {
    return Status::Internal("short write dumping flight recorder to '" +
                            path + "'");
  }
  return Status::OK();
}

}  // namespace wfms::service
