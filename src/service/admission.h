// Admission control and graceful degradation for wfmsd (see DESIGN.md
// "Service architecture").
//
// Two mechanisms compose:
//  - Per-tenant token buckets: each tenant refills at `tenant_rate`
//    requests/second up to a burst of `tenant_burst`; a tenant that is
//    out of tokens is shed with `rejected-overloaded` no matter how idle
//    the server is, so one aggressive client cannot starve the rest.
//  - A queue-load degradation ladder, evaluated against the worker pool's
//    queue depth at admission time:
//        level 0  (< level1_fraction of the bound)   full fidelity
//        level 1  (>= level1_fraction)  downgrade: exhaustive and bnb
//                 searches fall back to greedy, budgets tighten,
//                 autotune is shed
//        level 2  (>= level2_fraction)  cache-only: assess answers only
//                 from the memoization cache (a miss is shed), recommend
//                 is shed
//        shed     (queue full)          rejected-overloaded
//    Degradation is about *bounded* response times under overload: every
//    admitted request still terminates in one of the protocol's four
//    dispositions, and the daemon never queues without bound.
#ifndef WFMS_SERVICE_ADMISSION_H_
#define WFMS_SERVICE_ADMISSION_H_

#include <chrono>
#include <map>
#include <mutex>
#include <string>

namespace wfms::service {

/// Classic token bucket on the monotonic clock. Thread-compatible; the
/// admission controller serializes access.
class TokenBucket {
 public:
  /// `rate` tokens/second, capacity `burst`; starts full.
  TokenBucket(double rate, double burst,
              std::chrono::steady_clock::time_point now)
      : rate_(rate), burst_(burst), tokens_(burst), last_(now) {}

  bool TryAcquire(std::chrono::steady_clock::time_point now) {
    const double elapsed =
        std::chrono::duration<double>(now - last_).count();
    last_ = now;
    tokens_ = tokens_ + elapsed * rate_;
    if (tokens_ > burst_) tokens_ = burst_;
    if (tokens_ < 1.0) return false;
    tokens_ -= 1.0;
    return true;
  }

  double tokens() const { return tokens_; }

 private:
  double rate_;
  double burst_;
  double tokens_;
  std::chrono::steady_clock::time_point last_;
};

struct AdmissionOptions {
  /// Worker-pool queue bound the ladder fractions are relative to; must
  /// match the ThreadPool's max_queue. 0 disables the ladder (always
  /// level 0) — only for tests.
  size_t max_queue = 64;
  /// Tenant quota; rate <= 0 disables per-tenant throttling.
  double tenant_rate = 0.0;
  double tenant_burst = 0.0;
  /// Ladder thresholds as fractions of max_queue.
  double level1_fraction = 0.5;
  double level2_fraction = 0.75;
};

struct AdmissionDecision {
  bool admitted = true;
  /// 0 = full fidelity, 1 = downgrade, 2 = cache-only.
  int degrade_level = 0;
  /// Human-readable cause when shed or degraded.
  std::string reason;
};

/// Thread-safe. Exports wfms_service_degrade_level (gauge, the last
/// decision's level), wfms_service_shed_total and
/// wfms_service_tenant_throttled_total (counters).
class AdmissionController {
 public:
  explicit AdmissionController(const AdmissionOptions& options);

  /// Decides one request's fate given the worker queue depth right now.
  AdmissionDecision Admit(const std::string& tenant, size_t queue_depth,
                          std::chrono::steady_clock::time_point now);

 private:
  AdmissionOptions options_;
  std::mutex mutex_;
  std::map<std::string, TokenBucket> buckets_;
};

}  // namespace wfms::service

#endif  // WFMS_SERVICE_ADMISSION_H_
