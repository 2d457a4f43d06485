// In-memory span recorder for the benchmark's traced mode.
//
// Spans are recorded from the benchmark's own code around calls into each
// library layer (the library itself is not instrumented). Each span has a
// name, start and end (seconds on a steady clock since the tracer was
// created), the id of the span that caused it, and the id of the run
// (solve) it belongs to. Spans stay in memory and are written out once, at
// exit, as Chrome trace-event JSON.

#ifndef RMBENCH_TRACE_H_
#define RMBENCH_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"

namespace rmbench {

struct Span {
  std::string name;
  double start_s = 0.0;
  double end_s = 0.0;
  int64_t id = 0;
  int64_t parent = -1;  // -1: a root span
  uint32_t run = 0;
  uint32_t thread = 0;  // small per-process index of the recording thread
  double duration() const { return end_s - start_s; }
};

/// Thread-safe: spans may close on pool workers (the replay's init stage).
class Tracer {
 public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  double Now() const;
  int64_t NextId() { return next_id_.fetch_add(1); }
  void Add(Span span);

  /// Writes the spans, in completion order, as Chrome trace-event JSON
  /// (pid = run id, tid = recording thread).
  isa::Status WriteChromeJson(const std::string& path) const;

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point epoch_;
  std::atomic<int64_t> next_id_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// Times one region. With a null tracer it is a plain stopwatch, so the
/// same code path yields the untraced timings; with a tracer the region is
/// also recorded as a span when Stop() runs (or at scope exit).
class Scope {
 public:
  Scope(Tracer* tracer, std::string name, int64_t parent = -1,
        uint32_t run = 0);
  ~Scope() { Stop(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  /// Ends the region (idempotent) and returns its length in seconds.
  double Stop();
  int64_t id() const { return span_.id; }

 private:
  Tracer* tracer_;
  std::chrono::steady_clock::time_point start_;
  Span span_;
  bool stopped_ = false;
  double seconds_ = 0.0;
};

}  // namespace rmbench

#endif  // RMBENCH_TRACE_H_
