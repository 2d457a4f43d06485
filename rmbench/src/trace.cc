#include "trace.h"

#include <cstdio>
#include <memory>

namespace rmbench {

namespace {

uint32_t ThreadIndex() {
  static std::atomic<uint32_t> next{0};
  thread_local const uint32_t index = next.fetch_add(1);
  return index;
}

}  // namespace

Tracer::Tracer() : epoch_(Clock::now()) {}

double Tracer::Now() const {
  return std::chrono::duration<double>(Clock::now() - epoch_).count();
}

void Tracer::Add(Span span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

isa::Status Tracer::WriteChromeJson(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  const std::vector<Span>& spans = spans_;
  std::unique_ptr<FILE, int (*)(FILE*)> f(std::fopen(path.c_str(), "w"),
                                          &std::fclose);
  if (f == nullptr) {
    return isa::Status::IOError("cannot write trace file " + path);
  }
  std::fprintf(f.get(), "{\"traceEvents\":[\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f.get(),
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
                 "\"pid\":%u,\"tid\":%u,\"args\":{\"id\":%lld,"
                 "\"parent\":%lld}}\n",
                 i == 0 ? "" : ",", s.name.c_str(), s.start_s * 1e6,
                 s.duration() * 1e6, s.run, s.thread,
                 static_cast<long long>(s.id),
                 static_cast<long long>(s.parent));
  }
  std::fprintf(f.get(), "]}\n");
  if (std::fflush(f.get()) != 0 || std::ferror(f.get()) != 0) {
    return isa::Status::IOError("short write to trace file " + path);
  }
  return isa::Status::OK();
}

Scope::Scope(Tracer* tracer, std::string name, int64_t parent, uint32_t run)
    : tracer_(tracer), start_(std::chrono::steady_clock::now()) {
  span_.name = std::move(name);
  span_.parent = parent;
  span_.run = run;
  if (tracer_ != nullptr) {
    span_.id = tracer_->NextId();
    span_.start_s = tracer_->Now();
  }
}

double Scope::Stop() {
  if (stopped_) return seconds_;
  stopped_ = true;
  seconds_ = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           start_)
                 .count();
  if (tracer_ != nullptr) {
    span_.end_s = span_.start_s + seconds_;
    span_.thread = ThreadIndex();
    tracer_->Add(std::move(span_));
  }
  return seconds_;
}

}  // namespace rmbench
