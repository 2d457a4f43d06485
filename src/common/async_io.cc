#include "common/async_io.h"

#include <unistd.h>

#include <algorithm>
#include <cerrno>

#include "common/failpoint.h"
#include "common/logging.h"

namespace isa {

namespace {

// pread until `len` bytes or a terminal condition; Wait's error contract.
int PreadFull(int fd, uint64_t offset, char* buf, size_t len) {
  while (len > 0) {
    const ssize_t n = ::pread(fd, buf, len, static_cast<off_t>(offset));
    if (n < 0) {
      if (errno == EINTR) continue;
      return errno;
    }
    if (n == 0) return -1;  // EOF before the requested length
    buf += n;
    offset += static_cast<uint64_t>(n);
    len -= static_cast<size_t>(n);
  }
  return 0;
}

}  // namespace

AsyncFileReader::AsyncFileReader(ThreadPool* pool, uint32_t depth)
    : pool_(pool),
      depth_(std::clamp(depth, 1u, kMaxDepth)),
      slots_(depth_),
      tasks_(pool_ != nullptr ? depth_ : 0) {}

AsyncFileReader::~AsyncFileReader() {
  // Pool workers may still be writing into submitted buffers; drain
  // before they die. Errors are irrelevant on this path.
  while (in_flight()) static_cast<void>(Wait());
}

void AsyncFileReader::SubmitBatch(std::span<const AsyncReadRequest> reqs) {
  if (reqs.empty()) return;
  ISA_CHECK(reqs.size() <= depth_ - pending());
  // "async.submit": the pool never sees this batch and every request is
  // served by an inline pread at its Wait — the path a failed submission
  // takes.
  const bool submit_faulted = FailPointHit("async.submit") != 0;
  const bool launch = pool_ != nullptr && !submit_faulted;
  for (const AsyncReadRequest& r : reqs) {
    const size_t idx = SlotIndex(tail_seq_++);
    Slot& s = slots_[idx];
    s = Slot{r.fd, r.offset, static_cast<char*>(r.buf), r.len, launch, 0};
    if (launch) {
      tasks_[idx] = pool_->Launch(1, [&s](uint64_t) {
        s.result = PreadFull(s.fd, s.offset, s.buf, s.len);
      });
    }
  }
  uint64_t launched = 0;
  for (uint64_t seq = head_seq_; seq < tail_seq_; ++seq) {
    if (slots_[SlotIndex(seq)].launched) ++launched;
  }
  peak_in_flight_ = std::max(peak_in_flight_, launched);
}

void AsyncFileReader::Start(int fd, uint64_t offset, void* buf, size_t len) {
  const AsyncReadRequest req{fd, offset, buf, len};
  SubmitBatch({&req, 1});
}

int AsyncFileReader::Wait() {
  ISA_CHECK(in_flight());
  const size_t idx = SlotIndex(head_seq_++);
  Slot& s = slots_[idx];
  int result;
  if (s.launched) {
    tasks_[idx].Wait();  // publishes result + the bytes
    result = s.result;
  } else {
    result = PreadFull(s.fd, s.offset, s.buf, s.len);
  }
  if (const int e = FailPointHit("async.complete")) result = e;
  return result;
}

}  // namespace isa
