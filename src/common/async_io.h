// AsyncFileReader — deep-queue positional file reader, the I/O engine
// behind the spill tier's chunk prefetch pipeline (see rrset/spill_file.h).
//
// The pipeline keeps up to `depth` reads in flight (default 16): while
// chunk k is being applied, the next up-to-depth chunks' bytes stream into
// a ring of buffers. SubmitBatch enqueues a whole filtered chunk list at
// once; Wait drains reads strictly in submission order (FIFO), so
// consumers keep their deterministic ascending apply sequence whatever
// order the reads finish in. There is one read path:
//
//   - With a pool, each read runs as its own ThreadPool::Launch pread task,
//     so up to depth preads progress concurrently; the per-task Wait
//     barrier publishes each buffer to the consumer in order.
//   - With no pool, or for a batch whose submission faulted, the read is a
//     plain pread performed inline at its Wait — no overlap, same bytes.
//
// Either way the same bytes arrive, so results are bit-identical at any
// queue depth, pool or no pool.
//
// Error model: Wait returns 0 on success, a positive errno on failure, or
// -1 for EOF before the requested length. A short read that is not EOF is
// continued until done. Callers (the spill layer) turn nonzero into
// SpillIoError; this class never throws from the I/O path.

#ifndef ISA_COMMON_ASYNC_IO_H_
#define ISA_COMMON_ASYNC_IO_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/thread_pool.h"

namespace isa {

/// One positional read: exactly `len` bytes at `offset` from `fd` into
/// `buf`. `buf` and `fd` must stay valid until the matching Wait returns.
struct AsyncReadRequest {
  int fd = -1;
  uint64_t offset = 0;
  void* buf = nullptr;
  size_t len = 0;
};

/// Deep-queue reader (see file comment). Not thread-safe: one owner
/// submits and waits; the pool tasks are synchronized by TaskGroup::Wait's
/// barrier.
class AsyncFileReader {
 public:
  static constexpr uint32_t kDefaultDepth = 16;
  static constexpr uint32_t kMaxDepth = 128;

  /// `pool` may be null (every read is then inline at its Wait). `depth`
  /// is the maximum number of outstanding reads (clamped to
  /// [1, kMaxDepth]).
  explicit AsyncFileReader(ThreadPool* pool, uint32_t depth = kDefaultDepth);
  ~AsyncFileReader();
  AsyncFileReader(const AsyncFileReader&) = delete;
  AsyncFileReader& operator=(const AsyncFileReader&) = delete;

  /// Enqueues every request in `reqs` (at most depth() - pending()). Never
  /// fails: a faulted submission ("async.submit" failpoint) downgrades the
  /// batch to inline preads at each Wait — the first rung of the cold-tier
  /// recovery ladder.
  void SubmitBatch(std::span<const AsyncReadRequest> reqs);

  /// Single-request convenience wrapper over SubmitBatch.
  void Start(int fd, uint64_t offset, void* buf, size_t len);

  /// Blocks until the OLDEST outstanding read finished (FIFO — results
  /// come back in submission order regardless of completion order).
  /// Returns 0 on success, a positive errno, or -1 for EOF before the
  /// requested length.
  int Wait();

  /// Outstanding reads (submitted, not yet Wait()ed).
  size_t pending() const { return static_cast<size_t>(tail_seq_ - head_seq_); }
  bool in_flight() const { return pending() > 0; }
  uint32_t depth() const { return depth_; }

  /// High-water mark of reads running on the pool at once (inline reads
  /// excluded). 0 without a pool.
  uint64_t reads_in_flight_peak() const { return peak_in_flight_; }

 private:
  struct Slot {
    int fd = -1;
    uint64_t offset = 0;
    char* buf = nullptr;
    size_t len = 0;
    bool launched = false;  // a pool task reads it; else inline at Wait
    int result = 0;
  };

  size_t SlotIndex(uint64_t seq) const { return seq % depth_; }

  ThreadPool* pool_;
  uint32_t depth_;
  std::vector<Slot> slots_;                   // ring, indexed by seq % depth
  std::vector<ThreadPool::TaskGroup> tasks_;  // per slot, when launched
  uint64_t head_seq_ = 0;  // next sequence Wait returns
  uint64_t tail_seq_ = 0;  // next sequence SubmitBatch assigns
  uint64_t peak_in_flight_ = 0;
};

}  // namespace isa

#endif  // ISA_COMMON_ASYNC_IO_H_
