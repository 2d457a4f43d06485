// AsyncFileReader — the deep-queue reader behind the spill tier's chunk
// pipeline. This suite pins its contract with and without a pool: FIFO
// delivery of batched submissions even when pool reads complete out of
// order, depth clamping, EOF/short-read semantics, and the "async.submit"
// failpoint downgrading a whole batch to inline completion.

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <string>
#include <vector>

#include "common/async_io.h"
#include "common/failpoint.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "gtest/gtest.h"

namespace isa {
namespace {

struct FaultGuard {
  FaultGuard() { FailPoints::Clear(); }
  ~FaultGuard() { FailPoints::Clear(); }
};

// A regular file holding `size` bytes where byte i == uint8_t(i * 131 + 7),
// so any (offset, len) window is self-verifying.
struct PatternFile {
  int fd = -1;
  std::string path;
  uint64_t size = 0;

  explicit PatternFile(uint64_t n) : size(n) {
    char tmpl[] = "/tmp/isa_async_io_test_XXXXXX";
    fd = ::mkstemp(tmpl);
    ISA_CHECK(fd >= 0);
    path = tmpl;
    std::vector<char> bytes(n);
    for (uint64_t i = 0; i < n; ++i) {
      bytes[i] = static_cast<char>(i * 131 + 7);
    }
    ISA_CHECK(::pwrite(fd, bytes.data(), n, 0) == static_cast<ssize_t>(n));
  }
  ~PatternFile() {
    if (fd >= 0) ::close(fd);
    if (!path.empty()) ::unlink(path.c_str());
  }

  bool Matches(const char* buf, uint64_t offset, size_t len) const {
    for (size_t i = 0; i < len; ++i) {
      if (buf[i] != static_cast<char>((offset + i) * 131 + 7)) return false;
    }
    return true;
  }
};

// Runs `body` once with a pool (reads are pool pread tasks) and once
// without (reads are inline preads at Wait).
template <typename Body>
void ForPoolAndNoPool(Body body) {
  ThreadPool pool(2);
  for (ThreadPool* p : {&pool, static_cast<ThreadPool*>(nullptr)}) {
    SCOPED_TRACE(p != nullptr ? "pool" : "no pool");
    body(p);
  }
}

TEST(AsyncIoPipelineTest, DepthClampedToValidRange) {
  AsyncFileReader tiny(nullptr, 0);
  EXPECT_EQ(tiny.depth(), 1u);
  AsyncFileReader huge(nullptr, 100'000);
  EXPECT_EQ(huge.depth(), AsyncFileReader::kMaxDepth);
}

// ------------------------------------------- batched FIFO read pipeline

// One SubmitBatch of `depth` differently-sized reads; Wait must return
// them strictly in submission order with the right bytes (pool reads may
// complete out of order — smaller reads tend to finish first — and are
// re-ordered at Wait).
TEST(AsyncIoPipelineTest, BatchedReadsDeliverInSubmissionOrder) {
  const PatternFile file(1 << 16);
  ForPoolAndNoPool([&](ThreadPool* pool) {
    AsyncFileReader reader(pool, /*depth=*/8);
    // Later requests are much smaller than earlier ones, tempting any
    // out-of-order pool reads to complete them first.
    const size_t lens[] = {16384, 8192, 4096, 2048, 1024, 512, 256, 128};
    std::vector<std::vector<char>> bufs;
    std::vector<AsyncReadRequest> reqs;
    uint64_t offset = 0;
    for (size_t len : lens) {
      bufs.emplace_back(len);
      reqs.push_back({file.fd, offset, bufs.back().data(), len});
      offset += len;
    }
    reader.SubmitBatch(reqs);
    EXPECT_EQ(reader.pending(), 8u);
    offset = 0;
    for (size_t i = 0; i < std::size(lens); ++i) {
      ASSERT_EQ(reader.Wait(), 0) << "request " << i;
      EXPECT_TRUE(file.Matches(bufs[i].data(), offset, lens[i]))
          << "request " << i;
      offset += lens[i];
    }
    EXPECT_FALSE(reader.in_flight());
    if (pool == nullptr) {
      EXPECT_EQ(reader.reads_in_flight_peak(), 0u);
    } else {
      EXPECT_GE(reader.reads_in_flight_peak(), 1u);
      EXPECT_LE(reader.reads_in_flight_peak(), 8u);
    }
  });
}

// Streaming more requests than the queue depth: submit-one/wait-one
// top-offs keep the window full without ever exceeding depth.
TEST(AsyncIoPipelineTest, TopOffKeepsWindowWithinDepth) {
  const PatternFile file(1 << 14);
  constexpr size_t kLen = 512;
  constexpr size_t kReads = 32;
  ForPoolAndNoPool([&](ThreadPool* pool) {
    AsyncFileReader reader(pool, /*depth=*/4);
    std::vector<std::vector<char>> bufs(kReads, std::vector<char>(kLen));
    size_t submitted = 0;
    while (submitted < 4) {
      reader.Start(file.fd, submitted * kLen, bufs[submitted].data(), kLen);
      ++submitted;
    }
    for (size_t i = 0; i < kReads; ++i) {
      ASSERT_LE(reader.pending(), 4u);
      ASSERT_EQ(reader.Wait(), 0) << "request " << i;
      EXPECT_TRUE(file.Matches(bufs[i].data(), i * kLen, kLen));
      if (submitted < kReads) {
        reader.Start(file.fd, submitted * kLen, bufs[submitted].data(), kLen);
        ++submitted;
      }
    }
    EXPECT_FALSE(reader.in_flight());
  });
}

// -------------------------------------------------- EOF and error model

TEST(AsyncIoPipelineTest, EofBeforeRequestedLengthReturnsMinusOne) {
  const PatternFile file(4096);
  ForPoolAndNoPool([&](ThreadPool* pool) {
    AsyncFileReader reader(pool);
    std::vector<char> buf(1024);
    // Entirely past EOF.
    reader.Start(file.fd, file.size + 100, buf.data(), buf.size());
    EXPECT_EQ(reader.Wait(), -1);
    // Spanning EOF: some bytes land, but fewer than requested is EOF too.
    reader.Start(file.fd, file.size - 100, buf.data(), buf.size());
    EXPECT_EQ(reader.Wait(), -1);
    // Exactly at the boundary still succeeds.
    reader.Start(file.fd, file.size - buf.size(), buf.data(), buf.size());
    EXPECT_EQ(reader.Wait(), 0);
    EXPECT_TRUE(file.Matches(buf.data(), file.size - buf.size(), buf.size()));
  });
}

TEST(AsyncIoPipelineTest, BadFdSurfacesErrno) {
  ForPoolAndNoPool([&](ThreadPool* pool) {
    AsyncFileReader reader(pool);
    char buf[64];
    reader.Start(/*fd=*/-1, 0, buf, sizeof(buf));
    EXPECT_EQ(reader.Wait(), EBADF);
  });
}

// --------------------------------------------------- failpoint downgrades

// "async.submit" drops the whole batch to inline completion: every read
// still succeeds (served by pread inside Wait), but nothing counts as in
// flight on the pool.
TEST(AsyncIoFaultTest, SubmitFaultDowngradesBatchToSync) {
  FaultGuard guard;
  const PatternFile file(8192);
  ThreadPool pool(2);
  ASSERT_TRUE(FailPoints::Arm("async.submit.eio@1").ok());
  AsyncFileReader reader(&pool, /*depth=*/4);
  constexpr size_t kLen = 2048;
  std::vector<std::vector<char>> bufs(4, std::vector<char>(kLen));
  std::vector<AsyncReadRequest> reqs;
  for (size_t i = 0; i < 4; ++i) {
    reqs.push_back({file.fd, i * kLen, bufs[i].data(), kLen});
  }
  reader.SubmitBatch(reqs);
  for (size_t i = 0; i < 4; ++i) {
    ASSERT_EQ(reader.Wait(), 0) << "request " << i;
    EXPECT_TRUE(file.Matches(bufs[i].data(), i * kLen, kLen));
  }
  EXPECT_EQ(reader.reads_in_flight_peak(), 0u);
}

// "async.complete" overrides an otherwise-good completion with an errno —
// the hook the recovery suite uses to prove the spill layer's re-read
// rung. Here: the errno surfaces from Wait, and the NEXT read is clean.
TEST(AsyncIoFaultTest, CompleteFaultOverridesWaitResultOnce) {
  FaultGuard guard;
  const PatternFile file(4096);
  ThreadPool pool(2);
  ASSERT_TRUE(FailPoints::Arm("async.complete.eio@1").ok());
  AsyncFileReader reader(&pool);
  std::vector<char> buf(1024);
  reader.Start(file.fd, 0, buf.data(), buf.size());
  EXPECT_EQ(reader.Wait(), EIO);
  reader.Start(file.fd, 0, buf.data(), buf.size());
  EXPECT_EQ(reader.Wait(), 0);
  EXPECT_TRUE(file.Matches(buf.data(), 0, buf.size()));
}

}  // namespace
}  // namespace isa
