#include "rrset/spill_file.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <thread>

#include "common/failpoint.h"
#include "common/logging.h"
#include "common/thread_pool.h"

namespace isa::rrset {

namespace {

// The on-disk footer v3: ChunkMeta's scalar fields at fixed width plus the
// Bloom and id columns' lengths, written LAST in each chunk's padded
// region so the file is self-describing (a backward walk from EOF reads
// the final footer, whose file_offset locates its region's start — the
// previous footer ends right there; magic + version pin the layout).
struct DiskFooter {
  uint64_t set_lo;
  uint64_t set_hi;
  uint32_t node_min;
  uint32_t node_max;
  uint64_t file_offset;
  uint64_t postings;
  uint64_t bloom_words;  // the filter follows the payload on disk
  uint32_t num_sets;     // < set_hi - set_lo means a sparse id list follows
                         // the filter (num_sets uint32 ids, ascending)
  uint32_t version;
  uint32_t magic;
  uint32_t pad0;
};
static_assert(sizeof(DiskFooter) == 64);
constexpr uint32_t kFooterMagic = 0x33415349;  // "ISA3"
constexpr uint32_t kFooterVersion = 3;

uint64_t RoundUp(uint64_t x, uint64_t align) {
  return (x + align - 1) / align * align;
}

[[noreturn]] void ThrowIo(const char* op, const char* path,
                          const char* detail) {
  ISA_LOG("SpillFile: %s(%s) failed: %s", op, path, detail);
  throw SpillIoError(std::string("SpillFile: ") + op + "(" + path +
                     ") failed: " + detail);
}

const char* IoErrorDetail(int err) {
  return err == kFailPointEof ? "unexpected EOF" : std::strerror(err);
}

// ---- bounded retry layer ----
//
// Fault taxonomy: EINTR is retried unboundedly inside the once-functions
// (it is a non-fault); EAGAIN/ENOMEM/EBUSY/ETIMEDOUT are TRANSIENT and
// retried up to kMaxIoAttempts with a deterministic yield backoff;
// everything else — EIO, ENOSPC, EOF-before-length — is PERMANENT and
// fails immediately. No wall clock feeds any retry decision, so a fixed
// failpoint spec produces the same attempt sequence in every run.

constexpr int kMaxIoAttempts = 4;

bool TransientIoError(int err) {
  return err == EAGAIN || err == EWOULDBLOCK || err == ENOMEM ||
         err == EBUSY || err == ETIMEDOUT;
}

void BackoffYield(int attempt) {
  // Donates exponentially more time slices per attempt; the yield count is
  // a pure function of the attempt number, never of elapsed time.
  for (int i = 0; i < (1 << attempt); ++i) std::this_thread::yield();
}

// pwrite/pread the full range once. Returns 0 on success, a positive
// errno, or kFailPointEof for EOF before the requested length; EINTR is
// absorbed internally.
int PwriteOnce(int fd, const void* data, size_t len, uint64_t offset) {
  const char* p = static_cast<const char*>(data);
  while (len > 0) {
    const ssize_t n = ::pwrite(fd, p, len, static_cast<off_t>(offset));
    if (n < 0) {
      if (errno == EINTR) continue;
      return errno;
    }
    p += n;
    len -= static_cast<size_t>(n);
    offset += static_cast<uint64_t>(n);
  }
  return 0;
}

int PreadOnce(int fd, void* data, size_t len, uint64_t offset) {
  char* p = static_cast<char*>(data);
  while (len > 0) {
    const ssize_t n = ::pread(fd, p, len, static_cast<off_t>(offset));
    if (n < 0) {
      if (errno == EINTR) continue;
      return errno;
    }
    if (n == 0) return kFailPointEof;
    p += n;
    len -= static_cast<size_t>(n);
    offset += static_cast<uint64_t>(n);
  }
  return 0;
}

// ---- Bloom filter (k = 3 by double hashing over a power-of-two size) ----

// SplitMix64's finalizer — a cheap full-avalanche mixer; the filter only
// needs the two derived hashes to be well spread, not cryptographic.
uint64_t MixHash(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

constexpr uint32_t kBloomProbes = 3;

void BloomInsert(std::vector<uint64_t>& bloom, graph::NodeId v) {
  const uint64_t mask = bloom.size() * 64 - 1;  // power-of-two bit count
  const uint64_t h1 = MixHash(v);
  const uint64_t h2 = MixHash(~static_cast<uint64_t>(v)) | 1;
  for (uint32_t i = 0; i < kBloomProbes; ++i) {
    const uint64_t bit = (h1 + i * h2) & mask;
    bloom[bit >> 6] |= 1ull << (bit & 63);
  }
}

bool BloomMayContain(std::span<const uint64_t> bloom, graph::NodeId v) {
  if (bloom.empty()) return true;  // filters disabled
  const uint64_t mask = bloom.size() * 64 - 1;
  const uint64_t h1 = MixHash(v);
  const uint64_t h2 = MixHash(~static_cast<uint64_t>(v)) | 1;
  for (uint32_t i = 0; i < kBloomProbes; ++i) {
    const uint64_t bit = (h1 + i * h2) & mask;
    if ((bloom[bit >> 6] & (1ull << (bit & 63))) == 0) return false;
  }
  return true;
}

}  // namespace

void SpillFile::WriteAll(const void* data, size_t len, uint64_t offset) {
  for (int attempt = 0;; ++attempt) {
    int err = FailPointHit("spill.write");
    if (err == 0) err = PwriteOnce(fd_, data, len, offset);
    if (err == 0) {
      if (attempt > 0) retry_successes_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    if (!TransientIoError(err) || attempt + 1 >= kMaxIoAttempts) {
      ThrowIo("pwrite", path_.c_str(), IoErrorDetail(err));
    }
    retries_.fetch_add(1, std::memory_order_relaxed);
    BackoffYield(attempt);
  }
}

void SpillFile::ReadAll(void* data, size_t len, uint64_t offset) const {
  for (int attempt = 0;; ++attempt) {
    int err = FailPointHit("spill.read");
    if (err == 0) err = PreadOnce(fd_, data, len, offset);
    if (err == 0) {
      if (attempt > 0) retry_successes_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    if (!TransientIoError(err) || attempt + 1 >= kMaxIoAttempts) {
      ThrowIo("pread", path_.c_str(), IoErrorDetail(err));
    }
    retries_.fetch_add(1, std::memory_order_relaxed);
    BackoffYield(attempt);
  }
}

uint64_t SpillChunkTarget(uint64_t batch_bytes, uint64_t cap) {
  return std::min(std::max<uint64_t>(1, cap),
                  std::max(kMinSpillChunkBytes,
                           batch_bytes / kSpillChunksPerBatch));
}

uint64_t CountDistinctNodes(std::span<const graph::NodeId> nodes,
                            graph::NodeId node_min, graph::NodeId node_max) {
  if (nodes.empty()) return 0;
  ISA_CHECK(node_min <= node_max);
  std::vector<uint64_t> seen((uint64_t{node_max} - node_min) / 64 + 1, 0);
  for (const graph::NodeId v : nodes) {
    const uint64_t bit = v - node_min;
    seen[bit >> 6] |= 1ull << (bit & 63);
  }
  uint64_t distinct = 0;
  for (const uint64_t word : seen) distinct += std::popcount(word);
  return distinct;
}

std::string MakeSpillPath(const std::string& dir) {
  static std::atomic<uint64_t> seq{0};
  std::string base = dir;
  if (base.empty()) {
    std::error_code ec;
    auto tmp = std::filesystem::temp_directory_path(ec);
    base = ec ? "/tmp" : tmp.string();
  }
  return base + "/isa-spill-" + std::to_string(::getpid()) + "-" +
         std::to_string(seq.fetch_add(1)) + ".bin";
}

SpillFile::SpillFile(std::string path, uint32_t bloom_bits_per_key)
    : path_(std::move(path)), bloom_bits_per_key_(bloom_bits_per_key) {
  // O_EXCL (and no O_TRUNC): the spill path is predictable
  // (pid + sequence), so a file or symlink planted there by another
  // process must never be truncated or followed. If the name is taken,
  // retry with a fresh suffix — the file is private scratch, so any
  // unique name works.
  const std::string requested = path_;
  for (uint32_t attempt = 0; fd_ < 0; ++attempt) {
    fd_ = ::open(path_.c_str(),
                 O_CREAT | O_EXCL | O_RDWR | O_CLOEXEC | O_NOFOLLOW, 0600);
    if (fd_ >= 0) break;
    if (errno != EEXIST || attempt >= 100) {
      ThrowIo("open", path_.c_str(), std::strerror(errno));
    }
    path_ = requested + "." + std::to_string(attempt);
  }
}

SpillFile::~SpillFile() {
  if (fd_ >= 0) ::close(fd_);
  ::unlink(path_.c_str());
}

void SpillFile::BeginBatch(uint64_t batch_lo, uint64_t batch_hi) {
  ISA_CHECK(batch_lo <= batch_hi);
  // Batches must tile ascending id ranges without overlap — a lower bound
  // means a caller re-spilled a range after a SpillIoError (the file is
  // then inconsistent; fail loudly).
  ISA_CHECK(batch_lo >= max_set_hi_);
  batch_active_ = true;
  batch_lo_ = batch_lo;
  batch_hi_ = batch_hi;
  max_set_hi_ = batch_hi;
}

void SpillFile::AppendChunk(uint64_t set_lo, uint64_t set_hi,
                            std::span<const uint32_t> sizes,
                            std::span<const graph::NodeId> nodes,
                            std::span<const uint32_t> ids) {
  if (ids.empty()) {
    ISA_CHECK(set_hi - set_lo == sizes.size());
  } else {
    ISA_CHECK(ids.size() == sizes.size());
    ISA_CHECK(set_lo == ids.front() && set_hi == ids.back() + 1);
  }
  if (batch_active_) {
    // Sharded chunks of one batch may interleave id-wise; they must stay
    // inside the declared batch range.
    ISA_CHECK(set_lo >= batch_lo_ && set_hi <= batch_hi_);
  } else {
    // Without a batch, chunks tile ascending ranges directly (see
    // BeginBatch for why a lower id must fail).
    ISA_CHECK(set_lo >= max_set_hi_);
    max_set_hi_ = set_hi;
  }
  ChunkMeta meta;
  meta.set_lo = set_lo;
  meta.set_hi = set_hi;
  meta.file_offset = bytes_;
  meta.postings = nodes.size();
  meta.node_min = nodes.empty() ? 0 : UINT32_MAX;
  meta.node_max = 0;
  meta.ids.assign(ids.begin(), ids.end());
  for (graph::NodeId v : nodes) {
    if (v < meta.node_min) meta.node_min = v;
    if (v > meta.node_max) meta.node_max = v;
  }
  if (bloom_bits_per_key_ > 0 && !nodes.empty()) {
    // Size the filter on DISTINCT ids — RR sets of the same chunk overlap
    // heavily on hub nodes, and sizing on raw postings would pay for each
    // duplicate. A bitmap over the envelope buys an exact count in one
    // linear pass.
    const uint64_t distinct =
        CountDistinctNodes(nodes, meta.node_min, meta.node_max);
    const uint64_t bits =
        std::bit_ceil(std::max<uint64_t>(64, distinct * bloom_bits_per_key_));
    meta.bloom.assign(bits / 64, 0);
    for (graph::NodeId v : nodes) BloomInsert(meta.bloom, v);
  }

  // Region layout: [sizes][nodes][bloom][ids][zero pad][footer], the
  // footer flush against the next kRegionAlignment boundary so every
  // chunk's file_offset is aligned.
  uint64_t cursor = bytes_;
  WriteAll(sizes.data(), sizes.size_bytes(), cursor);
  cursor += sizes.size_bytes();
  WriteAll(nodes.data(), nodes.size_bytes(), cursor);
  cursor += nodes.size_bytes();
  const uint64_t bloom_bytes = meta.bloom.size() * sizeof(uint64_t);
  if (bloom_bytes > 0) {
    WriteAll(meta.bloom.data(), bloom_bytes, cursor);
    cursor += bloom_bytes;
  }
  if (!meta.ids.empty()) {
    WriteAll(meta.ids.data(), meta.ids.size() * sizeof(uint32_t), cursor);
    cursor += meta.ids.size() * sizeof(uint32_t);
  }
  const uint64_t region_end =
      RoundUp(cursor + sizeof(DiskFooter), kRegionAlignment);
  const uint64_t pad = region_end - sizeof(DiskFooter) - cursor;
  if (pad > 0) {
    const std::vector<char> zeros(pad, 0);
    WriteAll(zeros.data(), pad, cursor);
    cursor += pad;
  }
  const DiskFooter footer{meta.set_lo,
                          meta.set_hi,
                          meta.node_min,
                          meta.node_max,
                          meta.file_offset,
                          meta.postings,
                          static_cast<uint64_t>(meta.bloom.size()),
                          static_cast<uint32_t>(meta.NumSets()),
                          kFooterVersion,
                          kFooterMagic,
                          0};
  WriteAll(&footer, sizeof(footer), cursor);
  bytes_ = region_end;
  bloom_bytes_ += meta.bloom.capacity() * sizeof(uint64_t);
  ids_bytes_ += meta.ids.capacity() * sizeof(uint32_t);
  chunks_.push_back(std::move(meta));
}

void SpillFile::ReadChunk(size_t chunk, std::vector<uint32_t>* sizes,
                          std::vector<graph::NodeId>* nodes) const {
  const ChunkMeta& meta = chunks_[chunk];
  sizes->resize(meta.NumSets());
  nodes->resize(meta.postings);
  ReadAll(sizes->data(), sizes->size() * sizeof(uint32_t), meta.file_offset);
  ReadAll(nodes->data(), nodes->size() * sizeof(graph::NodeId),
          meta.file_offset + sizes->size() * sizeof(uint32_t));
}

bool SpillFile::ChunkMightContain(size_t chunk, graph::NodeId v) const {
  const ChunkMeta& meta = chunks_[chunk];
  if (meta.postings == 0 || v < meta.node_min || v > meta.node_max) {
    return false;
  }
  return BloomMayContain(meta.bloom, v);
}

// ------------------------------------------------------- SpillChunkCursor

SpillChunkCursor::SpillChunkCursor(const SpillFile& file,
                                   std::vector<uint32_t> chunks,
                                   ThreadPool* pool, uint32_t depth)
    : file_(file), chunks_(std::move(chunks)), reader_(pool, depth) {
  // depth buffers in flight + 1 being consumed; positions use idx % size.
  bufs_.resize(std::min<size_t>(
      chunks_.size(), static_cast<size_t>(reader_.depth()) + 1));
  const size_t first = std::min<size_t>(reader_.depth(), chunks_.size());
  std::vector<AsyncReadRequest> reqs;
  reqs.reserve(first);
  for (size_t i = 0; i < first; ++i) reqs.push_back(RequestFor(i));
  if (!reqs.empty()) reader_.SubmitBatch(reqs);
  next_submit_ = first;
}

SpillChunkCursor::~SpillChunkCursor() {
  // Drain in-flight reads BEFORE freeing their buffers: the reader member
  // is declared after bufs_, so it destructs first, but be explicit.
  while (reader_.in_flight()) static_cast<void>(reader_.Wait());
}

AsyncReadRequest SpillChunkCursor::RequestFor(size_t idx) {
  const SpillFile::ChunkMeta& meta = file_.chunks_[chunks_[idx]];
  std::vector<uint32_t>& b = bufs_[idx % bufs_.size()];
  const size_t words = meta.NumSets() + meta.postings;
  if (b.size() < words) b.resize(words);
  return {file_.fd_, meta.file_offset, b.data(), meta.PayloadBytes()};
}

bool SpillChunkCursor::Next() {
  if (pos_ == chunks_.size()) return false;
  const SpillFile::ChunkMeta& meta = file_.chunks_[chunks_[pos_]];
  std::vector<uint32_t>& b = bufs_[pos_ % bufs_.size()];
  int err = reader_.Wait();
  if (const int e = FailPointHit("spill.read")) err = e;
  // A transiently failed chunk is re-read synchronously — the
  // pipeline's overlap is lost for one chunk, its bytes and apply order
  // are not.
  for (int attempt = 1;
       err != 0 && TransientIoError(err) && attempt < kMaxIoAttempts;
       ++attempt) {
    file_.retries_.fetch_add(1, std::memory_order_relaxed);
    BackoffYield(attempt - 1);
    err = FailPointHit("spill.read");
    if (err == 0) {
      err = PreadOnce(file_.fd_, b.data(), meta.PayloadBytes(),
                      meta.file_offset);
    }
    if (err == 0) {
      file_.retry_successes_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (err != 0) {
    ThrowIo("read", file_.path_.c_str(), IoErrorDetail(err));
  }
  ++pos_;
  // Keep the queue full: one new submission per delivery tops the window
  // back up to depth outstanding reads.
  if (next_submit_ < chunks_.size() &&
      reader_.pending() < reader_.depth()) {
    const AsyncReadRequest req = RequestFor(next_submit_);
    reader_.Start(req.fd, req.offset, req.buf, req.len);
    ++next_submit_;
  }
  return true;
}

const uint32_t* SpillChunkCursor::PayloadAt(size_t idx) const {
  return bufs_[idx % bufs_.size()].data();
}

std::span<const uint32_t> SpillChunkCursor::sizes() const {
  const SpillFile::ChunkMeta& meta = file_.chunks_[chunks_[pos_ - 1]];
  return {PayloadAt(pos_ - 1), meta.NumSets()};
}

std::span<const graph::NodeId> SpillChunkCursor::nodes() const {
  const SpillFile::ChunkMeta& meta = file_.chunks_[chunks_[pos_ - 1]];
  return {PayloadAt(pos_ - 1) + meta.NumSets(), meta.postings};
}

}  // namespace isa::rrset
