// Append-only columnar chunk file — the cold tier of the out-of-core RR
// store (see rr_store.h for the two-tier picture).
//
// A chunk holds an ascending list of RR set ids (a contiguous range
// [set_lo, set_hi) for dense chunks; an explicit sparse id list for the
// node-clustered chunks RrStore::SpillPrefix emits) in two columns, exactly
// the (sizes, nodes) shape RrStore::AppendBatch consumes, followed by its
// skip metadata. On-disk chunk region (v3):
//
//   [uint32 sizes[num_sets]]          cardinality per set, in id order
//   [uint32 nodes[postings]]          concatenated members, in id order
//   [uint64 bloom[bloom_words]]       Bloom filter over the member node ids
//   [uint32 ids[num_sets]]            sparse chunks only: the set ids
//   [zero padding]                    to the next 4096-byte boundary
//   [footer v3]                       id range + count, node-id min/max,
//                                     payload offset, posting count,
//                                     bloom length, version + magic
//
// Every chunk region starts and ends on a 4096-byte boundary
// (kRegionAlignment). The footer sits at the END of the padded region, so
// the file stays self-describing by a backward footer walk from EOF (each
// footer names its chunk's file_offset; the previous footer ends where
// that region starts). Footers are mirrored in memory —
// bloom words and sparse id lists included — so scans can skip chunks by
// id range, by the node-id [min, max] envelope, or by a Bloom miss without
// touching the disk (ChunkMightContain). The filter is built at spill
// time over the chunk's distinct member ids (counted on a bitmap of the
// node-id envelope; k = 3 probes by double hashing, bloom_bits_per_key
// bits per distinct id rounded up to a power-of-two word count), so a
// low-selectivity seed skips most chunks at ~1 bit of resident cost per
// posting.
//
// I/O: appends are buffered pwrites and reads buffered preads on one fd.
// All reads use positional I/O, so concurrent chunk reads need no locking.
//
// The file is created O_EXCL at a process-unique name (a pre-existing
// file or symlink at the requested path is never truncated or followed —
// the constructor retries with a fresh suffix instead) and removed by the
// destructor; it is a cache of evicted state, never a persistence format.

#ifndef ISA_RRSET_SPILL_FILE_H_
#define ISA_RRSET_SPILL_FILE_H_

#include <atomic>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/async_io.h"
#include "graph/graph.h"

namespace isa {
class ThreadPool;
}

namespace isa::rrset {

/// Thrown when the spill file cannot be created, written or read after the
/// bounded retry layer gives up (ENOSPC while evicting, EIO on a chunk
/// read). The tiers above degrade instead of dying where they can —
/// TieredRrStore disables eviction on a write failure, RrStore re-samples
/// a lost chunk on a read failure — and only a genuinely unrecoverable
/// fault propagates to the TI driver, which converts it to
/// Status::ResourceExhausted, exactly like a pool-task std::bad_alloc.
class SpillIoError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// How RrStore::SpillPrefix carves evicted sets into chunks and where the
/// chunk file lives.
struct SpillOptions {
  /// Chunk file path. Empty = a fresh unique file under the system temp
  /// directory (see MakeSpillPath). The actual file may get a retry
  /// suffix when the exclusive create loses a race — see SpillFile::path.
  std::string path;
  /// Cap on the payload bytes per chunk. Each eviction batch is carved
  /// at SpillChunkTarget(batch bytes, this cap): about 1/16 of the batch,
  /// at least 64 KiB, never above the cap. Chunks close at the first set
  /// boundary past the target, so one oversized RR set still lands in a
  /// single (oversized) chunk. Smaller chunks skip better on scans;
  /// larger chunks amortize the per-chunk read syscall.
  uint64_t chunk_target_bytes = 4ull << 20;
  /// Bloom bits per distinct member node id in a chunk (rounded up to a
  /// power-of-two filter size; ~8 bits with k = 3 gives a ~3% false-
  /// positive rate). 0 disables the filters — chunks are then skipped by
  /// the node-id envelope only.
  uint32_t bloom_bits_per_key = 8;
  /// Maximum chunk reads in flight per cold scan (the AsyncFileReader
  /// queue depth; clamped to [1, AsyncFileReader::kMaxDepth]). 1 degrades
  /// to the old one-outstanding pipeline.
  uint32_t io_ring_depth = AsyncFileReader::kDefaultDepth;
};

/// The chunk payload target for one eviction batch of `batch_bytes`
/// (sizes + nodes columns, 4 B per set and per posting): the batch split
/// into kSpillChunksPerBatch chunks, raised to kMinSpillChunkBytes, then
/// capped at `cap` (SpillOptions::chunk_target_bytes; 0 counts as 1). A
/// pure function of the batch, so the layout never depends on load,
/// schedule or pool. Enough chunks per batch give the envelope, Bloom and
/// alive filters something to skip and the read queue something to
/// overlap; the floor keeps the per-chunk read and 4 KiB region padding
/// small against the payload.
inline constexpr uint64_t kSpillChunksPerBatch = 16;
inline constexpr uint64_t kMinSpillChunkBytes = 64ull << 10;
uint64_t SpillChunkTarget(uint64_t batch_bytes, uint64_t cap);

/// Distinct ids in `nodes`, every one of which lies in [node_min,
/// node_max]: one pass over a bitmap of the envelope (node_max - node_min
/// + 1 bits, at most the graph's node count / 8 bytes). 0 for no nodes.
/// Sizes each chunk's Bloom filter.
uint64_t CountDistinctNodes(std::span<const graph::NodeId> nodes,
                            graph::NodeId node_min, graph::NodeId node_max);

/// A process-unique spill file path: `<dir>/isa-spill-<pid>-<seq>.bin`,
/// with `dir` defaulting to std::filesystem::temp_directory_path().
std::string MakeSpillPath(const std::string& dir = {});

/// Append-only columnar chunk file (see file comment). Appends are
/// single-writer; chunk reads are thread-safe (positional I/O) and may run
/// concurrently with each other but not with an append.
class SpillFile {
 public:
  /// Every chunk region starts and ends on this byte boundary (see file
  /// comment); part of the on-disk layout.
  static constexpr uint32_t kRegionAlignment = 4096;

  /// One chunk's in-memory footer.
  struct ChunkMeta {
    /// Smallest id in the chunk and one past the largest. Dense chunks
    /// cover exactly [set_lo, set_hi); sparse (node-clustered) chunks hold
    /// the explicit ascending subset in `ids`. Chunks of one spill batch
    /// partition the batch's ids; across batches the id ranges ascend.
    uint64_t set_lo = 0;
    uint64_t set_hi = 0;
    /// Envelope of the member node ids in this chunk — scans for a node v
    /// outside [node_min, node_max] skip the chunk without reading it.
    graph::NodeId node_min = 0;
    graph::NodeId node_max = 0;
    /// Byte offset of the sizes column in the file (always a multiple of
    /// kRegionAlignment). The nodes column follows contiguously,
    /// so one read of PayloadBytes() at this offset fetches the whole
    /// chunk.
    uint64_t file_offset = 0;
    /// Total members over the chunk's sets (the nodes column length).
    uint64_t postings = 0;
    /// Bloom filter over the member ids (power-of-two bit count; empty =
    /// filters disabled). Mirrored from disk; charged to MetadataBytes.
    std::vector<uint64_t> bloom;
    /// Sparse chunks: the ascending set ids, one per sizes entry (empty =
    /// dense, ids are set_lo + k). Mirrored resident — recovery needs the
    /// exact id list when the disk copy is unreadable — and charged to
    /// MetadataBytes.
    std::vector<uint32_t> ids;

    uint64_t NumSets() const {
      return ids.empty() ? set_hi - set_lo : ids.size();
    }
    uint64_t SetIdAt(uint64_t k) const {
      return ids.empty() ? set_lo + k : ids[k];
    }
    uint64_t PayloadBytes() const {
      return (NumSets() + postings) * sizeof(uint32_t);
    }
  };

  /// Creates the file at `path` with O_EXCL, retrying with a numeric
  /// suffix while the name is taken (path() reports the winner). Throws
  /// SpillIoError on creation failure — the spill tier is backing
  /// storage; running on without it would silently break the memory
  /// budget.
  explicit SpillFile(std::string path, uint32_t bloom_bits_per_key = 8);
  ~SpillFile();
  SpillFile(const SpillFile&) = delete;
  SpillFile& operator=(const SpillFile&) = delete;

  /// Declares that subsequent AppendChunk calls spill the id batch
  /// [batch_lo, batch_hi) — required before appending sparse chunks,
  /// whose id lists may interleave within the batch. batch_lo must be at
  /// or past every previously appended id (batches never overlap).
  void BeginBatch(uint64_t batch_lo, uint64_t batch_hi);

  /// Appends the sets listed in `ids` (ascending; empty = the dense range
  /// [set_lo, set_hi)): `sizes[k]` members of the k-th id taken in order
  /// from the concatenated `nodes`. Computes the node-id envelope and
  /// Bloom filter and writes payload + metadata + footer, padded to
  /// kRegionAlignment. Without a BeginBatch, set_lo must be at or past every
  /// previously appended id — a lower id means a caller re-spilled a
  /// range after a SpillIoError (the file is then inconsistent; fail
  /// loudly). Throws SpillIoError on I/O failure (the chunk is then not
  /// recorded).
  void AppendChunk(uint64_t set_lo, uint64_t set_hi,
                   std::span<const uint32_t> sizes,
                   std::span<const graph::NodeId> nodes,
                   std::span<const uint32_t> ids = {});

  /// Reads chunk `chunk` back into `sizes`/`nodes` (resized to fit) — the
  /// exact columns AppendChunk wrote. Thread-safe against other reads.
  /// Throws SpillIoError on I/O failure. Scans prefer SpillChunkCursor,
  /// which overlaps reads with applies.
  void ReadChunk(size_t chunk, std::vector<uint32_t>* sizes,
                 std::vector<graph::NodeId>* nodes) const;

  /// False when chunk `chunk` certainly does not contain node `v` (by the
  /// footer envelope or a Bloom miss) — the scan-time skip test; never
  /// reads the disk. True may be a Bloom false positive.
  bool ChunkMightContain(size_t chunk, graph::NodeId v) const;

  std::span<const ChunkMeta> chunks() const { return chunks_; }
  size_t num_chunks() const { return chunks_.size(); }

  /// Bytes written to disk (payload + filters + footers + region
  /// padding) — the non-resident tier's size for Table 3 accounting.
  uint64_t bytes_on_disk() const { return bytes_; }

  /// Resident bytes this object itself holds (the footer mirror — Bloom
  /// words and sparse id lists included) — charged into
  /// RrStore::MemoryBytes so the accounting stays honest.
  uint64_t MetadataBytes() const {
    return chunks_.capacity() * sizeof(ChunkMeta) + bloom_bytes_ + ids_bytes_;
  }

  const std::string& path() const { return path_; }

  /// Transient-fault retries issued by the bounded retry layer (reads and
  /// writes combined) and how many of them ultimately succeeded. A
  /// permanent fault (EIO, ENOSPC, EOF) never retries; a transient one
  /// (EAGAIN, ENOMEM, EBUSY, ...) retries up to a fixed attempt cap with
  /// a deterministic yield backoff — no wall clock feeds the decision.
  uint64_t retries() const {
    return retries_.load(std::memory_order_relaxed);
  }
  uint64_t retry_successes() const {
    return retry_successes_.load(std::memory_order_relaxed);
  }

 private:
  friend class SpillChunkCursor;

  // pwrite/pread the full range with failpoint hooks ("spill.write" /
  // "spill.read") and bounded transient retries; throws SpillIoError when
  // the retry budget runs out or the fault is permanent.
  void WriteAll(const void* data, size_t len, uint64_t offset);
  void ReadAll(void* data, size_t len, uint64_t offset) const;

  std::string path_;
  int fd_ = -1;
  uint32_t bloom_bits_per_key_;
  uint64_t bytes_ = 0;
  uint64_t bloom_bytes_ = 0;  // resident bytes of the mirrored filters
  uint64_t ids_bytes_ = 0;    // resident bytes of the mirrored id lists
  uint64_t max_set_hi_ = 0;   // highest id bound appended so far
  bool batch_active_ = false;
  uint64_t batch_lo_ = 0;
  uint64_t batch_hi_ = 0;
  std::vector<ChunkMeta> chunks_;
  mutable std::atomic<uint64_t> retries_{0};
  mutable std::atomic<uint64_t> retry_successes_{0};
};

/// Deep-queue pipelined reader over an ascending list of a SpillFile's
/// chunk indices: the whole filtered list (capped at the queue depth) is
/// submitted in one batch when the cursor is built, and while the caller
/// consumes chunk k's columns, up to depth further chunks' bytes stream
/// into a ring of buffers (common/async_io.h: pool pread tasks, or inline
/// preads without a pool — the same bytes arrive either way, and the FIFO
/// Wait re-orders out-of-order completions). Chunks are delivered
/// strictly in list order: consumers that apply per chunk keep their
/// deterministic call sequence at any queue depth, prefetch on or off.
///
/// The SpillFile must outlive the cursor and must not be appended to while
/// a cursor is live. Not thread-safe; one cursor per scan.
class SpillChunkCursor {
 public:
  SpillChunkCursor(const SpillFile& file, std::vector<uint32_t> chunks,
                   ThreadPool* pool,
                   uint32_t depth = AsyncFileReader::kDefaultDepth);
  ~SpillChunkCursor();

  /// Advances to the next chunk in the list, blocking only until ITS bytes
  /// landed (a further chunk's read is then started to keep the queue
  /// full). Returns false when the list is exhausted. A transiently
  /// failed read is retried
  /// synchronously up to the file's retry budget; a permanent failure (or
  /// exhausted budget) throws SpillIoError — the caller may then still
  /// recover the remaining chunks per-chunk (see RrStore::FinishColdScan).
  /// The spans below are valid until the next call.
  bool Next();

  /// Index (into file.chunks()) of the chunk Next() delivered.
  uint32_t chunk() const { return chunks_[pos_ - 1]; }
  std::span<const uint32_t> sizes() const;
  std::span<const graph::NodeId> nodes() const;

  /// High-water mark of reads in flight (see AsyncFileReader).
  uint64_t reads_in_flight_peak() const {
    return reader_.reads_in_flight_peak();
  }

 private:
  // The read request for list position idx, into its ring buffer (grown
  // to fit the chunk's payload).
  AsyncReadRequest RequestFor(size_t idx);
  const uint32_t* PayloadAt(size_t idx) const;

  const SpillFile& file_;
  std::vector<uint32_t> chunks_;
  size_t pos_ = 0;          // chunks consumed; reads are in flight for
                            // positions [pos_, pos_ + reader_.pending())
  size_t next_submit_ = 0;  // first list position not yet submitted
  // Ring of payload buffers (sizes column, then nodes); position idx uses
  // idx % size.
  std::vector<std::vector<uint32_t>> bufs_;
  AsyncFileReader reader_;
};

}  // namespace isa::rrset

#endif  // ISA_RRSET_SPILL_FILE_H_
