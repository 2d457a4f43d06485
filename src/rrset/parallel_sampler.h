// Deterministic parallel RR-set sampling.
//
// The serial path (RrStore::Sample) draws sets from one sequential Rng
// stream, which fundamentally cannot be parallelized without replaying the
// stream. ParallelSampler instead assigns every RR set an *absolute id* —
// its index in the destination RrStore — and derives an independent Rng
// substream per set via HashSeed(base_seed, set_id) (the substream
// construction in common/rng.h). Consequences:
//
//   - set `i`'s content depends only on (base_seed, i): sampling with 1, 2
//     or 64 workers yields bit-identical stores;
//   - workers take contiguous id ranges, sample into private shard buffers,
//     and the shards are merged into the store in ascending id order — the
//     merge order is keyed by (shard, index), never by completion time;
//   - repeated SampleAppend calls continue the id sequence exactly where
//     the store left off, so incremental sample growth (Algorithm 2 line
//     19) is as deterministic as one big batch.
//
// Execution: shard tasks run on a ThreadPool — either one *borrowed*
// through ParallelSamplerOptions::pool (the shared per-RunTiGreedy pool,
// so the driver's many samplers reuse one set of threads) or, for
// standalone use, a pool the sampler lazily creates and owns. Either way
// no thread is spawned per batch. The per-set Rng re-seed costs four
// SplitMix64 draws — noise next to the reverse BFS each set runs. Each
// worker keeps its own RrSampler (epoch array), reused across calls.

#ifndef ISA_RRSET_PARALLEL_SAMPLER_H_
#define ISA_RRSET_PARALLEL_SAMPLER_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/rng.h"
#include "graph/graph.h"
#include "rrset/rr_collection.h"
#include "rrset/rr_sampler.h"

namespace isa {
class ThreadPool;
}

namespace isa::rrset {

struct ParallelSamplerOptions {
  /// Worker threads. 0 = std::thread::hardware_concurrency() (or, when
  /// `pool` is set, the pool's concurrency); 1 = run inline on the calling
  /// thread (legacy execution path) — the sampled sets are identical either
  /// way, only wall-clock changes.
  uint32_t num_threads = 0;
  /// Below this many sets per would-be worker, fewer workers are used
  /// (down to inline execution): parallel dispatch for a handful of sets
  /// costs more than it saves.
  uint64_t min_sets_per_thread = 64;
  /// Borrowed pool to run shard tasks on (not owned; must outlive the
  /// sampler). When null, the sampler lazily creates a private pool the
  /// first time a batch is worth parallelizing.
  ThreadPool* pool = nullptr;
};

/// Samples RR sets for one (graph, arc-probability) pair across a worker
/// pool, appending to an RrStore in deterministic order. Not thread-safe
/// itself (one ParallelSampler per advertiser, as with RrSampler), though
/// many samplers may share one borrowed pool — including reentrantly from
/// tasks already running on that pool (see common/thread_pool.h).
class ParallelSampler {
 public:
  /// `probs` is indexed by forward EdgeId and must outlive the sampler.
  ParallelSampler(const graph::Graph& g, std::span<const double> probs,
                  DiffusionModel model, uint64_t base_seed,
                  ParallelSamplerOptions options = {});
  // Out of line: the owned pool's deleter needs the complete ThreadPool.
  ~ParallelSampler();
  ParallelSampler(ParallelSampler&&) noexcept;

  /// Samples `count` RR sets with absolute ids [store.num_sets(),
  /// store.num_sets() + count) and appends them to `store` in id order.
  void SampleAppend(RrStore& store, uint64_t count);

  /// Samples `count` RR sets with absolute ids [first_id, first_id + count)
  /// into caller buffers (cleared first) without touching any store:
  /// `sizes` holds one cardinality per set, `nodes` the concatenated
  /// members, both in id order — exactly what RrStore::AppendBatch takes.
  /// This is the async θ-growth path: the selection scheduler launches this
  /// on pool workers while selection rounds proceed against the unmodified
  /// store, then appends + adopts at a deterministic barrier. Content
  /// depends only on (base_seed, id), never on worker count or timing.
  void SampleToBuffer(uint64_t first_id, uint64_t count,
                      std::vector<graph::NodeId>* nodes,
                      std::vector<uint32_t>* sizes);

  /// Workers that would be used for a `count`-set batch (diagnostics).
  uint32_t WorkerCountFor(uint64_t count) const;

  /// The pool shard tasks run on: the borrowed one, or the lazily created
  /// private one. Null when this sampler is single-threaded (max_threads
  /// 1) and will never parallelize. Exposed so downstream consumers of a
  /// batch (index build, coverage adoption) can share the same threads.
  ThreadPool* pool();

  uint64_t base_seed() const { return base_seed_; }
  uint32_t max_threads() const { return max_threads_; }

 private:
  // One worker's output: sets [first_id, first_id + sizes.size()) as
  // concatenated members plus per-set sizes.
  struct Shard {
    std::vector<uint32_t> sizes;
    std::vector<graph::NodeId> nodes;
  };

  // Samples ids [first_id, first_id + count) into `shard` using the
  // worker-private sampler `w`.
  void SampleRange(uint32_t w, uint64_t first_id, uint64_t count,
                   Shard* shard);

  const graph::Graph& g_;
  std::span<const double> probs_;
  DiffusionModel model_;
  uint64_t base_seed_;
  uint64_t min_sets_per_thread_;
  uint32_t max_threads_;
  ThreadPool* borrowed_pool_;
  std::unique_ptr<ThreadPool> owned_pool_;
  // Worker-private samplers (epoch arrays), created lazily, reused across
  // SampleAppend calls.
  std::vector<std::unique_ptr<RrSampler>> workers_;
};

}  // namespace isa::rrset

#endif  // ISA_RRSET_PARALLEL_SAMPLER_H_
