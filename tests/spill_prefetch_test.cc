// The cold-tier read path added on top of the out-of-core RR store:
// exclusive spill-file creation (no truncation/symlink following), the
// per-chunk Bloom filters and their scan counters, the SpillChunkCursor
// prefetch pipeline with and without a pool at queue depths 1 and 16,
// fault injection via the FailPoints registry (truncation/EOF is a
// permanent unit-level SpillIoError; a permanent cold-read fault mid-run
// is RECOVERED by re-sampling, a spill-write ENOSPC degrades to resident
// completion, and only an unrecoverable double fault still surfaces as
// Status::ResourceExhausted), and the end-to-end invariant: a fixed seed
// yields a bit-identical TiResult with the prefetch on or off, at queue
// depth 1 or 16, at 1/2/8 threads. Recovery bit-identity and the failure
// counters are covered in depth by spill_recovery_test.cc.

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <fstream>
#include <sstream>
#include <vector>

#include "common/async_io.h"
#include "common/failpoint.h"
#include "common/thread_pool.h"
#include "core/ti_greedy.h"
#include "graph/generators.h"
#include "gtest/gtest.h"
#include "rrset/parallel_sampler.h"
#include "rrset/rr_collection.h"
#include "rrset/spill_file.h"
#include "tests/test_util.h"
#include "topic/tic_model.h"

namespace isa {
namespace {

using core::RmInstance;
using core::RunTiGreedy;
using core::TiOptions;
using core::TiResult;
using graph::Graph;
using rrset::ParallelSampler;
using rrset::ParallelSamplerOptions;
using rrset::RrCollection;
using rrset::RrStore;
using rrset::SpillChunkCursor;
using rrset::SpillFile;
using rrset::SpillIoError;
using rrset::SpillOptions;

Graph MakeBaGraph(graph::NodeId n, uint32_t m, uint64_t seed = 9) {
  graph::BarabasiAlbertOptions opts;
  opts.num_nodes = n;
  opts.edges_per_node = m;
  opts.seed = seed;
  auto g = graph::GenerateBarabasiAlbert(opts);
  ISA_CHECK(g.ok());
  return std::move(g).value();
}

ParallelSampler MakeSampler(const Graph& g, std::span<const double> probs,
                            uint32_t threads, uint64_t seed = 123) {
  ParallelSamplerOptions opts;
  opts.num_threads = threads;
  opts.min_sets_per_thread = 1;
  return ParallelSampler(g, probs, rrset::DiffusionModel::kIndependentCascade,
                         seed, opts);
}

bool FileExists(const std::string& path) {
  struct stat st;
  return ::lstat(path.c_str(), &st) == 0;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// Clears any armed failpoints no matter how a test exits.
struct IoStateGuard {
  ~IoStateGuard() { FailPoints::Clear(); }
};

// The cursor's two read modes: pool pread tasks, and inline preads when
// there is no pool.
std::vector<ThreadPool*> PoolAndNoPool(ThreadPool& pool) {
  return {&pool, nullptr};
}

// ------------------------------------------------ exclusive file creation

TEST(SpillHardeningTest, ExclusiveCreateNeverTruncatesExistingFile) {
  const std::string path = rrset::MakeSpillPath();
  {
    std::ofstream out(path, std::ios::binary);
    out << "precious bytes";
  }
  std::string actual_path;
  {
    SpillFile file(path);
    // The constructor must step aside, not truncate: the pre-existing
    // file keeps its bytes and the spill lands under a fresh suffix.
    EXPECT_NE(file.path(), path);
    actual_path = file.path();
    EXPECT_TRUE(FileExists(actual_path));
    const std::vector<uint32_t> sizes = {2};
    const std::vector<graph::NodeId> nodes = {4, 5};
    file.AppendChunk(0, 1, sizes, nodes);
    std::vector<uint32_t> rs;
    std::vector<graph::NodeId> rn;
    file.ReadChunk(0, &rs, &rn);
    EXPECT_EQ(rn, nodes);
  }
  // The destructor removes only its own file.
  EXPECT_FALSE(FileExists(actual_path));
  EXPECT_EQ(ReadFile(path), "precious bytes");
  ::unlink(path.c_str());
}

TEST(SpillHardeningTest, SymlinkAtSpillPathIsNotFollowed) {
  const std::string target = rrset::MakeSpillPath();
  {
    std::ofstream out(target, std::ios::binary);
    out << "victim contents";
  }
  const std::string link = rrset::MakeSpillPath();
  ASSERT_EQ(::symlink(target.c_str(), link.c_str()), 0);
  {
    SpillFile file(link);
    EXPECT_NE(file.path(), link);
    EXPECT_NE(file.path(), target);
    const std::vector<uint32_t> sizes = {1};
    const std::vector<graph::NodeId> nodes = {7};
    file.AppendChunk(0, 1, sizes, nodes);
  }
  // Neither the symlink nor its target was written through or removed.
  EXPECT_TRUE(FileExists(link));
  EXPECT_EQ(ReadFile(target), "victim contents");
  ::unlink(link.c_str());
  ::unlink(target.c_str());
}

// ------------------------------------------------------ per-chunk Blooms

TEST(SpillBloomTest, NoFalseNegativesAndSaneFalsePositiveRate) {
  SpillFile file(rrset::MakeSpillPath(), /*bloom_bits_per_key=*/8);
  // One chunk holding every EVEN id below 4000 (2000 distinct members,
  // duplicates included to check they do not inflate the filter).
  std::vector<graph::NodeId> nodes;
  std::vector<uint32_t> sizes;
  for (graph::NodeId v = 0; v < 4000; v += 2) {
    nodes.push_back(v);
    nodes.push_back(v);  // duplicate
  }
  sizes.push_back(static_cast<uint32_t>(nodes.size()));
  file.AppendChunk(0, 1, sizes, nodes);

  // Bloom filters never produce false negatives.
  for (graph::NodeId v = 0; v < 4000; v += 2) {
    ASSERT_TRUE(file.ChunkMightContain(0, v)) << "member " << v;
  }
  // Absent ODD ids inside the envelope: only Bloom false positives pass.
  // 8 bits per distinct key with k = 3 gives ~3% FPR; assert a generous
  // ceiling so the test is not seed-sensitive.
  uint32_t false_positives = 0;
  uint32_t probes = 0;
  for (graph::NodeId v = 1; v < 4000; v += 2) {
    ++probes;
    if (file.ChunkMightContain(0, v)) ++false_positives;
  }
  EXPECT_LT(static_cast<double>(false_positives) / probes, 0.10)
      << false_positives << "/" << probes;
  // Outside the node envelope the answer is definitive regardless.
  EXPECT_FALSE(file.ChunkMightContain(0, 5000));

  // bloom_bits_per_key = 0 disables the filter: everything inside the
  // envelope might be present.
  SpillFile plain(rrset::MakeSpillPath(), 0);
  plain.AppendChunk(0, 1, sizes, nodes);
  EXPECT_TRUE(plain.ChunkMightContain(0, 1));
  EXPECT_FALSE(plain.ChunkMightContain(0, 5000));
  EXPECT_LT(plain.MetadataBytes(), file.MetadataBytes());
}

// ------------------------------------------------- SpillChunkCursor

TEST(SpillPrefetchTest, CursorMatchesReadChunkAcrossBackends) {
  IoStateGuard guard;
  SpillFile file(rrset::MakeSpillPath());
  // Five chunks of deterministic synthetic sets with varying shapes.
  std::vector<std::vector<uint32_t>> all_sizes;
  std::vector<std::vector<graph::NodeId>> all_nodes;
  uint64_t next_set = 0;
  for (uint32_t c = 0; c < 5; ++c) {
    std::vector<uint32_t> sizes;
    std::vector<graph::NodeId> nodes;
    for (uint32_t s = 0; s < 3 + c; ++s) {
      const uint32_t card = 1 + (s * 7 + c) % 5;
      sizes.push_back(card);
      for (uint32_t i = 0; i < card; ++i) {
        nodes.push_back(static_cast<graph::NodeId>(c * 1000 + s * 10 + i));
      }
    }
    file.AppendChunk(next_set, next_set + sizes.size(), sizes, nodes);
    next_set += sizes.size();
    all_sizes.push_back(std::move(sizes));
    all_nodes.push_back(std::move(nodes));
  }

  ThreadPool pool(4);
  for (ThreadPool* p : PoolAndNoPool(pool)) {
    for (const uint32_t depth : {1u, 16u}) {
      SCOPED_TRACE(testing::Message() << (p != nullptr ? "pool" : "no pool")
                                      << " depth " << depth);
      // Full walk and a filtered (skipping) walk both deliver exactly the
      // chunks asked for, in order, bytes intact.
      for (const std::vector<uint32_t>& want :
           {std::vector<uint32_t>{0, 1, 2, 3, 4}, std::vector<uint32_t>{1, 3},
            std::vector<uint32_t>{4}, std::vector<uint32_t>{}}) {
        SpillChunkCursor cursor(file, want, p, depth);
        size_t k = 0;
        while (cursor.Next()) {
          ASSERT_LT(k, want.size());
          EXPECT_EQ(cursor.chunk(), want[k]);
          const auto sizes = cursor.sizes();
          const auto nodes = cursor.nodes();
          EXPECT_TRUE(std::equal(sizes.begin(), sizes.end(),
                                 all_sizes[want[k]].begin(),
                                 all_sizes[want[k]].end()));
          EXPECT_TRUE(std::equal(nodes.begin(), nodes.end(),
                                 all_nodes[want[k]].begin(),
                                 all_nodes[want[k]].end()));
          ++k;
        }
        EXPECT_EQ(k, want.size());
      }
      // Abandoning a cursor mid-walk (prefetch in flight) must be safe: the
      // destructor drains the outstanding read.
      {
        SpillChunkCursor cursor(file, {0, 1, 2, 3, 4}, p, depth);
        ASSERT_TRUE(cursor.Next());
      }
    }
  }
}

// ------------------------------------------------- scan counters + skips

TEST(SpillPrefetchTest, ScanCountersPartitionConsideredChunks) {
  // A graph much larger than a chunk's distinct-member reach, so most
  // chunks genuinely lack most nodes and the Bloom filters have real
  // skips to find.
  const Graph g = MakeBaGraph(2000, 2);
  const std::vector<double> probs(g.num_edges(), 0.05);
  RrStore store(g.num_nodes());
  MakeSampler(g, probs, 1).SampleAppend(store, 3000);
  std::vector<std::vector<uint32_t>> expected(g.num_nodes());
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    expected[v] = store.SetsContaining(v);
  }
  SpillOptions so;
  so.chunk_target_bytes = 4u << 10;
  store.SpillPrefix(3000, so);
  const uint64_t num_chunks = store.SpillChunks();
  ASSERT_GT(num_chunks, 4u);

  uint64_t scans = 0;
  for (graph::NodeId v = 0; v < g.num_nodes(); v += 13) {
    const uint64_t reloads0 = store.scan_reloads();
    const uint64_t read0 = store.chunks_read();
    const uint64_t skip0 = store.chunks_skipped();
    std::vector<uint32_t> got;
    store.ForEachSpilledSetContaining(
        v, 3000, nullptr, {},
        [&](uint64_t r, std::span<const graph::NodeId>) {
          got.push_back(static_cast<uint32_t>(r));
        });
    // Clustered chunks emit in chunk order, not globally ascending;
    // the SET of emitted ids must still match exactly.
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expected[v]) << "node " << v;
    ++scans;
    // Every spilled chunk overlaps [0, 3000): each scan considers all of
    // them, and read/skipped partition exactly that set.
    EXPECT_EQ(store.scan_reloads(), reloads0 + 1);
    EXPECT_EQ((store.chunks_read() - read0) + (store.chunks_skipped() - skip0),
              num_chunks);
  }
  EXPECT_EQ(store.scan_reloads(), scans);
  // The filters must be earning skips on this fixture (most nodes are
  // absent from most chunks), while every emitted hit above proves reads
  // were never skipped wrongly.
  EXPECT_GT(store.chunks_skipped(), 0u);
  EXPECT_GT(store.chunks_read(), 0u);
}

// ------------------------------------------------- prefetch = no-op state

TEST(SpillPrefetchTest, PrefetchedRemoveCoveredByMatchesPlain) {
  const Graph g = MakeBaGraph(300, 3);
  const std::vector<double> probs(g.num_edges(), 0.1);
  ThreadPool pool(4);

  RrCollection plain(g.num_nodes());
  RrCollection prefetched(g.num_nodes());
  {
    ParallelSampler s1 = MakeSampler(g, probs, 1);
    plain.AddSets(s1, 3000, {});
  }
  {
    ParallelSampler s2 = MakeSampler(g, probs, 1);
    prefetched.AddSets(s2, 3000, {});
  }
  SpillOptions so;
  so.chunk_target_bytes = 1u << 13;
  plain.store()->SpillPrefix(1500, so);
  prefetched.store()->SpillPrefix(1500, so);

  std::vector<graph::NodeId> touched_a, touched_b;
  uint32_t step = 0;
  for (const graph::NodeId seed : {7u, 42u, 199u, 42u, 0u, 250u}) {
    // Exercise all three prefetch shapes: exact prefetch, stale prefetch
    // for a different node (must be discarded), and no prefetch.
    if (step % 3 == 0) {
      prefetched.PrefetchRemoveCoveredBy(seed, &pool);
    } else if (step % 3 == 1) {
      prefetched.PrefetchRemoveCoveredBy(seed + 1, &pool);
    }
    ++step;
    const uint32_t removed_a = plain.RemoveCoveredBy(seed, &touched_a);
    const uint32_t removed_b =
        prefetched.RemoveCoveredBy(seed, &touched_b, &pool);
    ASSERT_EQ(removed_a, removed_b) << "seed " << seed;
    ASSERT_EQ(touched_a, touched_b) << "seed " << seed;
    ASSERT_EQ(plain.covered_sets(), prefetched.covered_sets());
    for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
      ASSERT_EQ(plain.CoverageOf(v), prefetched.CoverageOf(v))
          << "seed " << seed << " node " << v;
    }
  }
}

// --------------------------------------------------------- fault injection

TEST(SpillFaultTest, TruncatedFileSurfacesEofAcrossBackends) {
  IoStateGuard guard;
  ThreadPool pool(2);
  for (ThreadPool* p : PoolAndNoPool(pool)) {
    SCOPED_TRACE(p != nullptr ? "pool" : "no pool");
    SpillFile file(rrset::MakeSpillPath());
    const std::vector<uint32_t> sizes = {2, 1};
    const std::vector<graph::NodeId> nodes = {1, 2, 3};
    file.AppendChunk(0, 2, sizes, nodes);
    file.AppendChunk(2, 4, sizes, nodes);
    // Cut into the SECOND chunk's payload: chunk 0 still reads fine, the
    // pipelined read of chunk 1 comes up short and must surface as
    // SpillIoError (unexpected EOF), not as silent truncation.
    ASSERT_EQ(::truncate(file.path().c_str(),
                         static_cast<off_t>(file.chunks()[1].file_offset + 4)),
              0);
    SpillChunkCursor cursor(file, {0, 1}, p);
    ASSERT_TRUE(cursor.Next());
    EXPECT_EQ(cursor.chunk(), 0u);
    EXPECT_THROW(cursor.Next(), SpillIoError);
    // The non-pipelined read path reports the same condition.
    std::vector<uint32_t> rs;
    std::vector<graph::NodeId> rn;
    EXPECT_THROW(file.ReadChunk(1, &rs, &rn), SpillIoError);
  }
}

TEST(SpillFaultTest, InjectedReadErrorSurfacesAsSpillIoError) {
  IoStateGuard guard;
  ThreadPool pool(2);
  for (ThreadPool* p : PoolAndNoPool(pool)) {
    SCOPED_TRACE(p != nullptr ? "pool" : "no pool");
    SpillFile file(rrset::MakeSpillPath());
    const std::vector<uint32_t> sizes = {1};
    const std::vector<graph::NodeId> nodes = {9};
    file.AppendChunk(0, 1, sizes, nodes);
    // Raw SpillFile/cursor reads have no re-sampling fallback: a
    // permanent EIO (injected on every read so the retry path cannot
    // sidestep it) must surface as SpillIoError.
    ASSERT_TRUE(FailPoints::Arm("spill.read.eio@every:1").ok());
    SpillChunkCursor cursor(file, {0}, p);
    EXPECT_THROW(cursor.Next(), SpillIoError);
    FailPoints::Clear();
  }
}

// The driver contract: permanent cold-tier faults mid-run DEGRADE instead
// of aborting — lost chunks are re-sampled from their recorded substream
// seeds (read side), a failed spill write disables eviction and the run
// finishes resident (write side). Only an unrecoverable double fault
// still surfaces as Status::ResourceExhausted, never as a crash or a
// silently wrong result.
struct SpillFaultEndToEndFixture {
  Graph g = MakeBaGraph(150, 9);
  std::unique_ptr<RmInstance> instance;

  SpillFaultEndToEndFixture() {
    auto topics = topic::MakeUniform(g, 1, 0.8);
    ISA_CHECK(topics.ok());
    std::vector<core::AdvertiserSpec> ads(3);
    ads[0].cpe = 0.2;
    ads[0].budget = 30.0;
    ads[1].cpe = 0.15;
    ads[1].budget = 25.0;
    ads[2].cpe = 0.25;
    ads[2].budget = 35.0;
    for (auto& ad : ads) ad.gamma = topic::TopicDistribution::Uniform(1);
    std::vector<std::vector<double>> incentives(
        3, std::vector<double>(g.num_nodes(), 1.0));
    auto inst = RmInstance::Create(g, topics.value(), std::move(ads),
                                   std::move(incentives));
    ISA_CHECK(inst.ok());
    instance = std::make_unique<RmInstance>(std::move(inst).value());
  }

  TiOptions BudgetedOptions() const {
    TiOptions options;
    options.epsilon = 0.3;
    options.seed = 1234;
    options.theta_cap = 200'000;
    options.num_threads = 2;
    options.rr_memory_budget_bytes = 1;  // spill + rescan constantly
    return options;
  }
};

TEST(SpillFaultTest, ReadErrorIsRecoveredByResampling) {
  IoStateGuard guard;
  SpillFaultEndToEndFixture f;
  // EVERY cold read fails with EIO — the per-chunk re-read fallback can
  // never sidestep the fault, so every consulted chunk is rebuilt by
  // re-sampling. The run must complete and say so in the counters
  // (bit-identity with the fault-free run is spill_recovery_test.cc's
  // job).
  ASSERT_TRUE(FailPoints::Arm("spill.read.eio@every:1").ok());
  auto run = RunTiGreedy(*f.instance, f.BudgetedOptions());
  FailPoints::Clear();
  ASSERT_TRUE(run.ok()) << run.status().message();
  EXPECT_GT(run.value().total_degradation_events, 0u);
  EXPECT_GT(run.value().total_recovered_sets, 0u);
}

TEST(SpillFaultTest, UnrecoverableReadErrorSurfacesAsResourceExhausted) {
  IoStateGuard guard;
  SpillFaultEndToEndFixture f;
  // Double fault: the cold read fails AND the re-sample recovery path
  // fails. The original fail-stop contract still holds.
  ASSERT_TRUE(
      FailPoints::Arm("spill.read.eio@every:1,spill.resample.throw@1").ok());
  auto run = RunTiGreedy(*f.instance, f.BudgetedOptions());
  FailPoints::Clear();
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kResourceExhausted);
}

TEST(SpillFaultTest, EnospcOnSpillWriteDegradesToResidentCompletion) {
  IoStateGuard guard;
  SpillFaultEndToEndFixture f;
  // The 3rd spill write fails with ENOSPC: that store's tier disables
  // eviction and the run finishes resident instead of aborting.
  ASSERT_TRUE(FailPoints::Arm("spill.write.enospc@3").ok());
  auto run = RunTiGreedy(*f.instance, f.BudgetedOptions());
  FailPoints::Clear();
  ASSERT_TRUE(run.ok()) << run.status().message();
  EXPECT_GT(run.value().total_degradation_events, 0u);
}

// ------------------------------------------------ end-to-end bit identity

// The acceptance gate: queue depth 1 (one read outstanding) vs 16, at
// 1/2/8 threads (1 thread = no pool workers, so reads run inline) — all
// bit-identical to the unbudgeted single-thread reference.
TEST(SpillPrefetchTest, TiResultBitIdenticalAcrossBackendsAndThreads) {
  IoStateGuard guard;
  SpillFaultEndToEndFixture f;
  TiOptions options = f.BudgetedOptions();
  options.rr_memory_budget_bytes = 0;
  options.num_threads = 1;
  auto unbudgeted = RunTiGreedy(*f.instance, options);
  ASSERT_TRUE(unbudgeted.ok());
  const TiResult& reference = unbudgeted.value();
  ASSERT_GT(reference.total_seeds, 0u);
  uint64_t max_store_bytes = 0;
  for (const auto& st : reference.ad_stats) {
    max_store_bytes = std::max(max_store_bytes, st.rr_memory_bytes);
  }
  options.rr_memory_budget_bytes = max_store_bytes / 2;
  options.spill_chunk_bytes = 16u << 10;  // several chunks to pipeline

  for (const uint32_t depth : {1u, 16u}) {
    options.io_ring_depth = depth;
    for (uint32_t threads : {1u, 2u, 8u}) {
      SCOPED_TRACE(testing::Message()
                   << "depth " << depth << " " << threads << " threads");
      options.num_threads = threads;
      auto budgeted = RunTiGreedy(*f.instance, options);
      ASSERT_TRUE(budgeted.ok()) << budgeted.status().message();
      const TiResult& r = budgeted.value();
      EXPECT_EQ(reference.allocation.seed_sets, r.allocation.seed_sets);
      EXPECT_EQ(reference.total_revenue, r.total_revenue);  // bitwise
      EXPECT_EQ(reference.total_seeding_cost, r.total_seeding_cost);
      EXPECT_EQ(reference.total_seeds, r.total_seeds);
      EXPECT_EQ(reference.total_theta, r.total_theta);
      EXPECT_EQ(reference.total_growth_events, r.total_growth_events);
      // The run must exercise the pipeline for the comparison to mean
      // anything: chunks were read, and the budget genuinely bit.
      EXPECT_GT(r.total_spilled_bytes, 0u);
      EXPECT_GT(r.total_scan_reloads, 0u);
      EXPECT_GT(r.total_chunks_read, 0u);
    }
  }
}

}  // namespace
}  // namespace isa
