// The out-of-core RR store: SpillFile round-trips, RrStore::SpillPrefix
// mechanics and chunk layout, cold-tier coverage removal equivalence, the
// TieredRrStore
// budget policy, and the end-to-end invariant — a fixed seed yields a
// bit-identical TiResult at any thread count and ANY memory budget
// (spilling changes where bytes live, never what is computed).

#include <sys/stat.h>

#include <algorithm>
#include <bit>
#include <fstream>
#include <functional>
#include <iterator>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/ti_greedy.h"
#include "graph/generators.h"
#include "gtest/gtest.h"
#include "rrset/parallel_sampler.h"
#include "rrset/rr_collection.h"
#include "rrset/spill_file.h"
#include "rrset/tiered_store.h"
#include "tests/test_util.h"
#include "topic/tic_model.h"

namespace isa {
namespace {

using core::CandidateRule;
using core::RmInstance;
using core::RunTiGreedy;
using core::SelectionRule;
using core::TiOptions;
using core::TiResult;
using graph::Graph;
using rrset::ParallelSampler;
using rrset::ParallelSamplerOptions;
using rrset::RrCollection;
using rrset::RrStore;
using rrset::SpillFile;
using rrset::SpillOptions;
using rrset::TieredRrStore;
using rrset::TieredStoreOptions;

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
  return ::stat(path.c_str(), &st) == 0;
}

// ------------------------------------------------------------- SpillFile

TEST(SpillFileTest, RoundTripChunksAndFooters) {
  const std::string path = rrset::MakeSpillPath();
  {
    SpillFile file(path);
    // Chunk 0: sets [0, 3) with members {5}, {7, 2}, {9, 9, 4}.
    const std::vector<uint32_t> sizes0 = {1, 2, 3};
    const std::vector<graph::NodeId> nodes0 = {5, 7, 2, 9, 9, 4};
    file.AppendChunk(0, 3, sizes0, nodes0);
    // Chunk 1: sets [3, 5) with members {1}, {8, 3}.
    const std::vector<uint32_t> sizes1 = {1, 2};
    const std::vector<graph::NodeId> nodes1 = {1, 8, 3};
    file.AppendChunk(3, 5, sizes1, nodes1);

    ASSERT_EQ(file.num_chunks(), 2u);
    const auto chunks = file.chunks();
    EXPECT_EQ(chunks[0].set_lo, 0u);
    EXPECT_EQ(chunks[0].set_hi, 3u);
    EXPECT_EQ(chunks[0].node_min, 2u);
    EXPECT_EQ(chunks[0].node_max, 9u);
    EXPECT_EQ(chunks[0].postings, 6u);
    EXPECT_EQ(chunks[1].set_lo, 3u);
    EXPECT_EQ(chunks[1].node_min, 1u);
    EXPECT_EQ(chunks[1].node_max, 8u);
    EXPECT_GT(file.bytes_on_disk(), 0u);
    EXPECT_TRUE(FileExists(path));

    std::vector<uint32_t> sizes;
    std::vector<graph::NodeId> nodes;
    file.ReadChunk(0, &sizes, &nodes);
    EXPECT_EQ(sizes, sizes0);
    EXPECT_EQ(nodes, nodes0);
    file.ReadChunk(1, &sizes, &nodes);
    EXPECT_EQ(sizes, sizes1);
    EXPECT_EQ(nodes, nodes1);
  }
  // The chunk file is a cache, not a persistence format: gone with the
  // object.
  EXPECT_FALSE(FileExists(path));
}

// Pins the on-disk layout: every chunk region starts and ends on a
// 4096-byte boundary with the v3 footer ("ISA3" magic, version 3) flush
// against its end, so spilled_bytes stays a multiple of the region size.
TEST(SpillFileTest, ChunkRegionsArePaddedTo4KiBWithTrailingFooter) {
  SpillFile file(rrset::MakeSpillPath());
  const std::vector<uint32_t> sizes = {3, 1};
  const std::vector<graph::NodeId> nodes = {5, 7, 2, 9};
  file.AppendChunk(0, 2, sizes, nodes);
  file.AppendChunk(2, 4, sizes, nodes);
  ASSERT_EQ(SpillFile::kRegionAlignment, 4096u);
  EXPECT_EQ(file.bytes_on_disk(), 2u * 4096u);
  EXPECT_EQ(file.chunks()[0].file_offset, 0u);
  EXPECT_EQ(file.chunks()[1].file_offset, 4096u);
  std::ifstream in(file.path(), std::ios::binary);
  for (const uint64_t region_end : {4096u, 8192u}) {
    // The footer's last 16 bytes: num_sets, version, magic, pad.
    uint32_t tail[4] = {};
    in.seekg(static_cast<std::streamoff>(region_end - sizeof(tail)));
    in.read(reinterpret_cast<char*>(tail), sizeof(tail));
    ASSERT_TRUE(in.good());
    EXPECT_EQ(tail[0], 2u);           // num_sets
    EXPECT_EQ(tail[1], 3u);           // version
    EXPECT_EQ(tail[2], 0x33415349u);  // "ISA3"
  }
}

// --------------------------------------------------- RrStore::SpillPrefix

struct SpilledStoreCase {
  RrStore store;
  std::vector<std::vector<graph::NodeId>> members;       // per set, pre-spill
  std::vector<std::vector<uint32_t>> sets_containing;    // per node, pre-spill

  explicit SpilledStoreCase(const Graph& g, uint64_t sets) : store(g.num_nodes()) {
    const std::vector<double> probs(g.num_edges(), 0.1);
    MakeSampler(g, probs, /*threads=*/1).SampleAppend(store, sets);
    for (uint64_t r = 0; r < store.num_sets(); ++r) {
      auto m = store.SetMembers(r);
      members.emplace_back(m.begin(), m.end());
    }
    for (graph::NodeId v = 0; v < store.num_nodes(); ++v) {
      sets_containing.push_back(store.SetsContaining(v));
    }
  }
};

// Collects ForEachSpilledSetContaining(v) into (id, members) pairs.
std::vector<std::pair<uint64_t, std::vector<graph::NodeId>>> SpilledHits(
    const RrStore& store, graph::NodeId v, uint64_t max_id,
    ThreadPool* pool = nullptr, std::span<const uint8_t> alive = {}) {
  std::vector<std::pair<uint64_t, std::vector<graph::NodeId>>> out;
  store.ForEachSpilledSetContaining(
      v, max_id, pool, alive,
      [&](uint64_t r, std::span<const graph::NodeId> m) {
        out.emplace_back(r, std::vector<graph::NodeId>(m.begin(), m.end()));
      });
  return out;
}

TEST(SpillStoreTest, SpillPrefixPreservesQueriesAndShrinksMemory) {
  const Graph g = MakeBaGraph(300, 3);
  SpilledStoreCase c(g, 4000);
  RrStore& store = c.store;
  const uint64_t bytes_before = store.MemoryBytes();
  const double mean_before = store.MeanSetSize();

  SpillOptions so;
  so.path = rrset::MakeSpillPath();
  so.chunk_target_bytes = 1u << 14;  // several chunks
  store.SpillPrefix(2000, so);

  EXPECT_EQ(store.num_sets(), 4000u);
  EXPECT_EQ(store.first_resident_set(), 2000u);
  EXPECT_GT(store.SpilledBytes(), 0u);
  EXPECT_GT(store.SpillChunks(), 1u);
  EXPECT_LT(store.MemoryBytes(), bytes_before);
  EXPECT_DOUBLE_EQ(store.MeanSetSize(), mean_before);

  // Hot sets read back unchanged; the index now stops at the frontier.
  for (uint64_t r = 2000; r < 4000; ++r) {
    const auto m = store.SetMembers(r);
    ASSERT_TRUE(std::equal(m.begin(), m.end(), c.members[r].begin(),
                           c.members[r].end()))
        << "set " << r;
  }
  for (graph::NodeId v = 0; v < store.num_nodes(); ++v) {
    std::vector<uint32_t> expected_hot;
    for (uint32_t r : c.sets_containing[v]) {
      if (r >= 2000) expected_hot.push_back(r);
    }
    EXPECT_EQ(store.SetsContaining(v), expected_hot) << "node " << v;
  }

  // The cold tier serves exactly the spilled sets, ascending, with their
  // original members.
  const uint64_t reloads_before = store.scan_reloads();
  for (graph::NodeId v = 0; v < store.num_nodes(); ++v) {
    const auto hits = SpilledHits(store, v, 4000);
    std::vector<uint32_t> expected_cold;
    for (uint32_t r : c.sets_containing[v]) {
      if (r < 2000) expected_cold.push_back(r);
    }
    ASSERT_EQ(hits.size(), expected_cold.size()) << "node " << v;
    for (size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].first, expected_cold[i]);
      EXPECT_EQ(hits[i].second, c.members[expected_cold[i]]);
    }
  }
  EXPECT_GT(store.scan_reloads(), reloads_before);

  // Spill the rest: the store can go fully cold and still serve scans.
  store.SpillPrefix(4000, so);
  EXPECT_EQ(store.first_resident_set(), 4000u);
  const auto hits = SpilledHits(store, 0, 4000);
  std::vector<uint32_t> expected;
  for (uint32_t r : c.sets_containing[0]) expected.push_back(r);
  ASSERT_EQ(hits.size(), expected.size());
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].first, expected[i]);
  }
}

TEST(SpillStoreTest, ParallelScanMatchesSerial) {
  const Graph g = MakeBaGraph(300, 3);
  SpilledStoreCase c(g, 4000);
  SpillOptions so;
  so.chunk_target_bytes = 1u << 12;  // many chunks so the pool has work
  c.store.SpillPrefix(3500, so);
  ASSERT_GT(c.store.SpillChunks(), 3u);

  ThreadPool pool(4);
  for (graph::NodeId v = 0; v < c.store.num_nodes(); v += 7) {
    const auto serial = SpilledHits(c.store, v, 4000, nullptr);
    const auto parallel = SpilledHits(c.store, v, 4000, &pool);
    ASSERT_EQ(serial.size(), parallel.size()) << "node " << v;
    for (size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(serial[i].first, parallel[i].first);
      EXPECT_EQ(serial[i].second, parallel[i].second);
    }
  }
}

// The alive filter must drop sets before the membership scan (the
// RemoveCoveredBy alive flags ride on it, so covered sets cost nothing);
// serial and pooled paths must agree on the filtered view.
TEST(SpillStoreTest, AliveFilterDropsBeforeEmit) {
  const Graph g = MakeBaGraph(200, 3);
  SpilledStoreCase c(g, 1500);
  SpillOptions so;
  so.chunk_target_bytes = 1u << 12;
  c.store.SpillPrefix(1500, so);

  ThreadPool pool(4);
  std::vector<uint8_t> even_only(1500);
  for (size_t r = 0; r < even_only.size(); ++r) even_only[r] = r % 2 == 0;
  for (graph::NodeId v = 0; v < c.store.num_nodes(); v += 11) {
    std::vector<uint32_t> expected;
    for (uint32_t r : c.sets_containing[v]) {
      if (r % 2 == 0) expected.push_back(r);
    }
    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
      const auto hits = SpilledHits(c.store, v, 1500, p, even_only);
      ASSERT_EQ(hits.size(), expected.size()) << "node " << v;
      for (size_t i = 0; i < hits.size(); ++i) {
        EXPECT_EQ(hits[i].first, expected[i]);
        EXPECT_EQ(hits[i].second, c.members[expected[i]]);
      }
    }
  }
}

TEST(SpillStoreTest, OneSetPerChunkDegenerateTarget) {
  const Graph g = MakeBaGraph(120, 3);
  SpilledStoreCase c(g, 500);
  SpillOptions so;
  so.chunk_target_bytes = 1;  // smaller than any set: one set per chunk
  c.store.SpillPrefix(500, so);
  EXPECT_EQ(c.store.SpillChunks(), 500u);
  const auto hits = SpilledHits(c.store, 5, 500);
  std::vector<uint32_t> expected;
  for (uint32_t r : c.sets_containing[5]) expected.push_back(r);
  ASSERT_EQ(hits.size(), expected.size());
}

// ------------------------------------------- cold-tier coverage removal

// The same seed-commit sequence over a resident-only store and a spilled
// store must produce identical coverage state — RemoveCoveredBy is the one
// consumer that re-reads cold members.
TEST(SpillCollectionTest, RemoveCoveredByMatchesResidentStore) {
  const Graph g = MakeBaGraph(300, 3);
  const std::vector<double> probs(g.num_edges(), 0.1);
  ThreadPool pool(4);

  for (const bool use_pool : {false, true}) {
    SCOPED_TRACE(use_pool ? "pooled scan" : "serial scan");
    RrCollection resident(g.num_nodes());
    RrCollection spilled(g.num_nodes());
    {
      ParallelSampler s1 = MakeSampler(g, probs, 1);
      resident.AddSets(s1, 3000, {});
    }
    {
      ParallelSampler s2 = MakeSampler(g, probs, 1);
      spilled.AddSets(s2, 3000, {});
    }
    SpillOptions so;
    so.chunk_target_bytes = 1u << 13;
    spilled.store()->SpillPrefix(1500, so);

    std::vector<graph::NodeId> touched_a, touched_b;
    for (const graph::NodeId seed : {7u, 42u, 199u, 42u, 0u, 250u}) {
      const uint32_t removed_a = resident.RemoveCoveredBy(seed, &touched_a);
      const uint32_t removed_b = spilled.RemoveCoveredBy(
          seed, &touched_b, use_pool ? &pool : nullptr);
      ASSERT_EQ(removed_a, removed_b) << "seed " << seed;
      ASSERT_EQ(touched_a, touched_b) << "seed " << seed;
      ASSERT_EQ(resident.covered_sets(), spilled.covered_sets());
      for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
        ASSERT_EQ(resident.CoverageOf(v), spilled.CoverageOf(v))
            << "seed " << seed << " node " << v;
      }
    }
  }
}

// ------------------------------------------------------- TieredRrStore

TEST(SpillTieredTest, BudgetLargerThanEverythingIsNoOp) {
  const Graph g = MakeBaGraph(120, 3);
  auto store = std::make_shared<RrStore>(g.num_nodes());
  const std::vector<double> probs(g.num_edges(), 0.1);
  MakeSampler(g, probs, 1).SampleAppend(*store, 1000);
  const uint64_t bytes = store->MemoryBytes();

  TieredStoreOptions to;
  to.rr_memory_budget_bytes = bytes * 100;
  TieredRrStore tier(store, to);
  tier.MaybeSpill(store->num_sets());
  EXPECT_EQ(store->first_resident_set(), 0u);
  EXPECT_EQ(store->SpilledBytes(), 0u);
  EXPECT_EQ(tier.spill_events(), 0u);
  EXPECT_EQ(store->MemoryBytes(), bytes);  // untouched, byte for byte
  EXPECT_EQ(tier.meter().peak_bytes(), bytes);
  EXPECT_EQ(tier.meter().spilled_bytes(), 0u);
}

TEST(SpillTieredTest, TinyBudgetSpillsEverythingEvictable) {
  const Graph g = MakeBaGraph(120, 3);
  auto store = std::make_shared<RrStore>(g.num_nodes());
  const std::vector<double> probs(g.num_edges(), 0.1);
  MakeSampler(g, probs, 1).SampleAppend(*store, 1000);
  const uint64_t bytes_before = store->MemoryBytes();

  TieredStoreOptions to;
  to.rr_memory_budget_bytes = 1;  // smaller than any chunk
  to.chunk_target_bytes = 1u << 12;
  TieredRrStore tier(store, to);
  // Only fully-adopted ids may go: cap at 600 first.
  tier.MaybeSpill(600);
  EXPECT_EQ(store->first_resident_set(), 600u);
  tier.MaybeSpill(1000);
  EXPECT_EQ(store->first_resident_set(), 1000u);
  EXPECT_EQ(tier.spill_events(), 2u);
  EXPECT_LT(store->MemoryBytes(), bytes_before);
  EXPECT_GT(tier.meter().spilled_bytes(), 0u);
  // Budget already satisfied or nothing evictable: further calls no-op.
  tier.MaybeSpill(1000);
  EXPECT_EQ(tier.spill_events(), 2u);
}

// ------------------------------------------------------------ end to end

// High-influence fixture (as in advertiser_engine_test.cc): θ-growth
// engages several times per run, which puts growths into a spilling store
// on the hot path.
struct SpillEndToEndFixture {
  Graph g = MakeBaGraph(150, 9);
  std::unique_ptr<RmInstance> instance;

  SpillEndToEndFixture() {
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

  TiOptions BaseOptions() const {
    TiOptions options;
    options.epsilon = 0.3;
    options.seed = 1234;
    options.theta_cap = 200'000;
    return options;
  }
};

// Everything the algorithm computes — never the memory/spill statistics,
// which legitimately differ across budgets.
void ExpectComputedResultsIdentical(const TiResult& a, const TiResult& b) {
  EXPECT_EQ(a.allocation.seed_sets, b.allocation.seed_sets);
  EXPECT_EQ(a.total_revenue, b.total_revenue);  // bitwise
  EXPECT_EQ(a.total_seeding_cost, b.total_seeding_cost);
  EXPECT_EQ(a.total_seeds, b.total_seeds);
  EXPECT_EQ(a.total_theta, b.total_theta);
  EXPECT_EQ(a.total_growth_events, b.total_growth_events);
  EXPECT_EQ(a.ads_growth_engaged, b.ads_growth_engaged);
  EXPECT_EQ(a.ads_growth_idle, b.ads_growth_idle);
  EXPECT_EQ(a.total_theta_cap_hits, b.total_theta_cap_hits);
  ASSERT_EQ(a.ad_stats.size(), b.ad_stats.size());
  for (size_t j = 0; j < a.ad_stats.size(); ++j) {
    SCOPED_TRACE(testing::Message() << "ad " << j);
    EXPECT_EQ(a.ad_stats[j].theta, b.ad_stats[j].theta);
    EXPECT_EQ(a.ad_stats[j].latent_seed_size, b.ad_stats[j].latent_seed_size);
    EXPECT_EQ(a.ad_stats[j].revenue, b.ad_stats[j].revenue);
    EXPECT_EQ(a.ad_stats[j].payment, b.ad_stats[j].payment);
    EXPECT_EQ(a.ad_stats[j].seeding_cost, b.ad_stats[j].seeding_cost);
    EXPECT_EQ(a.ad_stats[j].sample_growth_events,
              b.ad_stats[j].sample_growth_events);
    EXPECT_EQ(a.ad_stats[j].idle_growth_revisions,
              b.ad_stats[j].idle_growth_revisions);
    EXPECT_EQ(a.ad_stats[j].theta_cap_hits, b.ad_stats[j].theta_cap_hits);
  }
}

// Budget at ~50% of the largest store: spills genuinely happen, results
// stay bit-identical at 1/2/8 threads.
TEST(SpillEndToEndTest, TiResultBitIdenticalAtHalfBudgetAcrossThreads) {
  SpillEndToEndFixture f;
  struct Config {
    const char* name;
    CandidateRule rule;
    SelectionRule sel;
    uint32_t window;
  };
  const Config configs[] = {
      {"coverage", CandidateRule::kCoverage,
       SelectionRule::kMaxMarginalRevenue, 0},
      {"ratio-full", CandidateRule::kCoverageCostRatio,
       SelectionRule::kMaxRate, 0},
      {"ratio-window", CandidateRule::kCoverageCostRatio,
       SelectionRule::kMaxRate, 8},
  };

  for (const Config& cfg : configs) {
    SCOPED_TRACE(cfg.name);
    TiOptions options = f.BaseOptions();
    options.candidate_rule = cfg.rule;
    options.selection_rule = cfg.sel;
    options.window = cfg.window;
    options.num_threads = 1;

    auto unbudgeted = RunTiGreedy(*f.instance, options);
    ASSERT_TRUE(unbudgeted.ok()) << unbudgeted.status().message();
    const TiResult& reference = unbudgeted.value();
    ASSERT_GT(reference.total_seeds, 0u);
    uint64_t max_store_bytes = 0;
    for (const auto& st : reference.ad_stats) {
      max_store_bytes = std::max(max_store_bytes, st.rr_memory_bytes);
    }

    options.rr_memory_budget_bytes = max_store_bytes / 2;
    for (uint32_t threads : {1u, 2u, 8u}) {
      SCOPED_TRACE(testing::Message() << threads << " threads");
      options.num_threads = threads;
      auto budgeted = RunTiGreedy(*f.instance, options);
      ASSERT_TRUE(budgeted.ok()) << budgeted.status().message();
      ExpectComputedResultsIdentical(reference, budgeted.value());
      // The budget must have bitten — otherwise this test proves nothing.
      EXPECT_GT(budgeted.value().total_spilled_bytes, 0u);
      EXPECT_GT(budgeted.value().total_spill_chunks, 0u);
      // Barrier-observed resident peaks honor the budget: everything over
      // it was fully adopted and therefore evictable here.
      for (const auto& st : budgeted.value().ad_stats) {
        if (st.rr_resident_peak_bytes > 0) {
          EXPECT_LE(st.rr_resident_peak_bytes,
                    options.rr_memory_budget_bytes);
        }
      }
    }
  }
}

// A 1-byte budget spills everything evictable at every barrier — the
// maximally hostile schedule: constant evictions, every coverage removal
// scanning cold chunks, growths landing into a spilled store.
TEST(SpillEndToEndTest, PathologicalOneByteBudgetStillBitIdentical) {
  SpillEndToEndFixture f;
  TiOptions options = f.BaseOptions();
  options.num_threads = 1;
  auto unbudgeted = RunTiGreedy(*f.instance, options);
  ASSERT_TRUE(unbudgeted.ok());

  options.rr_memory_budget_bytes = 1;
  for (uint32_t threads : {1u, 8u}) {
    SCOPED_TRACE(testing::Message() << threads << " threads");
    options.num_threads = threads;
    auto budgeted = RunTiGreedy(*f.instance, options);
    ASSERT_TRUE(budgeted.ok()) << budgeted.status().message();
    ExpectComputedResultsIdentical(unbudgeted.value(), budgeted.value());
    EXPECT_GT(budgeted.value().total_spilled_bytes, 0u);
    EXPECT_GT(budgeted.value().total_scan_reloads, 0u);
  }
}

// Budget above every store's footprint: the tier never spills and the run
// is byte-identical to the unbudgeted one INCLUDING the memory statistics
// (the no-op path really is a no-op).
TEST(SpillEndToEndTest, HugeBudgetIsByteIdenticalNoOp) {
  SpillEndToEndFixture f;
  TiOptions options = f.BaseOptions();
  options.num_threads = 2;
  auto unbudgeted = RunTiGreedy(*f.instance, options);
  ASSERT_TRUE(unbudgeted.ok());

  options.rr_memory_budget_bytes = 1ull << 40;
  auto budgeted = RunTiGreedy(*f.instance, options);
  ASSERT_TRUE(budgeted.ok());
  ExpectComputedResultsIdentical(unbudgeted.value(), budgeted.value());
  EXPECT_EQ(budgeted.value().total_spilled_bytes, 0u);
  EXPECT_EQ(budgeted.value().total_spill_chunks, 0u);
  EXPECT_EQ(budgeted.value().total_scan_reloads, 0u);
  EXPECT_EQ(budgeted.value().total_rr_memory_bytes,
            unbudgeted.value().total_rr_memory_bytes);
  ASSERT_EQ(budgeted.value().ad_stats.size(),
            unbudgeted.value().ad_stats.size());
  for (size_t j = 0; j < budgeted.value().ad_stats.size(); ++j) {
    EXPECT_EQ(budgeted.value().ad_stats[j].rr_memory_bytes,
              unbudgeted.value().ad_stats[j].rr_memory_bytes);
  }
}

// Shared stores spill too: the evictable frontier is the MIN adopted θ
// over the store's views, so no view ever loses unadopted or unread sets.
TEST(SpillEndToEndTest, SharedStoreBudgetedMatchesUnbudgeted) {
  SpillEndToEndFixture f;
  TiOptions options = f.BaseOptions();
  options.share_samples = true;
  options.num_threads = 1;
  auto unbudgeted = RunTiGreedy(*f.instance, options);
  ASSERT_TRUE(unbudgeted.ok());

  options.rr_memory_budget_bytes = 1;
  for (uint32_t threads : {1u, 8u}) {
    SCOPED_TRACE(testing::Message() << threads << " threads");
    options.num_threads = threads;
    auto budgeted = RunTiGreedy(*f.instance, options);
    ASSERT_TRUE(budgeted.ok());
    ExpectComputedResultsIdentical(unbudgeted.value(), budgeted.value());
    EXPECT_GT(budgeted.value().total_spilled_bytes, 0u);
  }
}

// ---------------------------------------------------- cold-scan kernel

// The cold scan finds a node by comparing a chunk's whole nodes column in
// fixed 64-position blocks and mapping each hit back to its set through
// the sizes column. These cases pin its (id, members) call sequence to an
// oracle built from the pre-spill sets, at the places where a blocked
// search can slip: a chunk's first and last posting, both sides of a
// block boundary, a set that lists the node twice (also across a
// boundary), empty sets, the max_id cut and dead sets.

using Members = std::vector<graph::NodeId>;
using Hits = std::vector<std::pair<uint64_t, Members>>;

constexpr graph::NodeId kKernelNodes = 4096;  // the store's cluster gate
constexpr graph::NodeId kV = 4000;
constexpr uint64_t kKernelSeed = 77;

class SpillScanKernelTest : public testing::Test {
 protected:
  ~SpillScanKernelTest() override { FailPoints::Clear(); }

  // Appends one batch and spills it as exactly two clustered chunks. Every
  // set of `a` holds node 0 or is empty and no set of `b` holds node 0, so
  // a's sets lead the min-member order and a chunk target of exactly a's
  // payload bytes cuts the batch at that seam. `a` takes the even ids
  // while `b` lasts, so both chunks carry sparse id lists, and each
  // chunk's nodes column is its sets in the order given.
  void Build(const std::vector<Members>& a, const std::vector<Members>& b) {
    std::vector<uint32_t> sizes;
    std::vector<graph::NodeId> nodes;
    uint64_t target = 0;
    size_t ia = 0;
    size_t ib = 0;
    while (ia < a.size() || ib < b.size()) {
      const bool take_a =
          ib == b.size() || (ia < a.size() && sizes.size() % 2 == 0);
      const Members& set = take_a ? a[ia++] : b[ib++];
      chunk_ids_[take_a ? 0 : 1].push_back(sizes.size());
      if (take_a) {
        target += set.size() * sizeof(graph::NodeId) + sizeof(uint32_t);
      }
      sizes.push_back(static_cast<uint32_t>(set.size()));
      nodes.insert(nodes.end(), set.begin(), set.end());
    }
    store_.AppendBatch(nodes, sizes, nullptr, kKernelSeed);
    for (uint64_t r = 0; r < store_.num_sets(); ++r) {
      const auto m = store_.SetMembers(r);
      members_.emplace_back(m.begin(), m.end());
    }
    // A faithful re-sampler: it regenerates the original bits.
    store_.SetResampler([this](uint64_t seed, uint64_t lo, uint64_t hi,
                               std::vector<uint32_t>* out_sizes,
                               std::vector<graph::NodeId>* out_nodes) {
      ISA_CHECK(seed == kKernelSeed);
      out_sizes->clear();
      out_nodes->clear();
      for (uint64_t r = lo; r < hi; ++r) {
        out_sizes->push_back(static_cast<uint32_t>(members_[r].size()));
        out_nodes->insert(out_nodes->end(), members_[r].begin(),
                          members_[r].end());
      }
    });
    SpillOptions so;
    so.chunk_target_bytes = target;
    store_.SpillPrefix(store_.num_sets(), so);
    ASSERT_EQ(store_.SpillChunks(), 2u);
  }

  // Chunk columns with kV at the kernel's edge positions. The layout
  // checks its own positions below, so an edit that shifts them fails
  // loudly instead of silently testing less.
  void BuildEdgeLayout() {
    graph::NodeId next = 100;  // filler members: never 0, 5..9 or kV
    const auto fill = [&](graph::NodeId anchor, size_t size) {
      Members set{anchor};
      while (set.size() < size) set.push_back(next++);
      return set;
    };
    std::vector<Members> a;
    a.push_back({kV, 0, next++});                    // 0: first posting
    a.push_back({});
    for (int i = 0; i < 19; ++i) a.push_back(fill(0, 3));
    a.push_back({0, next++, next++, kV});            // 63: block 0's end
    a.push_back({kV, 0, next++});                    // 64: block 1's start
    a.push_back({0, kV, next++, kV});                // 68, 70: one set
    a.push_back({});
    a.push_back({});
    for (int i = 0; i < 18; ++i) a.push_back(fill(0, 3));
    a.push_back({0, next++, kV, kV, next++});        // 127 | 128: one set
    a.push_back({});
    for (int i = 0; i < 40; ++i) a.push_back(fill(0, 5));  // no hit
    a.push_back({0, next++, kV});
    for (int i = 0; i < 20; ++i) a.push_back(fill(0, 3));
    a.push_back({0, next++, kV});                    // last posting
    std::vector<Members> b;
    b.push_back({kV, 5, next++});                    // first posting
    for (int i = 0; i < 30; ++i) b.push_back(fill(7, 2));
    b.push_back({9, kV, kV});
    for (int i = 0; i < 10; ++i) b.push_back(fill(7, 2));
    b.push_back({8, next++, kV});                    // last posting
    ASSERT_LT(next, kV);

    Members col;
    for (const Members& set : a) col.insert(col.end(), set.begin(), set.end());
    for (const size_t pos : {size_t{0}, size_t{63}, size_t{64}, size_t{68},
                             size_t{70}, size_t{127}, size_t{128},
                             col.size() - 1}) {
      ASSERT_EQ(col[pos], kV) << "position " << pos;
    }
    Build(a, b);
  }

  // The scan contract: chunk by chunk, ids ascending within a chunk, each
  // set below max_id that is alive and holds v, once, with its members.
  Hits Expected(graph::NodeId v, uint64_t max_id,
                std::span<const uint8_t> alive = {}) const {
    Hits out;
    for (const std::vector<uint64_t>& ids : chunk_ids_) {
      for (const uint64_t r : ids) {
        if (r >= max_id || (!alive.empty() && alive[r] == 0)) continue;
        const Members& m = members_[r];
        if (std::find(m.begin(), m.end(), v) != m.end()) {
          out.emplace_back(r, m);
        }
      }
    }
    return out;
  }

  Hits Scan(graph::NodeId v, uint64_t max_id,
            std::span<const uint8_t> alive = {},
            ThreadPool* pool = nullptr) const {
    return SpilledHits(store_, v, max_id, pool, alive);
  }

  uint64_t num_sets() const { return store_.num_sets(); }

  RrStore store_{kKernelNodes};
  std::vector<Members> members_;         // per set id, pre-spill
  std::vector<uint64_t> chunk_ids_[2];   // per chunk, ascending
};

TEST_F(SpillScanKernelTest, HitsAtChunkEdgesAndBlockBoundaries) {
  BuildEdgeLayout();
  const Hits expected = Expected(kV, num_sets());
  ASSERT_EQ(expected.size(), 10u);  // 7 sets in chunk A, 3 in chunk B
  EXPECT_EQ(Scan(kV, num_sets()), expected);
  // Node 0 hits nearly every block of chunk A; 5, 7, 9 and 8 only chunk
  // B; 4095 is in no set at all.
  for (const graph::NodeId v : {0u, 5u, 7u, 8u, 9u, 100u, 101u, 4095u}) {
    EXPECT_EQ(Scan(v, num_sets()), Expected(v, num_sets())) << "node " << v;
  }
}

TEST_F(SpillScanKernelTest, SetListingNodeTwiceEmitsOnceEmptySetsNever) {
  BuildEdgeLayout();
  uint64_t calls = 0;
  for (graph::NodeId v = 0; v < kKernelNodes; ++v) {
    const Hits hits = Scan(v, num_sets());
    for (size_t i = 0; i < hits.size(); ++i) {
      EXPECT_FALSE(hits[i].second.empty()) << "node " << v;
      // ids ascend within a chunk, so a repeated call would be a tie
      if (i > 0) {
        ASSERT_NE(hits[i].first, hits[i - 1].first) << "node " << v;
      }
    }
    calls += hits.size();
  }
  // Each set is emitted once per distinct member, so the total over all
  // nodes is the number of distinct (set, member) pairs.
  uint64_t distinct = 0;
  for (Members m : members_) {
    std::sort(m.begin(), m.end());
    distinct += std::unique(m.begin(), m.end()) - m.begin();
  }
  EXPECT_EQ(calls, distinct);
}

TEST_F(SpillScanKernelTest, MaxIdCutsInsideSparseChunks) {
  BuildEdgeLayout();
  for (uint64_t max_id = 0; max_id <= num_sets(); ++max_id) {
    for (const graph::NodeId v : {kV, 0u, 7u}) {
      ASSERT_EQ(Scan(v, max_id), Expected(v, max_id))
          << "node " << v << " max_id " << max_id;
    }
  }
}

TEST_F(SpillScanKernelTest, DeadSetsAreSkippedLiveOnesStillEmit) {
  BuildEdgeLayout();
  // Kill each hit of kV in turn: the hits around it must still come out.
  for (const auto& [dead, members] : Expected(kV, num_sets())) {
    std::vector<uint8_t> alive(num_sets(), 1);
    alive[dead] = 0;
    ASSERT_EQ(Scan(kV, num_sets(), alive), Expected(kV, num_sets(), alive))
        << "dead set " << dead;
  }
  std::vector<uint8_t> partly(num_sets());
  for (uint64_t r = 0; r < partly.size(); ++r) partly[r] = r % 3 != 0;
  for (const graph::NodeId v : {kV, 0u, 7u}) {
    EXPECT_EQ(Scan(v, num_sets(), partly), Expected(v, num_sets(), partly))
        << "node " << v;
    EXPECT_EQ(Scan(v, num_sets() / 2, partly),
              Expected(v, num_sets() / 2, partly))
        << "node " << v;
  }
  const std::vector<uint8_t> none(num_sets(), 0);
  EXPECT_TRUE(Scan(kV, num_sets(), none).empty());
}

// Chunks rebuilt by re-sampling after a failed read run through the same
// kernel — on the failing scan and, from the recovery cache, on later ones.
TEST_F(SpillScanKernelTest, RecoveredChunksMatchOracle) {
  BuildEdgeLayout();
  std::vector<uint8_t> partly(num_sets());
  for (uint64_t r = 0; r < partly.size(); ++r) partly[r] = r % 5 != 1;
  const auto check_all = [&] {
    for (const graph::NodeId v : {kV, 0u, 7u}) {
      EXPECT_EQ(Scan(v, num_sets()), Expected(v, num_sets())) << v;
      EXPECT_EQ(Scan(v, 101, partly), Expected(v, 101, partly)) << v;
    }
  };
  ASSERT_TRUE(FailPoints::Arm("spill.read.eio@every:1").ok());
  check_all();
  EXPECT_EQ(store_.degradation_events(), 2u);  // each chunk rebuilt once
  EXPECT_EQ(store_.recovered_sets(), num_sets());
  FailPoints::Clear();
  check_all();
  EXPECT_EQ(store_.degradation_events(), 2u);
}

// Random shapes over a small member universe: many hits per block, sets
// with repeated members, empty sets, random cuts and alive spans, and the
// pooled cursor as well as inline reads.
TEST_F(SpillScanKernelTest, RandomChunksMatchOracle) {
  Rng rng(2024);
  constexpr graph::NodeId kUniverse = 48;
  std::vector<Members> a(400);
  std::vector<Members> b(150);
  for (Members& set : a) {
    const uint64_t size = rng.NextBounded(8);
    for (uint64_t i = 0; i < size; ++i) {
      set.push_back(static_cast<graph::NodeId>(1 + rng.NextBounded(kUniverse)));
    }
    if (size > 0) set[rng.NextBounded(size)] = 0;
  }
  for (Members& set : b) {
    const uint64_t size = 1 + rng.NextBounded(4);
    for (uint64_t i = 0; i < size; ++i) {
      set.push_back(static_cast<graph::NodeId>(1 + rng.NextBounded(kUniverse)));
    }
  }
  Build(a, b);
  ThreadPool pool(2);
  for (graph::NodeId v = 0; v <= kUniverse + 1; ++v) {
    ASSERT_EQ(Scan(v, num_sets()), Expected(v, num_sets())) << "node " << v;
    std::vector<uint8_t> alive(num_sets());
    for (uint8_t& x : alive) x = rng.NextBounded(4) != 0;
    const uint64_t max_id = rng.NextBounded(num_sets() + 1);
    ASSERT_EQ(Scan(v, max_id, alive, &pool), Expected(v, max_id, alive))
        << "node " << v << " max_id " << max_id;
  }
}

// ------------------------------------------------------------ chunk layout

// The clustered carve as it was first written: a stable sort of the batch
// by anchor (minimum member), cut into chunks that take sets while their
// sizes + nodes bytes are below `target`, each chunk's ids then sorted.
// The linear carve in RrStore::SpillPrefix must reproduce it exactly.
std::vector<std::vector<uint32_t>> SortedCarve(
    const std::vector<Members>& members, uint64_t lo, uint64_t hi,
    uint64_t target) {
  std::vector<uint32_t> order;
  for (uint64_t r = lo; r < hi; ++r) order.push_back(static_cast<uint32_t>(r));
  const auto anchor = [&](uint32_t r) {
    const Members& m = members[r];
    return m.empty() ? graph::NodeId{0}
                     : *std::min_element(m.begin(), m.end());
  };
  std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return anchor(a) < anchor(b);
  });
  std::vector<std::vector<uint32_t>> chunks;
  size_t k = 0;
  while (k < order.size()) {
    std::vector<uint32_t> ids;
    uint64_t bytes = 0;
    while (k < order.size() && bytes < target) {
      bytes += (members[order[k]].size() + 1) * sizeof(uint32_t);
      ids.push_back(order[k++]);
    }
    std::sort(ids.begin(), ids.end());
    chunks.push_back(std::move(ids));
  }
  return chunks;
}

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

uint64_t SortUniqueCount(std::vector<graph::NodeId> nodes) {
  std::sort(nodes.begin(), nodes.end());
  return static_cast<uint64_t>(
      std::unique(nodes.begin(), nodes.end()) - nodes.begin());
}

class SpillLayoutTest : public testing::Test {
 protected:
  // A clustered store (past the 4096-node gate) whose second batch is
  // large enough for its derived chunk target to clear the floor.
  static constexpr uint64_t kSets = 60000;
  static constexpr uint64_t kFirstBatch = 1000;

  SpillLayoutTest() : graph_(MakeBaGraph(5000, 3)) {
    const RrStore store = Sample();
    for (uint64_t r = 0; r < store.num_sets(); ++r) {
      const auto m = store.SetMembers(r);
      members_.emplace_back(m.begin(), m.end());
    }
  }

  RrStore Sample() const {
    RrStore store(graph_.num_nodes());
    const std::vector<double> probs(graph_.num_edges(), 0.3);
    MakeSampler(graph_, probs, /*threads=*/1).SampleAppend(store, kSets);
    return store;
  }

  uint64_t BatchBytes(uint64_t lo, uint64_t hi) const {
    uint64_t bytes = 0;
    for (uint64_t r = lo; r < hi; ++r) {
      bytes += (members_[r].size() + 1) * sizeof(uint32_t);
    }
    return bytes;
  }

  // Writes the sorted carve of batch [lo, hi) at `cap` into `file`.
  void AppendSortedCarve(SpillFile& file, uint64_t lo, uint64_t hi,
                         uint64_t cap) const {
    file.BeginBatch(lo, hi);
    const uint64_t target = rrset::SpillChunkTarget(BatchBytes(lo, hi), cap);
    for (const std::vector<uint32_t>& ids :
         SortedCarve(members_, lo, hi, target)) {
      std::vector<uint32_t> sizes;
      std::vector<graph::NodeId> nodes;
      for (const uint32_t r : ids) {
        sizes.push_back(static_cast<uint32_t>(members_[r].size()));
        nodes.insert(nodes.end(), members_[r].begin(), members_[r].end());
      }
      const bool dense = ids.back() - ids.front() + 1 == ids.size();
      file.AppendChunk(ids.front(), ids.back() + 1, sizes, nodes,
                       dense ? std::span<const uint32_t>()
                             : std::span<const uint32_t>(ids));
    }
  }

  Graph graph_;
  std::vector<Members> members_;  // per set id, pre-spill
};

TEST_F(SpillLayoutTest, DerivedTargetIsBatchShareWithinFloorAndCap) {
  constexpr uint64_t kFloor = rrset::kMinSpillChunkBytes;
  constexpr uint64_t kCap = 4ull << 20;
  EXPECT_EQ(kFloor, 64u << 10);
  EXPECT_EQ(rrset::kSpillChunksPerBatch, 16u);
  EXPECT_EQ(rrset::SpillChunkTarget(0, kCap), kFloor);
  EXPECT_EQ(rrset::SpillChunkTarget(16 * kFloor, kCap), kFloor);
  EXPECT_EQ(rrset::SpillChunkTarget(32 * kFloor + 15, kCap), 2 * kFloor);
  EXPECT_EQ(rrset::SpillChunkTarget(uint64_t{1} << 40, kCap), kCap);
  // The cap wins over the floor, so small forced targets are kept as is.
  EXPECT_EQ(rrset::SpillChunkTarget(1ull << 30, 4096), 4096u);
  EXPECT_EQ(rrset::SpillChunkTarget(1ull << 30, 1), 1u);
  EXPECT_EQ(rrset::SpillChunkTarget(1ull << 30, 0), 1u);
  EXPECT_EQ(SpillOptions().chunk_target_bytes, kCap);
  EXPECT_EQ(TieredStoreOptions().chunk_target_bytes, kCap);
  EXPECT_EQ(TiOptions().spill_chunk_bytes, kCap);
}

// Two batches — the first below the floor, so its target is larger than
// the batch — at forced targets down to one set per chunk and at the
// default cap: the spill file is byte for byte the file the sorted carve
// writes, so chunk membership, ascending ids, both columns, envelopes,
// Bloom words and footers all match.
TEST_F(SpillLayoutTest, LinearCarveMatchesSortedCarve) {
  ASSERT_LT(BatchBytes(0, kFirstBatch), rrset::kMinSpillChunkBytes);
  ASSERT_GT(BatchBytes(kFirstBatch, kSets),
            rrset::kSpillChunksPerBatch * rrset::kMinSpillChunkBytes);
  for (const uint64_t cap :
       {uint64_t{1}, uint64_t{4096}, uint64_t{16384}, uint64_t{4} << 20}) {
    SCOPED_TRACE(testing::Message() << "cap " << cap);
    // One set per chunk would write kSets regions; one batch is enough.
    const uint64_t end = cap == 1 ? kFirstBatch : kSets;
    SpillOptions so;
    so.path = rrset::MakeSpillPath();
    so.chunk_target_bytes = cap;
    RrStore store = Sample();
    store.SpillPrefix(kFirstBatch, so);
    if (end > kFirstBatch) store.SpillPrefix(end, so);

    SpillFile reference(rrset::MakeSpillPath());
    AppendSortedCarve(reference, 0, kFirstBatch, cap);
    if (end > kFirstBatch) AppendSortedCarve(reference, kFirstBatch, end, cap);
    ASSERT_EQ(store.SpillChunks(), reference.num_chunks());
    if (cap == 1) {
      EXPECT_EQ(reference.num_chunks(), kFirstBatch);
    }
    if (cap == (uint64_t{4} << 20)) {
      // A sub-floor batch is one chunk; the large one splits.
      EXPECT_EQ(reference.chunks()[0].NumSets(), kFirstBatch);
      EXPECT_GT(reference.num_chunks(), 2u);
    }
    EXPECT_EQ(store.SpilledBytes(), reference.bytes_on_disk());
    EXPECT_TRUE(FileBytes(so.path) == FileBytes(reference.path()));

    // The Bloom filter is sized on the sort + unique distinct count.
    for (size_t c = 0; c < reference.num_chunks(); ++c) {
      std::vector<uint32_t> sizes;
      std::vector<graph::NodeId> nodes;
      reference.ReadChunk(c, &sizes, &nodes);
      const uint64_t bits =
          std::bit_ceil(std::max<uint64_t>(64, SortUniqueCount(nodes) * 8));
      ASSERT_EQ(reference.chunks()[c].bloom.size(), bits / 64) << c;
    }
  }
}

TEST_F(SpillLayoutTest, BitmapDistinctCountMatchesSortUnique) {
  const auto check = [](const Members& nodes) {
    if (nodes.empty()) {
      EXPECT_EQ(rrset::CountDistinctNodes(nodes, 0, 0), 0u);
      return;
    }
    const auto [lo, hi] = std::minmax_element(nodes.begin(), nodes.end());
    EXPECT_EQ(rrset::CountDistinctNodes(nodes, *lo, *hi),
              SortUniqueCount(nodes))
        << "envelope [" << *lo << ", " << *hi << "]";
  };
  const graph::NodeId last = 4095;  // node n - 1 of a 4096-node graph
  check({});                                  // empty envelope
  check({42});                                // single node
  check({42, 42, 42, 42});                    // single node, repeated
  check({0, 0, 3, 0, 9, 3, 0, 0});            // repeated hub postings
  check({0, last, 0, last, 17, last});        // both ends of the graph
  check({last});
  check({63, 64});                            // a bitmap word seam
  check({64, 127, 128, 64, 191, 192});        // offset envelope, seams
  check({0xFFFFFFFEu, 0xFFFFFFFFu, 0xFFFFFFFFu});  // top of the id range
  Rng rng(31);
  for (int trial = 0; trial < 200; ++trial) {
    const graph::NodeId base =
        static_cast<graph::NodeId>(rng.NextBounded(1000));
    const uint64_t width = 1 + rng.NextBounded(300);
    Members nodes(rng.NextBounded(400));
    for (graph::NodeId& v : nodes) {
      // Skewed to low ids: a few hubs carry most postings.
      const uint64_t a = rng.NextBounded(width);
      v = base + static_cast<graph::NodeId>(a * rng.NextBounded(width) /
                                            width);
    }
    check(nodes);
  }

  // AppendChunk sizes its Bloom filter on the same count: 8 distinct ids
  // fill exactly one 64-bit word at 8 bits per key, a 9th needs two.
  SpillFile file(rrset::MakeSpillPath());
  const Members eight = {0, 1, 0, 2, 3, 0, 4, 5, 6, last, 0, last};
  Members nine = eight;
  nine.push_back(7);
  file.AppendChunk(0, 1, std::vector<uint32_t>{12}, eight);
  file.AppendChunk(1, 2, std::vector<uint32_t>{13}, nine);
  EXPECT_EQ(file.chunks()[0].bloom.size(), 1u);
  EXPECT_EQ(file.chunks()[1].bloom.size(), 2u);
}

// The default options carve a batch past twice the floor into several
// chunks, and the carve is a pure function of the batch: spilling with
// and without a pool writes the same file.
TEST_F(SpillLayoutTest, DefaultOptionsSplitBatchSameWithAndWithoutPool) {
  const uint64_t batch_bytes = BatchBytes(0, kSets);
  ASSERT_GT(batch_bytes, 2 * rrset::kMinSpillChunkBytes);
  ThreadPool pool(4);
  std::string layout[2];
  for (const bool use_pool : {false, true}) {
    SpillOptions so;
    so.path = rrset::MakeSpillPath();
    RrStore store = Sample();
    store.SpillPrefix(kSets, so, use_pool ? &pool : nullptr);
    EXPECT_GT(store.SpillChunks(), 1u);
    // About one chunk per target's worth of bytes; the last may be short.
    const uint64_t target = rrset::SpillChunkTarget(
        batch_bytes, SpillOptions().chunk_target_bytes);
    EXPECT_LE(store.SpillChunks(), (batch_bytes + target - 1) / target);
    layout[use_pool] = FileBytes(so.path);
  }
  EXPECT_FALSE(layout[0].empty());
  EXPECT_TRUE(layout[0] == layout[1]);
}

}  // namespace
}  // namespace isa
