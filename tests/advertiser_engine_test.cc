// The staged selection engine (core/advertiser_engine.h +
// core/selection_scheduler.h): incremental lazy-heap repair must agree
// with a from-scratch rebuild after arbitrary adopt/remove sequences, the
// coverage-delta reporting must match brute-force diffs, and async
// θ-growth must preserve the hard invariant — fixed seed ⇒ bit-identical
// TiResult at any thread count.

#include "core/advertiser_engine.h"

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/selection_scheduler.h"
#include "core/ti_greedy.h"
#include "graph/generators.h"
#include "gtest/gtest.h"
#include "rrset/parallel_sampler.h"
#include "rrset/rr_collection.h"
#include "tests/test_util.h"
#include "topic/tic_model.h"

namespace isa::core {
namespace {

using graph::Graph;
using rrset::ParallelSampler;
using rrset::ParallelSamplerOptions;

Graph MakeBaGraph(graph::NodeId n = 250, uint64_t seed = 9) {
  graph::BarabasiAlbertOptions opts;
  opts.num_nodes = n;
  opts.edges_per_node = 3;
  opts.seed = seed;
  auto g = graph::GenerateBarabasiAlbert(opts);
  ISA_CHECK(g.ok());
  return std::move(g).value();
}

ParallelSampler MakeSampler(const Graph& g, std::span<const double> probs,
                            uint64_t seed = 321) {
  ParallelSamplerOptions opts;
  opts.num_threads = 1;
  return ParallelSampler(g, probs, rrset::DiffusionModel::kIndependentCascade,
                         seed, opts);
}

// Brute-force expected delta: nodes whose coverage changed between two
// snapshots, ascending.
std::vector<graph::NodeId> CoverageDiff(const std::vector<uint32_t>& before,
                                        const rrset::RrCollection& col) {
  std::vector<graph::NodeId> out;
  for (graph::NodeId v = 0; v < before.size(); ++v) {
    if (col.CoverageOf(v) != before[v]) out.push_back(v);
  }
  return out;
}

std::vector<uint32_t> CoverageSnapshot(const rrset::RrCollection& col,
                                       graph::NodeId n) {
  std::vector<uint32_t> cov(n);
  for (graph::NodeId v = 0; v < n; ++v) cov[v] = col.CoverageOf(v);
  return cov;
}

TEST(CoverageDeltaTest, AdoptionReportsExactlyTheIncreasedNodes) {
  const Graph g = MakeBaGraph();
  const std::vector<double> probs(g.num_edges(), 0.1);
  ParallelSampler sampler = MakeSampler(g, probs);
  rrset::RrCollection col(g.num_nodes());

  std::vector<graph::NodeId> touched;
  std::vector<graph::NodeId> seeds;
  for (uint64_t batch : {400ull, 1ull, 37ull, 900ull}) {
    const auto before = CoverageSnapshot(col, g.num_nodes());
    col.AddSets(sampler, batch, seeds, &touched);
    EXPECT_TRUE(std::is_sorted(touched.begin(), touched.end()));
    EXPECT_EQ(touched, CoverageDiff(before, col)) << "batch " << batch;
    // Seed a node so later adoptions also exercise the covered-on-adopt
    // path (covered sets must not contribute deltas).
    if (seeds.empty()) seeds.push_back(touched.front());
  }
}

TEST(CoverageDeltaTest, RemovalReportsExactlyTheDecreasedNodes) {
  const Graph g = MakeBaGraph();
  const std::vector<double> probs(g.num_edges(), 0.12);
  ParallelSampler sampler = MakeSampler(g, probs);
  rrset::RrCollection col(g.num_nodes());
  col.AddSets(sampler, 1500, {});

  Rng rng(77);
  std::vector<graph::NodeId> touched;
  for (int i = 0; i < 20; ++i) {
    const graph::NodeId v =
        static_cast<graph::NodeId>(rng.NextBounded(g.num_nodes()));
    const auto before = CoverageSnapshot(col, g.num_nodes());
    const uint32_t removed = col.RemoveCoveredBy(v, &touched);
    EXPECT_TRUE(std::is_sorted(touched.begin(), touched.end()));
    EXPECT_EQ(touched, CoverageDiff(before, col)) << "pick " << i;
    if (removed == 0) {
      EXPECT_TRUE(touched.empty());
    }
  }
}

TEST(CoverageDeltaTest, ShardedAdoptionDeltasMatchSerial) {
  const Graph g = MakeBaGraph(400);
  const std::vector<double> probs(g.num_edges(), 0.2);
  constexpr uint64_t kSets = 30'000;  // enough postings to shard adoption

  rrset::RrCollection serial(g.num_nodes());
  std::vector<graph::NodeId> serial_touched;
  ParallelSampler s1 = MakeSampler(g, probs, 555);
  serial.AddSets(s1, kSets, {}, &serial_touched);

  ThreadPool pool(8);
  ParallelSamplerOptions opts;
  opts.num_threads = 8;
  opts.min_sets_per_thread = 1;
  opts.pool = &pool;
  ParallelSampler s8(g, probs, rrset::DiffusionModel::kIndependentCascade,
                     555, opts);
  rrset::RrCollection parallel(g.num_nodes());
  std::vector<graph::NodeId> parallel_touched;
  parallel.AddSets(s8, kSets, {}, &parallel_touched);

  EXPECT_EQ(serial_touched, parallel_touched);
}

// Randomized adopt/remove sequences: after every operation, the settled
// top of the incrementally repaired heap must equal the settled top of a
// heap rebuilt from scratch — for both key shapes.
class HeapRepairCrossCheck : public ::testing::TestWithParam<bool> {};

TEST_P(HeapRepairCrossCheck, IncrementalMatchesRebuildTop) {
  const bool ratio_keyed = GetParam();
  const Graph g = MakeBaGraph(300, 11);
  const std::vector<double> probs(g.num_edges(), 0.1);
  std::vector<double> costs(g.num_nodes());
  Rng cost_rng(5);
  for (double& c : costs) c = 0.5 + 2.0 * cost_rng.NextDouble();
  costs[7] = 0.0;  // exercise the zero-cost cross-multiplied compare

  ParallelSampler sampler = MakeSampler(g, probs, 99);
  rrset::RrCollection col(g.num_nodes());
  std::vector<uint8_t> eligible(g.num_nodes(), 1);

  CoverageHeap inc;
  inc.Configure(ratio_keyed, costs);
  std::vector<graph::NodeId> touched;
  col.AddSets(sampler, 600, {}, &touched);
  inc.Rebuild(col, eligible);

  std::vector<graph::NodeId> seeds;
  Rng rng(1234);
  for (int op = 0; op < 60; ++op) {
    if (rng.NextBounded(3) == 0) {
      // Growth: adopt a batch and repair incrementally.
      col.AddSets(sampler, 50 + rng.NextBounded(400), seeds, &touched);
      inc.ApplyCoverageIncreases(col, eligible, touched);
    } else {
      // Selection: retire a node and remove its covered sets (coverage
      // only decreases — the lazy heap absorbs it without repair).
      const graph::NodeId v =
          static_cast<graph::NodeId>(rng.NextBounded(g.num_nodes()));
      if (!eligible[v]) continue;
      eligible[v] = 0;
      seeds.push_back(v);
      col.RemoveCoveredBy(v);
    }
    CoverageHeap fresh;
    fresh.Configure(ratio_keyed, costs);
    fresh.Rebuild(col, eligible);
    const bool inc_has = inc.SettleTop(col, eligible);
    const bool fresh_has = fresh.SettleTop(col, eligible);
    ASSERT_EQ(inc_has, fresh_has) << "op " << op;
    if (!inc_has) continue;
    EXPECT_EQ(inc.Top().node, fresh.Top().node) << "op " << op;
    EXPECT_EQ(inc.Top().cov, fresh.Top().cov) << "op " << op;
  }
}

INSTANTIATE_TEST_SUITE_P(BothKeys, HeapRepairCrossCheck,
                         ::testing::Values(false, true));

// ---- Async θ-growth determinism. ----

// High-influence fixture: at p = 0.8 the KPT pilot converges with a large
// OPT lower bound, so θ(1) is small and θ(s̃) grows cheaply as Eq. 10
// revises s̃ upward — several growth events per fast run (see
// GrowthEventsActuallyHappen), which is what puts the async barrier and
// the incremental heap repair on the hot path. Since the Eq. 8 schedule
// fix, growth engages under default influence as well (the
// DefaultInfluenceFixture below); this fixture stays as the cheap
// determinism workhorse.
struct AsyncFixture {
  Graph g = MakeBaGraph(150, 9);
  std::unique_ptr<RmInstance> instance;

  AsyncFixture() {
    auto topics = topic::MakeUniform(g, 1, 0.8);
    ISA_CHECK(topics.ok());
    std::vector<AdvertiserSpec> ads(3);
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
};

void ExpectTiResultsIdentical(const TiResult& a, const TiResult& b) {
  EXPECT_EQ(a.allocation.seed_sets, b.allocation.seed_sets);
  EXPECT_EQ(a.total_revenue, b.total_revenue);  // bitwise
  EXPECT_EQ(a.total_seeding_cost, b.total_seeding_cost);
  EXPECT_EQ(a.total_seeds, b.total_seeds);
  EXPECT_EQ(a.total_theta, b.total_theta);
  // The θ-schedule observability counters are part of the determinism
  // contract too: they depend only on the pilot and the selection
  // trajectory, never on timing.
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
    EXPECT_EQ(a.ad_stats[j].kpt_lower_bound, b.ad_stats[j].kpt_lower_bound);
    EXPECT_EQ(a.ad_stats[j].pilot_sets, b.ad_stats[j].pilot_sets);
    EXPECT_EQ(a.ad_stats[j].pilot_converged, b.ad_stats[j].pilot_converged);
  }
}

// For every candidate rule (and both window shapes of Algorithm 5), async
// growth ON and OFF must each yield a bit-identical TiResult at 1, 2 and 8
// threads — the adoption barrier is keyed by round index and ad order,
// never by timing.
TEST(AsyncGrowthTest, TiResultBitIdenticalAcrossThreadCountsAllRules) {
  AsyncFixture f;
  struct Config {
    const char* name;
    CandidateRule rule;
    SelectionRule sel;
    uint32_t window;
    bool share_samples;
  };
  const Config configs[] = {
      {"coverage", CandidateRule::kCoverage,
       SelectionRule::kMaxMarginalRevenue, 0, false},
      {"ratio-full", CandidateRule::kCoverageCostRatio,
       SelectionRule::kMaxRate, 0, false},
      {"ratio-window", CandidateRule::kCoverageCostRatio,
       SelectionRule::kMaxRate, 8, false},
      {"pagerank", CandidateRule::kPageRank,
       SelectionRule::kMaxMarginalRevenue, 0, false},
      {"ratio-shared", CandidateRule::kCoverageCostRatio,
       SelectionRule::kMaxRate, 0, true},
  };

  for (const bool async : {false, true}) {
    for (const Config& cfg : configs) {
      SCOPED_TRACE(testing::Message()
                   << cfg.name << (async ? " async" : " sync"));
      TiOptions options;
      options.candidate_rule = cfg.rule;
      options.selection_rule = cfg.sel;
      options.window = cfg.window;
      options.share_samples = cfg.share_samples;
      options.async_growth = async;
      options.growth_delay_rounds = 2;
      options.epsilon = 0.3;
      options.seed = 1234;
      options.theta_cap = 200'000;

      TiResult reference;
      for (uint32_t threads : {1u, 2u, 8u}) {
        SCOPED_TRACE(testing::Message() << threads << " threads");
        options.num_threads = threads;
        auto result = RunTiGreedy(*f.instance, options);
        ASSERT_TRUE(result.ok()) << result.status().message();
        if (threads == 1u) {
          reference = result.value();
          EXPECT_GT(reference.total_seeds, 0u);
          continue;
        }
        ExpectTiResultsIdentical(reference, result.value());
      }
    }
  }
}

// The overlap must actually engage on this fixture (growth events > 0), or
// the determinism sweep above is vacuous.
TEST(AsyncGrowthTest, GrowthEventsActuallyHappen) {
  AsyncFixture f;
  TiOptions options;
  options.epsilon = 0.3;
  options.seed = 1234;
  options.theta_cap = 200'000;
  options.async_growth = true;
  auto res = RunTiCsrm(*f.instance, options);
  ASSERT_TRUE(res.ok());
  uint64_t events = 0;
  for (const auto& st : res.value().ad_stats) events += st.sample_growth_events;
  EXPECT_GT(events, 0u);
}

// Async growth is a schedule change, not an estimator change: the run must
// stay feasible and produce a disjoint allocation under every delay.
TEST(AsyncGrowthTest, FeasibleAndDisjointAcrossDelays) {
  AsyncFixture f;
  for (uint32_t delay : {1u, 2u, 5u, 64u}) {
    SCOPED_TRACE(testing::Message() << "delay " << delay);
    TiOptions options;
    options.epsilon = 0.3;
    options.seed = 77;
    options.theta_cap = 200'000;
    options.async_growth = true;
    options.growth_delay_rounds = delay;
    auto res = RunTiCsrm(*f.instance, options);
    ASSERT_TRUE(res.ok());
    EXPECT_TRUE(res.value().allocation.IsDisjoint(f.instance->num_nodes()));
    for (uint32_t j = 0; j < f.instance->num_ads(); ++j) {
      EXPECT_LE(res.value().ad_stats[j].payment,
                f.instance->budget(j) + 1e-6);
    }
  }
}

// ---- θ-growth under DEFAULT influence (the Eq. 8 schedule fix). ----

// Weighted-cascade probabilities — the paper's default regime, nothing
// inflated. Before the schedule fix (per-s KPT re-evaluation + OPT_s >= s
// floor) θ(s̃) was non-increasing here and the growth machinery idled; the
// paper-faithful schedule (one pilot scalar, growing λ(s) numerator) must
// make it engage. ε and theta_cap are chosen so θ(1) sits well under the
// cap, leaving headroom for several Eq. 10 revisions to grow into.
struct DefaultInfluenceFixture {
  Graph g = MakeBaGraph(100, 17);
  std::unique_ptr<RmInstance> instance;

  DefaultInfluenceFixture() {
    auto topics = topic::MakeWeightedCascade(g, 1);
    ISA_CHECK(topics.ok());
    std::vector<AdvertiserSpec> ads(2);
    ads[0].cpe = 0.2;
    ads[0].budget = 15.0;
    ads[1].cpe = 0.15;
    ads[1].budget = 12.0;
    for (auto& ad : ads) ad.gamma = topic::TopicDistribution::Uniform(1);
    std::vector<std::vector<double>> incentives(
        2, std::vector<double>(g.num_nodes(), 1.0));
    auto inst = RmInstance::Create(g, topics.value(), std::move(ads),
                                   std::move(incentives));
    ISA_CHECK(inst.ok());
    instance = std::make_unique<RmInstance>(std::move(inst).value());
  }

  TiOptions Options(bool async) const {
    TiOptions options;
    options.epsilon = 0.5;
    options.seed = 99;
    options.theta_cap = 150'000;
    options.async_growth = async;
    return options;
  }
};

// The acceptance gate for the schedule fix: growth adoptions happen (sync
// and async alike) in the default-influence regime, and the sample really
// is larger than anything a non-growing schedule would have drawn.
TEST(GrowthRegimeTest, ThetaGrowthEngagesUnderDefaultInfluence) {
  DefaultInfluenceFixture f;
  for (const bool async : {false, true}) {
    SCOPED_TRACE(async ? "async" : "sync");
    auto res = RunTiCsrm(*f.instance, f.Options(async));
    ASSERT_TRUE(res.ok()) << res.status().message();
    const TiResult& r = res.value();
    EXPECT_GT(r.total_growth_events, 0u);
    EXPECT_GT(r.ads_growth_engaged, 0u);
    // An engaged ad's final θ must exceed its start-of-run θ(1): the
    // growth events actually enlarged the sample. θ(1) is reproduced from
    // the instance with the run's own sizer parameters.
    for (uint32_t j = 0; j < r.ad_stats.size(); ++j) {
      const TiAdStats& st = r.ad_stats[j];
      if (st.sample_growth_events == 0) continue;
      rrset::SampleSizerOptions so;
      so.epsilon = 0.5;
      so.theta_cap = 150'000;
      so.seed = HashSeed(99, 1000 + j);
      rrset::SampleSizer sizer(f.instance->graph(), f.instance->ad_probs(j),
                               so);
      EXPECT_GT(st.theta, sizer.ThetaFor(1)) << "ad " << j;
      EXPECT_GE(st.latent_seed_size, st.seeds);
    }
  }
}

// Bit-identity on the default-influence fixture too: the growth path that
// now actually runs must stay deterministic at any thread count, async on
// and off.
TEST(GrowthRegimeTest, DefaultInfluenceBitIdenticalAcrossThreadCounts) {
  DefaultInfluenceFixture f;
  for (const bool async : {false, true}) {
    SCOPED_TRACE(async ? "async" : "sync");
    TiOptions options = f.Options(async);
    TiResult reference;
    for (uint32_t threads : {1u, 2u, 8u}) {
      SCOPED_TRACE(testing::Message() << threads << " threads");
      options.num_threads = threads;
      auto result = RunTiCsrm(*f.instance, options);
      ASSERT_TRUE(result.ok()) << result.status().message();
      if (threads == 1u) {
        reference = result.value();
        EXPECT_GT(reference.total_growth_events, 0u);
        continue;
      }
      ExpectTiResultsIdentical(reference, result.value());
    }
  }
}

// Deterministic in the seed with async on (run-to-run, same thread count).
TEST(AsyncGrowthTest, DeterministicInSeed) {
  AsyncFixture f;
  TiOptions options;
  options.epsilon = 0.3;
  options.seed = 4321;
  options.theta_cap = 200'000;
  options.async_growth = true;
  options.num_threads = 4;
  auto a = RunTiCsrm(*f.instance, options);
  auto b = RunTiCsrm(*f.instance, options);
  ASSERT_TRUE(a.ok() && b.ok());
  ExpectTiResultsIdentical(a.value(), b.value());
}

}  // namespace
}  // namespace isa::core
