#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.h"
#include "diffusion/exact.h"
#include "rrset/rr_collection.h"
#include "rrset/rr_sampler.h"
#include "rrset/sample_sizer.h"
#include "rrset/singleton_estimator.h"
#include "tests/test_util.h"
#include "topic/tic_model.h"
#include "topic/topic_distribution.h"

namespace isa::rrset {
namespace {

TEST(RrSamplerTest, DeterministicChainContainsAllAncestors) {
  // 0 -> 1 -> 2 with p = 1: the RR set of root r is {0..r}.
  auto g = test::MustGraph(3, {{0, 1}, {1, 2}});
  std::vector<double> probs(g.num_edges(), 1.0);
  RrSampler sampler(g, probs);
  Rng rng(5);
  std::vector<graph::NodeId> rr;
  for (int i = 0; i < 50; ++i) {
    graph::NodeId root = sampler.SampleInto(rng, &rr);
    std::sort(rr.begin(), rr.end());
    ASSERT_EQ(rr.size(), root + 1u);
    for (graph::NodeId v = 0; v <= root; ++v) EXPECT_EQ(rr[v], v);
  }
}

TEST(RrSamplerTest, ZeroProbabilityGivesSingletons) {
  auto g = test::MakeDiamond();
  std::vector<double> probs(g.num_edges(), 0.0);
  RrSampler sampler(g, probs);
  Rng rng(6);
  std::vector<graph::NodeId> rr;
  for (int i = 0; i < 50; ++i) {
    sampler.SampleInto(rng, &rr);
    EXPECT_EQ(rr.size(), 1u);
  }
}

TEST(RrSamplerTest, WidthCountsInArcs) {
  auto g = test::MustGraph(3, {{0, 2}, {1, 2}});
  std::vector<double> probs(g.num_edges(), 0.0);
  RrSampler sampler(g, probs);
  Rng rng(7);
  std::vector<graph::NodeId> rr;
  for (int i = 0; i < 50; ++i) {
    sampler.SampleInto(rng, &rr);
    // Root 2 examines its two in-arcs; roots 0/1 have none.
    if (rr[0] == 2) {
      EXPECT_EQ(sampler.last_width(), 2u);
    } else {
      EXPECT_EQ(sampler.last_width(), 0u);
    }
  }
}

// The unbiasedness property the whole approach rests on:
// n * E[fraction of RR sets covered by S] = sigma(S).
TEST(RrEstimatorTest, CoverageEstimatesSpread) {
  auto g = test::MakeDiamond();
  std::vector<double> probs = {0.4, 0.6, 0.5, 0.3};
  const graph::NodeId seeds[1] = {0};
  const double exact = diffusion::ExactSpread(g, probs, seeds).value();

  RrSampler sampler(g, probs);
  Rng rng(8);
  std::vector<graph::NodeId> rr;
  const int theta = 200'000;
  int covered = 0;
  for (int i = 0; i < theta; ++i) {
    sampler.SampleInto(rng, &rr);
    covered += std::find(rr.begin(), rr.end(), 0u) != rr.end();
  }
  const double estimate = 4.0 * covered / theta;
  EXPECT_NEAR(estimate, exact, 0.02);
}

TEST(RrEstimatorTest, MultiSeedCoverageEstimatesSpread) {
  auto g = test::MustGraph(5, {{0, 1}, {1, 2}, {3, 2}, {3, 4}});
  std::vector<double> probs = {0.5, 0.5, 0.5, 0.5};
  const graph::NodeId seeds[2] = {0, 3};
  const double exact = diffusion::ExactSpread(g, probs, seeds).value();

  RrSampler sampler(g, probs);
  Rng rng(9);
  std::vector<graph::NodeId> rr;
  const int theta = 200'000;
  int covered = 0;
  for (int i = 0; i < theta; ++i) {
    sampler.SampleInto(rng, &rr);
    covered += std::find(rr.begin(), rr.end(), 0u) != rr.end() ||
               std::find(rr.begin(), rr.end(), 3u) != rr.end();
  }
  EXPECT_NEAR(5.0 * covered / theta, exact, 0.02);
}

// ---------- IC fast path: per-node in-arc probabilities ----------

// The reverse BFS as it was before the per-node table: one probs[eid]
// gather per in-arc under IC, the cumulative pick under LT. Kept as the
// oracle the fast path must match set by set and draw by draw.
class PerArcOracle {
 public:
  PerArcOracle(const graph::Graph& g, std::span<const double> probs,
               DiffusionModel model)
      : g_(g), probs_(probs), model_(model), visited_(g.num_nodes(), 0) {}

  graph::NodeId SampleInto(Rng& rng, std::vector<graph::NodeId>* out) {
    out->clear();
    ++epoch_;
    width_ = 0;
    const graph::NodeId root =
        static_cast<graph::NodeId>(rng.NextBounded(g_.num_nodes()));
    visited_[root] = epoch_;
    out->push_back(root);
    for (size_t head = 0; head < out->size(); ++head) {
      const graph::NodeId v = (*out)[head];
      auto sources = g_.InNeighbors(v);
      auto eids = g_.InEdgeIds(v);
      width_ += sources.size();
      if (model_ == DiffusionModel::kIndependentCascade) {
        for (size_t k = 0; k < sources.size(); ++k) {
          const graph::NodeId u = sources[k];
          if (visited_[u] == epoch_) continue;
          if (rng.NextBernoulli(probs_[eids[k]])) {
            visited_[u] = epoch_;
            out->push_back(u);
          }
        }
      } else {
        if (sources.empty()) continue;
        const double r = rng.NextDouble();
        double acc = 0.0;
        for (size_t k = 0; k < sources.size(); ++k) {
          acc += probs_[eids[k]];
          if (r < acc) {
            const graph::NodeId u = sources[k];
            if (visited_[u] != epoch_) {
              visited_[u] = epoch_;
              out->push_back(u);
            }
            break;
          }
        }
      }
    }
    return root;
  }

  uint64_t last_width() const { return width_; }

 private:
  const graph::Graph& g_;
  std::span<const double> probs_;
  DiffusionModel model_;
  std::vector<uint32_t> visited_;
  uint32_t epoch_ = 0;
  uint64_t width_ = 0;
};

// Random directed graph on 400 nodes: arcs mostly go up in id (so low ids
// have few or no in-arcs), some go back down, the last 20 nodes are
// isolated, and a few nodes collect dozens of in-arcs.
graph::Graph MakeFastPathGraph() {
  constexpr graph::NodeId kNodes = 400, kLinked = 380;
  Rng rng(2024);
  std::vector<graph::Edge> edges;
  for (graph::NodeId v = 1; v < kLinked; ++v) {
    const uint32_t indeg = v % 37 == 0 ? 40 : rng.NextBounded(6);
    for (uint32_t k = 0; k < indeg; ++k) {
      edges.push_back({static_cast<graph::NodeId>(rng.NextBounded(v)), v});
    }
    if (v % 5 == 0) {
      edges.push_back(
          {v, static_cast<graph::NodeId>(rng.NextBounded(kLinked))});
    }
  }
  return test::MustGraph(kNodes, std::move(edges));
}

// Samples `sets` RR sets with the sampler under test (bare span and handed
// table alike) and the oracle from equal Rng streams; every set, root and
// width must agree, and so must the streams afterwards.
void ExpectMatchesOracle(const graph::Graph& g, std::span<const double> probs,
                         DiffusionModel model, int sets = 4000) {
  const std::vector<double> table = InArcProbabilities(g, probs);
  RrSampler bare(g, probs, model);
  RrSampler handed(g, probs, model, table);
  PerArcOracle oracle(g, probs, model);
  Rng r_bare(77), r_handed(77), r_oracle(77);
  std::vector<graph::NodeId> a, b, want;
  for (int i = 0; i < sets; ++i) {
    const graph::NodeId root = oracle.SampleInto(r_oracle, &want);
    ASSERT_EQ(bare.SampleInto(r_bare, &a), root) << "set " << i;
    ASSERT_EQ(handed.SampleInto(r_handed, &b), root) << "set " << i;
    ASSERT_EQ(a, want) << "set " << i;
    ASSERT_EQ(b, want) << "set " << i;
    ASSERT_EQ(bare.last_width(), oracle.last_width()) << "set " << i;
    ASSERT_EQ(handed.last_width(), oracle.last_width()) << "set " << i;
  }
  const uint64_t next = r_oracle.Next();
  EXPECT_EQ(r_bare.Next(), next);
  EXPECT_EQ(r_handed.Next(), next);
}

TEST(RrSamplerFastPathTest, InArcTableMarksUniformMixedAndSourceNodes) {
  // 0 -> 2, 1 -> 2 (p 0.25 both), 0 -> 3, 1 -> 3 (0.25, 0.5), 2 -> 4
  // (-0.0 and +0.0 differ bitwise, so node 4's two arcs are mixed).
  auto g = test::MustGraph(5, {{0, 2}, {1, 2}, {0, 3}, {1, 3}, {2, 4}, {3, 4}});
  std::vector<double> probs(g.num_edges());
  auto set = [&](graph::NodeId u, graph::NodeId v, double p) {
    auto srcs = g.InNeighbors(v);
    auto eids = g.InEdgeIds(v);
    for (size_t k = 0; k < srcs.size(); ++k) {
      if (srcs[k] == u) probs[eids[k]] = p;
    }
  };
  set(0, 2, 0.25);
  set(1, 2, 0.25);
  set(0, 3, 0.25);
  set(1, 3, 0.5);
  set(2, 4, -0.0);
  set(3, 4, 0.0);
  const std::vector<double> table = InArcProbabilities(g, probs);
  ASSERT_EQ(table.size(), 5u);
  EXPECT_EQ(table[0], 0.0);  // no in-arcs
  EXPECT_EQ(table[1], 0.0);
  EXPECT_EQ(table[2], 0.25);
  EXPECT_EQ(table[3], kMixedInArcs);
  EXPECT_EQ(table[4], kMixedInArcs);
}

TEST(RrSamplerFastPathTest, WeightedCascadeMatchesPerArcLoop) {
  const graph::Graph g = MakeFastPathGraph();
  auto topics = topic::MakeWeightedCascade(g, 1);
  ASSERT_TRUE(topics.ok());
  ExpectMatchesOracle(g, topics.value().topic(0),
                      DiffusionModel::kIndependentCascade);
}

TEST(RrSamplerFastPathTest, UniformMatchesPerArcLoop) {
  const graph::Graph g = MakeFastPathGraph();
  for (double p : {0.0, 0.05, 0.3, 1.0}) {
    SCOPED_TRACE(testing::Message() << "p = " << p);
    const std::vector<double> probs(g.num_edges(), p);
    ExpectMatchesOracle(g, probs, DiffusionModel::kIndependentCascade, 1500);
  }
}

TEST(RrSamplerFastPathTest, TopicMixMatchesPerArcLoop) {
  const graph::Graph g = MakeFastPathGraph();
  auto topics = topic::MakeDegreeScaledRandom(g, 3, 11);
  ASSERT_TRUE(topics.ok());
  auto gamma = topic::TopicDistribution::Create({0.5, 0.3, 0.2});
  ASSERT_TRUE(gamma.ok());
  auto mixed = topic::AdProbabilities::Mix(topics.value(), gamma.value());
  ASSERT_TRUE(mixed.ok());
  const std::vector<double> table =
      InArcProbabilities(g, mixed.value().probs());
  ASSERT_GT(std::count(table.begin(), table.end(), kMixedInArcs), 100);
  ExpectMatchesOracle(g, mixed.value().probs(),
                      DiffusionModel::kIndependentCascade);
}

// Per-node p drawn from {0, 1, 0.4, 0.07}, a fifth of the nodes mixed:
// the p = 0 (no draw, nothing live) and p = 1 (no draw, every arc live)
// shortcuts of NextBernoulli, next to uniform and mixed neighbours.
TEST(RrSamplerFastPathTest, ZeroOneAndMixedNodesMatchPerArcLoop) {
  const graph::Graph g = MakeFastPathGraph();
  const double levels[] = {0.0, 1.0, 0.4, 0.07};
  std::vector<double> probs(g.num_edges());
  Rng rng(31);
  uint32_t mixed_nodes = 0, zero_nodes = 0, one_nodes = 0;
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    const bool mixed = g.InDegree(v) > 1 && rng.NextBounded(5) == 0;
    const double p = levels[rng.NextBounded(4)];
    for (graph::EdgeId e : g.InEdgeIds(v)) {
      probs[e] = mixed ? levels[rng.NextBounded(4)] : p;
    }
    if (g.InDegree(v) == 0) continue;
    mixed_nodes += mixed;
    zero_nodes += !mixed && p == 0.0;
    one_nodes += !mixed && p == 1.0;
  }
  ASSERT_GT(mixed_nodes, 10u);
  ASSERT_GT(zero_nodes, 10u);
  ASSERT_GT(one_nodes, 10u);
  ExpectMatchesOracle(g, probs, DiffusionModel::kIndependentCascade);
}

TEST(RrSamplerFastPathTest, LinearThresholdUnchanged) {
  const graph::Graph g = MakeFastPathGraph();
  auto topics = topic::MakeWeightedCascade(g, 1);
  ASSERT_TRUE(topics.ok());
  ExpectMatchesOracle(g, topics.value().topic(0),
                      DiffusionModel::kLinearThreshold);
}

// After 2^32 - 1 sets the epoch wraps; the sampler must restart its
// visited markers rather than treat every node as visited at epoch 0. On a
// directed 6-cycle with p = 1 every RR set is the whole cycle.
TEST(RrSamplerTest, EpochWraparoundKeepsSetsIntact) {
  auto g =
      test::MustGraph(6, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}});
  const std::vector<double> probs(g.num_edges(), 1.0);
  RrSampler sampler(g, probs);
  // The first set wraps, before any marker was written.
  sampler.set_epoch_for_test(UINT32_MAX);
  Rng rng(5);
  std::vector<graph::NodeId> rr;
  for (int i = 0; i < 4; ++i) {
    sampler.SampleInto(rng, &rr);
    EXPECT_EQ(rr.size(), 6u) << "set " << i;
  }
}

// ---------- RrCollection ----------

TEST(RrCollectionTest, AddAndCoverageCounts) {
  auto g = test::MustGraph(3, {{0, 1}, {1, 2}});
  std::vector<double> probs(g.num_edges(), 1.0);
  RrSampler sampler(g, probs);
  RrCollection col(3);
  Rng rng(10);
  col.AddSets(sampler, 300, rng, {});
  EXPECT_EQ(col.total_sets(), 300u);
  EXPECT_EQ(col.covered_sets(), 0u);
  // With p = 1, node 0 is in every RR set.
  EXPECT_EQ(col.CoverageOf(0), 300u);
  // Node 2 only appears when the root is 2 (~1/3 of sets).
  EXPECT_GT(col.CoverageOf(2), 60u);
  EXPECT_LT(col.CoverageOf(2), 140u);
}

TEST(RrCollectionTest, RemoveCoveredByZeroesOutNode) {
  auto g = test::MustGraph(3, {{0, 1}, {1, 2}});
  std::vector<double> probs(g.num_edges(), 1.0);
  RrSampler sampler(g, probs);
  RrCollection col(3);
  Rng rng(11);
  col.AddSets(sampler, 200, rng, {});
  const uint32_t removed = col.RemoveCoveredBy(0);
  EXPECT_EQ(removed, 200u);  // node 0 covered everything
  EXPECT_EQ(col.covered_sets(), 200u);
  EXPECT_DOUBLE_EQ(col.covered_fraction(), 1.0);
  EXPECT_EQ(col.CoverageOf(1), 0u);
  EXPECT_EQ(col.CoverageOf(2), 0u);
  // Second removal is a no-op.
  EXPECT_EQ(col.RemoveCoveredBy(1), 0u);
}

TEST(RrCollectionTest, MarginalCoverageAfterRemoval) {
  // Star into 0: 1 -> 0, 2 -> 0 (p = 1). RR(root=0) = {0,1,2};
  // RR(root=1) = {1}; RR(root=2) = {2}.
  auto g = test::MustGraph(3, {{1, 0}, {2, 0}});
  std::vector<double> probs(g.num_edges(), 1.0);
  RrSampler sampler(g, probs);
  RrCollection col(3);
  Rng rng(12);
  col.AddSets(sampler, 3000, rng, {});
  const uint32_t cov1_before = col.CoverageOf(1);
  col.RemoveCoveredBy(0);  // removes all root-0 sets
  const uint32_t cov1_after = col.CoverageOf(1);
  // Node 1's marginal coverage is now only its own root-1 singletons.
  EXPECT_LT(cov1_after, cov1_before);
  EXPECT_GT(cov1_after, 0u);
}

TEST(RrCollectionTest, ArgmaxCoverageRespectsEligibility) {
  auto g = test::MustGraph(3, {{0, 1}, {1, 2}});
  std::vector<double> probs(g.num_edges(), 1.0);
  RrSampler sampler(g, probs);
  RrCollection col(3);
  Rng rng(13);
  col.AddSets(sampler, 100, rng, {});
  std::vector<uint8_t> eligible = {1, 1, 1};
  EXPECT_EQ(col.ArgmaxCoverage(eligible), 0u);
  eligible[0] = 0;
  EXPECT_EQ(col.ArgmaxCoverage(eligible), 1u);
  eligible[1] = 0;
  EXPECT_EQ(col.ArgmaxCoverage(eligible), 2u);
  eligible[2] = 0;
  EXPECT_EQ(col.ArgmaxCoverage(eligible), RrCollection::kInvalidNode);
}

TEST(RrCollectionTest, TopCoverageOrdering) {
  auto g = test::MustGraph(3, {{0, 1}, {1, 2}});
  std::vector<double> probs(g.num_edges(), 1.0);
  RrSampler sampler(g, probs);
  RrCollection col(3);
  Rng rng(14);
  col.AddSets(sampler, 500, rng, {});
  std::vector<uint8_t> eligible = {1, 1, 1};
  auto top2 = col.TopCoverage(2, eligible);
  ASSERT_EQ(top2.size(), 2u);
  EXPECT_EQ(top2[0], 0u);
  EXPECT_EQ(top2[1], 1u);
  auto top10 = col.TopCoverage(10, eligible);
  EXPECT_EQ(top10.size(), 3u);
}

TEST(RrCollectionTest, AddSetsWithSeedsMarksCovered) {
  auto g = test::MustGraph(3, {{0, 1}, {1, 2}});
  std::vector<double> probs(g.num_edges(), 1.0);
  RrSampler sampler(g, probs);
  RrCollection col(3);
  Rng rng(15);
  col.AddSets(sampler, 100, rng, {});
  col.RemoveCoveredBy(0);
  EXPECT_DOUBLE_EQ(col.covered_fraction(), 1.0);
  // Grow the sample while seed {0} is active: new sets containing 0 are
  // covered immediately (Algorithm 3) — with p=1 that is all of them.
  const graph::NodeId seeds[1] = {0};
  col.AddSets(sampler, 100, rng, seeds);
  EXPECT_EQ(col.total_sets(), 200u);
  EXPECT_DOUBLE_EQ(col.covered_fraction(), 1.0);
}

TEST(RrCollectionTest, MaxCoverageFractionAndMeanSize) {
  auto g = test::MustGraph(3, {{0, 1}, {1, 2}});
  std::vector<double> probs(g.num_edges(), 1.0);
  RrSampler sampler(g, probs);
  RrCollection col(3);
  Rng rng(16);
  EXPECT_DOUBLE_EQ(col.MaxCoverageFraction(), 0.0);
  col.AddSets(sampler, 100, rng, {});
  EXPECT_DOUBLE_EQ(col.MaxCoverageFraction(), 1.0);  // node 0 in all
  EXPECT_GE(col.MeanSetSize(), 1.0);
  EXPECT_LE(col.MeanSetSize(), 3.0);
  EXPECT_GT(col.MemoryBytes(), 0u);
}

// ---------- RrStore inverted index (CSR base + chained postings) ----------

// Brute-force reference: sets containing v, by scanning every set.
std::vector<uint32_t> BruteForceSetsContaining(const RrStore& store,
                                               graph::NodeId v) {
  std::vector<uint32_t> out;
  for (uint64_t r = 0; r < store.num_sets(); ++r) {
    const auto members = store.SetMembers(r);
    if (std::find(members.begin(), members.end(), v) != members.end()) {
      out.push_back(static_cast<uint32_t>(r));
    }
  }
  return out;
}

void ExpectIndexMatchesBruteForce(const RrStore& store) {
  for (graph::NodeId v = 0; v < store.num_nodes(); ++v) {
    const auto expected = BruteForceSetsContaining(store, v);
    const auto actual = store.SetsContaining(v);
    ASSERT_EQ(actual, expected) << "node " << v;
    ASSERT_TRUE(std::is_sorted(actual.begin(), actual.end())) << "node " << v;
  }
}

TEST(RrStoreIndexTest, IndexSurvivesChainGrowthAndCompactions) {
  auto g = test::MustGraph(6, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}});
  std::vector<double> probs(g.num_edges(), 0.7);
  RrSampler sampler(g, probs);
  RrStore store(6);
  Rng rng(31);
  // A big batch (compacts into the CSR base), then a trickle of tiny
  // batches (chained postings), then another big batch (compacts again):
  // the growth pattern RunTiGreedy's θ revisions produce.
  store.Sample(sampler, 300, rng);
  ExpectIndexMatchesBruteForce(store);
  for (int i = 0; i < 40; ++i) {
    store.Sample(sampler, 1 + (i % 3), rng);
  }
  ExpectIndexMatchesBruteForce(store);
  store.Sample(sampler, 2000, rng);
  ExpectIndexMatchesBruteForce(store);
  EXPECT_EQ(store.num_sets(), 300u + 79u + 2000u);
}

TEST(RrStoreIndexTest, EarlyExitStopsAscendingScan) {
  auto g = test::MustGraph(3, {{0, 1}, {1, 2}});
  std::vector<double> probs(g.num_edges(), 1.0);
  RrSampler sampler(g, probs);
  RrStore store(3);
  Rng rng(32);
  store.Sample(sampler, 100, rng);
  // Node 0 is in every set (p = 1). Stop after 10 visited ids.
  std::vector<uint32_t> seen;
  const bool completed = store.ForEachSetContaining(0, [&](uint32_t r) {
    seen.push_back(r);
    return seen.size() < 10;
  });
  EXPECT_FALSE(completed);
  ASSERT_EQ(seen.size(), 10u);
  for (uint32_t k = 0; k < 10; ++k) EXPECT_EQ(seen[k], k);
}

TEST(RrStoreIndexTest, MemoryAccountingCoversIndex) {
  auto g = test::MustGraph(4, {{0, 1}, {0, 2}, {1, 3}, {2, 3}});
  std::vector<double> probs(g.num_edges(), 0.6);
  RrSampler sampler(g, probs);
  RrStore store(4);
  Rng rng(33);
  store.Sample(sampler, 500, rng);
  EXPECT_GT(store.MemoryBytes(), 0u);
  EXPECT_GT(store.IndexBytes(), 0u);
  EXPECT_LT(store.IndexBytes(), store.MemoryBytes());
}

// ---------- SampleSizer ----------

TEST(SampleSizerTest, ThetaShrinksWithLargerEpsilon) {
  auto g = test::MustGraph(100, [] {
    std::vector<graph::Edge> es;
    for (graph::NodeId u = 0; u < 99; ++u) es.push_back({u, u + 1});
    return es;
  }());
  std::vector<double> probs(g.num_edges(), 0.1);
  SampleSizerOptions tight, loose;
  tight.epsilon = 0.1;
  loose.epsilon = 0.5;
  SampleSizer a(g, probs, tight), b(g, probs, loose);
  EXPECT_GT(a.ThetaFor(1), b.ThetaFor(1));
}

TEST(SampleSizerTest, OptLowerBoundConstantInSAndAtLeastOne) {
  auto g = test::MakeDiamond();
  std::vector<double> probs(g.num_edges(), 0.5);
  SampleSizerOptions opt;
  SampleSizer sizer(g, probs, opt);
  // Eq. 8's denominator is the pilot scalar max(1, KPT): one value for the
  // whole schedule, never re-evaluated per s (see sample_sizer.h).
  EXPECT_GE(sizer.OptLowerBound(), 1.0);
  EXPECT_GE(sizer.OptLowerBound(), sizer.kpt());
  SampleSizerOptions no_pilot = opt;
  no_pilot.run_kpt_pilot = false;
  SampleSizer bare(g, probs, no_pilot);
  EXPECT_DOUBLE_EQ(bare.OptLowerBound(), 1.0);
  EXPECT_DOUBLE_EQ(bare.kpt(), 0.0);
}

TEST(SampleSizerTest, ThetaCapRespectedAndCapHitsObservable) {
  auto g = test::MakeDiamond();
  std::vector<double> probs(g.num_edges(), 0.5);
  SampleSizerOptions opt;
  opt.epsilon = 0.01;
  opt.theta_cap = 1000;
  SampleSizer sizer(g, probs, opt);
  EXPECT_EQ(sizer.theta_cap_hits(), 0u);
  EXPECT_LE(sizer.ThetaFor(2), 1000u);
  // ε = 0.01 on a 4-node graph wants far more than 1000 sets, so the cap
  // must have saturated — and saturation is counted, not silent.
  EXPECT_EQ(sizer.ThetaFor(2), 1000u);
  EXPECT_EQ(sizer.theta_cap_hits(), 2u);
}

TEST(SampleSizerTest, OutOfRangeSClampedAndCounted) {
  auto g = test::MakeDiamond();
  std::vector<double> probs(g.num_edges(), 0.5);
  SampleSizerOptions opt;
  SampleSizer sizer(g, probs, opt);
  const uint64_t n = g.num_nodes();
  EXPECT_EQ(sizer.clamped_s_queries(), 0u);
  // s = 0 clamps to 1, s > n clamps to n; both are counted.
  EXPECT_EQ(sizer.ThetaFor(0), sizer.ThetaFor(1));
  EXPECT_EQ(sizer.ThetaFor(n + 7), sizer.ThetaFor(n));
  EXPECT_EQ(sizer.clamped_s_queries(), 2u);
  // In-range queries never bump the counter.
  (void)sizer.ThetaFor(2);
  EXPECT_EQ(sizer.clamped_s_queries(), 2u);
}

TEST(SampleSizerTest, EdgeCaseSingleNodeAndNoEdges) {
  // n = 1 (no pilot possible): θ must stay a positive, capped count.
  auto g1 = test::MustGraph(1, {});
  SampleSizerOptions opt;
  SampleSizer s1(g1, {}, opt);
  EXPECT_EQ(s1.pilot_sets(), 0u);
  EXPECT_FALSE(s1.pilot_converged());
  EXPECT_GE(s1.ThetaFor(1), 1u);
  EXPECT_LE(s1.ThetaFor(1), opt.theta_cap);

  // m = 0 with several nodes: pilot skipped, Eq. 8 still well-defined.
  auto g0 = test::MustGraph(5, {});
  SampleSizer s0(g0, {}, opt);
  EXPECT_EQ(s0.pilot_sets(), 0u);
  EXPECT_DOUBLE_EQ(s0.OptLowerBound(), 1.0);
  EXPECT_GE(s0.ThetaFor(3), 1u);
  EXPECT_LE(s0.ThetaFor(3), opt.theta_cap);
}

TEST(SampleSizerTest, PilotNonConvergenceIsObservable) {
  // Path graph with near-zero probabilities: mean RR width stays ~1, so
  // κ ≈ 1/m never crosses the 1/2^i threshold within the round budget —
  // the doubling loop must fall off the end and report non-convergence
  // (regression: this used to be silent).
  // n = 100 runs min(8, log2 100) = 6 doubling rounds, so the loosest
  // threshold is 1/64 ≈ 0.0156 while mean κ ≈ 1.001/99 ≈ 0.0101 — below
  // every round's bar by a wide margin.
  auto g = test::MustGraph(100, [] {
    std::vector<graph::Edge> es;
    for (graph::NodeId u = 0; u < 99; ++u) es.push_back({u, u + 1});
    return es;
  }());
  std::vector<double> probs(g.num_edges(), 0.001);
  SampleSizerOptions opt;
  SampleSizer sizer(g, probs, opt);
  EXPECT_GT(sizer.pilot_sets(), 0u);
  EXPECT_FALSE(sizer.pilot_converged());
  // The last-round estimate is still retained as a (weak) lower bound.
  EXPECT_GT(sizer.kpt(), 0.0);

  // Contrast: a high-influence fixture converges within the budget.
  std::vector<double> hot(g.num_edges(), 0.9);
  SampleSizer converged(g, hot, opt);
  EXPECT_TRUE(converged.pilot_converged());
}

TEST(ThetaScheduleTest, MonotoneAndMatchesRunningMax) {
  auto g = test::MustGraph(60, [] {
    std::vector<graph::Edge> es;
    for (graph::NodeId u = 0; u < 59; ++u) es.push_back({u, u + 1});
    return es;
  }());
  std::vector<double> probs(g.num_edges(), 0.2);
  SampleSizerOptions opt;
  opt.epsilon = 0.3;
  auto sizer = std::make_shared<const SampleSizer>(g, probs, opt);
  ThetaSchedule schedule(sizer);
  uint64_t prev = 0;
  uint64_t running_max = 0;
  for (uint64_t s = 1; s <= g.num_nodes(); ++s) {
    const uint64_t theta = schedule.ThetaFor(s);
    running_max = std::max(running_max, sizer->ThetaFor(s));
    EXPECT_GE(theta, prev) << "schedule must be non-decreasing at s=" << s;
    EXPECT_EQ(theta, running_max) << "s=" << s;
    prev = theta;
  }
}

TEST(ThetaScheduleTest, QueryOrderNeverChangesValuesAndClampsCounted) {
  auto g = test::MustGraph(30, [] {
    std::vector<graph::Edge> es;
    for (graph::NodeId u = 0; u < 29; ++u) es.push_back({u, u + 1});
    return es;
  }());
  std::vector<double> probs(g.num_edges(), 0.2);
  SampleSizerOptions opt;
  opt.epsilon = 0.3;
  auto sizer = std::make_shared<const SampleSizer>(g, probs, opt);
  ThetaSchedule forward(sizer), backward(sizer);
  std::vector<uint64_t> fwd, bwd;
  for (uint64_t s = 1; s <= 20; ++s) fwd.push_back(forward.ThetaFor(s));
  for (uint64_t s = 20; s >= 1; --s) bwd.push_back(backward.ThetaFor(s));
  std::reverse(bwd.begin(), bwd.end());
  EXPECT_EQ(fwd, bwd);
  // Out-of-range queries clamp (s̃ past n is meaningless) and are counted.
  EXPECT_EQ(forward.clamped_queries(), 0u);
  EXPECT_EQ(forward.ThetaFor(10'000), forward.ThetaFor(g.num_nodes()));
  EXPECT_EQ(forward.clamped_queries(), 1u);
}

TEST(ThetaScheduleTest, CapSaturationCounted) {
  auto g = test::MakeDiamond();
  std::vector<double> probs(g.num_edges(), 0.5);
  SampleSizerOptions opt;
  opt.epsilon = 0.05;
  opt.theta_cap = 500;
  auto sizer = std::make_shared<const SampleSizer>(g, probs, opt);
  ThetaSchedule schedule(sizer);
  EXPECT_EQ(schedule.ThetaFor(2), 500u);
  EXPECT_EQ(schedule.cap_hits(), 1u);
}

TEST(SampleSizerTest, PilotRunsWhenEnabled) {
  auto g = test::MustGraph(64, [] {
    std::vector<graph::Edge> es;
    for (graph::NodeId u = 0; u < 63; ++u) es.push_back({u, u + 1});
    return es;
  }());
  std::vector<double> probs(g.num_edges(), 0.3);
  SampleSizerOptions with_pilot, without;
  with_pilot.run_kpt_pilot = true;
  without.run_kpt_pilot = false;
  SampleSizer a(g, probs, with_pilot), b(g, probs, without);
  EXPECT_GT(a.pilot_sets(), 0u);
  EXPECT_EQ(b.pilot_sets(), 0u);
  // The pilot can only raise the OPT lower bound, hence shrink theta.
  EXPECT_LE(a.ThetaFor(1), b.ThetaFor(1));
}

TEST(SampleSizerTest, DeterministicInSeed) {
  auto g = test::MakeDiamond();
  std::vector<double> probs(g.num_edges(), 0.5);
  SampleSizerOptions opt;
  opt.seed = 77;
  SampleSizer a(g, probs, opt), b(g, probs, opt);
  EXPECT_EQ(a.ThetaFor(2), b.ThetaFor(2));
}

// ---------- Singleton estimator ----------

TEST(SingletonEstimatorTest, MatchesExactOnDiamond) {
  auto g = test::MakeDiamond();
  std::vector<double> probs = {0.5, 0.5, 0.5, 0.5};
  auto est = EstimateAllSingletonSpreads(g, probs, 300'000, 21);
  ASSERT_TRUE(est.ok());
  for (graph::NodeId u = 0; u < 4; ++u) {
    const graph::NodeId seeds[1] = {u};
    const double exact = diffusion::ExactSpread(g, probs, seeds).value();
    EXPECT_NEAR(est.value()[u], exact, 0.03) << "node " << u;
  }
}

TEST(SingletonEstimatorTest, FloorsAtOne) {
  auto g = test::MustGraph(3, {{0, 1}});
  std::vector<double> probs = {0.0};
  auto est = EstimateAllSingletonSpreads(g, probs, 1000, 22);
  ASSERT_TRUE(est.ok());
  for (double v : est.value()) EXPECT_GE(v, 1.0);
}

TEST(SingletonEstimatorTest, RejectsZeroTheta) {
  auto g = test::MakeDiamond();
  std::vector<double> probs(g.num_edges(), 0.5);
  EXPECT_FALSE(EstimateAllSingletonSpreads(g, probs, 0, 1).ok());
}

}  // namespace
}  // namespace isa::rrset
