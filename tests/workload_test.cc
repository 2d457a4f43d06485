#include <string>

#include <gtest/gtest.h>

#include "eval/workload.h"
#include "tests/test_util.h"
#include "topic/topic_distribution.h"

namespace isa::eval {
namespace {

WorkloadOptions SmallOptions() {
  WorkloadOptions opt;
  opt.num_advertisers = 4;
  opt.budget_min = 50;
  opt.budget_max = 100;
  opt.spread_source = SpreadSource::kOutDegreeProxy;
  return opt;
}

using test::TinyDataset;

TEST(DatasetTest, AllStandInsBuildAtTinyScale) {
  for (const std::string& name : graph::DatasetCatalog::Names()) {
    auto spec = graph::DatasetCatalog::Resolve(name);
    ASSERT_TRUE(spec.ok()) << name;
    auto ds = TinyDataset(name);
    ASSERT_TRUE(ds.ok()) << name << ": " << ds.status().ToString();
    EXPECT_EQ(ds.value()->name, name);
    EXPECT_EQ(ds.value()->source.rfind("synthetic:", 0), 0u)
        << ds.value()->source;
    EXPECT_GT(ds.value()->graph.num_nodes(), 0u) << name;
    EXPECT_GT(ds.value()->graph.num_edges(), 0u) << name;
    EXPECT_EQ(ds.value()->topics.num_edges(),
              ds.value()->graph.num_edges());
    const uint32_t expected_topics =
        spec.value().regime == graph::WeightingRegime::kTopicMix
            ? spec.value().topic_mix_topics
            : 1u;
    EXPECT_EQ(ds.value()->topics.num_topics(), expected_topics) << name;
  }
}

TEST(DatasetTest, FlixsterHasTenTopics) {
  auto ds = TinyDataset("flixster");
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  EXPECT_EQ(ds.value()->topics.num_topics(), 10u);
  // Ten topics make MakeAdvertisers draw the pure-competition marketplace.
  auto opt = SmallOptions();
  opt.num_advertisers = 6;
  auto ads = MakeAdvertisers(*ds.value(), opt);
  ASSERT_TRUE(ads.ok()) << ads.status().ToString();
  auto market = topic::MakePureCompetitionMarketplace(6, 10);
  ASSERT_TRUE(market.ok());
  for (uint32_t i = 0; i < 6; ++i) {
    ASSERT_EQ(ads.value()[i].gamma.num_topics(), 10u);
    for (uint32_t z = 0; z < 10; ++z) {
      EXPECT_EQ(ads.value()[i].gamma.weight(z), market.value()[i].weight(z))
          << "ad " << i << " topic " << z;
    }
  }
}

TEST(MakeAdvertisersTest, BudgetsAndCpesInRange) {
  auto ds = TinyDataset("soc-epinions1");
  ASSERT_TRUE(ds.ok());
  auto opt = SmallOptions();
  auto ads = MakeAdvertisers(*ds.value(), opt);
  ASSERT_TRUE(ads.ok());
  ASSERT_EQ(ads.value().size(), 4u);
  for (const auto& ad : ads.value()) {
    EXPECT_GE(ad.budget, opt.budget_min);
    EXPECT_LE(ad.budget, opt.budget_max);
    EXPECT_GE(ad.cpe, opt.cpe_min);
    EXPECT_LE(ad.cpe, opt.cpe_max);
    EXPECT_EQ(ad.gamma.num_topics(), 1u);
  }
}

TEST(MakeAdvertisersTest, MultiTopicMarketplacePairs) {
  auto ds = TinyDataset("flixster");
  ASSERT_TRUE(ds.ok());
  auto opt = SmallOptions();
  opt.num_advertisers = 6;
  auto ads = MakeAdvertisers(*ds.value(), opt);
  ASSERT_TRUE(ads.ok());
  EXPECT_NEAR(ads.value()[0].gamma.CosineSimilarity(ads.value()[1].gamma),
              1.0, 1e-9);
  EXPECT_LT(ads.value()[0].gamma.CosineSimilarity(ads.value()[2].gamma),
            0.1);
}

TEST(MakeAdvertisersTest, RejectsBadRanges) {
  auto ds = TinyDataset("soc-epinions1");
  ASSERT_TRUE(ds.ok());
  WorkloadOptions opt = SmallOptions();
  opt.budget_min = -1;
  EXPECT_FALSE(MakeAdvertisers(*ds.value(), opt).ok());
  opt = SmallOptions();
  opt.cpe_max = 0.5;  // < cpe_min
  EXPECT_FALSE(MakeAdvertisers(*ds.value(), opt).ok());
  opt = SmallOptions();
  opt.num_advertisers = 0;
  EXPECT_FALSE(MakeAdvertisers(*ds.value(), opt).ok());
}

TEST(SingletonSpreadsTest, ProxySharedAcrossAds) {
  auto ds = TinyDataset("soc-epinions1");
  ASSERT_TRUE(ds.ok());
  auto opt = SmallOptions();
  auto ads = MakeAdvertisers(*ds.value(), opt).value();
  auto spreads = ComputeSingletonSpreads(*ds.value(), ads, opt);
  ASSERT_TRUE(spreads.ok());
  ASSERT_EQ(spreads.value().size(), ads.size());
  EXPECT_EQ(spreads.value()[0], spreads.value()[1]);  // proxy is ad-agnostic
}

TEST(SingletonSpreadsTest, RrEstimateProducesPerAdValues) {
  auto ds = TinyDataset("flixster");
  ASSERT_TRUE(ds.ok());
  auto opt = SmallOptions();
  opt.num_advertisers = 4;
  opt.spread_source = SpreadSource::kRrEstimate;
  opt.spread_effort = 3000;
  auto ads = MakeAdvertisers(*ds.value(), opt).value();
  auto spreads = ComputeSingletonSpreads(*ds.value(), ads, opt);
  ASSERT_TRUE(spreads.ok());
  for (const auto& per_ad : spreads.value()) {
    ASSERT_EQ(per_ad.size(), ds.value()->graph.num_nodes());
    for (double v : per_ad) EXPECT_GE(v, 1.0);
  }
}

TEST(BuildExperimentTest, EndToEndAssembly) {
  auto ds = TinyDataset("soc-epinions1");
  ASSERT_TRUE(ds.ok());
  auto setup = BuildExperiment(std::move(ds).value(), SmallOptions());
  ASSERT_TRUE(setup.ok());
  EXPECT_EQ(setup.value().instance->num_ads(), 4u);
  EXPECT_EQ(setup.value().instance->num_nodes(),
            setup.value().dataset->graph.num_nodes());
}

TEST(BuildExperimentTest, RebuildSwapsIncentives) {
  auto ds = TinyDataset("soc-epinions1");
  ASSERT_TRUE(ds.ok());
  auto setup = BuildExperiment(std::move(ds).value(), SmallOptions());
  ASSERT_TRUE(setup.ok());
  ExperimentSetup s = std::move(setup).value();
  const double before = s.instance->incentive(0, 0);
  ASSERT_TRUE(RebuildInstanceWithIncentives(
                  s, core::IncentiveModel::kSuperlinear, 0.001)
                  .ok());
  const double after = s.instance->incentive(0, 0);
  EXPECT_NE(before, after);
}

TEST(BuildExperimentTest, NullDatasetRejected) {
  EXPECT_FALSE(BuildExperiment(nullptr, SmallOptions()).ok());
}

}  // namespace
}  // namespace isa::eval
