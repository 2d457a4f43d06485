#include "eval/workload.h"

#include <algorithm>

#include "common/rng.h"
#include "diffusion/cascade.h"
#include "rrset/singleton_estimator.h"
#include "topic/topic_distribution.h"

namespace isa::eval {

Result<std::unique_ptr<Dataset>> LoadDataset(
    const graph::DatasetSpec& spec,
    const graph::DatasetCatalog::Options& options) {
  auto loaded = graph::DatasetCatalog::Load(spec, options);
  if (!loaded.ok()) return loaded.status();
  auto ds = std::make_unique<Dataset>();
  ds->name = spec.name;
  ds->source = std::move(loaded.value().source);
  ds->graph = std::move(loaded.value().graph);
  auto topics = topic::TopicEdgeProbabilities::Create(
      ds->graph, std::move(loaded.value().arc_weights));
  if (!topics.ok()) return topics.status();
  ds->topics = std::move(topics).value();
  return ds;
}

Result<std::vector<core::AdvertiserSpec>> MakeAdvertisers(
    const Dataset& dataset, const WorkloadOptions& options) {
  const uint32_t h = options.num_advertisers;
  if (h == 0) {
    return Status::InvalidArgument("MakeAdvertisers: need >= 1 advertiser");
  }
  if (options.budget_min <= 0.0 || options.budget_max < options.budget_min) {
    return Status::InvalidArgument("MakeAdvertisers: bad budget range");
  }
  if (options.cpe_min <= 0.0 || options.cpe_max < options.cpe_min) {
    return Status::InvalidArgument("MakeAdvertisers: bad cpe range");
  }

  // Topic distributions: pure-competition marketplace when the dataset has
  // multiple topics; otherwise all ads share the single topic.
  std::vector<topic::TopicDistribution> gammas;
  const uint32_t num_topics = dataset.topics.num_topics();
  if (num_topics > 1) {
    auto mk = topic::MakePureCompetitionMarketplace(h, num_topics);
    if (!mk.ok()) return mk.status();
    gammas = std::move(mk).value();
  } else {
    gammas.assign(h, topic::TopicDistribution::Uniform(1));
  }

  Rng rng(HashSeed(options.seed, 0xadc0de));
  std::vector<core::AdvertiserSpec> ads(h);
  for (uint32_t i = 0; i < h; ++i) {
    ads[i].budget = options.budget_min +
                    rng.NextDouble() * (options.budget_max -
                                        options.budget_min);
    ads[i].cpe =
        options.cpe_min + rng.NextDouble() * (options.cpe_max -
                                              options.cpe_min);
    ads[i].gamma = gammas[i];
  }
  return ads;
}

Result<std::vector<std::vector<double>>> ComputeSingletonSpreads(
    const Dataset& dataset, const std::vector<core::AdvertiserSpec>& ads,
    const WorkloadOptions& options) {
  std::vector<std::vector<double>> spreads;
  spreads.reserve(ads.size());

  if (options.spread_source == SpreadSource::kOutDegreeProxy) {
    // Identical for every ad; computed once and copied.
    std::vector<double> proxy =
        diffusion::SingletonSpreadProxy(dataset.graph);
    spreads.assign(ads.size(), proxy);
    return spreads;
  }

  for (size_t i = 0; i < ads.size(); ++i) {
    auto mixed = topic::AdProbabilities::Mix(dataset.topics, ads[i].gamma);
    if (!mixed.ok()) return mixed.status();
    if (options.spread_source == SpreadSource::kRrEstimate) {
      auto est = rrset::EstimateAllSingletonSpreads(
          dataset.graph, mixed.value().probs(), options.spread_effort,
          HashSeed(options.seed, 0x5109 + i));
      if (!est.ok()) return est.status();
      spreads.push_back(std::move(est).value());
    } else {
      spreads.push_back(diffusion::EstimateSingletonSpreads(
          dataset.graph, mixed.value().probs(), options.spread_effort,
          HashSeed(options.seed, 0x3c09 + i)));
    }
  }
  return spreads;
}

namespace {

Result<std::unique_ptr<core::RmInstance>> AssembleInstance(
    const Dataset& dataset, const std::vector<core::AdvertiserSpec>& ads,
    const std::vector<std::vector<double>>& singleton_spreads,
    core::IncentiveModel model, double alpha) {
  std::vector<std::vector<double>> incentives;
  incentives.reserve(ads.size());
  for (size_t i = 0; i < ads.size(); ++i) {
    auto c = core::ComputeIncentives(model, alpha, singleton_spreads[i]);
    if (!c.ok()) return c.status();
    incentives.push_back(std::move(c).value());
  }
  auto inst = core::RmInstance::Create(dataset.graph, dataset.topics, ads,
                                       std::move(incentives));
  if (!inst.ok()) return inst.status();
  return std::make_unique<core::RmInstance>(std::move(inst).value());
}

}  // namespace

Result<ExperimentSetup> BuildExperiment(std::unique_ptr<Dataset> dataset,
                                        const WorkloadOptions& options) {
  if (dataset == nullptr) {
    return Status::InvalidArgument("BuildExperiment: null dataset");
  }
  ExperimentSetup setup;
  setup.dataset = std::move(dataset);

  auto ads = MakeAdvertisers(*setup.dataset, options);
  if (!ads.ok()) return ads.status();
  setup.ads = std::move(ads).value();

  auto spreads = ComputeSingletonSpreads(*setup.dataset, setup.ads, options);
  if (!spreads.ok()) return spreads.status();
  setup.singleton_spreads = std::move(spreads).value();

  auto inst =
      AssembleInstance(*setup.dataset, setup.ads, setup.singleton_spreads,
                       options.incentive_model, options.alpha);
  if (!inst.ok()) return inst.status();
  setup.instance = std::move(inst).value();
  return setup;
}

Status RebuildInstanceWithIncentives(ExperimentSetup& setup,
                                     core::IncentiveModel model,
                                     double alpha) {
  auto inst = AssembleInstance(*setup.dataset, setup.ads,
                               setup.singleton_spreads, model, alpha);
  if (!inst.ok()) return inst.status();
  setup.instance = std::move(inst).value();
  return Status::OK();
}

}  // namespace isa::eval
