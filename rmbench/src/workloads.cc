#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.h"
#include "core/incentives.h"
#include "graph/dataset_catalog.h"
#include "graph/generators.h"
#include "rrset/singleton_estimator.h"
#include "topic/topic_distribution.h"

namespace rmbench {

namespace {

using isa::Result;
using isa::Status;

// The graphs are fixed datasets, as a real one would be: the catalog's
// own soc-epinions1 fallback, and a BA graph from isa_cli's default seed.
// The benchmark seed varies what a user's run varies on one dataset — the
// RR sample that prices the incentives and the solve's sampling seed.
constexpr uint64_t kBaGraphSeed = 42;
// Stream ids mixed with the benchmark seed, one per random input.
constexpr uint64_t kSingletonStream = 13;
constexpr uint64_t kSolveStream = 14;
constexpr double kAlpha = 0.2;
constexpr uint64_t kSingletonSets = 50'000;

uint64_t Scaled(uint64_t value, double scale, uint64_t floor) {
  return std::max<uint64_t>(
      floor, static_cast<uint64_t>(std::llround(value * scale)));
}

WorkloadSpec SelectHeavy() {
  WorkloadSpec w;
  w.name = "select-heavy";
  w.ba_nodes = 100'000;
  w.num_ads = 8;
  w.budget = 2000.0;
  w.options.candidate_rule = isa::core::CandidateRule::kCoverageCostRatio;
  w.options.selection_rule = isa::core::SelectionRule::kMaxRate;
  w.options.window = 0;
  w.options.theta_cap = 200'000;
  w.options.num_threads = 1;
  return w;
}

}  // namespace

Result<WorkloadSpec> FindWorkload(const std::string& name, double scale) {
  if (!(scale > 0.0 && scale <= 1.0)) {
    return Status::InvalidArgument("--scale must be in (0, 1]");
  }
  WorkloadSpec w;
  if (name == "sample-heavy") {
    w.name = name;
    w.epinions_fallback = true;
    w.num_ads = 4;
    w.budget = 200.0;
    w.options.candidate_rule = isa::core::CandidateRule::kCoverage;
    w.options.selection_rule = isa::core::SelectionRule::kMaxMarginalRevenue;
    w.options.theta_cap = 100'000;
    w.options.num_threads = 4;
  } else if (name == "select-heavy") {
    w = SelectHeavy();
  } else if (name == "spill") {
    w = SelectHeavy();
    w.name = name;
    // A user's memory limit per RR store: about half of the 7.8 MiB a
    // store reaches unbudgeted on this instance. Fixed, not re-derived.
    w.options.rr_memory_budget_bytes = 4ull << 20;
  } else {
    return Status::InvalidArgument("unknown workload: " + name);
  }
  w.options.epsilon = 0.3;
  w.options.num_partitions = 1;
  w.ba_nodes = static_cast<uint32_t>(Scaled(w.ba_nodes, scale, 200));
  w.budget *= scale;
  w.singleton_sets = Scaled(kSingletonSets, scale, 1000);
  w.options.theta_cap = Scaled(w.options.theta_cap, scale, 1000);
  if (w.options.rr_memory_budget_bytes > 0) {
    w.options.rr_memory_budget_bytes =
        Scaled(w.options.rr_memory_budget_bytes, scale, 16 << 10);
  }
  w.scale = scale;
  return w;
}

Result<BuiltInstance> BuildInstance(const WorkloadSpec& spec, uint64_t seed,
                                    const std::string& no_data_dir,
                                    Tracer* tracer, uint32_t run,
                                    SetupTimes* times) {
  Scope total(tracer, "setup", -1, run);
  BuiltInstance out;

  Scope graph_scope(tracer, "graph.build", total.id(), run);
  if (spec.epinions_fallback) {
    auto resolved = isa::graph::DatasetCatalog::Resolve("soc-epinions1");
    if (!resolved.ok()) return resolved.status();
    isa::graph::DatasetCatalog::Options copt;
    // A directory that holds no data: the catalog then generates its
    // deterministic synthetic fallback and reads nothing else.
    copt.data_dir = no_data_dir;
    copt.cache_synthetic = false;
    copt.scale = spec.scale;
    auto loaded = isa::graph::DatasetCatalog::Load(resolved.value(), copt);
    if (!loaded.ok()) return loaded.status();
    if (loaded.value().from_file) {
      return Status::FailedPrecondition(
          "soc-epinions1 resolved to a data file, not the synthetic fallback");
    }
    out.graph = std::make_unique<isa::graph::Graph>(
        std::move(loaded.value().graph));
    auto topics = isa::topic::TopicEdgeProbabilities::Create(
        *out.graph, std::move(loaded.value().arc_weights));
    if (!topics.ok()) return topics.status();
    out.topics = std::make_unique<isa::topic::TopicEdgeProbabilities>(
        std::move(topics).value());
  } else {
    auto g = isa::graph::GenerateBarabasiAlbert(
        {.num_nodes = spec.ba_nodes,
         .edges_per_node = 4,
         .seed = kBaGraphSeed});
    if (!g.ok()) return g.status();
    out.graph = std::make_unique<isa::graph::Graph>(std::move(g).value());
    auto topics = isa::topic::MakeWeightedCascade(*out.graph, 1);
    if (!topics.ok()) return topics.status();
    out.topics = std::make_unique<isa::topic::TopicEdgeProbabilities>(
        std::move(topics).value());
  }
  if (out.topics->num_topics() != 1) {
    return Status::FailedPrecondition("workloads expect one topic");
  }
  times->graph_s = graph_scope.Stop();

  // The advertisers are identical (one topic, same budget and CPE), so one
  // singleton-spread vector prices every ad's incentives.
  Scope singleton_scope(tracer, "rrset.singleton", total.id(), run);
  auto spreads = isa::rrset::EstimateAllSingletonSpreads(
      *out.graph, out.topics->topic(0), spec.singleton_sets,
      isa::HashSeed(seed, kSingletonStream));
  if (!spreads.ok()) return spreads.status();
  times->singleton_s = singleton_scope.Stop();

  Scope instance_scope(tracer, "eval.instance", total.id(), run);
  auto incentives = isa::core::ComputeIncentives(
      isa::core::IncentiveModel::kLinear, kAlpha, spreads.value());
  if (!incentives.ok()) return incentives.status();
  isa::core::AdvertiserSpec ad;
  ad.cpe = 1.0;
  ad.budget = spec.budget;
  ad.gamma = isa::topic::TopicDistribution::Uniform(1);
  auto instance = isa::core::RmInstance::Create(
      *out.graph, *out.topics,
      std::vector<isa::core::AdvertiserSpec>(spec.num_ads, ad),
      std::vector<std::vector<double>>(spec.num_ads, incentives.value()));
  if (!instance.ok()) return instance.status();
  out.instance =
      std::make_unique<isa::core::RmInstance>(std::move(instance).value());
  times->instance_s = instance_scope.Stop();
  times->total_s = total.Stop();
  return out;
}

uint64_t SolveSeed(uint64_t seed, uint32_t index) {
  return isa::HashSeed(isa::HashSeed(seed, kSolveStream), index);
}

}  // namespace rmbench
