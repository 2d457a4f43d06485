#include "topic/tic_model.h"

#include "common/rng.h"
#include "common/strings.h"
#include "graph/dataset_catalog.h"

namespace isa::topic {

Result<TopicEdgeProbabilities> TopicEdgeProbabilities::Create(
    const graph::Graph& g, std::vector<std::vector<double>> per_topic) {
  if (per_topic.empty()) {
    return Status::InvalidArgument("TopicEdgeProbabilities: no topics");
  }
  for (const auto& arr : per_topic) {
    if (arr.size() != g.num_edges()) {
      return Status::InvalidArgument(
          StrFormat("TopicEdgeProbabilities: %zu probs for %u edges",
                    arr.size(), g.num_edges()));
    }
    for (double p : arr) {
      if (p < 0.0 || p > 1.0) {
        return Status::InvalidArgument(
            "TopicEdgeProbabilities: probability outside [0,1]");
      }
    }
  }
  TopicEdgeProbabilities out;
  out.p_ = std::move(per_topic);
  return out;
}

uint64_t TopicEdgeProbabilities::MemoryBytes() const {
  uint64_t bytes = 0;
  for (const auto& arr : p_) bytes += arr.capacity() * sizeof(double);
  return bytes;
}

namespace {

// The catalog's weights for `regime` (graph::MakeRegimeWeights), one layer
// per topic: topic-mix draws each layer, the single-layer regimes repeat
// theirs.
Result<TopicEdgeProbabilities> FromRegime(const graph::Graph& g,
                                          graph::WeightingRegime regime,
                                          uint32_t num_topics,
                                          double uniform_p, uint64_t seed,
                                          const char* what) {
  if (num_topics == 0) {
    return Status::InvalidArgument(StrFormat("%s: num_topics == 0", what));
  }
  auto weights =
      graph::MakeRegimeWeights(g, regime, num_topics, uniform_p, seed);
  if (!weights.ok()) return weights.status();
  std::vector<std::vector<double>> per_topic = std::move(weights).value();
  while (per_topic.size() < num_topics) per_topic.push_back(per_topic[0]);
  return TopicEdgeProbabilities::Create(g, std::move(per_topic));
}

}  // namespace

Result<TopicEdgeProbabilities> MakeWeightedCascade(const graph::Graph& g,
                                                   uint32_t num_topics) {
  return FromRegime(g, graph::WeightingRegime::kWeightedCascade, num_topics,
                    0.0, 0, "MakeWeightedCascade");
}

Result<TopicEdgeProbabilities> MakeTrivalency(const graph::Graph& g,
                                              uint32_t num_topics,
                                              uint64_t seed) {
  if (num_topics == 0) {
    return Status::InvalidArgument("MakeTrivalency: num_topics == 0");
  }
  static constexpr double kLevels[3] = {0.1, 0.01, 0.001};
  std::vector<std::vector<double>> per_topic(num_topics);
  for (uint32_t z = 0; z < num_topics; ++z) {
    Rng rng(HashSeed(seed, z));
    auto& arr = per_topic[z];
    arr.resize(g.num_edges());
    for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
      arr[e] = kLevels[rng.NextBounded(3)];
    }
  }
  return TopicEdgeProbabilities::Create(g, std::move(per_topic));
}

Result<TopicEdgeProbabilities> MakeUniform(const graph::Graph& g,
                                           uint32_t num_topics, double p) {
  return FromRegime(g, graph::WeightingRegime::kUniformIc, num_topics, p, 0,
                    "MakeUniform");
}

Result<TopicEdgeProbabilities> MakeDegreeScaledRandom(const graph::Graph& g,
                                                      uint32_t num_topics,
                                                      uint64_t seed) {
  return FromRegime(g, graph::WeightingRegime::kTopicMix, num_topics, 0.0,
                    seed, "MakeDegreeScaledRandom");
}

Result<AdProbabilities> AdProbabilities::Mix(
    const TopicEdgeProbabilities& topics, const TopicDistribution& gamma) {
  if (gamma.num_topics() != topics.num_topics()) {
    return Status::InvalidArgument(
        StrFormat("AdProbabilities: gamma has %u topics, model has %u",
                  gamma.num_topics(), topics.num_topics()));
  }
  AdProbabilities out;
  out.p_.assign(topics.num_edges(), 0.0);
  for (uint32_t z = 0; z < topics.num_topics(); ++z) {
    const double gz = gamma.weight(z);
    if (gz == 0.0) continue;
    std::span<const double> pz = topics.topic(z);
    for (uint32_t e = 0; e < topics.num_edges(); ++e) {
      out.p_[e] += gz * pz[e];
    }
  }
  return out;
}

}  // namespace isa::topic
