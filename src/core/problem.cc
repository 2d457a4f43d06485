#include "core/problem.h"

#include <algorithm>
#include <cstring>

#include "common/strings.h"
#include "rrset/rr_sampler.h"

namespace isa::core {

Result<RmInstance> RmInstance::Create(
    const graph::Graph& g, const topic::TopicEdgeProbabilities& topics,
    std::vector<AdvertiserSpec> ads,
    std::vector<std::vector<double>> incentives) {
  if (ads.empty()) {
    return Status::InvalidArgument("RmInstance: need >= 1 advertiser");
  }
  if (incentives.size() != ads.size()) {
    return Status::InvalidArgument(
        StrFormat("RmInstance: %zu incentive schedules for %zu ads",
                  incentives.size(), ads.size()));
  }
  for (size_t i = 0; i < ads.size(); ++i) {
    if (ads[i].cpe <= 0.0) {
      return Status::InvalidArgument(
          StrFormat("RmInstance: ad %zu has cpe <= 0", i));
    }
    if (ads[i].budget <= 0.0) {
      return Status::InvalidArgument(
          StrFormat("RmInstance: ad %zu has budget <= 0", i));
    }
    if (incentives[i].size() != g.num_nodes()) {
      return Status::InvalidArgument(
          StrFormat("RmInstance: ad %zu has %zu incentives for %u nodes", i,
                    incentives[i].size(), g.num_nodes()));
    }
    for (double c : incentives[i]) {
      if (c < 0.0) {
        return Status::InvalidArgument(
            StrFormat("RmInstance: ad %zu has a negative incentive", i));
      }
    }
  }

  RmInstance inst;
  inst.g_ = &g;
  // Bitwise-equal γ mix to bitwise-equal Eq. 1 vectors, so such ads share
  // one vector and one in-arc table instead of repeating the O(L·m) mix.
  std::vector<uint32_t> leader_of_probs;
  for (uint32_t i = 0; i < ads.size(); ++i) {
    const std::vector<double>& w = ads[i].gamma.weights();
    auto same = std::find_if(
        leader_of_probs.begin(), leader_of_probs.end(), [&](uint32_t l) {
          const std::vector<double>& lw = ads[l].gamma.weights();
          return lw.size() == w.size() &&
                 std::memcmp(lw.data(), w.data(),
                             w.size() * sizeof(double)) == 0;
        });
    if (same != leader_of_probs.end()) {
      inst.probs_of_ad_.push_back(
          static_cast<uint32_t>(same - leader_of_probs.begin()));
      continue;
    }
    auto mixed = topic::AdProbabilities::Mix(topics, ads[i].gamma);
    if (!mixed.ok()) return mixed.status();
    inst.probs_of_ad_.push_back(static_cast<uint32_t>(inst.probs_.size()));
    leader_of_probs.push_back(i);
    inst.probs_.push_back(std::move(mixed).value());
    inst.node_probs_.push_back(
        rrset::InArcProbabilities(g, inst.probs_.back().probs()));
  }
  inst.max_incentive_.reserve(ads.size());
  inst.min_incentive_.reserve(ads.size());
  for (const auto& sched : incentives) {
    const auto [lo, hi] = std::minmax_element(sched.begin(), sched.end());
    inst.min_incentive_.push_back(*lo);
    inst.max_incentive_.push_back(*hi);
  }
  inst.ads_ = std::move(ads);
  inst.incentives_ = std::move(incentives);
  return inst;
}

uint64_t RmInstance::ProbabilityMemoryBytes() const {
  uint64_t bytes = 0;
  for (const auto& p : probs_) bytes += p.MemoryBytes();
  for (const auto& t : node_probs_) bytes += t.capacity() * sizeof(double);
  return bytes;
}

uint64_t Allocation::TotalSeeds() const {
  uint64_t total = 0;
  for (const auto& s : seed_sets) total += s.size();
  return total;
}

bool Allocation::IsDisjoint(uint32_t num_nodes) const {
  std::vector<uint8_t> seen(num_nodes, 0);
  for (const auto& s : seed_sets) {
    for (graph::NodeId u : s) {
      if (u >= num_nodes || seen[u]) return false;
      seen[u] = 1;
    }
  }
  return true;
}

}  // namespace isa::core
