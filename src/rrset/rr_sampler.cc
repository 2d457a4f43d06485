#include "rrset/rr_sampler.h"

#include <algorithm>
#include <bit>

#include "common/logging.h"

namespace isa::rrset {

std::vector<double> InArcProbabilities(const graph::Graph& g,
                                       std::span<const double> probs) {
  std::vector<double> out(g.num_nodes(), 0.0);
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    auto eids = g.InEdgeIds(v);
    if (eids.empty()) continue;
    const double p = probs[eids[0]];
    // Bitwise, so the fast path flips exactly the p the arc loop would.
    const uint64_t bits = std::bit_cast<uint64_t>(p);
    const bool uniform =
        std::all_of(eids.begin() + 1, eids.end(), [&](graph::EdgeId e) {
          return std::bit_cast<uint64_t>(probs[e]) == bits;
        });
    out[v] = uniform ? p : kMixedInArcs;
  }
  return out;
}

std::span<const double> ResolveInArcProbabilities(
    const graph::Graph& g, std::span<const double> probs,
    DiffusionModel model, std::span<const double> node_probs,
    std::vector<double>* owned) {
  if (model != DiffusionModel::kIndependentCascade) return {};
  if (node_probs.empty()) {
    *owned = InArcProbabilities(g, probs);
    return *owned;
  }
  ISA_CHECK(node_probs.size() == g.num_nodes());
  return node_probs;
}

RrSampler::RrSampler(const graph::Graph& g, std::span<const double> probs,
                     DiffusionModel model, std::span<const double> node_probs)
    : g_(g),
      probs_(probs),
      model_(model),
      node_probs_(ResolveInArcProbabilities(g, probs, model, node_probs,
                                            &owned_node_probs_)),
      visited_epoch_(g.num_nodes(), 0) {}

graph::NodeId RrSampler::SampleInto(Rng& rng,
                                    std::vector<graph::NodeId>* out) {
  out->clear();
  if (++epoch_ == 0) {
    // Wrapped after 2^32 - 1 sets: epoch 0 would match every node never
    // visited, so restart the markers instead.
    std::fill(visited_epoch_.begin(), visited_epoch_.end(), 0);
    epoch_ = 1;
  }
  last_width_ = 0;
  const graph::NodeId root =
      static_cast<graph::NodeId>(rng.NextBounded(g_.num_nodes()));
  visited_epoch_[root] = epoch_;
  out->push_back(root);
  // Reverse BFS over live in-arcs; the two models differ only in how a
  // reached node's in-arcs are declared live.
  for (size_t head = 0; head < out->size(); ++head) {
    const graph::NodeId v = (*out)[head];
    auto sources = g_.InNeighbors(v);
    last_width_ += sources.size();
    if (model_ == DiffusionModel::kIndependentCascade) {
      // IC: flip each in-arc (u -> v) independently.
      const double pv = node_probs_[v];
      if (pv >= 0.0) {
        // Every in-arc carries p_v: the same flips as the arc loop below,
        // without the EdgeId gather.
        for (const graph::NodeId u : sources) {
          if (visited_epoch_[u] == epoch_) continue;
          if (rng.NextBernoulli(pv)) {
            visited_epoch_[u] = epoch_;
            out->push_back(u);
          }
        }
        continue;
      }
      auto eids = g_.InEdgeIds(v);
      for (size_t k = 0; k < sources.size(); ++k) {
        const graph::NodeId u = sources[k];
        if (visited_epoch_[u] == epoch_) continue;
        if (rng.NextBernoulli(probs_[eids[k]])) {
          visited_epoch_[u] = epoch_;
          out->push_back(u);
        }
      }
    } else {
      // LT: v selects at most one in-arc; arc k with probability
      // probs_[eids[k]], none with the residual mass.
      if (sources.empty()) continue;
      auto eids = g_.InEdgeIds(v);
      const double r = rng.NextDouble();
      double acc = 0.0;
      for (size_t k = 0; k < sources.size(); ++k) {
        acc += probs_[eids[k]];
        if (r < acc) {
          const graph::NodeId u = sources[k];
          if (visited_epoch_[u] != epoch_) {
            visited_epoch_[u] = epoch_;
            out->push_back(u);
          }
          break;
        }
      }
    }
  }
  return root;
}

}  // namespace isa::rrset
