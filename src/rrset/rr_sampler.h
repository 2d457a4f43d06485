// Random reverse-reachable (RR) set sampling (Borgs et al., used by TIM).
//
// Under IC with arc probabilities p: a random RR set is generated by picking
// a target node w uniformly at random, then collecting every node that can
// reach w in a possible world where each arc survives independently with its
// probability. The sampler runs a lazy reverse BFS: arcs are flipped only
// when the frontier reaches them, which is equivalent to materializing the
// whole world. For a sample R of RR sets, n · (fraction of R covered by S)
// is an unbiased estimator of the spread σ(S).
//
// IC fast path: under weighted cascade (p = 1/indeg(v)) and uniform
// probabilities every in-arc of a node v carries the same p. A per-node
// table (InArcProbabilities) records that shared p_v, or kMixedInArcs when
// v's in-arcs differ. For a uniform node the BFS flips NextBernoulli(p_v)
// per in-arc in the same order with the same visited-skip, so it consumes
// exactly the RNG draws the per-arc loop would, without gathering
// probs[InEdgeIds(v)[k]]; mixed nodes (topic mixes) and the LT model keep
// the per-arc loop. Sampled sets are bit-identical either way. The table
// is derived once per Eq. 1 vector (core::RmInstance holds one per distinct
// vector) and shared read-only by every sampler over it; a sampler given
// none derives its own.
//
// Ad-specificity (TIC): each ad has its own arc probabilities (Eq. 1), so
// each advertiser keeps its own sampler + collection, as in Algorithm 2.

#ifndef ISA_RRSET_RR_SAMPLER_H_
#define ISA_RRSET_RR_SAMPLER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.h"
#include "graph/graph.h"

namespace isa::rrset {

/// Propagation model the RR sets are drawn under. RR-set theory (Borgs et
/// al.) covers all *triggering* models:
///   - Independent Cascade: each in-arc (u, v) is live independently with
///     probability p_{u,v};
///   - Linear Threshold: node v picks AT MOST ONE live in-arc, arc (u, v)
///     with probability b_{u,v} (and none with 1 − Σ_u b_{u,v}; requires
///     Σ_u b_{u,v} ≤ 1 — weighted-cascade weights satisfy this exactly).
enum class DiffusionModel {
  kIndependentCascade,
  kLinearThreshold,
};

/// Marker in an InArcProbabilities table: the node's in-arcs do not all
/// carry the same probability.
inline constexpr double kMixedInArcs = -1.0;

/// Per-node in-arc probability table of `probs` (indexed by forward
/// EdgeId): entry v is the probability every in-arc of v carries (bitwise
/// equal), kMixedInArcs when they differ, 0 when v has no in-arcs. O(m).
std::vector<double> InArcProbabilities(const graph::Graph& g,
                                       std::span<const double> probs);

/// The table a sampler over (g, probs, model) reads: `node_probs` when
/// given, else — under IC — InArcProbabilities(g, probs) derived into
/// `*owned`. Empty under LT, which does not read it.
std::span<const double> ResolveInArcProbabilities(
    const graph::Graph& g, std::span<const double> probs,
    DiffusionModel model, std::span<const double> node_probs,
    std::vector<double>* owned);

/// Generates random RR sets for one (graph, arc-probability) pair.
/// Not thread-safe; create one per thread.
class RrSampler {
 public:
  /// `probs` is indexed by forward EdgeId and must outlive the sampler.
  /// `node_probs`, if given, must be InArcProbabilities(g, probs) and
  /// outlive the sampler; if empty, an IC sampler derives its own.
  RrSampler(const graph::Graph& g, std::span<const double> probs,
            DiffusionModel model = DiffusionModel::kIndependentCascade,
            std::span<const double> node_probs = {});
  // A copy would read the original's owned table.
  RrSampler(const RrSampler&) = delete;
  RrSampler& operator=(const RrSampler&) = delete;

  /// Samples one RR set into `out` (cleared first). Returns the root node.
  /// Also accumulates `width` — the number of arcs examined — which the
  /// KPT estimator consumes.
  graph::NodeId SampleInto(Rng& rng, std::vector<graph::NodeId>* out);

  /// Arcs examined by the last SampleInto call (the TIM "width" w(R) used
  /// in KPT estimation is the in-arc count of the set's nodes; we report
  /// exactly that).
  uint64_t last_width() const { return last_width_; }

  /// Sets the visited-marker epoch (the next set uses epoch + 1), so tests
  /// can reach the 2^32 wraparound without sampling 4 billion sets.
  void set_epoch_for_test(uint32_t epoch) { epoch_ = epoch; }

 private:
  const graph::Graph& g_;
  std::span<const double> probs_;
  DiffusionModel model_;
  std::vector<double> owned_node_probs_;
  std::span<const double> node_probs_;
  std::vector<uint32_t> visited_epoch_;
  uint32_t epoch_ = 0;
  uint64_t last_width_ = 0;
};

}  // namespace isa::rrset

#endif  // ISA_RRSET_RR_SAMPLER_H_
