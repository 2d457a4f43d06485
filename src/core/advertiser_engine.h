// Per-advertiser selection state of Algorithm 2, extracted from the old
// RunTiGreedy monolith into a reusable engine class.
//
// One AdvertiserEngine owns everything advertiser j needs across rounds:
// its RR collection (coverage view over a private or shared store), its
// parallel sampler and sample sizer, the eligibility bitmap over nodes, the
// chosen seeds, the lazy candidate heap, and the top-w window buffer of the
// cost-sensitive rule. The round loop itself lives in SelectionScheduler;
// the engine exposes the per-round stages (candidate computation, commit,
// θ-growth) as methods.
//
// Incremental heap repair (replacing the old full-scan RebuildHeap):
// between sample growths, coverage only decreases, so the heap is a
// classic CELF lazy max-heap — entries hold coverage snapshots that can
// only over-estimate, and the top is settled by refreshing mismatched
// snapshots. A sample growth *increases* the coverage of the touched nodes
// (the delta set RrCollection::AdoptUpTo reports), which would break the
// over-estimate invariant; instead of rescanning all n nodes, the repair
// pushes one fresh exact entry per touched node. Every node then again has
// at least one entry whose snapshot upper-bounds its live coverage, so the
// settle loop remains exact; stale duplicates are purged lazily on pop.
// Repair cost is O(|delta| log heap) instead of O(n + heap rebuild).
//
// The top-w window (Algorithm 5's restriction, Fig. 4) is persistent: the
// exact top-w entries live outside the heap in window_buf_, and only
// entries whose node was touched by a coverage delta (or taken/retired)
// are dropped and re-settled from the heap; unaffected entries carry over
// between rounds instead of being re-popped and re-pushed every round.

#ifndef ISA_CORE_ADVERTISER_ENGINE_H_
#define ISA_CORE_ADVERTISER_ENGINE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "core/problem.h"
#include "core/ti_greedy.h"
#include "rrset/parallel_sampler.h"
#include "rrset/rr_collection.h"
#include "rrset/sample_sizer.h"

namespace isa::core {

/// Tolerance for the knapsack feasibility test (payments are sums of
/// floating-point marginals).
inline constexpr double kBudgetSlack = 1e-9;

/// a/b > c/d for non-negative ratios, robust to zero denominators
/// (x/0 ranks above anything finite when x > 0).
inline bool RatioGreater(double a, double b, double c, double d) {
  return a * d > c * b;
}

/// Lazy max-heap entry: coverage snapshot at push time.
struct CoverageHeapEntry {
  uint32_t cov;
  graph::NodeId node;
};

/// Lazy max-heap over candidate nodes with incremental repair (see file
/// comment). Keyed by coverage (ties by larger coverage then smaller node
/// id) or, when configured ratio-keyed, by coverage/cost cross-multiplied
/// to dodge zero-cost nodes — both keys are non-increasing between sample
/// growths, which is what makes the lazy settle exact.
class CoverageHeap {
 public:
  /// `costs` is only read when `ratio_keyed`; it must outlive the heap.
  void Configure(bool ratio_keyed, std::span<const double> costs) {
    ratio_keyed_ = ratio_keyed;
    costs_ = costs;
  }

  /// From-scratch build over all eligible nodes with coverage > 0 (init,
  /// and the compaction fallback when stale duplicates pile up).
  void Rebuild(const rrset::RrCollection& col,
               std::span<const uint8_t> eligible);

  /// Incremental repair after a sample growth: pushes one fresh exact
  /// entry per touched node (ascending `touched`, so the heap layout is
  /// deterministic). Falls back to Rebuild when stale duplicates exceed
  /// twice the node count. Callers must have emptied any external window
  /// buffer back into the heap first (Rebuild knows nothing about it).
  void ApplyCoverageIncreases(const rrset::RrCollection& col,
                              std::span<const uint8_t> eligible,
                              std::span<const graph::NodeId> touched);

  /// Pops until the heap top is a live, eligible entry with an up-to-date
  /// coverage snapshot; returns false if the heap drains. After a `true`
  /// return, Top() is the exact argmax over eligible live coverages under
  /// the configured key.
  bool SettleTop(const rrset::RrCollection& col,
                 std::span<const uint8_t> eligible);

  const CoverageHeapEntry& Top() const { return heap_.front(); }
  void PopTop();
  void Push(CoverageHeapEntry e);

  bool empty() const { return heap_.empty(); }
  size_t size() const { return heap_.size(); }
  uint64_t BufferBytes() const {
    return heap_.capacity() * sizeof(CoverageHeapEntry);
  }

  /// Strict-weak "a ranks before b" under the configured key (exposed for
  /// the window scan's tie-breaking and tests).
  bool Before(const CoverageHeapEntry& a, const CoverageHeapEntry& b) const;

 private:
  // std::push_heap-style comparator ("less" = lower priority).
  auto Cmp() {
    return [this](const CoverageHeapEntry& a, const CoverageHeapEntry& b) {
      return Before(b, a);
    };
  }

  std::vector<CoverageHeapEntry> heap_;
  std::span<const double> costs_;
  bool ratio_keyed_ = false;
};

/// Construction parameters beyond the (instance, ad) pair.
struct AdvertiserEngineOptions {
  CandidateRule candidate_rule = CandidateRule::kCoverageCostRatio;
  /// Effective window size (already resolved: n for "full").
  uint32_t window = 0;
  /// Full-window cost-sensitive rule: heap keyed by coverage/cost directly.
  bool ratio_keyed_heap = false;
  /// This engine's store is private (not shared with another ad), so async
  /// θ-growth may sample into side buffers while rounds proceed.
  bool async_capable = false;
  uint64_t sampler_seed = 0;
  rrset::DiffusionModel model = rrset::DiffusionModel::kIndependentCascade;
  /// The store's sample sizer, with the KPT pilot already run — built once
  /// per RR store by the driver (ads sharing a store share one pilot) and
  /// consumed here through a per-ad ThetaSchedule.
  std::shared_ptr<const rrset::SampleSizer> sizer;
  rrset::ParallelSamplerOptions sampler;
  std::span<const graph::NodeId> excluded_nodes;
};

class AdvertiserEngine {
 public:
  static constexpr graph::NodeId kNoNode = rrset::RrCollection::kInvalidNode;

  /// Typically invoked from a parallel init task; each engine draws only
  /// from its own seed substreams, so construction order does not matter.
  /// options.sizer must carry the store's already-piloted SampleSizer.
  AdvertiserEngine(uint32_t ad, const RmInstance& instance,
                   std::shared_ptr<rrset::RrStore> shared_store,
                   const AdvertiserEngineOptions& options);
  ~AdvertiserEngine();

  /// Stage 0: initial θ_j = θ(1) sample plus the candidate order (heap, or
  /// the ad-specific PageRank ranking for the baseline rule).
  Status Init();

  // ---- Candidate stage (Algorithm 2 line 7 + Algorithm 1 line 12). ----

  /// Ensures the cached candidate is budget-feasible, permanently retiring
  /// infeasible nodes from this ad's ground set until a feasible candidate
  /// is found or the ad runs out of candidates.
  void EnsureFeasibleCandidate(double budget);
  bool has_candidate() const { return candidate_ != kNoNode; }
  graph::NodeId candidate() const { return candidate_; }
  double cand_marg_rev() const { return cand_marg_rev_; }
  double cand_marg_pay() const { return cand_marg_pay_; }
  bool CandidateFeasible(double budget) const {
    return candidate_ != kNoNode &&
           payment_ + cand_marg_pay_ <= budget + kBudgetSlack;
  }

  // ---- Commit stage (lines 10-15). ----

  /// Node v was committed to some advertiser (possibly this one): v leaves
  /// every ad's ground set, and a cached candidate equal to v is dropped.
  void MarkNodeTaken(graph::NodeId v);

  /// Commits v as this ad's next seed: removes the covered RR sets (their
  /// coverage deltas invalidate the affected window entries) and refreshes
  /// the revenue/payment estimates. Call MarkNodeTaken on every engine
  /// (including this one) as well.
  void CommitSeed(graph::NodeId v);

  /// Starts CommitSeed(v)'s cold-tier chunk reads early (see
  /// RrCollection::PrefetchRemoveCoveredBy) so the disk I/O overlaps the
  /// commit's MarkNodeTaken fan-out across every engine. State-neutral
  /// and optional; a no-op when this ad's store has nothing spilled.
  void PrefetchCommit(graph::NodeId v);

  // ---- Growth stage (lines 17-21, Eq. 10, Algorithm 3). ----

  /// If the seed count has reached the latent size s̃_j, revises s̃_j by
  /// Eq. 10 and returns the new required θ when the sample must grow, else
  /// 0. While an async growth is pending the revision is deferred to the
  /// adoption barrier.
  uint64_t MaybeReviseLatentSize(double budget);

  /// Synchronous growth: samples, adopts, repairs the heap incrementally
  /// from the adoption's coverage deltas, and refreshes the estimates.
  void GrowNow(uint64_t want_theta);

  /// Async growth: launches sampling of the batch on `pool` workers (side
  /// buffers only — the store is untouched, so selection rounds can keep
  /// reading it) and records the deterministic adoption barrier.
  /// Requires options.async_capable and no growth already pending.
  void BeginAsyncGrowth(uint64_t want_theta, uint64_t adopt_round,
                        ThreadPool& pool);

  bool growth_pending() const { return pending_.active; }
  uint64_t pending_adopt_round() const { return pending_.adopt_round; }
  bool async_capable() const { return options_.async_capable; }

  /// The adoption barrier: joins the sampling tasks (rethrowing a
  /// marshaled sampling exception), appends the batch to the store, adopts
  /// it, repairs the heap from the deltas, and refreshes the estimates.
  void AdoptPendingGrowth(ThreadPool& pool);

  // ---- Results / diagnostics. ----

  std::span<const graph::NodeId> seeds() const { return seeds_; }
  uint64_t theta() const { return theta_; }
  uint64_t latent_size() const { return latent_s_; }
  double revenue() const { return revenue_; }
  double seeding_cost() const { return seeding_cost_; }
  double payment() const { return payment_; }
  /// Sample growths adopted (sync + async) — the "growth engaged" counter.
  uint64_t growth_events() const { return growth_events_; }
  /// Eq. 10 revisions that raised s̃ but needed no extra samples (θ(s̃)
  /// already satisfied, typically because the schedule is cap-saturated) —
  /// the "growth idle" counter.
  uint64_t idle_revisions() const { return idle_revisions_; }
  /// Called by the scheduler when it vetoes a wanted θ-growth because this
  /// ad's store is in degraded (eviction-disabled) mode and over budget —
  /// the ROADMAP admission policy. Selection continues on the current
  /// sample; the next revision re-asks and is capped again while degraded.
  void CountGrowthAdmissionCap() { ++growth_admission_caps_; }
  /// θ-growths vetoed by the degraded-mode admission policy.
  uint64_t growth_admission_caps() const { return growth_admission_caps_; }
  /// The θ schedule (pilot diagnostics via schedule().sizer()).
  const rrset::ThetaSchedule& schedule() const { return schedule_; }
  const rrset::RrCollection& collection() const { return collection_; }

  /// Driver-side per-ad buffers (heap, window, bitmaps, PageRank order),
  /// charged into TiAdStats::rr_memory_bytes so Table 3 reports the true
  /// working set, not just the RR arrays.
  uint64_t WorkingBufferBytes() const;

  // ---- Test hooks (the brute-force heap-repair cross-checks). ----
  CoverageHeap& heap_for_test() { return heap_; }
  std::span<const uint8_t> eligible_for_test() const { return eligible_; }

 private:
  bool windowed() const {
    return options_.candidate_rule == CandidateRule::kCoverageCostRatio &&
           !options_.ratio_keyed_heap;
  }
  // Node left the ground set or changed coverage: a window entry holding it
  // must be re-settled next maintenance.
  void MarkWindowDirty(graph::NodeId v);
  // Retire v from this ad's ground set (infeasible or taken).
  void RetireNode(graph::NodeId v);
  // Drops dirty/ineligible window entries back into the heap, then refills
  // the window to w exact entries from the settled heap.
  void MaintainWindow();
  // Returns the whole window to the heap (before a growth repair, whose
  // fresh delta entries restore the upper-bound invariant).
  void DumpWindowToHeap();
  // Line-7 candidate under the configured rule, plus its marginals.
  void ComputeCandidate();
  // Shared tail of GrowNow/AdoptPendingGrowth: heap repair from the
  // adoption deltas + Algorithm 3 estimate refresh.
  void FinishGrowth();

  const RmInstance& instance_;
  const uint32_t ad_;
  const double dn_;  // n as double, for the revenue estimates
  const AdvertiserEngineOptions options_;

  rrset::RrCollection collection_;
  rrset::ParallelSampler sampler_;
  rrset::ThetaSchedule schedule_;

  std::vector<uint8_t> eligible_;  // unassigned globally & still in E for me
  std::vector<graph::NodeId> seeds_;

  uint64_t theta_ = 0;
  uint64_t latent_s_ = 1;  // s̃_j
  double revenue_ = 0.0;
  double seeding_cost_ = 0.0;
  double payment_ = 0.0;
  uint64_t growth_events_ = 0;
  uint64_t idle_revisions_ = 0;
  uint64_t growth_admission_caps_ = 0;

  CoverageHeap heap_;
  // Persistent top-w window (windowed cost-sensitive rule only).
  std::vector<CoverageHeapEntry> window_buf_;
  std::vector<uint8_t> in_window_;      // per node
  std::vector<uint8_t> window_dirty_;   // per node, only set while in window
  uint32_t window_dirty_count_ = 0;

  // PageRank order + consumed prefix (kPageRank rule).
  std::vector<graph::NodeId> pr_order_;
  size_t pr_cursor_ = 0;

  // Cached line-7 candidate.
  bool candidate_fresh_ = false;
  graph::NodeId candidate_ = kNoNode;
  double cand_marg_rev_ = 0.0;
  double cand_marg_pay_ = 0.0;

  // Scratch for coverage deltas (adoptions and removals).
  std::vector<graph::NodeId> touched_scratch_;

  // Async growth in flight. Declared last so its TaskGroup (whose closure
  // references the sampler and the buffers above) joins before anything it
  // references is destroyed.
  struct PendingGrowth {
    bool active = false;
    uint64_t want_theta = 0;
    uint64_t adopt_round = 0;
    std::vector<graph::NodeId> nodes;
    std::vector<uint32_t> sizes;
    ThreadPool::TaskGroup task;
  };
  PendingGrowth pending_;
};

}  // namespace isa::core

#endif  // ISA_CORE_ADVERTISER_ENGINE_H_
