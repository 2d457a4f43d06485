// Traced replay of core::RunTiGreedy, and per-layer probes.
//
// The replay runs RunTiGreedy's stages in RunTiGreedy's order through the
// same public headers — rrset::SampleSizer (the KPT pilot), the
// core::AdvertiserEngine constructor + Init (initial θ(1) sample, index,
// heap), rrset::TieredRrStore::MaybeSpill (the first spill barrier) and
// core::SelectionScheduler::Run — and records a span around each call. It
// is only a faithful timing of the library if its result is bit-identical
// to RunTiGreedy's, so CompareWithRun is checked on every replay.
//
// The replay covers the configurations the benchmark runs: private RR
// stores (share_samples off) and one graph partition.

#ifndef RMBENCH_REPLAY_H_
#define RMBENCH_REPLAY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/problem.h"
#include "core/ti_greedy.h"
#include "trace.h"

namespace rmbench {

/// Stage timings of one replay, in seconds. The pilot and engine figures
/// are busy time summed over the per-advertiser init tasks, which run in
/// parallel on the pool; init_s is the stage's wall time.
struct ReplayStages {
  double init_s = 0.0;
  double pilot_busy_s = 0.0;
  double engine_busy_s = 0.0;
  double first_spill_s = 0.0;
  double scheduler_s = 0.0;
  double total_s = 0.0;
};

struct Replay {
  isa::core::Allocation allocation;
  std::vector<double> revenue;
  std::vector<double> payment;
  std::vector<uint64_t> theta;
  /// RR sets each advertiser's view has covered at the end of the run.
  std::vector<uint64_t> covered_sets;
  uint64_t pilot_sets = 0;
  uint64_t pilots_converged = 0;
  uint64_t theta_cap_hits = 0;
  ReplayStages stages;
};

isa::Result<Replay> ReplayTiGreedy(const isa::core::RmInstance& instance,
                                   const isa::core::TiOptions& options,
                                   Tracer* tracer, uint32_t run);

/// Empty when the replay's allocation, per-ad revenue, payment and θ are
/// bit-identical to `result`'s; otherwise the first difference.
std::string CompareWithRun(const Replay& replay,
                           const isa::core::TiResult& result);

/// Per-layer probes over the replay's final state, one advertiser at a
/// time: every ad's final θ_j RR sets are sampled again
/// (ParallelSampler::SampleAppend into a fresh RrStore, the same sets the
/// run drew), adopted (RrCollection::AdoptUpTo), and the ad's committed
/// seeds are re-applied in commit order through RemoveCoveredBy — on the
/// resident store, and, when the options carry a memory budget, again on
/// the store after a TieredRrStore spill so that removals scan cold
/// chunks. The covered-set counts must equal the replay's.
struct ProbeResult {
  uint64_t sets_sampled = 0;
  double sample_s = 0.0;
  double mean_set_size = 0.0;
  double adopt_s = 0.0;
  double remove_s = 0.0;
  uint64_t sets_covered = 0;
  double cold_remove_s = 0.0;  // 0 without a memory budget
};

isa::Result<ProbeResult> RunProbes(const isa::core::RmInstance& instance,
                                   const isa::core::TiOptions& options,
                                   const Replay& replay, Tracer* tracer,
                                   uint32_t run);

}  // namespace rmbench

#endif  // RMBENCH_REPLAY_H_
