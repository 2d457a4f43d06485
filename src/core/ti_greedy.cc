#include "core/ti_greedy.h"

#include <algorithm>
#include <bit>
#include <memory>
#include <new>
#include <unordered_map>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "core/advertiser_engine.h"
#include "core/selection_scheduler.h"
#include "rrset/rr_collection.h"
#include "rrset/spill_file.h"

namespace isa::core {

namespace {

// Content hash of an ad's Eq.-1 probability vector. -0.0 is canonicalized
// to +0.0 so vectors equal under operator== (the old pairwise-std::equal
// grouping criterion) always land in the same bucket; equality is still
// re-verified on hash match.
uint64_t HashProbVector(std::span<const double> probs) {
  uint64_t h = 0x9e3779b97f4a7c15ULL ^ probs.size();
  for (double x : probs) {
    if (x == 0.0) x = 0.0;
    h = SplitMix64(h ^ std::bit_cast<uint64_t>(x)).Next();
  }
  return h;
}

// With share_samples, advertisers whose Eq. 1 probabilities are bitwise
// identical (pure-competition ads) are grouped onto one RR store. A single
// hash-of-contents pass replaces an O(h²·n) pairwise sweep; equality is
// re-verified within a hash bucket, so a hash collision can only cost a
// comparison, never a wrong grouping. Without sharing every ad is its own
// group with a null entry (the engine then creates a private store).
std::vector<std::vector<uint32_t>> GroupAdsByStore(
    const RmInstance& instance, bool share_samples,
    std::vector<std::shared_ptr<rrset::RrStore>>* store_of_ad) {
  const uint32_t h = instance.num_ads();
  std::vector<std::vector<uint32_t>> groups;
  groups.reserve(h);
  if (!share_samples) {
    for (uint32_t j = 0; j < h; ++j) groups.push_back({j});
    return groups;
  }
  const graph::NodeId n = instance.num_nodes();
  std::unordered_map<uint64_t, std::vector<size_t>> groups_by_hash;
  for (uint32_t j = 0; j < h; ++j) {
    const auto probs_j = instance.ad_probs(j);
    auto& bucket = groups_by_hash[HashProbVector(probs_j)];
    bool found = false;
    for (size_t gi : bucket) {
      const auto probs_l = instance.ad_probs(groups[gi].front());
      if (std::equal(probs_j.begin(), probs_j.end(), probs_l.begin(),
                     probs_l.end())) {
        (*store_of_ad)[j] = (*store_of_ad)[groups[gi].front()];
        groups[gi].push_back(j);
        found = true;
        break;
      }
    }
    if (!found) {
      (*store_of_ad)[j] = std::make_shared<rrset::RrStore>(n);
      bucket.push_back(groups.size());
      groups.push_back({j});
    }
  }
  return groups;
}

}  // namespace

Result<TiResult> RunTiGreedy(const RmInstance& instance,
                             const TiOptions& options) {
  const uint32_t h = instance.num_ads();
  const uint32_t n = instance.num_nodes();
  if (n == 0) return Status::InvalidArgument("RunTiGreedy: empty graph");
  if (instance.graph().num_edges() == 0) {
    return Status::InvalidArgument("RunTiGreedy: graph has no edges");
  }
  if (options.epsilon <= 0.0 || options.epsilon >= 1.0) {
    return Status::InvalidArgument("RunTiGreedy: epsilon must be in (0,1)");
  }
  if (!options.budget_override.empty() &&
      options.budget_override.size() != h) {
    return Status::InvalidArgument(
        "RunTiGreedy: budget_override must have one entry per advertiser");
  }
  if (options.num_partitions != 1) {
    return Status::InvalidArgument(
        "RunTiGreedy: num_partitions is reserved and must be 1");
  }
  Stopwatch watch;

  // One worker pool per invocation, shared by every parallel stage below
  // (declared before `ads` so the engines that borrow it die first).
  ThreadPool pool(options.num_threads);

  // ---- Stage 0: store grouping + parallel per-advertiser init. ----
  std::vector<std::shared_ptr<rrset::RrStore>> store_of_ad(h);
  const std::vector<std::vector<uint32_t>> groups =
      GroupAdsByStore(instance, options.share_samples, &store_of_ad);

  TiResult result;
  result.allocation.seed_sets.assign(h, {});
  std::vector<std::unique_ptr<AdvertiserEngine>> ads(h);
  // Declared before the try block so the tiers (and their barrier meters)
  // survive into result assembly.
  std::vector<StoreSpillGroup> spill_groups;
  std::vector<Status> init_status(h);
  try {
    // KPT pilot + initial θ_j sample + PageRank/heap build per advertiser,
    // independent across stores (ads sharing a store must adopt its prefix
    // in ad order, so each group is one task that handles its ads in
    // sequence). The pilot runs ONCE per store: ads in a group have
    // bitwise-identical Eq. 1 probabilities, so one SampleSizer — seeded by
    // the group leader — serves every member's ThetaSchedule. Each group
    // draws only from its own HashSeed(seed, leader) substreams, so results
    // are bit-identical at any worker count. Tasks themselves reenter the
    // pool for sampling (see common/thread_pool.h).
    pool.Run(groups.size(), [&](uint64_t gi) {
      const uint32_t leader = groups[gi].front();
      rrset::SampleSizerOptions so;
      so.epsilon = options.epsilon;
      so.ell = options.ell;
      so.run_kpt_pilot = options.kpt_pilot;
      so.theta_cap = options.theta_cap;
      so.seed = HashSeed(options.seed, 1000 + leader);
      so.model = options.propagation;
      // When the group tasks alone saturate the pool, a nested parallel
      // pilot buys no wall-clock but allocates O(concurrency) private
      // samplers (O(n) epoch arrays) per concurrent pilot; run those
      // pilots serially instead — the widths are bit-identical either way.
      so.pool = groups.size() >= pool.concurrency() ? nullptr : &pool;
      auto sizer = std::make_shared<const rrset::SampleSizer>(
          instance.graph(), instance.ad_probs(leader), so);
      for (uint32_t j : groups[gi]) {
        AdvertiserEngineOptions eo;
        eo.candidate_rule = options.candidate_rule;
        eo.window = options.window == 0 ? n : options.window;
        eo.ratio_keyed_heap =
            options.candidate_rule == CandidateRule::kCoverageCostRatio &&
            (options.window == 0 || options.window >= n);
        eo.async_capable = options.async_growth && groups[gi].size() == 1;
        eo.sampler_seed = HashSeed(options.seed, j);
        eo.model = options.propagation;
        eo.sizer = sizer;
        eo.sampler.num_threads = options.num_threads;
        eo.sampler.pool = &pool;
        eo.excluded_nodes = options.excluded_nodes;
        ads[j] = std::make_unique<AdvertiserEngine>(j, instance,
                                                    store_of_ad[j], eo);
        init_status[j] = ads[j]->Init();
        if (!init_status[j].ok()) return;
      }
    });
    for (uint32_t j = 0; j < h; ++j) {
      if (!init_status[j].ok()) return init_status[j];
    }

    // ---- Out-of-core tier: one TieredRrStore per physical store. ----
    // Built after init (private stores are created inside the engines) and
    // given a first barrier right away: the initial θ(1) samples can
    // already exceed the budget, and everything adopted so far is
    // evictable.
    if (options.rr_memory_budget_bytes > 0) {
      for (const std::vector<uint32_t>& group : groups) {
        rrset::TieredStoreOptions to;
        to.rr_memory_budget_bytes = options.rr_memory_budget_bytes;
        to.spill_directory = options.spill_directory;
        to.chunk_target_bytes = options.spill_chunk_bytes;
        to.io_ring_depth = options.io_ring_depth;
        to.direct_io = options.direct_io;
        to.direct_io_min_bytes = options.direct_io_min_bytes;
        StoreSpillGroup g;
        g.tier = std::make_unique<rrset::TieredRrStore>(
            ads[group.front()]->collection().store(), to);
        g.ads = group;
        uint64_t min_theta = UINT64_MAX;
        for (uint32_t j : group) min_theta = std::min(min_theta, ads[j]->theta());
        g.tier->MaybeSpill(min_theta, &pool);
        spill_groups.push_back(std::move(g));
      }
    }

    // ---- Stages 1-4 per round: the selection scheduler (Alg. 2 l. 5-22).
    SelectionScheduler scheduler(instance, options, pool, ads, spill_groups);
    scheduler.Run(&result.allocation);
  } catch (const std::bad_alloc&) {
    // Marshaled through ThreadPool::Run / TaskGroup::Wait from a sampling
    // or adoption task (or thrown inline): surface as a Status instead of
    // terminating the process.
    return Status::ResourceExhausted(
        "RunTiGreedy: out of memory in a sampling/adoption stage");
  } catch (const rrset::SpillIoError& e) {
    // Disk exhaustion in the cold tier is the same recoverable condition
    // as heap exhaustion in the hot one (pool reads marshal through the
    // same exception barrier).
    return Status::ResourceExhausted(std::string("RunTiGreedy: ") + e.what());
  }

  // ---- Assemble result. ----
  // Each physical store is charged to the first advertiser using it, so
  // shared-sample runs report the true (deduplicated) footprint.
  result.ad_stats.resize(h);
  std::vector<const rrset::RrStore*> counted_stores;
  for (uint32_t j = 0; j < h; ++j) {
    const AdvertiserEngine& ad = *ads[j];
    TiAdStats& st = result.ad_stats[j];
    st.theta = ad.theta();
    st.latent_seed_size = ad.latent_size();
    st.seeds = ad.seeds().size();
    st.revenue = ad.revenue();
    st.seeding_cost = ad.seeding_cost();
    st.payment = ad.payment();
    st.rr_memory_bytes = ad.collection().MemoryBytes(/*include_store=*/false) +
                         ad.WorkingBufferBytes();
    const rrset::RrStore* store = ad.collection().store().get();
    if (std::find(counted_stores.begin(), counted_stores.end(), store) ==
        counted_stores.end()) {
      counted_stores.push_back(store);
      st.rr_memory_bytes += store->MemoryBytes();
      st.rr_index_bytes = store->IndexBytes();
      st.rr_index_legacy_bytes = store->LegacyIndexBytes();
      st.spilled_bytes = store->SpilledBytes();
      st.spill_chunks = store->SpillChunks();
      st.scan_reloads = store->scan_reloads();
      st.chunks_read = store->chunks_read();
      st.chunks_skipped = store->chunks_skipped();
      st.spill_retries = store->spill_retries();
      st.spill_retry_successes = store->spill_retry_successes();
      st.degradation_events = store->degradation_events();
      st.recovered_sets = store->recovered_sets();
      st.reads_in_flight_peak = store->reads_in_flight_peak();
      st.direct_io_active = store->direct_io_active();
      st.direct_fallbacks = store->direct_fallbacks();
      for (const StoreSpillGroup& g : spill_groups) {
        if (g.tier->store().get() == store) {
          st.rr_resident_peak_bytes = g.tier->meter().peak_bytes();
          st.degradation_events += g.tier->degradation_events();
          break;
        }
      }
    }
    st.growth_admission_caps = ad.growth_admission_caps();
    st.sample_growth_events = ad.growth_events();
    st.idle_growth_revisions = ad.idle_revisions();
    st.theta_cap_hits = ad.schedule().cap_hits();
    const rrset::SampleSizer& sizer = ad.schedule().sizer();
    st.kpt_lower_bound = sizer.OptLowerBound();
    st.pilot_sets = sizer.pilot_sets();
    st.pilot_converged = sizer.pilot_converged();
    result.total_revenue += ad.revenue();
    result.total_seeding_cost += ad.seeding_cost();
    result.total_seeds += st.seeds;
    result.total_theta += st.theta;
    result.total_rr_memory_bytes += st.rr_memory_bytes;
    result.total_rr_index_bytes += st.rr_index_bytes;
    result.total_rr_index_legacy_bytes += st.rr_index_legacy_bytes;
    result.total_spilled_bytes += st.spilled_bytes;
    result.total_spill_chunks += st.spill_chunks;
    result.total_scan_reloads += st.scan_reloads;
    result.total_chunks_read += st.chunks_read;
    result.total_chunks_skipped += st.chunks_skipped;
    result.total_reads_in_flight_peak =
        std::max(result.total_reads_in_flight_peak, st.reads_in_flight_peak);
    if (st.direct_io_active) ++result.stores_direct_io;
    result.total_direct_fallbacks += st.direct_fallbacks;
    result.total_spill_retries += st.spill_retries;
    result.total_spill_retry_successes += st.spill_retry_successes;
    result.total_degradation_events += st.degradation_events;
    result.total_recovered_sets += st.recovered_sets;
    result.total_growth_admission_caps += st.growth_admission_caps;
    result.total_growth_events += st.sample_growth_events;
    result.total_theta_cap_hits += st.theta_cap_hits;
    if (st.sample_growth_events > 0) {
      ++result.ads_growth_engaged;
    } else {
      ++result.ads_growth_idle;
    }
  }
  result.elapsed_seconds = watch.ElapsedSeconds();
  return result;
}

Result<TiResult> RunTiCarm(const RmInstance& instance, TiOptions options) {
  options.candidate_rule = CandidateRule::kCoverage;
  options.selection_rule = SelectionRule::kMaxMarginalRevenue;
  return RunTiGreedy(instance, options);
}

Result<TiResult> RunTiCsrm(const RmInstance& instance, TiOptions options) {
  options.candidate_rule = CandidateRule::kCoverageCostRatio;
  options.selection_rule = SelectionRule::kMaxRate;
  return RunTiGreedy(instance, options);
}

Result<TiResult> RunPageRankGr(const RmInstance& instance,
                               TiOptions options) {
  options.candidate_rule = CandidateRule::kPageRank;
  options.selection_rule = SelectionRule::kMaxMarginalRevenue;
  return RunTiGreedy(instance, options);
}

Result<TiResult> RunPageRankRr(const RmInstance& instance,
                               TiOptions options) {
  options.candidate_rule = CandidateRule::kPageRank;
  options.selection_rule = SelectionRule::kRoundRobin;
  return RunTiGreedy(instance, options);
}

}  // namespace isa::core
