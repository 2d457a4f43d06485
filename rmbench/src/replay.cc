#include "replay.h"

#include <cstdio>
#include <memory>
#include <new>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/advertiser_engine.h"
#include "core/selection_scheduler.h"
#include "rrset/parallel_sampler.h"
#include "rrset/rr_collection.h"
#include "rrset/rr_store.h"
#include "rrset/sample_sizer.h"
#include "rrset/spill_file.h"
#include "rrset/tiered_store.h"

namespace rmbench {

namespace {

using isa::Result;
using isa::Status;
using isa::core::AdvertiserEngine;

// The spill-tier options RunTiGreedy derives from TiOptions.
isa::rrset::TieredStoreOptions TierOptions(
    const isa::core::TiOptions& options) {
  isa::rrset::TieredStoreOptions to;
  to.rr_memory_budget_bytes = options.rr_memory_budget_bytes;
  to.spill_directory = options.spill_directory;
  to.chunk_target_bytes = options.spill_chunk_bytes;
  to.io_ring_depth = options.io_ring_depth;
  to.direct_io = options.direct_io;
  to.direct_io_min_bytes = options.direct_io_min_bytes;
  return to;
}

Status ReplayStagesOnPool(const isa::core::RmInstance& instance,
                          const isa::core::TiOptions& options,
                          isa::ThreadPool& pool, Tracer* tracer, uint32_t run,
                          int64_t parent, Replay* out) {
  const uint32_t h = instance.num_ads();
  const uint32_t n = instance.num_nodes();
  out->allocation.seed_sets.assign(h, {});
  std::vector<std::unique_ptr<AdvertiserEngine>> ads(h);
  std::vector<isa::core::StoreSpillGroup> spill_groups;
  std::vector<Status> init_status(h);
  std::vector<double> pilot_s(h, 0.0);
  std::vector<double> engine_s(h, 0.0);

  // Stage 0: one task per advertiser (every ad owns its store, so each is
  // its own group of one), exactly as RunTiGreedy schedules it.
  Scope init(tracer, "ti_greedy.init", parent, run);
  pool.Run(h, [&](uint64_t j) {
    isa::rrset::SampleSizerOptions so;
    so.epsilon = options.epsilon;
    so.ell = options.ell;
    so.run_kpt_pilot = options.kpt_pilot;
    so.theta_cap = options.theta_cap;
    so.seed = isa::HashSeed(options.seed, 1000 + j);
    so.model = options.propagation;
    so.pool = h >= pool.concurrency() ? nullptr : &pool;
    Scope pilot(tracer, "sample_sizer.pilot", init.id(), run);
    auto sizer = std::make_shared<const isa::rrset::SampleSizer>(
        instance.graph(), instance.ad_probs(static_cast<uint32_t>(j)), so);
    pilot_s[j] = pilot.Stop();

    Scope engine(tracer, "advertiser_engine.init", init.id(), run);
    isa::core::AdvertiserEngineOptions eo;
    eo.candidate_rule = options.candidate_rule;
    eo.window = options.window == 0 ? n : options.window;
    eo.ratio_keyed_heap =
        options.candidate_rule ==
            isa::core::CandidateRule::kCoverageCostRatio &&
        (options.window == 0 || options.window >= n);
    eo.async_capable = options.async_growth;
    eo.sampler_seed = isa::HashSeed(options.seed, j);
    eo.model = options.propagation;
    eo.sizer = sizer;
    eo.sampler.num_threads = options.num_threads;
    eo.sampler.pool = &pool;
    eo.excluded_nodes = options.excluded_nodes;
    ads[j] = std::make_unique<AdvertiserEngine>(static_cast<uint32_t>(j),
                                                instance, nullptr, eo);
    init_status[j] = ads[j]->Init();
    engine_s[j] = engine.Stop();
  });
  out->stages.init_s = init.Stop();
  for (uint32_t j = 0; j < h; ++j) {
    if (!init_status[j].ok()) return init_status[j];
    out->stages.pilot_busy_s += pilot_s[j];
    out->stages.engine_busy_s += engine_s[j];
  }

  if (options.rr_memory_budget_bytes > 0) {
    Scope spill(tracer, "tiered_store.first_spill", parent, run);
    for (uint32_t j = 0; j < h; ++j) {
      isa::core::StoreSpillGroup g;
      g.tier = std::make_unique<isa::rrset::TieredRrStore>(
          ads[j]->collection().store(), TierOptions(options));
      g.ads = {j};
      g.tier->MaybeSpill(ads[j]->theta(), &pool);
      spill_groups.push_back(std::move(g));
    }
    out->stages.first_spill_s = spill.Stop();
  }

  {
    Scope sched(tracer, "selection_scheduler.run", parent, run);
    isa::core::SelectionScheduler scheduler(instance, options, pool, ads,
                                            spill_groups);
    scheduler.Run(&out->allocation);
    out->stages.scheduler_s = sched.Stop();
  }

  for (uint32_t j = 0; j < h; ++j) {
    const AdvertiserEngine& ad = *ads[j];
    out->revenue.push_back(ad.revenue());
    out->payment.push_back(ad.payment());
    out->theta.push_back(ad.theta());
    out->covered_sets.push_back(ad.collection().covered_sets());
    out->theta_cap_hits += ad.schedule().cap_hits();
    const isa::rrset::SampleSizer& sizer = ad.schedule().sizer();
    out->pilot_sets += sizer.pilot_sets();
    if (sizer.pilot_converged()) ++out->pilots_converged;
  }
  return Status::OK();
}

}  // namespace

Result<Replay> ReplayTiGreedy(const isa::core::RmInstance& instance,
                              const isa::core::TiOptions& options,
                              Tracer* tracer, uint32_t run) {
  if (options.share_samples || options.num_partitions != 1) {
    return Status::Unimplemented(
        "replay covers private stores and one partition only");
  }
  if (options.epsilon <= 0.0 || options.epsilon >= 1.0) {
    return Status::InvalidArgument("replay: epsilon must be in (0,1)");
  }
  Scope total(tracer, "ti_greedy.replay", -1, run);
  Replay out;
  try {
    isa::ThreadPool pool(options.num_threads);
    Status s = ReplayStagesOnPool(instance, options, pool, tracer, run,
                                  total.id(), &out);
    if (!s.ok()) return s;
  } catch (const std::bad_alloc&) {
    return Status::ResourceExhausted("replay: out of memory");
  } catch (const isa::rrset::SpillIoError& e) {
    return Status::ResourceExhausted(std::string("replay: ") + e.what());
  }
  out.stages.total_s = total.Stop();
  return out;
}

std::string CompareWithRun(const Replay& replay,
                           const isa::core::TiResult& result) {
  if (replay.allocation.seed_sets != result.allocation.seed_sets) {
    return "allocation differs";
  }
  if (replay.revenue.size() != result.ad_stats.size()) {
    return "advertiser count differs";
  }
  for (size_t j = 0; j < replay.revenue.size(); ++j) {
    const isa::core::TiAdStats& st = result.ad_stats[j];
    if (replay.revenue[j] != st.revenue || replay.payment[j] != st.payment ||
        replay.theta[j] != st.theta) {
      char buf[128];
      std::snprintf(buf, sizeof(buf),
                    "ad %zu: revenue/payment/theta differ", j);
      return buf;
    }
  }
  if (replay.theta_cap_hits != result.total_theta_cap_hits) {
    return "theta-cap hit count differs";
  }
  return "";
}

Result<ProbeResult> RunProbes(const isa::core::RmInstance& instance,
                              const isa::core::TiOptions& options,
                              const Replay& replay, Tracer* tracer,
                              uint32_t run) {
  ProbeResult out;
  double weighted_size = 0.0;
  Scope probes(tracer, "probes", -1, run);
  try {
    isa::ThreadPool pool(options.num_threads);
    for (uint32_t j = 0; j < instance.num_ads(); ++j) {
      const uint64_t theta = replay.theta[j];
      const std::vector<isa::graph::NodeId>& seeds =
          replay.allocation.seed_sets[j];
      isa::rrset::ParallelSamplerOptions so;
      so.num_threads = options.num_threads;
      so.pool = &pool;
      isa::rrset::ParallelSampler sampler(
          instance.graph(), instance.ad_probs(j), options.propagation,
          isa::HashSeed(options.seed, j), so);
      auto store = std::make_shared<isa::rrset::RrStore>(instance.num_nodes());

      Scope sample(tracer, "parallel_sampler.sample", probes.id(), run);
      sampler.SampleAppend(*store, theta);
      out.sample_s += sample.Stop();
      out.sets_sampled += theta;
      weighted_size += store->MeanSetSize() * static_cast<double>(theta);

      isa::rrset::RrCollection hot(store);
      Scope adopt(tracer, "rr_collection.adopt", probes.id(), run);
      hot.AdoptUpTo(theta, {}, &pool);
      out.adopt_s += adopt.Stop();

      // The cold view adopts while every set is still resident.
      std::unique_ptr<isa::rrset::RrCollection> cold;
      if (options.rr_memory_budget_bytes > 0) {
        cold = std::make_unique<isa::rrset::RrCollection>(store);
        cold->AdoptUpTo(theta, {}, &pool);
      }

      Scope remove(tracer, "rr_collection.remove", probes.id(), run);
      for (isa::graph::NodeId v : seeds) hot.RemoveCoveredBy(v, nullptr, &pool);
      out.remove_s += remove.Stop();
      out.sets_covered += hot.covered_sets();
      if (hot.covered_sets() != replay.covered_sets[j]) {
        return Status::Internal("probe: resident covered-set count differs "
                                "from the replay");
      }

      if (cold != nullptr) {
        isa::rrset::TieredRrStore tier(store, TierOptions(options));
        tier.MaybeSpill(theta, &pool);
        Scope cold_remove(tracer, "rr_collection.cold_remove", probes.id(),
                          run);
        for (isa::graph::NodeId v : seeds) {
          cold->RemoveCoveredBy(v, nullptr, &pool);
        }
        out.cold_remove_s += cold_remove.Stop();
        if (cold->covered_sets() != replay.covered_sets[j]) {
          return Status::Internal("probe: cold covered-set count differs "
                                  "from the replay");
        }
      }
    }
  } catch (const std::bad_alloc&) {
    return Status::ResourceExhausted("probe: out of memory");
  } catch (const isa::rrset::SpillIoError& e) {
    return Status::ResourceExhausted(std::string("probe: ") + e.what());
  }
  if (out.sets_sampled > 0) {
    out.mean_set_size = weighted_size / static_cast<double>(out.sets_sampled);
  }
  return out;
}

}  // namespace rmbench
