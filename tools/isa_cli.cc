// isa_cli — run an incentivized-social-advertising campaign from the shell.
//
// Loads a SNAP-format edge list (or generates a synthetic graph), sets up h
// advertisers, prices incentives, runs the chosen algorithm, and prints the
// allocation summary (optionally the full seed lists as CSV).
//
// Examples:
//   isa_cli --graph soc-Epinions1.txt --ads 5 --budget 5000 --alpha 0.2
//   isa_cli --synthetic ba --nodes 10000 --ads 3 --algorithm ti-carm
//   isa_cli --synthetic rmat --nodes 65536 --incentives superlinear --alpha 0.0001 --algorithm ti-csrm --window 5000 --seeds-csv out.csv

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>

#include "common/failpoint.h"
#include "common/flags.h"
#include "common/strings.h"
#include "common/table_writer.h"
#include "core/incentives.h"
#include "core/ti_greedy.h"
#include "diffusion/cascade.h"
#include "eval/workload.h"
#include "graph/generators.h"
#include "graph/graph_io.h"
#include "rrset/singleton_estimator.h"
#include "topic/tic_model.h"

namespace {

constexpr const char* kUsage = R"(isa_cli — incentivized social advertising campaigns

  --graph PATH          SNAP-style edge list ("src dst" per line)
  --synthetic KIND      ba | rmat | er | powerlaw (instead of --graph)
  --nodes N             synthetic graph size             [10000]
  --ads H               number of advertisers            [3]
  --budget B            budget per advertiser            [1000]
  --cpe C               cost per engagement              [1.0]
  --incentives MODEL    linear|constant|sublinear|superlinear  [linear]
  --alpha A             incentive scale                  [0.2]
  --algorithm NAME      ti-csrm | ti-carm | pagerank-gr | pagerank-rr [ti-csrm]
  --model PROP          ic | lt (propagation model)      [ic]
  --epsilon E           RR estimation accuracy           [0.3]
  --window W            TI-CSRM window size (0 = full; the Fig. 4
                        quality/latency trade-off knob)  [0]
  --theta-cap T         max RR sets per advertiser       [500000]
  --threads T           RR sampling workers (0 = hardware) [0]
  --share-samples       share RR stores across identical ads
  --async-growth        overlap sample growth with selection rounds
                        (deterministic barrier; see TiOptions)
  --growth-delay R      rounds between an async growth trigger and
                        its adoption barrier (requires
                        --async-growth; must be >= 1)      [2]
  --rr-memory-budget B  resident bytes per RR store before the oldest
                        fully-adopted sets spill to disk (0 = keep
                        everything resident; spilling never changes
                        the computed allocation)             [0]
  --spill-dir PATH      directory for spill chunk files (default:
                        system temp dir; files are removed on exit)
  --spill-chunk-bytes B chunk payload target for spill files (> 0;
                        smaller chunks give the envelope/Bloom
                        filters more to skip, larger chunks
                        amortize per-chunk reads; never changes
                        computed results)              [4194304]
  --io-ring-depth D     cold-scan chunk reads in flight (>= 1;
                        1 = the old one-outstanding pipeline;
                        never changes computed results)     [16]
  --no-direct-io        read cold chunks through the page cache
                        instead of O_DIRECT (the probe also
                        falls back automatically; equivalent to
                        ISA_DISABLE_O_DIRECT=1)
  --failpoints SPEC     deterministic fault injection for chaos runs,
                        e.g. "spill.read.eio@every:1" (see
                        common/failpoint.h for the grammar; cold-read
                        faults are healed by re-sampling — watch the
                        degraded column and recovery counters)
  --seed S              master RNG seed (results are identical
                        at any --threads and any --rr-memory-budget
                        for a fixed seed)                   [42]
  --seeds-csv PATH      write the chosen (ad, seed, incentive) rows as CSV
  --validate            re-estimate revenue by Monte-Carlo after selection
)";

int Fail(const isa::Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  auto flags_result = isa::Flags::Parse(
      argc, argv,
      {"graph", "synthetic", "nodes", "ads", "budget", "cpe", "incentives",
       "alpha", "algorithm", "model", "epsilon", "window", "theta-cap",
       "threads", "share-samples", "async-growth", "growth-delay",
       "rr-memory-budget", "spill-dir", "spill-chunk-bytes", "io-ring-depth",
       "no-direct-io", "failpoints", "seed", "seeds-csv", "validate", "help"});
  if (!flags_result.ok()) {
    std::fputs(kUsage, stderr);
    return Fail(flags_result.status());
  }
  const isa::Flags& flags = flags_result.value();
  if (flags.Has("help")) {
    std::fputs(kUsage, stdout);
    return 0;
  }

  // ---- Growth-scheduling flag validation (before any expensive work).
  // The engine itself treats growth-delay < 1 as 1 and silently ignores a
  // delay without async mode; at the CLI boundary both are user error —
  // reject them loudly instead of running a schedule the user didn't ask
  // for.
  const bool async_growth =
      flags.GetBool("async-growth", false).value_or(false);
  if (flags.Has("growth-delay")) {
    if (!async_growth) {
      return Fail(isa::Status::InvalidArgument(
          "--growth-delay only applies to async growth; add --async-growth "
          "or drop --growth-delay"));
    }
    const int64_t delay = flags.GetInt("growth-delay", 2).value_or(2);
    if (delay < 1) {
      return Fail(isa::Status::InvalidArgument(
          "--growth-delay must be >= 1 round (a growth triggered in round "
          "r adopts at round r + delay; 0 would adopt before sampling "
          "finishes deterministically)"));
    }
  }
  if (async_growth &&
      flags.GetBool("share-samples", false).value_or(false)) {
    std::fprintf(stderr,
                 "note: --share-samples makes shared-store ads grow "
                 "synchronously; --async-growth only overlaps ads with "
                 "private stores\n");
  }

  // Spill-tier flag validation: a negative budget is a typo, and a spill
  // directory without a budget would silently do nothing.
  const int64_t rr_budget =
      flags.GetInt("rr-memory-budget", 0).value_or(0);
  if (rr_budget < 0) {
    return Fail(isa::Status::InvalidArgument(
        "--rr-memory-budget must be >= 0 bytes (0 disables spilling)"));
  }
  if (flags.Has("spill-dir") && rr_budget == 0) {
    return Fail(isa::Status::InvalidArgument(
        "--spill-dir only applies with a memory budget; add "
        "--rr-memory-budget or drop --spill-dir"));
  }
  const std::string spill_dir = flags.GetString("spill-dir", "").value_or("");
  if (!spill_dir.empty()) {
    // Catch the typo here, not minutes later when the first spill barrier
    // reports a misleading ResourceExhausted from deep inside the run.
    std::error_code ec;
    if (!std::filesystem::is_directory(spill_dir, ec)) {
      return Fail(isa::Status::InvalidArgument(
          "--spill-dir is not an existing directory: " + spill_dir));
    }
  }
  // Cold-tier I/O knobs. Like --spill-dir these only matter with a budget,
  // and a malformed value is a typo worth rejecting before graph work
  // starts. Note: .value_or() would silently swallow a non-numeric value,
  // so check the Result explicitly.
  const auto chunk_bytes_result =
      flags.GetInt("spill-chunk-bytes", 4ll << 20);
  if (!chunk_bytes_result.ok()) return Fail(chunk_bytes_result.status());
  const int64_t spill_chunk_bytes = chunk_bytes_result.value();
  if (flags.Has("spill-chunk-bytes")) {
    if (spill_chunk_bytes <= 0) {
      return Fail(isa::Status::InvalidArgument(
          "--spill-chunk-bytes must be > 0 bytes"));
    }
    if (rr_budget == 0) {
      return Fail(isa::Status::InvalidArgument(
          "--spill-chunk-bytes only applies with a memory budget; add "
          "--rr-memory-budget or drop --spill-chunk-bytes"));
    }
  }
  const auto ring_depth_result = flags.GetInt("io-ring-depth", 16);
  if (!ring_depth_result.ok()) return Fail(ring_depth_result.status());
  const int64_t io_ring_depth = ring_depth_result.value();
  if (flags.Has("io-ring-depth")) {
    if (io_ring_depth < 1) {
      return Fail(isa::Status::InvalidArgument(
          "--io-ring-depth must be >= 1 outstanding read"));
    }
    if (rr_budget == 0) {
      return Fail(isa::Status::InvalidArgument(
          "--io-ring-depth only applies with a memory budget; add "
          "--rr-memory-budget or drop --io-ring-depth"));
    }
  }
  if (flags.Has("no-direct-io") && rr_budget == 0) {
    return Fail(isa::Status::InvalidArgument(
        "--no-direct-io only applies with a memory budget; add "
        "--rr-memory-budget or drop --no-direct-io"));
  }

  // Deterministic fault injection: validate the whole spec up front (a
  // typo'd entry fails here, in milliseconds, with the offending entry
  // named), then arm it for the run.
  const std::string failpoints =
      flags.GetString("failpoints", "").value_or("");
  if (!failpoints.empty()) {
    if (auto parsed = isa::FailPoints::Parse(failpoints); !parsed.ok()) {
      return Fail(parsed.status());
    }
    if (auto armed = isa::FailPoints::Arm(failpoints); !armed.ok()) {
      return Fail(armed);
    }
  }

  const uint64_t seed =
      static_cast<uint64_t>(flags.GetInt("seed", 42).value_or(42));

  // ---- Graph. ----
  isa::Result<isa::graph::Graph> graph_result(
      isa::Status::InvalidArgument("need --graph or --synthetic"));
  const std::string path = flags.GetString("graph", "").value_or("");
  const std::string kind = flags.GetString("synthetic", "").value_or("");
  const auto nodes = static_cast<isa::graph::NodeId>(
      flags.GetInt("nodes", 10'000).value_or(10'000));
  if (!path.empty()) {
    graph_result = isa::graph::LoadEdgeListText(path);
  } else if (kind == "ba") {
    graph_result = isa::graph::GenerateBarabasiAlbert(
        {.num_nodes = nodes, .edges_per_node = 4, .seed = seed});
  } else if (kind == "rmat") {
    isa::graph::RmatOptions opt;
    opt.scale = 1;
    while ((1u << opt.scale) < nodes) ++opt.scale;
    opt.num_edges = static_cast<uint64_t>(nodes) * 8;
    opt.seed = seed;
    graph_result = isa::graph::GenerateRmat(opt);
  } else if (kind == "er") {
    graph_result = isa::graph::GenerateErdosRenyi(
        {.num_nodes = nodes, .num_edges = static_cast<uint64_t>(nodes) * 8,
         .seed = seed});
  } else if (kind == "powerlaw") {
    graph_result = isa::graph::GeneratePowerLaw(
        {.num_nodes = nodes, .num_edges = static_cast<uint64_t>(nodes) * 7,
         .seed = seed});
  } else if (!kind.empty()) {
    return Fail(isa::Status::InvalidArgument("unknown --synthetic: " + kind));
  }
  if (!graph_result.ok()) return Fail(graph_result.status());
  const isa::graph::Graph& graph = graph_result.value();
  std::fprintf(stderr, "graph: %u nodes, %u arcs\n", graph.num_nodes(),
               graph.num_edges());

  // ---- Influence model (weighted cascade; valid for both IC and LT). ----
  auto topics_result = isa::topic::MakeWeightedCascade(graph, 1);
  if (!topics_result.ok()) return Fail(topics_result.status());
  const auto& topics = topics_result.value();

  // ---- Advertisers & incentives. ----
  const auto h =
      static_cast<uint32_t>(flags.GetInt("ads", 3).value_or(3));
  const double budget = flags.GetDouble("budget", 1000.0).value_or(1000.0);
  const double cpe = flags.GetDouble("cpe", 1.0).value_or(1.0);
  auto model_result = isa::core::ParseIncentiveModel(
      flags.GetString("incentives", "linear").value_or("linear"));
  if (!model_result.ok()) return Fail(model_result.status());
  const double alpha = flags.GetDouble("alpha", 0.2).value_or(0.2);
  if (h == 0 || budget <= 0 || cpe <= 0) {
    return Fail(isa::Status::InvalidArgument(
        "--ads, --budget and --cpe must be positive"));
  }

  auto spreads_result = isa::rrset::EstimateAllSingletonSpreads(
      graph, topics.topic(0), 50'000, seed + 1);
  if (!spreads_result.ok()) return Fail(spreads_result.status());
  auto incentives_result = isa::core::ComputeIncentives(
      model_result.value(), alpha, spreads_result.value());
  if (!incentives_result.ok()) return Fail(incentives_result.status());

  isa::core::AdvertiserSpec spec;
  spec.cpe = cpe;
  spec.budget = budget;
  spec.gamma = isa::topic::TopicDistribution::Uniform(1);
  auto instance_result = isa::core::RmInstance::Create(
      graph, topics, std::vector<isa::core::AdvertiserSpec>(h, spec),
      std::vector<std::vector<double>>(h, incentives_result.value()));
  if (!instance_result.ok()) return Fail(instance_result.status());
  const auto& instance = instance_result.value();

  // ---- Algorithm. ----
  isa::core::TiOptions options;
  options.epsilon = flags.GetDouble("epsilon", 0.3).value_or(0.3);
  options.window =
      static_cast<uint32_t>(flags.GetInt("window", 0).value_or(0));
  options.theta_cap = static_cast<uint64_t>(
      flags.GetInt("theta-cap", 500'000).value_or(500'000));
  options.num_threads =
      static_cast<uint32_t>(flags.GetInt("threads", 0).value_or(0));
  options.seed = seed;
  options.share_samples =
      flags.GetBool("share-samples", false).value_or(false);
  options.async_growth =
      flags.GetBool("async-growth", false).value_or(false);
  options.growth_delay_rounds =
      static_cast<uint32_t>(flags.GetInt("growth-delay", 2).value_or(2));
  options.rr_memory_budget_bytes = static_cast<uint64_t>(rr_budget);
  options.spill_directory = spill_dir;
  options.spill_chunk_bytes = static_cast<uint64_t>(spill_chunk_bytes);
  options.io_ring_depth = static_cast<uint32_t>(io_ring_depth);
  options.direct_io = !flags.GetBool("no-direct-io", false).value_or(false);
  const std::string prop = flags.GetString("model", "ic").value_or("ic");
  if (prop == "lt") {
    options.propagation = isa::rrset::DiffusionModel::kLinearThreshold;
  } else if (prop != "ic") {
    return Fail(isa::Status::InvalidArgument("unknown --model: " + prop));
  }

  const std::string algo =
      flags.GetString("algorithm", "ti-csrm").value_or("ti-csrm");
  isa::Result<isa::core::TiResult> run(
      isa::Status::InvalidArgument("unknown --algorithm: " + algo));
  if (algo == "ti-csrm") run = isa::core::RunTiCsrm(instance, options);
  else if (algo == "ti-carm") run = isa::core::RunTiCarm(instance, options);
  else if (algo == "pagerank-gr") {
    run = isa::core::RunPageRankGr(instance, options);
  } else if (algo == "pagerank-rr") {
    run = isa::core::RunPageRankRr(instance, options);
  }
  if (!run.ok()) return Fail(run.status());
  const isa::core::TiResult& result = run.value();

  // ---- Report. ----
  const bool spilling = options.rr_memory_budget_bytes > 0;
  std::vector<std::string> columns = {
      "ad",     "seeds",  "revenue", "incentives", "payment", "budget",
      "theta",  "growth", "cap hits", "pilot",     "RR memory"};
  if (spilling) {
    columns.insert(columns.end(), {"spilled", "chunks", "scans",
                                   "chunks read", "chunks skipped",
                                   "resident peak", "degraded"});
  }
  isa::TableWriter table(columns);
  for (uint32_t j = 0; j < h; ++j) {
    const auto& st = result.ad_stats[j];
    table.AddCell(uint64_t{j});
    table.AddCell(st.seeds);
    table.AddCell(st.revenue, 2);
    table.AddCell(st.seeding_cost, 2);
    table.AddCell(st.payment, 2);
    table.AddCell(instance.budget(j), 2);
    table.AddCell(st.theta);
    table.AddCell(st.sample_growth_events);
    table.AddCell(st.theta_cap_hits);
    table.AddCell(std::string(st.pilot_converged ? "ok" : "weak"));
    table.AddCell(isa::HumanBytes(st.rr_memory_bytes));
    if (spilling) {
      table.AddCell(isa::HumanBytes(st.spilled_bytes));
      table.AddCell(st.spill_chunks);
      table.AddCell(st.scan_reloads);
      table.AddCell(st.chunks_read);
      table.AddCell(st.chunks_skipped);
      table.AddCell(isa::HumanBytes(st.rr_resident_peak_bytes));
      // degraded=yes: this ad survived a permanent cold-tier fault (chunk
      // re-sampled, eviction disabled, or θ-growth capped).
      table.AddCell(std::string(
          st.degradation_events + st.growth_admission_caps > 0 ? "yes"
                                                               : "no"));
    }
    if (auto s = table.EndRow(); !s.ok()) return Fail(s);
  }
  table.Print(std::cout);
  std::printf("%s: total revenue %.2f, seeding cost %.2f, %llu seeds, "
              "%.2fs, RR memory %s; θ-growth: %llu adoptions "
              "(%u ads engaged, %u idle, %llu cap hits)\n",
              algo.c_str(), result.total_revenue, result.total_seeding_cost,
              (unsigned long long)result.total_seeds,
              result.elapsed_seconds,
              isa::HumanBytes(result.total_rr_memory_bytes).c_str(),
              (unsigned long long)result.total_growth_events,
              result.ads_growth_engaged, result.ads_growth_idle,
              (unsigned long long)result.total_theta_cap_hits);
  if (spilling) {
    std::printf("spill tier: budget %s per store, %s spilled in %llu "
                "chunks; %llu cold scans read %llu chunks, skipped %llu "
                "(envelope/Bloom); recovery: %llu retries (%llu succeeded), "
                "%llu degradations, %llu re-sampled sets, %llu growth caps\n",
                isa::HumanBytes(options.rr_memory_budget_bytes).c_str(),
                isa::HumanBytes(result.total_spilled_bytes).c_str(),
                (unsigned long long)result.total_spill_chunks,
                (unsigned long long)result.total_scan_reloads,
                (unsigned long long)result.total_chunks_read,
                (unsigned long long)result.total_chunks_skipped,
                (unsigned long long)result.total_spill_retries,
                (unsigned long long)result.total_spill_retry_successes,
                (unsigned long long)result.total_degradation_events,
                (unsigned long long)result.total_recovered_sets,
                (unsigned long long)result.total_growth_admission_caps);
    std::printf("cold-scan I/O: queue depth %u (peak %llu reads in "
                "flight), %u stores O_DIRECT, %llu direct-read "
                "fallbacks\n",
                options.io_ring_depth,
                (unsigned long long)result.total_reads_in_flight_peak,
                result.stores_direct_io,
                (unsigned long long)result.total_direct_fallbacks);
  }

  const std::string csv =
      flags.GetString("seeds-csv", "").value_or("");
  if (!csv.empty()) {
    isa::TableWriter rows({"ad", "seed_node", "incentive"});
    for (uint32_t j = 0; j < h; ++j) {
      for (auto u : result.allocation.seed_sets[j]) {
        rows.AddCell(uint64_t{j});
        rows.AddCell(uint64_t{u});
        rows.AddCell(instance.incentive(j, u), 4);
        if (auto s = rows.EndRow(); !s.ok()) return Fail(s);
      }
    }
    if (auto s = rows.WriteCsvFile(csv); !s.ok()) return Fail(s);
    std::fprintf(stderr, "wrote %s\n", csv.c_str());
  }

  if (flags.GetBool("validate", false).value_or(false)) {
    isa::diffusion::CascadeSimulator sim(graph);
    double mc_revenue = 0.0;
    for (uint32_t j = 0; j < h; ++j) {
      const auto& seeds = result.allocation.seed_sets[j];
      if (seeds.empty()) continue;
      mc_revenue += instance.cpe(j) *
                    sim.EstimateSpread(instance.ad_probs(j), seeds, 2000,
                                       seed + 7);
    }
    std::printf("Monte-Carlo validation: revenue %.2f (RR estimate "
                "%.2f)\n",
                mc_revenue, result.total_revenue);
  }
  return 0;
}
