// rmbench — the repository benchmark program.
//
//   rmbench --workload NAME --seed N --seconds S --trace 0|1
//           [--work-dir DIR] [--scale F] [--epsilon E]
//
// Untraced (--trace 0): builds the workload's instance anew kSetups
// times (setup_s is the median), runs one untimed warm-up solve, then
// times core::RunTiGreedy back to back for S seconds, checks every result,
// re-scores the allocation by Monte-Carlo and prints the end-to-end
// metrics. Traced (--trace 1): the same set-up and warm-up, then S/2
// seconds of untraced solves and S/2 seconds of traced replays (see
// replay.h), per-layer probes, and the per-layer metrics; the spans go to
// DIR/traces at exit. Spill files go to DIR/spill; DIR/no-data is the
// (empty) data directory the dataset catalog is pointed at. --scale and
// --epsilon serve the self-check (tiny sizes, forced failures).
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The line before it is the host record. Progress goes to standard error.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/advertiser_engine.h"
#include "core/spread_oracle.h"
#include "core/ti_greedy.h"
#include "replay.h"
#include "trace.h"
#include "workloads.h"

namespace rmbench {
namespace {

using isa::Result;
using isa::Status;
using isa::core::TiResult;

// Fixed Monte-Carlo re-scoring, independent of the RR sample that chose
// the seeds. With 200 runs the cascade noise alone moved sample-heavy's
// revenue by 30% between seeds.
constexpr uint32_t kMcRuns = 2500;
constexpr uint64_t kMcSeed = 20170901;
// Solve seeds per run. sample-heavy commits about 8 seeds, and the MC
// revenue of one seed's allocation still moved by up to 20% between runs.
constexpr uint32_t kSolveSeeds = 4;
// A timed loop runs at least this many solves (every solve seed once) and
// at most kMaxSolves.
constexpr size_t kMinSolves = kSolveSeeds;
constexpr size_t kMaxSolves = 500;
// Fresh instance builds per run; setup_s is their median.
constexpr int kSetups = 7;
constexpr double kMiB = 1024.0 * 1024.0;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".bench_build";
  double scale = 1.0;
  double epsilon = 0.0;  // 0: the workload's own
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", k.c_str());
      return false;
    }
    const char* v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a->workload = v;
      continue;
    } else if (k == "--work-dir") {
      a->work_dir = v;
      continue;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v, &end, 10);
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v, &end);
    } else if (k == "--trace") {
      a->trace = std::strtol(v, &end, 10) != 0;
    } else if (k == "--scale") {
      a->scale = std::strtod(v, &end);
    } else if (k == "--epsilon") {
      a->epsilon = std::strtod(v, &end);
    } else {
      std::fprintf(stderr, "unknown flag %s\n", k.c_str());
      return false;
    }
    if (end == v || *end != '\0') {
      std::fprintf(stderr, "bad value for %s: %s\n", k.c_str(), v);
      return false;
    }
  }
  if (a->workload.empty() || !(a->seconds > 0.0)) {
    std::fprintf(stderr, "need --workload and --seconds > 0\n");
    return false;
  }
  return true;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& t) { return t.tv_sec + t.tv_usec * 1e-6; };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double PeakRssMib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / kMiB;  // KiB on Linux
}

// ---- Host record. ----

struct Host {
  uint32_t hardware_concurrency = 0;
  double effective_parallelism = 0.0;
};

std::atomic<uint64_t> g_spin_sink{0};

void Spin(uint64_t iters) {
  uint64_t x = iters;
  for (uint64_t i = 0; i < iters; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
  }
  g_spin_sink.fetch_add(x, std::memory_order_relaxed);
}

double SpinWall(uint32_t threads, uint64_t iters) {
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> pool;
  for (uint32_t t = 0; t < threads; ++t) pool.emplace_back(Spin, iters);
  for (std::thread& t : pool) t.join();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// Effective cores: one spinner alone takes t1; N spinners doing the same
// work each take tN. N·t1/tN is the parallelism the host delivers, which a
// shared or throttled host keeps below N.
Host ProbeHost() {
  Host h;
  h.hardware_concurrency = std::max(1u, std::thread::hardware_concurrency());
  // Long enough (~0.15 s per spinner) that idle cores have woken and the
  // scheduler has spread the spinners; one discarded round first.
  constexpr uint64_t kIters = 100'000'000;
  SpinWall(h.hardware_concurrency, kIters);
  std::vector<double> ratios;
  for (int rep = 0; rep < 3; ++rep) {
    const double t1 = SpinWall(1, kIters);
    const double tn = SpinWall(h.hardware_concurrency, kIters);
    ratios.push_back(h.hardware_concurrency * t1 / tn);
  }
  h.effective_parallelism = Median(ratios);
  return h;
}

// ---- Per-solve checks. ----

struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  void Record(const std::string& error) {
    ++attempted;
    if (!error.empty()) {
      ++failed;
      std::fprintf(stderr, "rmbench: solve %llu failed: %s\n",
                   static_cast<unsigned long long>(attempted),
                   error.c_str());
    }
  }
};

// Partition matroid, knapsack (RR payment within budget, with the same
// slack the engine's feasibility test allows), and fixed-seed determinism
// against the run's first solve. Empty when every check passes.
std::string CheckSolve(const isa::core::RmInstance& instance,
                       const TiResult& r, const TiResult* reference) {
  const uint32_t h = instance.num_ads();
  if (r.allocation.seed_sets.size() != h || r.ad_stats.size() != h) {
    return "result does not have one entry per advertiser";
  }
  if (!r.allocation.IsDisjoint(instance.num_nodes())) {
    return "allocation violates the partition matroid";
  }
  for (uint32_t j = 0; j < h; ++j) {
    if (!(r.ad_stats[j].payment <=
          instance.budget(j) + isa::core::kBudgetSlack)) {
      return "advertiser " + std::to_string(j) + " pays over its budget";
    }
  }
  if (reference != nullptr &&
      (r.allocation.seed_sets != reference->allocation.seed_sets ||
       r.total_revenue != reference->total_revenue ||
       r.total_theta != reference->total_theta)) {
    return "result differs from the run's first solve (same seed)";
  }
  return "";
}

struct Solve {
  Result<TiResult> result = Status::Internal("not run");
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

Solve TimedSolve(const isa::core::RmInstance& instance,
                 const isa::core::TiOptions& options) {
  Solve s;
  const double cpu0 = CpuSeconds();
  const auto t0 = std::chrono::steady_clock::now();
  s.result = isa::core::RunTiGreedy(instance, options);
  s.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           t0)
                 .count();
  s.cpu_s = CpuSeconds() - cpu0;
  return s;
}

// ---- Output. ----

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, const Tally& tally,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(tally.attempted);
  out += ", \"failed\": " + std::to_string(tally.failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
           buf + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

// ---- The run. ----

int Run(const Args& args) {
  auto found = FindWorkload(args.workload, args.scale);
  if (!found.ok()) {
    std::fprintf(stderr, "rmbench: %s\n", found.status().ToString().c_str());
    return 2;
  }
  const WorkloadSpec& spec = found.value();
  const std::string spill_dir = args.work_dir + "/spill";
  const std::string trace_dir = args.work_dir + "/traces";
  std::error_code ec;
  std::filesystem::create_directories(spill_dir, ec);
  if (args.trace) std::filesystem::create_directories(trace_dir, ec);

  const Host host = ProbeHost();
  std::printf("{\"host\": {\"hardware_concurrency\": %u, "
              "\"effective_parallelism\": %.4f}}\n",
              host.hardware_concurrency, host.effective_parallelism);

  Tracer tracer;
  Tracer* tr = args.trace ? &tracer : nullptr;
  uint32_t run_id = 0;

  // Set-up, several times anew; only one instance lives at a time.
  BuiltInstance built;
  std::vector<double> setup_s, graph_s, singleton_s, instance_s;
  for (int k = 0; k < kSetups; ++k) {
    built = BuiltInstance{};
    SetupTimes t;
    auto b = BuildInstance(spec, args.seed, args.work_dir + "/no-data", tr,
                           run_id++, &t);
    if (!b.ok()) {
      std::fprintf(stderr, "rmbench: set-up failed: %s\n",
                   b.status().ToString().c_str());
      return 1;
    }
    built = std::move(b).value();
    setup_s.push_back(t.total_s);
    graph_s.push_back(t.graph_s);
    singleton_s.push_back(t.singleton_s);
    instance_s.push_back(t.instance_s);
  }
  const isa::core::RmInstance& instance = *built.instance;
  std::fprintf(stderr,
               "rmbench: %s seed %llu: %u nodes, %u arcs, %u ads; set-up "
               "median %.3f s of %d\n",
               spec.name.c_str(), static_cast<unsigned long long>(args.seed),
               instance.num_nodes(), instance.graph().num_edges(),
               instance.num_ads(), Median(setup_s), kSetups);

  // Solves cycle through kSolveSeeds solve seeds, so that mc_revenue
  // averages over that many allocations. Index 0 is the warm-up's seed,
  // the one the traced replays use.
  std::vector<isa::core::TiOptions> seed_options(kSolveSeeds, spec.options);
  for (uint32_t q = 0; q < kSolveSeeds; ++q) {
    seed_options[q].seed = SolveSeed(args.seed, q);
    seed_options[q].spill_directory = spill_dir;
    if (args.epsilon != 0.0) seed_options[q].epsilon = args.epsilon;
  }
  const isa::core::TiOptions& options = seed_options[0];

  Tally tally;
  // The first solve of each seed that passes the checks is that seed's
  // reference for determinism.
  std::vector<std::optional<TiResult>> refs(kSolveSeeds);
  auto check = [&](uint32_t q, Result<TiResult>& result) {
    if (!result.ok()) {
      tally.Record(result.status().ToString());
      return;
    }
    const std::string err = CheckSolve(
        instance, result.value(), refs[q].has_value() ? &*refs[q] : nullptr);
    tally.Record(err);
    if (err.empty() && !refs[q].has_value()) {
      refs[q] = std::move(result).value();
    }
  };
  Solve warm = TimedSolve(instance, options);  // untimed
  check(0, warm.result);

  // Untraced timed solves (the whole budget untraced, half when tracing);
  // the seed index runs 1, 2, ..., kSolveSeeds - 1, 0, 1, ...
  std::vector<double> wall, cpu;
  const double solve_budget = args.trace ? args.seconds / 2 : args.seconds;
  {
    const auto t0 = std::chrono::steady_clock::now();
    auto elapsed = [&] {
      return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           t0)
          .count();
    };
    while (wall.size() < kMaxSolves &&
           (wall.size() < kMinSolves || elapsed() < solve_budget)) {
      const uint32_t q = (wall.size() + 1) % kSolveSeeds;
      Solve s = TimedSolve(instance, seed_options[q]);
      wall.push_back(s.wall_s);
      cpu.push_back(s.cpu_s);
      check(q, s.result);
    }
  }
  const double solve_s = Median(wall);
  const double solve_cpu_s = Median(cpu);
  std::vector<double> sorted = wall;
  std::sort(sorted.begin(), sorted.end());
  std::fprintf(stderr,
               "rmbench: solve_s median %.4f s (min %.4f, max %.4f), "
               "solve_cpu_s median %.4f s, over %zu timed solves (warm-up "
               "%.4f s untimed)\n",
               solve_s, sorted.front(), sorted.back(), solve_cpu_s,
               wall.size(), warm.wall_s);

  // Quality: MC and RR revenue, averaged over the seeds' allocations.
  double mc_revenue = 0.0;
  double rr_revenue = 0.0;
  {
    Scope mc(nullptr, "mc");
    uint32_t scored = 0;
    for (const std::optional<TiResult>& ref : refs) {
      if (!ref.has_value()) continue;
      isa::core::McSpreadOracle oracle(instance, kMcRuns, kMcSeed);
      mc_revenue += isa::core::EvaluateAllocation(instance, ref->allocation,
                                                  oracle)
                        .total_revenue;
      rr_revenue += ref->total_revenue;
      ++scored;
    }
    if (scored > 0) {
      mc_revenue /= scored;
      rr_revenue /= scored;
    }
    std::fprintf(stderr,
                 "rmbench: Monte-Carlo re-scoring of %u allocations (%u runs "
                 "each) %.3f s\n",
                 scored, kMcRuns, mc.Stop());
  }
  const TiResult* reference = refs[0].has_value() ? &*refs[0] : nullptr;

  if (!args.trace) {
    const double ok_frac =
        tally.attempted == 0
            ? 0.0
            : 1.0 - static_cast<double>(tally.failed) / tally.attempted;
    PrintResult(tally.failed == 0, tally,
                {{"solve_s", solve_s, "s"},
                 {"solve_cpu_s", solve_cpu_s, "s"},
                 {"setup_s", Median(setup_s), "s"},
                 {"mc_revenue", mc_revenue, "revenue"},
                 {"peak_rss_mib", PeakRssMib(), "MiB"},
                 {"solve_ok_frac", ok_frac, "fraction"}});
    return 0;
  }

  // ---- Traced replays, each checked bit for bit against RunTiGreedy. ----
  std::vector<double> init_s, pilot_s, engine_s, spill_s, sched_s, total_s;
  Result<Replay> last = Status::Internal("no replay ran");
  if (reference != nullptr) {
    const auto t0 = std::chrono::steady_clock::now();
    do {
      last = ReplayTiGreedy(instance, options, tr, run_id++);
      if (!last.ok()) {
        tally.Record("replay: " + last.status().ToString());
        break;
      }
      const std::string diff = CompareWithRun(last.value(), *reference);
      tally.Record(diff.empty() ? "" : "replay not bit-identical: " + diff);
      const ReplayStages& st = last.value().stages;
      init_s.push_back(st.init_s);
      pilot_s.push_back(st.pilot_busy_s);
      engine_s.push_back(st.engine_busy_s);
      spill_s.push_back(st.first_spill_s);
      sched_s.push_back(st.scheduler_s);
      total_s.push_back(st.total_s);
    } while (total_s.size() < kMaxSolves &&
             std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           t0)
                     .count() < args.seconds / 2);
  }

  ProbeResult probe;
  if (last.ok()) {
    auto p = RunProbes(instance, options, last.value(), tr, run_id++);
    if (p.ok()) {
      probe = p.value();
    } else {
      tally.Record("probe: " + p.status().ToString());
    }
  }

  {
    const std::string path = trace_dir + "/" + spec.name + "-seed" +
                             std::to_string(args.seed) + ".json";
    Status s = tracer.WriteChromeJson(path);
    if (!s.ok()) std::fprintf(stderr, "rmbench: %s\n", s.ToString().c_str());
  }

  // Counters come from the warm-up's TiResult (the replays match it).
  const TiResult r = reference != nullptr ? *reference : TiResult{};
  const Replay replay = last.ok() ? last.value() : Replay{};
  auto count = [](uint64_t v) { return static_cast<double>(v); };
  auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  uint64_t resident_peak = 0;
  double cold_read_bytes = 0.0;
  for (const isa::core::TiAdStats& st : r.ad_stats) {
    resident_peak += st.rr_resident_peak_bytes;
    cold_read_bytes += ratio(count(st.chunks_read) * count(st.spilled_bytes),
                             count(st.spill_chunks));
  }
  const double run_s = Median(sched_s);
  const double removal_s = options.rr_memory_budget_bytes > 0
                               ? probe.cold_remove_s
                               : probe.remove_s;
  const uint32_t threads = options.num_threads == 0
                               ? host.hardware_concurrency
                               : options.num_threads;
  const double stages_s = Median(init_s) + Median(spill_s) + run_s;
  PrintResult(
      tally.failed == 0, tally,
      {{"graph.build_s", Median(graph_s), "s"},
       {"eval.instance_s", Median(instance_s), "s"},
       {"rrset.singleton_s", Median(singleton_s), "s"},
       {"ti_greedy.init_s", Median(init_s), "s"},
       {"sample_sizer.pilot_s", Median(pilot_s), "s"},
       {"sample_sizer.pilot_sets", count(replay.pilot_sets), "count"},
       {"sample_sizer.pilots_converged", count(replay.pilots_converged),
        "count"},
       {"sample_sizer.theta_cap_hits", count(r.total_theta_cap_hits),
        "count"},
       {"parallel_sampler.sample_s", probe.sample_s, "s"},
       {"parallel_sampler.sets_per_s",
        ratio(count(probe.sets_sampled), probe.sample_s), "1/s"},
       {"rr_sampler.mean_set_size", probe.mean_set_size, "nodes"},
       {"rr_collection.adopt_s", probe.adopt_s, "s"},
       {"rr_store.mib", r.total_rr_memory_bytes / kMiB, "MiB"},
       {"rr_store.index_mib", r.total_rr_index_bytes / kMiB, "MiB"},
       {"advertiser_engine.init_s", Median(engine_s), "s"},
       {"selection_scheduler.run_s", run_s, "s"},
       {"selection_scheduler.seeds", count(r.total_seeds), "count"},
       {"selection_scheduler.us_per_seed",
        ratio(run_s * 1e6, count(r.total_seeds)), "us"},
       {"rr_collection.remove_s", probe.remove_s, "s"},
       {"rr_collection.sets_covered", count(probe.sets_covered), "count"},
       {"advertiser_engine.candidate_s", run_s - removal_s, "s"},
       {"tiered_store.first_spill_s", Median(spill_s), "s"},
       {"tiered_store.spilled_mib", r.total_spilled_bytes / kMiB, "MiB"},
       {"rr_store.resident_peak_mib", resident_peak / kMiB, "MiB"},
       {"rr_store.scan_reloads", count(r.total_scan_reloads), "count"},
       {"rr_store.chunks_read", count(r.total_chunks_read), "count"},
       {"rr_store.chunks_skipped", count(r.total_chunks_skipped), "count"},
       {"rr_store.chunk_skip_ratio",
        ratio(count(r.total_chunks_skipped),
              count(r.total_chunks_read + r.total_chunks_skipped)),
        "ratio"},
       {"rr_store.cold_read_mib", cold_read_bytes / kMiB, "MiB_computed"},
       {"async_io.reads_in_flight_peak", count(r.total_reads_in_flight_peak),
        "count"},
       {"rr_collection.cold_remove_s", probe.cold_remove_s, "s"},
       {"thread_pool.utilization", ratio(solve_cpu_s, solve_s * threads),
        "ratio"},
       {"ti_greedy.theta_total", count(r.total_theta), "count"},
       {"ti_greedy.rr_revenue", rr_revenue, "revenue"},
       {"ti_greedy.rr_mc_ratio", ratio(mc_revenue, rr_revenue), "ratio"},
       {"ti_greedy.unattributed_s", solve_s - stages_s, "s"},
       {"trace.overhead_s", Median(total_s) - solve_s, "s"},
       {"host.hardware_concurrency", count(host.hardware_concurrency),
        "count"},
       {"host.effective_parallelism", host.effective_parallelism, "cores"}});
  return 0;
}

}  // namespace
}  // namespace rmbench

int main(int argc, char** argv) {
  rmbench::Args args;
  if (!rmbench::ParseArgs(argc, argv, &args)) return 2;
  return rmbench::Run(args);
}
