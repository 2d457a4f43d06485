// The benchmark's workloads and the instance set-up each one times.
//
// Every workload is built from public library functions only. Its graph
// and arc weights are a fixed dataset; the benchmark seed gives the
// singleton spreads (so the incentives) and the solve seed, so the same
// seed gives the same inputs. See rmbench/README.md for why each workload
// exists and which layers it stresses.

#ifndef RMBENCH_WORKLOADS_H_
#define RMBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/status.h"
#include "core/problem.h"
#include "core/ti_greedy.h"
#include "graph/graph.h"
#include "topic/tic_model.h"
#include "trace.h"

namespace rmbench {

struct WorkloadSpec {
  std::string name;
  /// true: the soc-epinions1 catalog entry's synthetic fallback;
  /// false: a Barabási–Albert graph of `ba_nodes` nodes, 4 arcs per node.
  bool epinions_fallback = false;
  uint32_t ba_nodes = 0;
  /// Identical advertisers: one topic, weighted cascade, CPE 1, this
  /// budget, linear incentives c(u) = 0.2 · σ({u}) from 50k-set RR
  /// singleton spreads (scaled like the budget).
  uint32_t num_ads = 0;
  double budget = 0.0;
  uint64_t singleton_sets = 0;
  /// The solve's options (seed and spill directory are filled in later).
  isa::core::TiOptions options;
  double scale = 1.0;
};

/// The named workload at `scale` (1 = the benchmarked size; the self-check
/// shrinks graph, budgets, θ-cap, singleton sets and memory budget by it).
isa::Result<WorkloadSpec> FindWorkload(const std::string& name, double scale);

/// The TiOptions seed of solve-seed index `index` for benchmark seed `seed`.
uint64_t SolveSeed(uint64_t seed, uint32_t index);

/// A built instance. The RmInstance borrows the graph, so both are owned
/// here behind stable addresses.
struct BuiltInstance {
  std::unique_ptr<isa::graph::Graph> graph;
  std::unique_ptr<isa::topic::TopicEdgeProbabilities> topics;
  std::unique_ptr<isa::core::RmInstance> instance;
};

struct SetupTimes {
  double graph_s = 0.0;      // graph + arc weights
  double singleton_s = 0.0;  // RR singleton spreads
  double instance_s = 0.0;   // advertisers, incentives, RmInstance::Create
  double total_s = 0.0;
};

/// Builds the workload's instance anew (no caches), timing each
/// layer. With a tracer, each layer is also recorded as a span.
isa::Result<BuiltInstance> BuildInstance(const WorkloadSpec& spec,
                                         uint64_t seed,
                                         const std::string& no_data_dir,
                                         Tracer* tracer, uint32_t run,
                                         SetupTimes* times);

}  // namespace rmbench

#endif  // RMBENCH_WORKLOADS_H_
