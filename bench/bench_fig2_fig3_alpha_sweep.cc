// Figures 2 and 3: total revenue and total seeding cost as functions of α
// on flixster and soc-epinions1, for linear / constant / sublinear /
// superlinear incentive models and the four algorithms. One sweep feeds
// both tables.
//
// Paper headlines: TI-CSRM achieves the highest revenue at every point,
// with a margin that grows with α, and under constant incentives TI-CARM
// and TI-CSRM coincide (Fig. 2); TI-CSRM consistently pays the least in
// seed incentives — by orders of magnitude under the superlinear model
// (Fig. 3).

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/strings.h"
#include "common/table_writer.h"

namespace {

struct SweepPoint {
  std::string dataset;
  isa::core::IncentiveModel model;
  double alpha;
  std::vector<isa::bench::AlgoOutcome> outcomes;  // 4 algorithms
};

// Singleton spreads are computed once per dataset and reused across
// (model, α) points, matching how the paper varies incentives on fixed
// spreads.
std::vector<SweepPoint> RunQualitySweep(double scale) {
  std::vector<SweepPoint> points;
  for (const char* name : {"flixster", "soc-epinions1"}) {
    auto setup = isa::bench::MustValue(
        isa::eval::BuildExperiment(isa::bench::LoadBenchDataset(name, scale),
                                   isa::bench::QualityWorkload(name, scale)),
        "BuildExperiment");
    for (isa::core::IncentiveModel model : isa::bench::AllIncentiveModels()) {
      for (double alpha : isa::bench::AlphaGrid(name, model)) {
        isa::bench::Check(
            isa::eval::RebuildInstanceWithIncentives(setup, model, alpha),
            "RebuildInstanceWithIncentives");
        points.push_back(SweepPoint{
            name, model, alpha,
            isa::bench::RunAllFour(*setup.instance,
                                   isa::bench::QualityTiOptions())});
        std::fprintf(stderr, "  [%s %s alpha=%g] done\n", name,
                     isa::core::IncentiveModelName(model), alpha);
      }
    }
  }
  return points;
}

// One metric (revenue or seeding cost) of the sweep: one row per
// (dataset, model, α), one column per algorithm.
void PrintSweep(const std::vector<SweepPoint>& points, bool seeding_cost) {
  isa::TableWriter table({"dataset", "incentives", "alpha", "PageRank-GR",
                          "PageRank-RR", "TI-CARM", "TI-CSRM",
                          "CSRM vs CARM"});
  for (const SweepPoint& p : points) {
    table.AddCell(p.dataset);
    table.AddCell(std::string(isa::core::IncentiveModelName(p.model)));
    table.AddCell(isa::StrFormat("%g", p.alpha));
    double carm = 0, csrm = 0;
    for (const isa::bench::AlgoOutcome& o : p.outcomes) {
      const double v = seeding_cost ? o.seeding_cost : o.revenue;
      table.AddCell(v, 1);
      if (o.name == "TI-CARM") carm = v;
      if (o.name == "TI-CSRM") csrm = v;
    }
    table.AddCell(carm > 0 ? isa::StrFormat("%+.1f%%",
                                            100.0 * (csrm - carm) / carm)
                           : std::string("n/a"));
    isa::bench::Check(table.EndRow(), "sweep row");
  }
  table.Print(std::cout);
}

}  // namespace

int main() {
  const double scale = isa::bench::EffectiveScale(0.15);
  const auto points = RunQualitySweep(scale);
  std::printf("=== Figure 2: total revenue vs alpha (scale %.2f) ===\n\n",
              scale);
  PrintSweep(points, /*seeding_cost=*/false);
  std::printf("\n=== Figure 3: total seeding cost vs alpha (scale %.2f) "
              "===\n\n",
              scale);
  PrintSweep(points, /*seeding_cost=*/true);
  return 0;
}
