// The three workloads. Each builds its stack (timed set-up), warms up
// with its own traffic, runs its measured window, checks its outputs,
// and fills the run's metrics.
#ifndef QPBENCH_WORKLOADS_H_
#define QPBENCH_WORKLOADS_H_

#include <string>
#include <utility>
#include <vector>

#include "harness.h"

namespace qpbench {

struct Run {
  explicit Run(const Args& a) : args(a), tracer(a.trace) {}
  Args args;
  Ledger ledger;
  Tracer tracer;
  /// End-to-end metrics (untraced runs report these) and per-layer
  /// metrics (traced runs report these); reference figures go to
  /// `reference`.
  MetricSink end_to_end;
  MetricSink per_layer;
  MetricSink reference;
  std::vector<std::pair<std::string, std::string>> meta;
  /// Filled in traced runs: the per-layer self-time table.
  std::string self_time_table;
};

void RunQuoteStorm(Run& run);
void RunBuyerArrivals(Run& run);
void RunSellerChurn(Run& run);

}  // namespace qpbench

#endif  // QPBENCH_WORKLOADS_H_
