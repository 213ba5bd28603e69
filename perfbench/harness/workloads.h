//===- perfbench/harness/workloads.h - Workloads and layer probes -*- C++ -*-===//
//
// Part of the DrDebug reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "bench.h"

namespace perfbench {

struct RunConfig {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Scratch directory inside the checkout; removed at exit.
  std::string Work;
  /// Self-test hook: the N-th checked answer is counted wrong (0: never).
  uint64_t InjectWrong = 0;
};

/// The timed (or, with Cfg.Trace, half-traced) loop of each workload.
/// \p Probe receives the fixtures the layer probes run on.
int runColdTriage(const RunConfig &Cfg, Results &R, SpanLog &Log,
                  std::vector<Fixture> &Probe);
int runWarmReattach(const RunConfig &Cfg, Results &R, SpanLog &Log,
                    std::vector<Fixture> &Probe);
int runServedFleet(const RunConfig &Cfg, Results &R, SpanLog &Log,
                   std::vector<Fixture> &Probe, std::unique_ptr<Fleet> &F);

/// The traced run's per-layer measurements: each layer's public functions
/// called directly on \p Fixtures, the local debugger, and the same script
/// served directly by a backend and through the gateway of \p F.
void runLayerProbes(const RunConfig &Cfg, const std::vector<Fixture> &Fixtures,
                    Fleet &F, double Seconds, Results &R, SpanLog &Log);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
