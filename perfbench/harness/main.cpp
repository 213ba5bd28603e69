//===- perfbench/harness/main.cpp - Benchmark harness entry point ----------===//
//
// Part of the DrDebug reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
///   perfbench_harness --workload <name> --seed <n> --seconds <s>
///                    --trace <0|1> --work <dir> --out <file>
///                    [--inject-wrong <n>]
///
/// Runs one workload and writes its raw samples, counts, provenance and
/// (traced runs) spans to <file> as JSON. `perfbench/run.py` builds this
/// harness, reduces the samples to metrics and prints the result line.
/// --inject-wrong is the hook `run.py self-test` uses to check that a
/// wrong answer is counted.
///
//===----------------------------------------------------------------------===//

#include "workloads.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

using namespace perfbench;
namespace fs = std::filesystem;

namespace {

std::string spansJson(const std::vector<SpanLog::Span> &Spans) {
  std::string Out = "[";
  for (size_t I = 0; I != Spans.size(); ++I) {
    const SpanLog::Span &S = Spans[I];
    Out += (I ? ",[\"" : "[\"") + S.Name + "\",\"" + S.Layer + "\"," +
           std::to_string(S.Group) + "," + std::to_string(S.Tid) + "," +
           std::to_string(S.StartUs) + "," + std::to_string(S.EndUs) + "]";
  }
  return Out + "]";
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_harness --workload cold-triage|warm-reattach|"
               "served-fleet --seed N --seconds S --trace 0|1 --work DIR "
               "--out FILE [--inject-wrong N]\n");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  RunConfig Cfg;
  std::string Out;
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string K = Argv[I], V = Argv[I + 1];
    if (K == "--workload")
      Cfg.Workload = V;
    else if (K == "--seed")
      Cfg.Seed = std::stoull(V);
    else if (K == "--seconds")
      Cfg.Seconds = std::stod(V);
    else if (K == "--trace")
      Cfg.Trace = V == "1";
    else if (K == "--work")
      Cfg.Work = V;
    else if (K == "--out")
      Out = V;
    else if (K == "--inject-wrong")
      Cfg.InjectWrong = std::stoull(V);
    else
      return usage();
  }
  if (Cfg.Work.empty() || Out.empty())
    return usage();
  fs::remove_all(Cfg.Work);
  fs::create_directories(Cfg.Work);

  Results R;
  SpanLog Log;
  std::vector<Fixture> Probe;
  std::unique_ptr<Fleet> F;
  // A traced run splits its time: half alternating traced and untraced
  // loop iterations, half the layer probes.
  RunConfig LoopCfg = Cfg;
  if (Cfg.Trace)
    LoopCfg.Seconds = Cfg.Seconds / 2;
  int Rc = 0;
  if (Cfg.Workload == "cold-triage")
    Rc = runColdTriage(LoopCfg, R, Log, Probe);
  else if (Cfg.Workload == "warm-reattach")
    Rc = runWarmReattach(LoopCfg, R, Log, Probe);
  else if (Cfg.Workload == "served-fleet")
    Rc = runServedFleet(LoopCfg, R, Log, Probe, F);
  else
    return usage();
  if (Rc == 0 && Cfg.Trace) {
    if (!F) {
      fs::create_directories(Cfg.Work + "/probe-fleet");
      F = std::make_unique<Fleet>(Cfg.Work + "/probe-fleet");
    }
    if (F->ok())
      runLayerProbes(Cfg, Probe, *F, Cfg.Seconds / 2, R, Log);
    else
      R.attempt(false, "could not start drdebugd/drdebug_gw for the probes");
  }
  F.reset();

  R.info("compiler", __VERSION__);
  R.info("build_type", PERFBENCH_BUILD_TYPE);
  R.info("hardware_threads", std::to_string(std::thread::hardware_concurrency()));
  std::ofstream OS(Out);
  OS << "{\"run\":" << R.json() << ",\"spans\":" << spansJson(Log.Spans)
     << "}\n";
  OS.close();
  fs::remove_all(Cfg.Work);
  return OS ? Rc : 1;
}
