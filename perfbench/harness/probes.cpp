//===- perfbench/harness/probes.cpp - Per-layer measurements ---------------===//
//
// Part of the DrDebug reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's layer probes. Each calls one layer's public functions
/// on the workload's own fixtures and records the layer's work, time and
/// useful-work ratios under the names BENCHMARK.json lists. The served
/// probes read the production `metrics` verb, so their figures are the
/// ones an operator scrapes.
///
//===----------------------------------------------------------------------===//

#include "workloads.h"

#include "arch/assembler.h"
#include "replay/checkpoints.h"
#include "replay/flight_recorder.h"
#include "replay/logger.h"
#include "replay/repository.h"
#include "slicing/index_store.h"
#include "slicing/report.h"
#include "slicing/slicer.h"
#include "support/metric_names.h"
#include "vm/scheduler.h"

#include <filesystem>
#include <sstream>
#include <thread>

using namespace drdebug;
namespace fs = std::filesystem;
namespace mn = drdebug::metricnames;

namespace perfbench {

namespace {

uint64_t dirBytes(const std::string &Dir) {
  uint64_t N = 0;
  std::error_code EC;
  for (const auto &E : fs::recursive_directory_iterator(Dir, EC))
    if (E.is_regular_file())
      N += E.file_size();
  return N;
}

SliceCriterion parseCrit(const std::string &S) {
  SliceCriterion C;
  std::istringstream IS(S);
  IS >> C.Tid >> C.Pc >> C.Instance;
  return C;
}

/// Times \p Fn in a span of \p Layer; \returns seconds.
template <typename FnT>
double timed(SpanLog &Log, const std::string &Name, const std::string &Layer,
             FnT Fn) {
  Scope Sp(Log, Name, Layer);
  double T0 = nowS();
  Fn();
  return nowS() - T0;
}

/// The replay and slicing layers, called directly on one fixture.
void probeReplayAndSlicing(const Fixture &F, const std::string &Tmp,
                           Results &R, SpanLog &Log) {
  Program P;
  std::string Error;
  R.layer("arch.assemble_ms", 1e3 * timed(Log, "assemble", "arch", [&] {
            assemble(F.ProgText, P, Error);
          }));

  LogResult LR;
  double Dt = timed(Log, "Logger::logRegion", "replay", [&] {
    RandomScheduler Sched(F.Seed, 1, 4);
    DefaultSyscalls World(F.Seed);
    LR = Logger::logRegion(P, Sched, &World, RegionSpec());
  });
  R.layer("replay.logger.minstr_per_s", LR.TotalInstrs / Dt / 1e6);

  fs::remove_all(Tmp);
  R.layer("replay.pinball.save_ms", 1e3 * timed(Log, "Pinball::save", "replay",
                                                [&] { LR.Pb.save(Tmp, Error); }));
  Pinball Pb;
  R.layer("replay.pinball.load_ms", 1e3 * timed(Log, "Pinball::load", "replay",
                                                [&] { Pb.load(Tmp, Error); }));
  uint64_t PbBytes = Pinball::diskSizeBytes(Tmp);
  R.layer("replay.pinball.bytes", static_cast<double>(PbBytes));

  {
    Replayer Rep(Pb);
    Dt = timed(Log, "Replayer::run", "replay", [&] { Rep.run(); });
    uint64_t Exec = Rep.compiledInstructions() + Rep.interpretedInstructions();
    R.layer("replay.replayer.minstr_per_s",
            Rep.replayedInstructions() / Dt / 1e6);
    R.layer("replay.replayer.compiled_frac",
            Exec ? double(Rep.compiledInstructions()) / double(Exec) : 0);
    R.layer("replay.replayer.deopts", static_cast<double>(Rep.deopts()));
  }

  {
    // The session's checkpoint interval; seeks to drawn positions.
    CheckpointedReplay C(Pb, /*Interval=*/256);
    C.runForward();
    Draw D(F.Seed);
    for (int I = 0; I != 8; ++I) {
      uint64_t Target = D.next() % (C.scheduleLength() ? C.scheduleLength() : 1);
      uint64_t Before = C.reexecutedInstructions();
      R.layer("replay.checkpoints.seek_ms",
              1e3 * timed(Log, "CheckpointedReplay::seek", "replay",
                          [&] { C.seek(Target); }));
      R.layer("replay.checkpoints.reexec_instrs",
              double(C.reexecutedInstructions() - Before));
    }
    R.layer("replay.checkpoints.peak_bytes", double(C.peakCheckpointBytes()));
  }

  {
    Machine M(P);
    RandomScheduler Sched(F.Seed, 1, 4);
    DefaultSyscalls World(F.Seed);
    M.setScheduler(&Sched);
    M.setSyscalls(&World);
    FlightRecorder FR(M);
    M.run();
    Pinball Dump;
    R.layer("replay.flight.dump_ms",
            1e3 * timed(Log, "FlightRecorder::dump", "replay",
                        [&] { FR.dump(Dump, Error); }));
    R.layer("replay.flight.peak_bytes", double(FR.status().PeakBytes));
  }

  SliceSession S(Pb);
  if (!S.prepare(Error)) {
    R.attempt(false, "prepare " + F.Name + ": " + Error);
    return;
  }
  uint64_t Entries = S.traces().totalEntries();
  R.layer("slicing.prepare.replay_ms", 1e3 * S.replaySeconds());
  R.layer("slicing.prepare.analysis_ms", 1e3 * S.analysisSeconds());
  R.layer("slicing.trace.ns_per_entry", 1e9 * S.traceSeconds() / Entries);

  uint64_t Fp = PinballRepository::dirFingerprint(Tmp);
  R.layer("slicing.index.save_ms",
          1e3 * timed(Log, "SliceSession::saveIndex", "slicing",
                      [&] { S.saveIndex(Tmp, Fp, Error); }));
  uint64_t IndexBytes = dirBytes(SliceIndexStore::indexDirFor(Tmp));
  R.layer("slicing.index.bytes_per_entry", double(IndexBytes) / Entries);
  R.layer("slicing.index.pinball_ratio", double(IndexBytes) / PbBytes);
  {
    SliceSession Warm(Pb);
    bool Ok = false;
    R.layer("slicing.index.load_ms",
            1e3 * timed(Log, "SliceSession::loadIndex", "slicing",
                        [&] { Ok = Warm.loadIndex(Tmp, Fp, Error); }));
    R.attempt(Ok, "loadIndex " + F.Name + ": " + Error);
  }

  std::optional<SliceCriterion> FailC = S.failureCriterion();
  std::vector<SliceCriterion> Crits;
  for (const std::string &C : F.Crits)
    Crits.push_back(parseCrit(C));
  if (FailC)
    Crits.insert(Crits.begin(), *FailC);
  std::optional<Slice> First;
  for (const SliceCriterion &C : Crits) {
    std::optional<Slice> Sl;
    R.layer("slicing.lp.slice_ms",
            1e3 * timed(Log, "SliceSession::computeSlice", "slicing",
                        [&] { Sl = S.computeSlice(C); }));
    if (!Sl) {
      R.attempt(false, "computeSlice " + F.Name);
      continue;
    }
    std::ostringstream OS;
    R.layer("slicing.report.render_ms",
            1e3 * timed(Log, "writeSliceReportText", "slicing", [&] {
              writeSliceReportText(OS, S.program(), S.globalTrace(), *Sl);
            }));
    if (!First)
      First = std::move(Sl);
  }
  if (First) {
    Pinball SlicePb;
    R.layer("replay.relogger.slice_pinball_ms",
            1e3 * timed(Log, "SliceSession::makeSlicePinball", "replay",
                        [&] { S.makeSlicePinball(*First, SlicePb, Error); }));
    R.layer("replay.relogger.slice_frac", double(SlicePb.instructionCount()) /
                                              double(Pb.instructionCount()));
  }

  if (const GlobalVar *G = S.program().findGlobal(F.Global)) {
    Location L = memLoc(G->Addr);
    R.layer("slicing.omniscient.query_us",
            1e6 * timed(Log, "SliceSession::lastWrite", "slicing",
                        [&] { S.lastWrite(L); }));
    R.layer("slicing.omniscient.query_us",
            1e6 * timed(Log, "SliceSession::valuesOf", "slicing",
                        [&] { S.valuesOf(L, 16); }));
    R.layer("slicing.omniscient.query_us",
            1e6 * timed(Log, "SliceSession::readersOf", "slicing",
                        [&] { S.readersOf(F.ReadPos); }));
  }
  fs::remove_all(Tmp);
}

/// The debugging script every probe plays, locally and served: one
/// command of each word BENCHMARK.json times under debugger.cmd_ms.
std::vector<std::string> probeScript(const Fixture &F) {
  std::string G = F.Global;
  return {"pinball load " + F.Dir,
          "replay",
          "slice " + F.Crits[0],
          "lastwrite " + G,
          "valuesof " + G + " 8",
          "readersof " + std::to_string(F.ReadPos),
          "print " + G,
          "where",
          "break " + std::to_string(F.BreakPc),
          "replay-seek 0",
          "continue",
          "stepi",
          "reverse-stepi 8",
          "reverse-watch " + G,
          "reverse-continue"};
}

/// Plays the probe script once in a fresh local session.
void probeDebugger(const Fixture &F, Results &R, SpanLog &Log) {
  DebugSession S([](const std::string &) {});
  R.attempt(S.loadProgram(F.ProgText).Status == CommandStatus::Ok, "load");
  for (const std::string &Line : probeScript(F)) {
    double Dt = 0;
    runLocal(S, Line, R, Log, &Dt);
    R.layer("debugger.cmd_ms." + Line.substr(0, Line.find(' ')), Dt * 1e3);
  }
}

/// Plays the probe script as one served session; \returns the mean
/// client-observed `cmd` latency in microseconds. \p Journal, when set,
/// receives the session's journal bytes per command (read off \p Metrics
/// before the session closes).
double servedSession(ProtocolClient &C, const Fixture &F, Results &R,
                     SpanLog &Log, std::vector<double> *LoadMs,
                     std::vector<double> *AcquireMs,
                     ProtocolClient *Metrics = nullptr,
                     double *Journal = nullptr) {
  auto Check = [&](const auto &Res, const std::string &What) {
    R.attempt(Res.ok(), What + ": " + Res.errorText());
    return Res.ok();
  };
  auto Sid = C.open();
  if (!Check(Sid, "open") || !Check(C.load(Sid.value(), F.ProgText), "load"))
    return 0;
  double JournalBefore = 0;
  if (Journal) {
    auto M = Metrics->metrics();
    JournalBefore = M.ok() ? promValue(M.value(), mn::ServerJournalBytes) : 0;
  }
  double Total = 0;
  std::vector<std::string> Script = probeScript(F);
  for (size_t I = 0; I != Script.size(); ++I) {
    double Dt = timed(Log, "cmd " + Script[I].substr(0, Script[I].find(' ')),
                      "served", [&] {
                        Check(C.cmd(Sid.value(), Script[I]), Script[I]);
                      });
    Total += Dt;
    if (I == 0 && LoadMs)
      LoadMs->push_back(Dt * 1e3);
    if (I == 2 && AcquireMs)
      AcquireMs->push_back(Dt * 1e3);
  }
  if (Journal) {
    auto M = Metrics->metrics();
    double After = M.ok() ? promValue(M.value(), mn::ServerJournalBytes) : 0;
    *Journal = (After - JournalBefore) / double(Script.size());
  }
  Check(C.request("close " + std::to_string(Sid.value())), "close");
  return 1e6 * Total / double(Script.size());
}

/// The served layers: the probe script direct to backend 1 and through
/// the gateway, each after both backends have served it once.
void probeHops(const std::vector<Fixture> &Fs, Fleet &Fl, Results &R,
                 SpanLog &Log) {
  Conn Direct(Fl.B1->port()), Scrape(Fl.B1->port()), Gw(Fl.Gw->port());
  if (!Direct.ok() || !Scrape.ok() || !Gw.ok()) {
    R.attempt(false, "connect to the fleet");
    return;
  }
  std::string VerbFilter = "verb=\"cmd\"";
  for (const Fixture &F : Fs) {
    // Both backends load and prepare the fixture first, so the direct and
    // the gateway sessions compare warm paths wherever the gateway routes.
    SpanLog Off;
    for (uint16_t Port : {Fl.B1->port(), Fl.B2->port()})
      if (Conn Warm(Port); Warm.ok())
        servedSession(*Warm.C, F, R, Off, nullptr, nullptr);
    auto Before = Scrape.C->metrics();
    double Journal = 0;
    double DirectUs = servedSession(*Direct.C, F, R, Log, nullptr, nullptr,
                                    Scrape.C.get(), &Journal);
    auto After = Scrape.C->metrics();
    double GwUs = servedSession(*Gw.C, F, R, Log, nullptr, nullptr);
    if (!Before.ok() || !After.ok()) {
      R.attempt(false, "metrics scrape");
      continue;
    }
    auto [S0, N0] = promSumCount(Before.value(), mn::ServerVerbLatencyUs,
                                 VerbFilter);
    auto [S1, N1] = promSumCount(After.value(), mn::ServerVerbLatencyUs,
                                 VerbFilter);
    auto [Q0, QN0] = promSumCount(Before.value(), mn::ServerQueueWaitUs, "");
    auto [Q1, QN1] = promSumCount(After.value(), mn::ServerQueueWaitUs, "");
    double VerbUs = N1 > N0 ? (S1 - S0) / (N1 - N0) : 0;
    R.layer("server.verb_us", VerbUs);
    R.layer("server.queue_wait_us", QN1 > QN0 ? (Q1 - Q0) / (QN1 - QN0) : 0);
    R.layer("server.wire_us", DirectUs - VerbUs);
    R.layer("server.journal.bytes_per_cmd", Journal);
    R.layer("fleet.gateway_hop_us", GwUs - DirectUs);
  }
}

/// The shared pinball and slice repositories: four concurrent gateway
/// users open the fixtures in their own order. The first pass of a run
/// meets the repositories as the workload left them.
void probeRepositories(const std::vector<Fixture> &Fs, Fleet &Fl,
                       Results &R) {
  Conn Gw(Fl.Gw->port());
  if (!Gw.ok()) {
    R.attempt(false, "connect to drdebug_gw");
    return;
  }
  auto Before = Gw.C->metrics();
  std::vector<double> LoadMs, AcquireMs;
  std::mutex Mu;
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != 4; ++T)
    Threads.emplace_back([&, T] {
      Conn C(Fl.Gw->port());
      SpanLog Off;
      std::vector<double> L, A;
      for (size_t I = 0; I != Fs.size(); ++I)
        if (C.ok())
          servedSession(*C.C, Fs[(I + T) % Fs.size()], R, Off, &L, &A);
      std::lock_guard<std::mutex> Lock(Mu);
      LoadMs.insert(LoadMs.end(), L.begin(), L.end());
      AcquireMs.insert(AcquireMs.end(), A.begin(), A.end());
    });
  for (std::thread &T : Threads)
    T.join();
  auto After = Gw.C->metrics();
  if (!Before.ok() || !After.ok())
    return;
  auto Rate = [&](const char *Hits, const char *Misses) {
    double H = promValue(After.value(), Hits) - promValue(Before.value(), Hits);
    double M =
        promValue(After.value(), Misses) - promValue(Before.value(), Misses);
    return H + M > 0 ? H / (H + M) : 0;
  };
  R.layer("replay.repository.hit_rate",
          Rate(mn::ServerPinballCacheHits, mn::ServerPinballCacheMisses));
  R.layer("slicing.repository.hit_rate",
          Rate(mn::ServerSliceCacheHits, mn::ServerSliceCacheMisses));
  R.layer("replay.repository.load_ms", median(LoadMs));
  R.layer("slicing.repository.acquire_ms", median(AcquireMs));
}

} // namespace

void runLayerProbes(const RunConfig &Cfg, const std::vector<Fixture> &Fs,
                    Fleet &Fl, double Seconds, Results &R, SpanLog &Log) {
  Log.On = true;
  double End = nowS() + Seconds;
  // At least one full pass, so every layer metric is measured.
  for (uint64_t Pass = 0; Pass == 0 || nowS() < End; ++Pass) {
    Log.Group = 1'000'000 + Pass;
    Scope Sp(Log, "probes", "unaccounted");
    probeRepositories(Fs, Fl, R);
    for (const Fixture &F : Fs) {
      probeReplayAndSlicing(F, Cfg.Work + "/probe-" + F.Name, R, Log);
      probeDebugger(F, R, Log);
    }
    probeHops(Fs, Fl, R, Log);
  }
  Log.On = false;
}

} // namespace perfbench
