//===- perfbench/harness/workloads.cpp - The three debugging workloads -----===//
//
// Part of the DrDebug reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Each workload is a closed loop of debugging users who wait for every
/// reply. Inputs come from the run's seed; every answer is checked:
///
///   cold-triage    one local user meets a fresh race failure: record it,
///                  save, reload in a fresh session, slice, build and
///                  replay the execution slice, reverse-watch.
///   warm-reattach  one local user re-attaches to recordings whose slice
///                  index is on disk and fires a burst of queries, each
///                  compared with a cold-prepare oracle.
///   served-fleet   four TCP clients drive sessions through drdebug_gw in
///                  front of two journaled drdebugd backends; every reply
///                  is compared with the local transcript of the script.
///
//===----------------------------------------------------------------------===//

#include "workloads.h"

#include "arch/assembler.h"
#include "replay/pinball.h"
#include "vm/scheduler.h"
#include "support/tracing.h"
#include "workloads/generator.h"
#include "workloads/racebugs.h"

#include <algorithm>
#include <filesystem>
#include <thread>
#include <unistd.h>

using namespace drdebug;
namespace fs = std::filesystem;

namespace perfbench {

namespace {

/// A fresh local session with \p Text loaded, as a new `drdebug` sees it.
std::unique_ptr<DebugSession> freshSession(const std::string &Text,
                                           Results &R, SpanLog &Log) {
  Scope Sp(Log, "loadProgram", "arch");
  auto S = std::make_unique<DebugSession>([](const std::string &) {});
  CommandResult CR = S->loadProgram(Text);
  R.attempt(CR.Status == CommandStatus::Ok, "load: " + CR.Text);
  return S;
}

/// Times one setup() per repetition after an untimed first one (a fresh
/// process pays page faults and a host that was idle runs slow for a
/// while); keeps the last. Set-ups rotate over the CPUs, two per CPU on a
/// 4-CPU host, so setup_s, their median, does not rest on one CPU's speed.
template <typename SetupT>
void timedSetups(Results &R, SetupT Setup) {
  const unsigned SetupReps = 8;
  for (unsigned I = 0; I <= SetupReps; ++I) {
    rotateCpu(I);
    double T0 = nowS();
    Setup(I == SetupReps);
    if (I != 0)
      R.add("setup_s", nowS() - T0);
  }
  rotateCpu(-1);
}

/// The untimed lead-in of a timed phase: caches fill and the host's
/// clocks settle (a tenth of the phase).
double warmupSeconds(double Seconds) { return Seconds / 10; }

/// Runs \p Iter until \p Seconds have passed, after a muted warm-up. In
/// a traced run every other iteration is traced, so the traced and
/// untraced loop times come from the same stretch of the run. \p Between
/// runs after each timed iteration, outside the loop time and the trace.
template <typename IterT, typename BetweenT>
void closedLoop(double Seconds, bool Trace, SpanLog &Log, Results &R,
                IterT Iter, BetweenT Between) {
  uint64_t I = 0;
  R.mute(true);
  for (double WarmEnd = nowS() + warmupSeconds(Seconds); nowS() < WarmEnd;) {
    rotateCpu(static_cast<long>(I));
    Iter(I++);
  }
  R.mute(false);
  resetPeakRss(getpid());
  uint64_t Cmds = R.attempted();
  double Start = nowS(), End = Start + Seconds;
  for (; nowS() < End; ++I) {
    // Traced and untraced iterations alternate, so with an even number of
    // CPUs each CPU must see both: rotate every two iterations.
    rotateCpu(static_cast<long>(Trace ? I / 2 : I));
    bool Traced = Trace && I % 2 == 1;
    Log.On = Traced;
    Log.Group = I;
    trace::Tracer::global().clear();
    trace::Tracer::global().setEnabled(Traced);
    double T0 = nowS();
    {
      Scope Sp(Log, "iteration", "unaccounted");
      Iter(I);
    }
    double Dt = nowS() - T0;
    if (Traced)
      Log.absorbProduction();
    R.add(!Trace ? "loop_s" : Traced ? "traced_loop_s" : "untraced_loop_s",
          Dt);
    Log.On = false;
    trace::Tracer::global().setEnabled(false);
    Between(I);
  }
  rotateCpu(-1);
  Log.On = false;
  trace::Tracer::global().setEnabled(false);
  R.value("timed_s", nowS() - Start);
  R.value("timed_cmds", static_cast<double>(R.attempted() - Cmds));
  R.value("peak_rss_mb", peakRssMb(getpid()));
}

/// 0..N-1 shuffled by \p Seed.
std::vector<size_t> seededOrder(size_t N, uint64_t Seed) {
  std::vector<size_t> Order(N);
  Draw D(Seed);
  for (size_t I = 0; I != N; ++I)
    Order[I] = I;
  for (size_t I = N; I > 1; --I)
    std::swap(Order[I - 1], Order[D.below(I)]);
  return Order;
}

bool contains(const std::string &Text, const std::string &Needle) {
  return Text.find(Needle) != std::string::npos;
}

} // namespace

//===----------------------------------------------------------------------===//
// cold-triage
//===----------------------------------------------------------------------===//

int runColdTriage(const RunConfig &Cfg, Results &R, SpanLog &Log,
                  std::vector<Fixture> &Probe) {
  // Region size: about 200k instructions to the failure. The mozilla
  // analog sweeps twice the main thread's work, so it gets half the
  // pre-bug work of the other two.
  struct Bug {
    std::string Name, Text;
    std::vector<uint64_t> Seeds;
  };
  std::vector<Bug> Bugs;
  const unsigned SeedsPerBug = 3;
  timedSetups(R, [&](bool) {
    Bugs.clear();
    for (unsigned B = 0; B != 3; ++B) {
      workloads::RaceBugScale Scale;
      Scale.Threads = 3;
      Scale.PreWork = B == 2 ? 24000 : 48000;
      if (B == 0) {
        // More, shorter blocks: about a third of pbzip2 schedules fail
        // under the session's scheduler, against a few percent by default.
        Scale.Items = 16;
        Scale.WorkPerItem = 2;
      }
      Program P = B == 0   ? workloads::makePbzip2Analog(Scale)
                  : B == 1 ? workloads::makeAgetAnalog(Scale)
                           : workloads::makeMozillaAnalog(Scale);
      Bug Bg{B == 0 ? "pbzip2" : B == 1 ? "aget" : "mozilla", P.SourceText,
             {}};
      // Failing seeds are found the way the timed loop records: through a
      // session's `record failure <seed>`. The search starts at the same
      // seed in every run, so set-up records the same candidates and the
      // loop debugs the same failures whatever --seed is; the seed orders
      // the visits, as on the other workloads.
      Results Scratch;
      SpanLog Off;
      for (uint64_t S = 1; Bg.Seeds.size() < SeedsPerBug && S != 200; ++S) {
        auto Sess = freshSession(Bg.Text, Scratch, Off);
        if (contains(Sess->executeCommand("record failure " +
                                          std::to_string(S))
                         .Text,
                     "failure captured"))
          Bg.Seeds.push_back(S);
      }
      Bugs.push_back(std::move(Bg));
    }
  });
  for (const Bug &B : Bugs)
    if (B.Seeds.size() != SeedsPerBug) {
      R.attempt(false, "no failing seed for " + B.Name);
      return 1;
    }
  // Untimed: one fixture per bug for the layer probes and the provenance.
  std::string Sizes;
  for (const Bug &B : Bugs) {
    Fixture F;
    F.Name = B.Name;
    F.ProgText = B.Text;
    F.Seed = B.Seeds.front();
    F.Dir = Cfg.Work + "/fixture-" + B.Name;
    auto S = freshSession(B.Text, R, Log);
    runLocal(*S, "record failure " + std::to_string(F.Seed), R, Log);
    runLocal(*S, "pinball save " + F.Dir, R, Log);
    describeFixture(F, *S->regionPinball());
    Sizes += (Sizes.empty() ? "" : ",") + B.Name + ":" +
             std::to_string(F.Instrs);
    Probe.push_back(F);
  }
  R.info("region_instrs", Sizes);

  // Round-robin over every (bug, seed) pair in a seeded order, so each
  // run's iterations mix the three bugs in the same proportions.
  std::vector<size_t> BugOrder = seededOrder(Bugs.size(), Cfg.Seed),
                      SeedOrder = seededOrder(SeedsPerBug, Cfg.Seed + 1);
  closedLoop(Cfg.Seconds, Cfg.Trace, Log, R, [&](uint64_t I) {
    size_t K = BugOrder[I % Bugs.size()];
    const Bug &B = Bugs[K];
    uint64_t Seed = B.Seeds[SeedOrder[I / Bugs.size() % SeedsPerBug]];
    std::string Dir = Cfg.Work + "/cold-" + std::to_string(I);
    const Fixture &F = Probe[K];
    double Dt = 0;

    auto Rec = freshSession(B.Text, R, Log);
    double T0 = nowS();
    std::string Out =
        runLocal(*Rec, "record failure " + std::to_string(Seed), R, Log);
    runLocal(*Rec, "pinball save " + Dir, R, Log);
    R.add("record_s", nowS() - T0);
    if (!contains(Out, "failure captured"))
      R.wrong("record failure " + std::to_string(Seed) + ": " + Out);
    auto FailIt = Rec->regionPinball()->Meta.find("failpc");
    std::string FailPc =
        FailIt == Rec->regionPinball()->Meta.end() ? "?" : FailIt->second;

    auto S = freshSession(B.Text, R, Log);
    T0 = nowS();
    runLocal(*S, "pinball load " + Dir, R, Log);
    runLocal(*S, "replay", R, Log);
    runLocal(*S, "slice fail", R, Log);
    R.add("first_slice_s", nowS() - T0);
    for (const std::string &Q :
         {"lastwrite " + F.Global, "print " + F.Global, std::string("where")}) {
      runLocal(*S, Q, R, Log, &Dt);
      R.add("query_ms", Dt * 1e3);
    }
    // Backwards through the failing region, before the execution slice
    // replaces the region replay. Stepping back any distance costs about
    // the same (one checkpoint restore), so the three steps give the
    // median a single cluster to sit in.
    for (const std::string &Q :
         {"reverse-watch " + F.Global, std::string("reverse-stepi 1000"),
          std::string("reverse-stepi 10000"),
          std::string("reverse-stepi 100000"),
          std::string("reverse-continue")}) {
      runLocal(*S, Q, R, Log, &Dt);
      R.add("reverse_ms", Dt * 1e3);
    }
    T0 = nowS();
    runLocal(*S, "slice pinball", R, Log);
    runLocal(*S, "slice replay", R, Log);
    Out = runLocal(*S, "continue", R, Log);
    R.add("exec_slice_s", nowS() - T0);
    // The execution slice must reach the recorded failure.
    if (!contains(Out, "assertion FAILED") ||
        !contains(Out, " at " + FailPc + " ") || Cfg.InjectWrong == I + 1)
      R.wrong("slice replay of " + B.Name + " seed " + std::to_string(Seed) +
              " did not reach failure pc " + FailPc + ": " + Out);
    Rec.reset();
    S.reset();
    fs::remove_all(Dir);
  }, [](uint64_t) {});
  return 0;
}

//===----------------------------------------------------------------------===//
// warm-reattach
//===----------------------------------------------------------------------===//

namespace {

/// The warm user's script on \p F, ending in the execution-slice steps.
/// Load lines name paths and are not compared with the oracle.
struct ScriptLine {
  std::string Line;
  enum Kind { Load, First, Query, Seek, Reverse, ExecSlice } K;
};

std::vector<ScriptLine> warmScript(const Fixture &F) {
  using K = ScriptLine;
  std::vector<ScriptLine> S = {{"pinball load " + F.Dir, K::Load},
                               {"replay", K::Load},
                               {"slice " + F.Crits[0], K::First}};
  for (size_t I = 1; I < F.Crits.size(); ++I)
    S.push_back({"slice " + F.Crits[I], K::Query});
  std::string Mid = std::to_string(F.Instrs / 2);
  std::vector<ScriptLine> Rest = {
      {"lastwrite " + F.Global, K::Query},
      {"lastwrite " + F.Global + " " + std::to_string(F.ReadPos), K::Query},
      {"valuesof " + F.Global + " 16", K::Query},
      {"readersof " + std::to_string(F.ReadPos), K::Query},
      {"print " + F.Global, K::Query},
      {"where", K::Query},
      {"replay-seek " + Mid, K::Seek},
      {"stepi", K::Query},
      {"where", K::Query},
      {"reverse-stepi 64", K::Reverse},
      {"reverse-stepi 1000", K::Reverse},
      {"reverse-watch " + F.Global, K::Reverse},
      {"slice pinball", K::ExecSlice},
      {"slice replay", K::ExecSlice},
      {"continue", K::ExecSlice}};
  S.insert(S.end(), Rest.begin(), Rest.end());
  return S;
}

/// Generated multi-threaded programs (3 workers plus main) of about
/// \p Target trace entries each. Generated programs differ widely in how
/// much one worker call executes, so each program is recorded once at a
/// few calls and its worker-call count scaled to the target; programs
/// that miss the target by more than half are skipped. The programs are
/// the same in every run (\p ProgBase picks them), and so are the schedules
/// they are recorded under: a recording's cost varies several-fold with
/// its interleaving, so runs on different seeds must debug the same
/// recordings to be comparable. The seed orders the visits instead.
std::vector<Fixture> generatedFixtures(const RunConfig &Cfg, unsigned N,
                                       uint64_t Target, uint64_t ProgBase,
                                       const std::string &Tag,
                                       Results &R,
                                       std::vector<std::unique_ptr<DebugSession>>
                                           &Recorders) {
  std::vector<Fixture> Fs;
  Recorders.clear();
  workloads::GeneratorOptions O;
  O.MinThreads = 3;
  O.MaxThreads = 3;
  uint64_t ProgSeed = ProgBase;
  // Instructions the program runs under the session's scheduler for
  // \p Seed; 0 when it does not end within \p Limit (generated programs
  // may spin), so no fixture records without bound.
  auto Length = [](const std::string &Text, uint64_t Seed, uint64_t Limit) {
    Program P;
    std::string Error;
    if (!assemble(Text, P, Error))
      return uint64_t(0);
    Machine M(P);
    RandomScheduler Sched(Seed, 1, 4);
    DefaultSyscalls World(Seed);
    M.setScheduler(&Sched);
    M.setSyscalls(&World);
    return M.run(Limit) == Machine::StopReason::StepLimit ? 0
                                                          : M.globalCount();
  };
  while (Fs.size() != N && ProgSeed != ProgBase + 200) {
    ++ProgSeed;
    uint64_t RecSeed = ProgSeed;
    const unsigned Trial = 4;
    O.WorkerCalls = Trial;
    uint64_t Small =
        Length(workloads::generateRandomSource(ProgSeed, O), RecSeed, Target);
    if (Small < 200)
      continue;
    O.WorkerCalls = static_cast<unsigned>(
        std::clamp<uint64_t>(Trial * Target / Small, 1, 4000));
    Fixture F;
    F.Name = Tag + "-" + std::to_string(Fs.size());
    F.ProgText = workloads::generateRandomSource(ProgSeed, O);
    F.Seed = RecSeed;
    F.Dir = Cfg.Work + "/" + F.Name;
    uint64_t Got = Length(F.ProgText, F.Seed, 2 * Target);
    if (Got < Target / 2 || Got > Target * 3 / 2)
      continue;
    // Record, save and index; the recording session is the oracle's.
    SpanLog Off;
    auto Rec = freshSession(F.ProgText, R, Off);
    runLocal(*Rec, "record failure " + std::to_string(F.Seed), R, Off);
    fs::remove_all(F.Dir);
    runLocal(*Rec, "pinball save " + F.Dir, R, Off);
    runLocal(*Rec, "pinball index " + F.Dir, R, Off);
    Recorders.push_back(std::move(Rec));
    Fs.push_back(std::move(F));
  }
  if (Fs.size() != N)
    R.attempt(false, "too few generated programs near " +
                         std::to_string(Target) + " instructions");
  return Fs;
}

/// Completes \p Fs from their in-memory recordings and records their sizes.
void describeAll(std::vector<Fixture> &Fs,
                 std::vector<std::unique_ptr<DebugSession>> &Recorders,
                 Results &R) {
  std::string Sizes;
  for (size_t K = 0; K != Fs.size(); ++K) {
    describeFixture(Fs[K], *Recorders[K]->regionPinball());
    Sizes += (Sizes.empty() ? "" : ",") + Fs[K].Name + ":" +
             std::to_string(Fs[K].Instrs) + "/" +
             std::to_string(Fs[K].Entries);
    if (Fs[K].Crits.empty() || Fs[K].Global.empty())
      R.attempt(false, "fixture " + Fs[K].Name + " has no query targets");
  }
  R.info("region_instrs/entries", Sizes);
}

} // namespace

int runWarmReattach(const RunConfig &Cfg, Results &R, SpanLog &Log,
                    std::vector<Fixture> &Probe) {
  std::vector<std::unique_ptr<DebugSession>> Recorders;
  std::vector<Fixture> Fs;
  timedSetups(R, [&](bool) {
    Fs = generatedFixtures(Cfg, 5, 100000, 1000, "warm", R, Recorders);
  });
  describeAll(Fs, Recorders, R);
  if (R.failed())
    return 1;
  // The oracle: the same script on the in-memory recording, prepared cold
  // (no disk, no index).
  std::vector<std::vector<std::string>> Oracle(Fs.size());
  for (size_t K = 0; K != Fs.size(); ++K) {
    SpanLog Off;
    for (const ScriptLine &L : warmScript(Fs[K]))
      Oracle[K].push_back(L.K == ScriptLine::Load && L.Line != "replay"
                              ? std::string()
                              : runLocal(*Recorders[K], L.Line, R, Off));
  }
  Recorders.clear();
  Probe = Fs;

  // One user re-attaching to a recording: a fresh session playing the
  // script. Run plays line L, checks its answer against the oracle and
  // returns its latency.
  struct Visit {
    size_t K;
    std::vector<ScriptLine> Script;
    std::unique_ptr<DebugSession> S;
  };
  auto Open = [&](size_t K) {
    return Visit{K, warmScript(Fs[K]), freshSession(Fs[K].ProgText, R, Log)};
  };
  uint64_t Checked = 0;
  auto Run = [&](Visit &V, size_t L) {
    double Dt = 0;
    std::string Out = runLocal(*V.S, V.Script[L].Line, R, Log, &Dt);
    if (V.Script[L].K != ScriptLine::Load &&
        (Out != Oracle[V.K][L] || Cfg.InjectWrong == ++Checked))
      R.wrong(Fs[V.K].Name + ": '" + V.Script[L].Line + "' answered '" +
              Out + "', cold prepare answered '" + Oracle[V.K][L] + "'");
    return Dt;
  };
  auto TailStart = [](const Visit &V) {
    size_t L = 0;
    while (L != V.Script.size() && V.Script[L].K != ScriptLine::ExecSlice)
      ++L;
    return L;
  };

  // The re-record step: `record region` and `pinball save` on every
  // recording. It is not part of the re-attach loop, but it runs between
  // the loop's iterations so that its samples, whose fsyncs meet a shared
  // disk, come from the whole run rather than one stretch of it.
  std::string Tmp = Cfg.Work + "/warm-rerecord";
  auto ReRecord = [&] {
    double Sum = 0, Dt = 0;
    for (const Fixture &F : Fs) {
      auto S = freshSession(F.ProgText, R, Log);
      fs::remove_all(Tmp);
      runLocal(*S, "record region 0 5000 " + std::to_string(F.Seed), R, Log,
               &Dt);
      Sum += Dt;
      runLocal(*S, "pinball save " + Tmp, R, Log, &Dt);
      Sum += Dt;
    }
    R.add("record_s", Sum);
  };

  // The timed loop plays the re-attach script up to its tail, round-robin
  // over the recordings in a seeded order, so every run mixes them alike.
  // Their costs cluster by recording, and an odd number of recordings
  // keeps the medians inside one cluster instead of on the gap between two.
  std::vector<size_t> Order = seededOrder(Fs.size(), Cfg.Seed);
  closedLoop(
      Cfg.Seconds, Cfg.Trace, Log, R,
      [&](uint64_t I) {
        Visit V = Open(Order[I % Order.size()]);
        double Phase = nowS();
        for (size_t L = 0, End = TailStart(V); L != End; ++L) {
          double Dt = Run(V, L);
          if (V.Script[L].K == ScriptLine::First)
            R.add("first_slice_s", nowS() - Phase);
          else if (V.Script[L].K == ScriptLine::Query)
            R.add("query_ms", Dt * 1e3);
          else if (V.Script[L].K == ScriptLine::Reverse)
            R.add("reverse_ms", Dt * 1e3);
        }
      },
      [&](uint64_t I) {
        if (I % Fs.size() == Fs.size() - 1)
          ReRecord();
      });
  fs::remove_all(Tmp);

  // The execution-slice step, which the cyclic part of debugging does not
  // repeat, runs in rounds after the loop, so exec_slice_s is measured on
  // this workload while loop_s stays the re-attach loop. A sample is one
  // round over every recording: the relogger's cost differs a hundredfold
  // between them, and a median over single recordings would rest on the
  // few samples of one of them.
  std::vector<Visit> Visits;
  for (size_t K = 0; K != Fs.size(); ++K) {
    Visits.push_back(Open(K));
    for (size_t L = 0, End = TailStart(Visits.back()); L != End; ++L)
      Run(Visits.back(), L);
  }
  for (unsigned Round = 0; Round != 4; ++Round) {
    rotateCpu(Round);
    double Sum = 0;
    for (Visit &V : Visits)
      for (size_t L = TailStart(V); L != V.Script.size(); ++L)
        Sum += Run(V, L);
    R.add("exec_slice_s", Sum);
  }
  rotateCpu(-1);
  return 0;
}

//===----------------------------------------------------------------------===//
// served-fleet
//===----------------------------------------------------------------------===//

namespace {

/// One request of a served session: the wire verb and argument, and the
/// local command line that must answer the same bytes.
struct Request {
  std::string Verb, Arg, Local;
  enum Kind { Load, First, Query, Write, Reverse, ExecSlice, Record } K;
};

std::vector<Request> servedScript(const Fixture &F, const std::string &DumpDir,
                                  bool Rec) {
  using K = Request;
  std::string Seed = std::to_string(F.Seed);
  std::vector<Request> S = {
      {"cmd", "pinball load " + F.Dir, "pinball load " + F.Dir, K::Load},
      {"cmd", "replay", "replay", K::Load},
      {"cmd", "slice " + F.Crits[0], "slice " + F.Crits[0], K::First},
      {"lastwrite", F.Global, "lastwrite " + F.Global, K::Query},
      {"cmd", "print " + F.Global, "print " + F.Global, K::Query},
      {"cmd", "where", "where", K::Query},
      {"rpos", "", "replay-position", K::Query},
      {"cmd", "break " + std::to_string(F.BreakPc),
       "break " + std::to_string(F.BreakPc), K::Write},
      {"cmd", "replay-seek 0", "replay-seek 0", K::Write},
      {"cmd", "continue", "continue", K::Write},
      {"cmd", "where", "where", K::Query},
      {"rstep", "16", "reverse-stepi 16", K::Reverse},
      {"cmd", "slice pinball", "slice pinball", K::ExecSlice},
      {"cmd", "slice replay", "slice replay", K::ExecSlice},
      {"cmd", "continue", "continue", K::ExecSlice}};
  if (Rec) {
    S.push_back({"rattach", Seed, "record attach " + Seed, K::Record});
    S.push_back({"rdump", DumpDir, "record dump " + DumpDir, K::Record});
  }
  return S;
}

ClientResult<> send(ProtocolClient &C, uint64_t Sid, const Request &Q) {
  if (Q.Verb == "cmd")
    return C.cmd(Sid, Q.Arg);
  if (Q.Verb == "rdump")
    return C.recordDump(Sid, Q.Arg);
  return C.request(Q.Verb + " " + std::to_string(Sid) +
                   (Q.Arg.empty() ? "" : " " + Q.Arg));
}

} // namespace

int runServedFleet(const RunConfig &Cfg, Results &R, SpanLog &Log,
                   std::vector<Fixture> &Probe, std::unique_ptr<Fleet> &F) {
  const unsigned Clients = 4, RecordEvery = 4;
  std::vector<std::unique_ptr<DebugSession>> Recorders;
  std::vector<Fixture> Fs;
  std::string FleetDir = Cfg.Work + "/fleet";
  timedSetups(R, [&](bool Last) {
    F.reset();
    fs::remove_all(FleetDir);
    fs::create_directories(FleetDir);
    Fs = generatedFixtures(Cfg, 3, 20000, 2000, "served", R, Recorders);
    F = std::make_unique<Fleet>(FleetDir);
    if (!Last)
      F.reset();
  });
  if (!F || !F->ok()) {
    R.attempt(false, "could not start drdebugd/drdebug_gw");
    return 1;
  }
  describeAll(Fs, Recorders, R);
  Recorders.clear();
  if (R.failed())
    return 1;
  // The oracle: each client's full script run locally, fixture by fixture
  // (a session without the recording tail answers a prefix of it).
  auto DumpDir = [&](unsigned C) {
    return FleetDir + "/dump-c" + std::to_string(C);
  };
  std::vector<std::vector<std::vector<std::string>>> Oracle(Clients);
  for (unsigned C = 0; C != Clients; ++C)
    for (const Fixture &Fx : Fs) {
      SpanLog Off;
      auto S = freshSession(Fx.ProgText, R, Off);
      std::vector<std::string> T;
      for (const Request &Q : servedScript(Fx, DumpDir(C), true))
        T.push_back(runLocal(*S, Q.Local, R, Off));
      Oracle[C].push_back(std::move(T));
    }
  Probe = Fs;

  std::vector<pid_t> Pids = F->pids();
  Pids.push_back(getpid());
  std::vector<SpanLog> Logs(Clients);
  std::vector<std::thread> Threads;
  R.mute(true);
  double Start = nowS() + warmupSeconds(Cfg.Seconds),
         End = Start + Cfg.Seconds;
  std::atomic<uint64_t> Checked{0};
  for (unsigned C = 0; C != Clients; ++C)
    Threads.emplace_back([&, C] {
      SpanLog &L = Logs[C];
      L.Tid = C + 1;
      Conn Cn(F->Gw->port());
      if (!Cn.ok()) {
        R.attempt(false, "connect to drdebug_gw");
        return;
      }
      Draw D(Cfg.Seed * 31 + C);
      for (uint64_t J = 0; nowS() < End; ++J) {
        size_t K = D.below(Fs.size());
        bool Rec = J % RecordEvery == RecordEvery - 1;
        bool Traced = Cfg.Trace && J % 2 == 1;
        L.On = Traced;
        L.Group = (uint64_t(C) << 32) | J;
        std::vector<Request> Script = servedScript(Fs[K], DumpDir(C), Rec);
        double T0 = nowS(), Phase = T0, Dt = 0, ExecSlice = 0, Record = 0;
        {
          Scope Root(L, "iteration", "unaccounted");
          auto Timed = [&](const char *Name, auto &&Fn) {
            Scope Sp(L, Name, "served");
            double A = nowS();
            auto Res = Fn();
            Dt = nowS() - A;
            R.attempt(Res.ok(), std::string(Name) + ": " + Res.errorText());
            return Res;
          };
          auto Sid = Timed("open", [&] { return Cn.C->open(); });
          if (!Sid.ok())
            break;
          Timed("load", [&] {
            return Cn.C->load(Sid.value(), Fs[K].ProgText);
          });
          for (size_t Q = 0; Q != Script.size(); ++Q) {
            const Request &Rq = Script[Q];
            std::string Name = Rq.Verb == "cmd"
                                   ? "cmd " + Rq.Arg.substr(0, Rq.Arg.find(' '))
                                   : Rq.Verb;
            if (Q == 0)
              Phase = nowS();
            auto Res =
                Timed(Name.c_str(), [&] { return send(*Cn.C, Sid.value(), Rq); });
            switch (Rq.K) {
            case Request::First:
              R.add("first_slice_s", nowS() - Phase);
              break;
            case Request::Query:
              R.add("query_ms", Dt * 1e3);
              break;
            case Request::Reverse:
              R.add("reverse_ms", Dt * 1e3);
              break;
            case Request::ExecSlice:
              ExecSlice += Dt;
              break;
            case Request::Record:
              Record += Dt;
              break;
            default:
              break;
            }
            uint64_t N = ++Checked;
            if (Res.ok() && (Res.value() != Oracle[C][K][Q] ||
                             Cfg.InjectWrong == N))
              R.wrong(Fs[K].Name + " client " + std::to_string(C) + ": '" +
                      Rq.Local + "' answered '" + Res.value() +
                      "', local session answered '" + Oracle[C][K][Q] + "'");
          }
          Timed("close", [&] {
            return Cn.C->request("close " + std::to_string(Sid.value()));
          });
        }
        double Dtotal = nowS() - T0;
        R.add(!Cfg.Trace ? "loop_s"
              : Traced   ? "traced_loop_s"
                         : "untraced_loop_s",
              Dtotal);
        R.add("exec_slice_s", ExecSlice);
        if (Rec)
          R.add("record_s", Record);
      }
      L.On = false;
    });
  std::this_thread::sleep_until(
      std::chrono::steady_clock::now() +
      std::chrono::duration<double>(Start - nowS()));
  for (pid_t P : Pids)
    resetPeakRss(P);
  uint64_t Cmds = R.attempted();
  R.mute(false);
  for (std::thread &T : Threads)
    T.join();
  R.value("timed_s", nowS() - Start);
  R.value("timed_cmds", static_cast<double>(R.attempted() - Cmds));
  double Rss = 0;
  for (pid_t P : Pids)
    Rss += peakRssMb(P);
  R.value("peak_rss_mb", Rss);
  for (SpanLog &L : Logs)
    Log.Spans.insert(Log.Spans.end(), L.Spans.begin(), L.Spans.end());
  return 0;
}

} // namespace perfbench
