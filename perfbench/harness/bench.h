//===- perfbench/harness/bench.h - Benchmark-of-record harness ---*- C++ -*-===//
//
// Part of the DrDebug reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared pieces of the end-to-end benchmark harness: the sample store each
/// run fills, the benchmark's own spans, the fixtures the workloads debug,
/// and the drdebugd/drdebug_gw processes the served paths talk to. The
/// harness only measures and checks; `perfbench/run.py` reduces the raw
/// samples to the metrics named in BENCHMARK.json.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "debugger/session.h"
#include "server/client.h"

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <sys/types.h>
#include <vector>

namespace perfbench {

/// Monotonic wall time in seconds.
double nowS();

/// Everything one run measured, as raw samples: run.py takes the medians,
/// the tails and the rates. Thread-safe, so the served clients share one.
class Results {
public:
  /// Records a sample unless muted (warm-up iterations are muted).
  void add(const std::string &Metric, double V);
  void mute(bool On) { Muted.store(On); }
  void layer(const std::string &Metric, double V);
  void info(const std::string &Key, const std::string &V);
  void value(const std::string &Key, double V);
  /// One command attempted; \p Ok false counts it failed or refused.
  void attempt(bool Ok, const std::string &What = std::string());
  /// A command whose answer differed from the oracle.
  void wrong(const std::string &What);
  uint64_t attempted() const;
  uint64_t failed() const;
  std::string json() const;

private:
  mutable std::mutex Mu;
  std::atomic<bool> Muted{false};
  std::map<std::string, std::vector<double>> Samples, Layers;
  std::map<std::string, std::string> Infos;
  std::map<std::string, double> Values;
  uint64_t Attempted = 0, Failed = 0, Wrong = 0;
  std::vector<std::string> Errors;
};

/// The benchmark's own spans (name, layer, start, end, iteration group),
/// kept in memory and written as a Chrome trace at the end of a traced
/// run. Timestamps use the production tracer's clock so production spans
/// nest inside them. One SpanLog per thread.
class SpanLog {
public:
  struct Span {
    std::string Name, Layer;
    uint64_t Group = 0;
    uint32_t Tid = 0;
    uint64_t StartUs = 0, EndUs = 0;
  };
  bool On = false;
  uint64_t Group = 0;
  uint32_t Tid = 0;
  std::vector<Span> Spans;

  /// Pulls the production spans recorded since the last call into this
  /// log under the current group, keeping only those of the thread that
  /// drove the session, then clears the production rings.
  void absorbProduction();
};

/// RAII span in \p Log; free when tracing is off.
class Scope {
public:
  Scope(SpanLog &Log, const std::string &Name, const std::string &Layer);
  ~Scope();
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;

private:
  SpanLog &Log;
  size_t Idx = 0;
};

/// One recorded region a workload debugs: the program, the recording
/// seed, its saved pinball, and the query targets found by a cold prepare.
struct Fixture {
  std::string Name;
  std::string ProgText;
  uint64_t Seed = 0;
  std::string Dir;         ///< saved pinball directory
  uint64_t Instrs = 0;     ///< region instructions
  uint64_t Entries = 0;    ///< trace entries after prepare
  std::string Global;      ///< a global written in the region
  std::vector<std::string> Crits; ///< "tid pc instance" slice criteria
  uint64_t BreakPc = 0;    ///< pc of the first criterion
  uint32_t ReadPos = 0;    ///< a position that defines Global
};

/// Fills in Entries, Global, Crits, BreakPc and ReadPos by a cold prepare
/// of \p Pb (the in-memory recording, never the saved copy).
void describeFixture(Fixture &F, const drdebug::Pinball &Pb);

/// Runs one local command, timed; counts it in \p R. \returns its output.
std::string runLocal(drdebug::DebugSession &S, const std::string &Line,
                     Results &R, SpanLog &Log, double *Secs = nullptr);

/// A drdebugd or drdebug_gw child process with its stdout in a log file.
class Daemon {
public:
  /// Starts \p Exe with \p Args and waits for its "listening on" line.
  Daemon(const std::string &Exe, const std::vector<std::string> &Args,
         const std::string &LogPath);
  ~Daemon();
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;
  uint16_t port() const { return Port; }
  pid_t pid() const { return Pid; }
  bool ok() const { return Port != 0; }
  void stop();

private:
  pid_t Pid = -1;
  uint16_t Port = 0;
};

/// Two journaled drdebugd backends (2 workers each) behind one drdebug_gw.
struct Fleet {
  std::unique_ptr<Daemon> B1, B2, Gw;
  explicit Fleet(const std::string &WorkDir);
  ~Fleet();
  bool ok() const;
  std::vector<pid_t> pids() const;
};

/// A connected protocol client; null transport on failure.
struct Conn {
  std::unique_ptr<drdebug::Transport> T;
  std::unique_ptr<drdebug::ProtocolClient> C;
  explicit Conn(uint16_t Port);
  bool ok() const { return C != nullptr; }
};

/// Peak resident set (VmHWM) of \p Pid in MiB, and its reset.
double peakRssMb(pid_t Pid);
void resetPeakRss(pid_t Pid);

/// The sum of a Prometheus series' `_sum` and `_count` lines in \p Text
/// whose labels contain \p LabelFilter (empty matches all).
std::pair<double, double> promSumCount(const std::string &Text,
                                       const std::string &Name,
                                       const std::string &LabelFilter);
/// The value of an unlabelled Prometheus counter or gauge, summed over
/// every page in \p Text.
double promValue(const std::string &Text, const std::string &Name);

/// Deterministic draws for the workloads (splitmix64).
class Draw {
public:
  explicit Draw(uint64_t Seed) : State(Seed) {}
  uint64_t next();
  size_t below(size_t N) { return static_cast<size_t>(next() % N); }

private:
  uint64_t State;
};

/// Median of \p V (0 when empty).
double median(std::vector<double> V);

/// Moves the calling thread to the \p I-th CPU it may run on (modulo their
/// number); \p I < 0 restores all of them. The CPUs of a shared host run
/// at different speeds, and a single-threaded loop that stays where the
/// scheduler first put it measures that CPU; rotating every iteration
/// measures them all alike in every run.
void rotateCpu(long I);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
