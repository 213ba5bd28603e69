//===- perfbench/harness/bench.cpp - Benchmark-of-record harness -----------===//
//
// Part of the DrDebug reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "bench.h"

#include "slicing/slicer.h"
#include "support/tracing.h"

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fcntl.h>
#include <fstream>
#include <sstream>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

using namespace drdebug;

namespace perfbench {

double nowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

//===----------------------------------------------------------------------===//
// Results
//===----------------------------------------------------------------------===//

void Results::add(const std::string &Metric, double V) {
  if (Muted.load())
    return;
  std::lock_guard<std::mutex> Lock(Mu);
  Samples[Metric].push_back(V);
}

void Results::layer(const std::string &Metric, double V) {
  std::lock_guard<std::mutex> Lock(Mu);
  Layers[Metric].push_back(V);
}

void Results::info(const std::string &Key, const std::string &V) {
  std::lock_guard<std::mutex> Lock(Mu);
  Infos[Key] = V;
}

void Results::value(const std::string &Key, double V) {
  std::lock_guard<std::mutex> Lock(Mu);
  Values[Key] = V;
}

void Results::attempt(bool Ok, const std::string &What) {
  std::lock_guard<std::mutex> Lock(Mu);
  ++Attempted;
  if (!Ok) {
    ++Failed;
    if (Errors.size() < 8)
      Errors.push_back("failed: " + What);
  }
}

void Results::wrong(const std::string &What) {
  std::lock_guard<std::mutex> Lock(Mu);
  ++Wrong;
  if (Errors.size() < 8)
    Errors.push_back("wrong answer: " + What);
}

uint64_t Results::attempted() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Attempted;
}

uint64_t Results::failed() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Failed + Wrong;
}

namespace {

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    unsigned char U = static_cast<unsigned char>(C);
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if (U < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x", U);
      Out += Buf;
    } else {
      Out += C;
    }
  }
  return Out + "\"";
}

std::string jsonNumber(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.9g", V);
  return Buf;
}

std::string jsonSeries(const std::map<std::string, std::vector<double>> &M) {
  std::string Out = "{";
  bool First = true;
  for (const auto &[K, Vs] : M) {
    Out += (First ? "" : ",") + jsonString(K) + ":[";
    for (size_t I = 0; I != Vs.size(); ++I)
      Out += (I ? "," : "") + jsonNumber(Vs[I]);
    Out += "]";
    First = false;
  }
  return Out + "}";
}

} // namespace

std::string Results::json() const {
  std::lock_guard<std::mutex> Lock(Mu);
  std::string Out = "{\"samples\":" + jsonSeries(Samples) +
                    ",\"layers\":" + jsonSeries(Layers) + ",\"values\":{";
  bool First = true;
  for (const auto &[K, V] : Values) {
    Out += (First ? "" : ",") + jsonString(K) + ":" + jsonNumber(V);
    First = false;
  }
  Out += "},\"info\":{";
  First = true;
  for (const auto &[K, V] : Infos) {
    Out += (First ? "" : ",") + jsonString(K) + ":" + jsonString(V);
    First = false;
  }
  Out += "},\"attempted\":" + std::to_string(Attempted) +
         ",\"failed\":" + std::to_string(Failed) +
         ",\"wrong\":" + std::to_string(Wrong) + ",\"errors\":[";
  for (size_t I = 0; I != Errors.size(); ++I)
    Out += (I ? "," : "") + jsonString(Errors[I]);
  return Out + "]}";
}

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

Scope::Scope(SpanLog &Log, const std::string &Name, const std::string &Layer)
    : Log(Log) {
  if (!Log.On)
    return;
  Idx = Log.Spans.size();
  SpanLog::Span S;
  S.Name = Name;
  S.Layer = Layer;
  S.Group = Log.Group;
  S.Tid = Log.Tid;
  S.StartUs = trace::Tracer::global().nowUs();
  Log.Spans.push_back(std::move(S));
}

Scope::~Scope() {
  if (Log.On)
    Log.Spans[Idx].EndUs = trace::Tracer::global().nowUs();
}

void SpanLog::absorbProduction() {
  trace::Tracer &T = trace::Tracer::global();
  if (!On || !T.enabled())
    return;
  std::vector<trace::SpanEvent> Events = T.snapshot();
  T.clear();
  // The production tracer numbers threads itself; the session thread is
  // the one that recorded session.execute.
  uint32_t ProdTid = 0;
  for (const trace::SpanEvent &E : Events)
    if (std::strcmp(E.Name, "session.execute") == 0)
      ProdTid = E.Tid;
  for (const trace::SpanEvent &E : Events) {
    if (E.Tid != ProdTid)
      continue;
    Span S;
    S.Name = E.Name;
    std::string Cat = E.Category ? E.Category : "";
    // Production categories, folded into the module (layer) names.
    if (Cat == "logger" || Cat == "pinball" || Cat == "flight")
      Cat = "replay";
    S.Layer = Cat;
    S.Group = Group;
    S.Tid = Tid;
    S.StartUs = E.StartUs;
    S.EndUs = E.StartUs + E.DurUs;
    Spans.push_back(std::move(S));
  }
}

//===----------------------------------------------------------------------===//
// Fixtures and local commands
//===----------------------------------------------------------------------===//

void describeFixture(Fixture &F, const Pinball &Pb) {
  SliceSession S(Pb);
  std::string Error;
  if (!S.prepare(Error))
    return;
  F.Instrs = Pb.instructionCount();
  F.Entries = S.traces().totalEntries();
  // The most-written global: every query about it has an answer.
  size_t Best = 0;
  for (const GlobalVar &G : S.program().Globals) {
    const auto *Defs = S.defUse().defsOf(memLoc(G.Addr));
    if (Defs && Defs->size() > Best) {
      Best = Defs->size();
      F.Global = G.Name;
      if (auto W = S.lastWrite(memLoc(G.Addr)))
        F.ReadPos = W->Pos;
    }
  }
  F.Crits.clear();
  for (const SliceCriterion &C : S.lastLoadCriteria(4)) {
    if (F.Crits.empty())
      F.BreakPc = C.Pc;
    F.Crits.push_back(std::to_string(C.Tid) + " " + std::to_string(C.Pc) +
                      " " + std::to_string(C.Instance));
  }
}

std::string runLocal(DebugSession &S, const std::string &Line, Results &R,
                     SpanLog &Log, double *Secs) {
  std::string Word = Line.substr(0, Line.find(' '));
  double T0 = nowS();
  CommandResult CR;
  {
    Scope Sp(Log, "cmd " + Word, "debugger");
    CR = S.executeCommand(Line);
  }
  double Dt = nowS() - T0;
  if (Secs)
    *Secs = Dt;
  R.attempt(CR.Status == CommandStatus::Ok, Line + ": " + CR.Text);
  return CR.Text;
}

//===----------------------------------------------------------------------===//
// Daemons
//===----------------------------------------------------------------------===//

Daemon::Daemon(const std::string &Exe, const std::vector<std::string> &Args,
               const std::string &LogPath) {
  std::vector<std::string> Argv = {Exe};
  Argv.insert(Argv.end(), Args.begin(), Args.end());
  std::vector<char *> P;
  for (std::string &A : Argv)
    P.push_back(A.data());
  P.push_back(nullptr);
  // The daemon inherits the CPU mask: give it every CPU.
  rotateCpu(-1);
  Pid = fork();
  if (Pid == 0) {
    // Dies with the harness, so no daemon outlives a crashed run.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    int Fd = open(LogPath.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (Fd >= 0) {
      dup2(Fd, 1);
      dup2(Fd, 2);
      close(Fd);
    }
    execv(P[0], P.data());
    _exit(127);
  }
  if (Pid < 0)
    return;
  const char *Marker = "listening on 127.0.0.1:";
  for (int I = 0; I != 2000 && Port == 0; ++I) {
    std::ifstream IS(LogPath);
    std::string Text((std::istreambuf_iterator<char>(IS)),
                     std::istreambuf_iterator<char>());
    size_t At = Text.find(Marker);
    if (At != std::string::npos)
      Port = static_cast<uint16_t>(
          std::strtoul(Text.c_str() + At + std::strlen(Marker), nullptr, 10));
    else if (waitpid(Pid, nullptr, WNOHANG) == Pid) {
      Pid = -1;
      return;
    } else
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

void Daemon::stop() {
  if (Pid <= 0)
    return;
  kill(Pid, SIGTERM);
  for (int I = 0; I != 300; ++I) {
    if (waitpid(Pid, nullptr, WNOHANG) == Pid) {
      Pid = -1;
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  kill(Pid, SIGKILL);
  waitpid(Pid, nullptr, 0);
  Pid = -1;
}

Daemon::~Daemon() { stop(); }

Fleet::Fleet(const std::string &WorkDir) {
  std::string J1 = WorkDir + "/journal1", J2 = WorkDir + "/journal2";
  auto Backend = [&](const std::string &J, const char *Log) {
    return std::make_unique<Daemon>(
        PERFBENCH_DRDEBUGD,
        std::vector<std::string>{"--port", "0", "--workers", "2",
                                 "--journal-dir", J, "--idle-timeout-ms", "0"},
        WorkDir + "/" + Log);
  };
  B1 = Backend(J1, "drdebugd1.log");
  B2 = Backend(J2, "drdebugd2.log");
  if (!B1->ok() || !B2->ok())
    return;
  std::string Backend1Addr = "127.0.0.1:" + std::to_string(B1->port());
  Gw = std::make_unique<Daemon>(
      PERFBENCH_DRDEBUG_GW,
      std::vector<std::string>{
          "--port", "0", "--backend", Backend1Addr + "=" + J1, "--backend",
          "127.0.0.1:" + std::to_string(B2->port()) + "=" + J2},
      WorkDir + "/drdebug_gw.log");
}

Fleet::~Fleet() {
  // The gateway first: it holds pooled connections to both backends.
  if (Gw)
    Gw->stop();
  if (B1)
    B1->stop();
  if (B2)
    B2->stop();
}

bool Fleet::ok() const { return B1->ok() && B2->ok() && Gw && Gw->ok(); }

std::vector<pid_t> Fleet::pids() const {
  return {B1->pid(), B2->pid(), Gw->pid()};
}

Conn::Conn(uint16_t Port) {
  std::string Error;
  T = tcpConnect("127.0.0.1", Port, Error);
  if (T)
    C = std::make_unique<ProtocolClient>(*T);
}

//===----------------------------------------------------------------------===//
// Small helpers
//===----------------------------------------------------------------------===//

double peakRssMb(pid_t Pid) {
  std::ifstream IS("/proc/" + std::to_string(Pid) + "/status");
  std::string Line;
  while (std::getline(IS, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0;
  return 0;
}

void resetPeakRss(pid_t Pid) {
  // "5" resets the peak resident set size to the current one.
  std::ofstream OS("/proc/" + std::to_string(Pid) + "/clear_refs");
  OS << "5";
}

std::pair<double, double> promSumCount(const std::string &Text,
                                       const std::string &Name,
                                       const std::string &LabelFilter) {
  double Sum = 0, Count = 0;
  std::istringstream IS(Text);
  std::string Line;
  while (std::getline(IS, Line)) {
    bool IsSum = Line.rfind(Name + "_sum", 0) == 0;
    bool IsCount = Line.rfind(Name + "_count", 0) == 0;
    if ((!IsSum && !IsCount) ||
        (!LabelFilter.empty() && Line.find(LabelFilter) == std::string::npos))
      continue;
    double V = std::strtod(Line.c_str() + Line.rfind(' ') + 1, nullptr);
    (IsSum ? Sum : Count) += V;
  }
  return {Sum, Count};
}

double promValue(const std::string &Text, const std::string &Name) {
  // Summed: the gateway's `metrics` concatenates every backend's page.
  double Total = 0;
  std::istringstream IS(Text);
  std::string Line;
  while (std::getline(IS, Line))
    if (Line.rfind(Name + " ", 0) == 0)
      Total += std::strtod(Line.c_str() + Name.size() + 1, nullptr);
  return Total;
}

uint64_t Draw::next() {
  uint64_t Z = (State += 0x9e3779b97f4a7c15ULL);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  return Z ^ (Z >> 31);
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

void rotateCpu(long I) {
  static const std::vector<int> Allowed = [] {
    std::vector<int> Cpus;
    cpu_set_t Set;
    CPU_ZERO(&Set);
    if (sched_getaffinity(0, sizeof(Set), &Set) == 0)
      for (int C = 0; C != CPU_SETSIZE; ++C)
        if (CPU_ISSET(C, &Set))
          Cpus.push_back(C);
    return Cpus;
  }();
  if (Allowed.empty())
    return;
  cpu_set_t Set;
  CPU_ZERO(&Set);
  if (I < 0)
    for (int C : Allowed)
      CPU_SET(C, &Set);
  else
    CPU_SET(Allowed[static_cast<size_t>(I) % Allowed.size()], &Set);
  sched_setaffinity(0, sizeof(Set), &Set);
}

} // namespace perfbench
