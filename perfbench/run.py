#!/usr/bin/env python3
"""The DrDebug benchmark of record: one cyclic-debugging loop, end to end
and layer by layer.

Run from the root of a checkout:

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace 0|1
  python3 perfbench/run.py compare <results-dir-A> <results-dir-B>
  python3 perfbench/run.py self-test

A run builds the harness and the daemons from source (first run only),
runs one workload, checks every answer, and prints a report followed by
one JSON line: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are BENCHMARK.json's end_to_end list; with --trace 1
they are its per_layer list, and the run also prints a per-layer self-time
table and writes a Chrome trace. Every run leaves its reduced result, with
provenance and raw samples, under <build>/results/<source version>/ for
`compare`.
See perfbench/README.md.
"""

import argparse
import functools
import glob
import hashlib
import json
import math
import os
import platform
import re
import statistics
import subprocess
import sys

WORKLOADS = ("cold-triage", "warm-reattach", "served-fleet")
BUILD_TIMEOUT_S = 850


def run_timeout_s(seconds):
    """Set-ups, warm-up, the timed phase and the steps timed after it."""
    return 100 + 2 * seconds


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build_dir():
    return os.environ.get("CARGO_TARGET_DIR") or ".bench_build"


def load_spec():
    try:
        with open("BENCHMARK.json") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)


def build():
    """Builds perfbench_harness, drdebugd and drdebug_gw; returns the harness."""
    for need in ("CMakeLists.txt", "src", "tools", "perfbench/CMakeLists.txt"):
        if not os.path.exists(need):
            fail("%s not found: run from the root of a DrDebug checkout" % need)
    out = os.path.join(build_dir(), "perfbench")
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(build_dir(), "build.log")
    with open(log_path, "a") as log:
        steps = []
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", "perfbench", "-B", out,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", out, "--target", "perfbench_harness",
                      "-j", "4"])
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                fail("build step %s failed: %s" % (cmd[:2], e), 1)
            if rc != 0:
                fail("build failed; see %s" % log_path, 1)
    return os.path.join(out, "perfbench_harness")


def results_dir():
    """One directory per source version, so the result sets of two
    versions never overwrite each other."""
    d = os.path.join(build_dir(), "results",
                     re.sub(r"[^A-Za-z0-9]+", "-", source_version()))
    os.makedirs(d, exist_ok=True)
    return d


def run_harness(harness, workload, seed, seconds, trace, extra=()):
    results = results_dir()
    tag = "%s-seed%d-trace%d" % (workload, seed, trace)
    raw = os.path.join(results, tag + ".raw.json")
    work = os.path.abspath(os.path.join(build_dir(), "work-%s-%d" % (tag, os.getpid())))
    cmd = [harness, "--workload", workload, "--seed", str(seed), "--seconds",
           str(seconds), "--trace", str(trace), "--work", work, "--out", raw]
    cmd += list(extra)
    try:
        rc = subprocess.run(cmd, timeout=run_timeout_s(seconds)).returncode
    except subprocess.TimeoutExpired:
        fail("harness timed out", 1)
    if rc != 0 or not os.path.exists(raw):
        fail("harness exited with %d" % rc, 1)
    with open(raw) as f:
        data = json.load(f)
    os.remove(raw)
    return tag, data


# --- reduction --------------------------------------------------------------

def tail(values):
    """The highest percentile, up to p99, with at least ten samples beyond
    it: (value, percentile, samples). Above p99 a run's tail is a handful
    of host hiccups, too few to repeat between runs. Falls back to the
    median below 11 samples."""
    v = sorted(values)
    n = len(v)
    if n < 11:
        return statistics.median(v), 50.0, n
    beyond = max(10, math.ceil(n / 100))
    return v[n - beyond - 1], 100.0 * (n - beyond) / n, n


def end_to_end(run):
    s, vals = run["samples"], run["values"]
    m, notes = {}, {}
    for name in ("setup_s", "loop_s", "first_slice_s", "record_s",
                 "exec_slice_s", "reverse_ms", "query_ms"):
        if s.get(name):
            m[name] = statistics.median(s[name])
    for name, src in (("loop_tail_s", "loop_s"), ("query_tail_ms", "query_ms")):
        if s.get(src):
            value, pct, n = tail(s[src])
            m[name] = value
            notes[name] = "p%.1f of %d samples" % (pct, n)
    if vals.get("timed_s"):
        m["cmds_per_s"] = vals["timed_cmds"] / vals["timed_s"]
    if "peak_rss_mb" in vals:
        m["peak_rss_mb"] = vals["peak_rss_mb"]
    return m, notes


def self_times(spans):
    """Per traced iteration, each layer's self time: its spans' durations
    minus the part their child spans cover. The root span's own self time
    is the unaccounted remainder, so the layers add up to the loop time."""
    by_group = {}
    for name, layer, group, tid, start, end in spans:
        by_group.setdefault((group, tid), []).append((start, -end, name, layer))
    per_iter = []
    for key, items in by_group.items():
        items.sort()
        roots = [i for i in items if i[2] == "iteration"]
        if not roots:
            continue
        totals, stack = {}, []  # open spans: [end, layer, start, child_us]

        def close(entry):
            end, layer, start, child = entry
            totals[layer] = totals.get(layer, 0) + (end - start) - child

        for start, neg_end, name, layer in items:
            end = -neg_end
            while stack and stack[-1][0] <= start:
                close(stack.pop())
            if stack:
                end = min(end, stack[-1][0])
                stack[-1][3] += end - start
            stack.append([end, layer, start, 0])
        while stack:
            close(stack.pop())
        root = roots[0]
        per_iter.append((-root[1] - root[0], totals))
    return per_iter


def chrome_trace(spans, path):
    events = [{"name": n, "cat": layer, "ph": "X", "ts": start,
               "dur": max(end - start, 0), "pid": 1, "tid": tid,
               "args": {"group": group}}
              for n, layer, group, tid, start, end in spans]
    with open(path, "w") as f:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)


# --- provenance ---------------------------------------------------------------

def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


@functools.lru_cache(maxsize=None)
def source_version():
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = out.stdout.split()
        if (out.returncode == 0 and len(lines) == 2 and
                os.path.realpath(lines[0]) == os.path.realpath(".")):
            return "git " + lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for root in ("src", "tools", "perfbench"):
        for path in sorted(glob.glob(root + "/**/*", recursive=True)):
            if os.path.isfile(path):
                h.update(path.encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "sources sha256 " + h.hexdigest()[:16]


def provenance(seed, run):
    p = {"seed": seed, "nproc": os.cpu_count(), "cpu": cpu_model(),
         "source": source_version()}
    p.update(run.get("info", {}))
    return p


# --- one run -------------------------------------------------------------------

def do_run(args):
    spec = load_spec()
    if args.workload not in WORKLOADS:
        fail("unknown workload %r (have %s)" % (args.workload, ", ".join(WORKLOADS)))
    harness = build()
    tag, data = run_harness(harness, args.workload, args.seed, args.seconds,
                           args.trace)
    run = data["run"]
    result, report = reduce_run(spec, args, run, data["spans"], tag)
    path = os.path.join(results_dir(), tag + ".json")
    with open(path, "w") as f:
        json.dump(report, f, indent=1)
    print("result file: " + path)
    print(json.dumps(result))


def reduce_run(spec, args, run, spans, tag):
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    print("workload %s, seed %d, %gs, trace %d" % (args.workload, args.seed,
                                                  args.seconds, args.trace))
    prov = provenance(args.seed, run)
    for k in sorted(prov):
        print("  %-24s %s" % (k, prov[k]))
    notes = {}
    if args.trace:
        measured = {k: statistics.median(v) for k, v in run["layers"].items() if v}
    else:
        measured, notes = end_to_end(run)
    metrics, missing = {}, []
    for m in wanted:
        if m["name"] in measured and math.isfinite(measured[m["name"]]):
            metrics[m["name"]] = {"value": measured[m["name"]], "unit": m["unit"]}
        else:
            missing.append(m["name"])
    for name, m in metrics.items():
        note = notes.get(name, "")
        print("  %-40s %14.6g %-8s %s" % (name, m["value"], m["unit"], note))
    for name in missing:
        print("  %-40s MISSING" % name)
    traced = {}
    if args.trace:
        traced = print_self_times(run, spans)
        trace_path = os.path.join(results_dir(), tag + ".trace.json")
        chrome_trace(spans, trace_path)
        print("chrome trace: " + trace_path)
    failed = run["failed"] + run["wrong"]
    for e in run["errors"]:
        print("  error: " + e[:400])
    attempted = max(run["attempted"], 1)
    print("  error_rate %.6g (%d of %d commands failed, refused or wrong)"
          % (failed / attempted, failed, attempted))
    result = {"correct": failed == 0 and not missing, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    report = dict(result, workload=args.workload, trace=args.trace,
                  seconds=args.seconds, provenance=prov, notes=notes,
                  error_rate=failed / attempted, self_times=traced,
                  samples=run["samples"], layers=run["layers"],
                  values=run["values"])
    return result, report


def print_self_times(run, spans):
    per_iter = self_times(spans)
    if not per_iter:
        print("  no traced iterations")
        return {}
    layers = sorted({l for _, t in per_iter for l in t})
    # Means, so the column adds up to the loop.
    loop = statistics.fmean(d for d, _ in per_iter) / 1e3
    table = {l: statistics.fmean(t.get(l, 0) for _, t in per_iter) / 1e3
             for l in layers}
    print("  self time per layer, mean over %d traced iterations (ms):"
          % len(per_iter))
    for l in layers:
        print("    %-14s %10.3f  %5.1f%%" % (l, table[l], 100 * table[l] / loop))
    worst = max(abs(sum(t.values()) - d) for d, t in per_iter)
    print("    %-14s %10.3f  (layers sum to the loop within %d us)"
          % ("traced loop", loop, worst))
    s = run["samples"]
    if s.get("traced_loop_s") and s.get("untraced_loop_s"):
        t, u = statistics.median(s["traced_loop_s"]), statistics.median(s["untraced_loop_s"])
        table["tracing_overhead_frac"] = t / u - 1
        print("  tracing overhead: traced loop %.4f s vs untraced %.4f s (%+.1f%%)"
              % (t, u, 100 * (t / u - 1)))
    return table


# --- compare -----------------------------------------------------------------

def load_results(d):
    out = {}
    for path in sorted(glob.glob(os.path.join(d, "*.json"))):
        if path.endswith((".raw.json", ".trace.json")):
            continue
        with open(path) as f:
            r = json.load(f)
        if "workload" not in r:
            continue
        for name, m in r["metrics"].items():
            out.setdefault((r["workload"], name), []).append(m["value"])
    return out


def quartiles(v):
    if len(v) < 2:
        return v[0], v[0], v[0]
    q = statistics.quantiles(v, n=4)
    return q[0], statistics.median(v), q[2]


def do_compare(args):
    spec = load_spec()
    meta = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    a, b = load_results(args.a), load_results(args.b)
    print("%-14s %-36s %12s %12s %8s %8s  %s" % ("workload", "metric", "A median",
                                               "B median", "move", "spread", "verdict"))
    flagged = 0
    for key in sorted(set(a) & set(b)):
        workload, name = key
        m = meta.get(name)
        if not m:
            continue
        qa, qb = quartiles(a[key]), quartiles(b[key])
        base = qa[1] or 1e-30
        move = (qb[1] - qa[1]) / abs(base)
        worse = move if m["better"] == "lower" else -move
        spread = max((q[2] - q[0]) / abs(q[1] or 1e-30) for q in (qa, qb))
        bound = m.get("bound")
        if bound is None:
            verdict = "moved" if abs(qb[1] - qa[1]) > max(qa[2] - qa[0], qb[2] - qb[0]) else ""
        else:
            b_better = (max(b[key]) < min(a[key]) if m["better"] == "lower"
                        else min(b[key]) > max(a[key]))
            if spread > bound and not b_better:
                verdict = "unresolved (spread above bound %.2f)" % bound
            elif worse > bound:
                verdict = "REGRESSION (bound %.2f)" % bound
            elif -worse > bound:
                verdict = "improved"
            else:
                verdict = "within bound"
        if verdict.startswith(("REGRESSION", "unresolved")):
            flagged += 1
        print("%-14s %-36s %12.5g %12.5g %+7.1f%% %7.1f%%  %s  [A q1 %.5g q3 %.5g | B q1 %.5g q3 %.5g]"
              % (workload, name, qa[1], qb[1], 100 * move, 100 * spread, verdict,
                 qa[0], qa[2], qb[0], qb[2]))
    return 1 if flagged else 0


# --- self-test -----------------------------------------------------------------

def do_self_test(_args):
    spec = load_spec()
    harness = build()
    ok = True

    def check(cond, what):
        nonlocal ok
        print("  %s %s" % ("ok  " if cond else "FAIL", what))
        ok = ok and cond

    with open(os.path.join("perfbench", "targets.json")) as f:
        targets = json.load(f)["targets"]
    e2e = {m["name"] for m in spec["end_to_end"]}
    for m in spec["per_layer"]:
        t = targets.get(m["name"], {})
        check(t and set(t["moves"]) <= e2e and set(t["on"]) <= set(WORKLOADS),
              "targets.json names what %s should move, and where" % m["name"])

    for w in WORKLOADS:
        for trace in (0, 1):
            ns = argparse.Namespace(workload=w, seed=7, seconds=2, trace=trace)
            tag, data = run_harness(harness, w, 7, 2, trace)
            result, _ = reduce_run(spec, ns, data["run"], data["spans"], tag)
            wanted = spec["per_layer"] if trace else spec["end_to_end"]
            for m in wanted:
                got = result["metrics"].get(m["name"])
                check(got is not None and got["unit"] == m["unit"] and
                      (trace or got["value"] > 0),
                      "%s trace %d emits %s in %s" % (w, trace, m["name"], m["unit"]))
            check(result["correct"] and result["failed"] == 0,
                  "%s trace %d: every answer correct" % (w, trace))
        ns = argparse.Namespace(workload=w, seed=7, seconds=1, trace=0)
        tag, data = run_harness(harness, w, 7, 1, 0, ["--inject-wrong", "1"])
        result, _ = reduce_run(spec, ns, data["run"], data["spans"], tag)
        check(result["failed"] >= 1 and not result["correct"],
              "%s: a deliberately wrong answer is counted in error_rate" % w)
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        p = argparse.ArgumentParser(prog="run.py compare")
        p.add_argument("a")
        p.add_argument("b")
        sys.exit(do_compare(p.parse_args(sys.argv[2:])))
    if len(sys.argv) > 1 and sys.argv[1] == "self-test":
        sys.exit(do_self_test(None))
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    do_run(p.parse_args())


if __name__ == "__main__":
    main()
