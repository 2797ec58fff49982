#!/usr/bin/env python3
"""The churnlab benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload replay-20k|ingest-http --seed N \
        --seconds S --trace 0|1

Run from anywhere; the repository is the parent of this directory. The run
builds the CLI and the benchmark's programs into .bench_build/cmake, makes a
retail history with `churnlab simulate` from --seed, and drives the
workload through `churnlab serve-replay` or `churnlab serve-http` as child
processes. See perfbench/README.md for the workloads and metrics.

The last line of stdout is {"correct", "attempted", "failed", "metrics"}:
the end-to-end metrics with --trace 0, the per-layer metrics of the traced
run with --trace 1. The line before it is the full result document, also
written to .bench_build/results/. The exit code is non-zero when a
correctness gate fails.
"""

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import signal
import subprocess
import sys
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "cmake")

# The history every workload shares: 10k loyal and 10k defecting customers
# over 28 months, attrition onset at month 18 (about 2M receipts).
LOYAL = DEFECTING = 10000
MONTHS = 28
ONSET = 18
REPLAY_FLAGS = ["--threads", "2", "--shards", "16"]
REQUEST_RECEIPTS = 256
# ingest-http's server and client share this many CPUs (see README.md).
HTTP_CPUS = 2
# A run is ROUNDS rounds; each sets up from scratch and then times its
# share of --seconds.
ROUNDS = 2
CHILD_TIMEOUT_S = 100

WORKLOADS = ("replay-20k", "ingest-http")

END_TO_END = {
    "setup_s": "s",
    "receipts_per_s": "1/s",
    "op_p50_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "datagen.simulate_s": "s",
    "retail.save_binary_s": "s",
    "retail.load_binary_s": "s",
    "retail.load_receipts_per_s": "1/s",
    "replay.order_s": "s",
    "replay.unattributed_s": "s",
    "serve.ingest_batch_s": "s",
    "serve.ingest_batch_p50_us": "us",
    "serve.ingest_batch_p99_us": "us",
    "serve.batch_receipts": "count",
    "serve.finish_all_s": "s",
    "serve.rejected_receipts": "count",
    "serve.state_bytes_per_customer": "B",
    "journal.append_us": "us",
    "journal.sync_us": "us",
    "journal.syncs": "count",
    "journal.bytes_per_receipt": "B",
    "net.parse_us": "us",
    "net.decode_us": "us",
    "net.admit_us": "us",
    "net.render_us": "us",
    "net.backend_ingest_us": "us",
    "net.coalesce_wait_us": "us",
    "net.requests_per_batch": "req/batch",
    "net.shed": "count",
    "client.encode_s": "s",
    "unattributed_share": "ratio",
    "traced.receipts_per_s": "1/s",
    "traced.op_p50_ms": "ms",
}


class BenchError(Exception):
    """The run could not produce a result (as opposed to a failed gate)."""


class Children:
    """Every child process the run starts, so none outlives it."""

    def __init__(self):
        self.live = []

    def spawn(self, cmd, stdout, stderr, stdin=None):
        proc = subprocess.Popen(cmd, stdin=stdin, stdout=stdout,
                                stderr=stderr, cwd=ROOT)
        self.live.append(proc)
        return proc

    def reap(self, proc, timeout=CHILD_TIMEOUT_S):
        """Waits for `proc` (killing it after `timeout` seconds) and returns
        (exit code, peak RSS in MB) from wait4."""
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.live.remove(proc)
        return proc.returncode, usage.ru_maxrss / 1024.0

    def stop_all(self):
        for proc in list(self.live):
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            self.live.remove(proc)


CHILDREN = Children()


def run_child(cmd, work, name):
    """Runs `cmd` to completion. Returns (wall seconds, exit code, stdout,
    peak RSS MB); stderr goes to WORK/NAME.err."""
    out_path = os.path.join(work, name + ".out")
    with open(out_path, "w") as out, \
            open(os.path.join(work, name + ".err"), "w") as err:
        start = time.perf_counter()
        proc = CHILDREN.spawn(cmd, out, err)
        code, rss = CHILDREN.reap(proc)
        wall = time.perf_counter() - start
    with open(out_path) as out:
        return wall, code, out.read(), rss


def must(code, what, work, name):
    if code != 0:
        err = open(os.path.join(work, name + ".err")).read()[-2000:]
        raise BenchError("%s exited %d: %s" % (what, code, err))


# --------------------------------------------------------------------------
# Build and environment
# --------------------------------------------------------------------------

def build(targets):
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "a") as log:
        if not os.path.exists(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            cmd = ["cmake", "-S", HERE, "-B", CMAKE_DIR,
                   "-DCMAKE_BUILD_TYPE=Release"] + generator
            if subprocess.call(cmd, stdout=log, stderr=log, cwd=ROOT) != 0:
                raise BenchError("cmake configure failed, see " + log_path)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        cmd = ["cmake", "--build", CMAKE_DIR, "-j", jobs, "--target"] + targets
        if subprocess.call(cmd, stdout=log, stderr=log, cwd=ROOT) != 0:
            raise BenchError("build failed, see " + log_path)
    binaries = {
        "cli": os.path.join(CMAKE_DIR, "churnlab", "tools", "churnlab"),
        "client": os.path.join(CMAKE_DIR, "perfbench_client"),
        "trace": os.path.join(CMAKE_DIR, "perfbench_trace"),
    }
    return binaries


def pin_http_cpus():
    """Confines this process, and so every child it starts from now on, to
    HTTP_CPUS of the CPUs it may use. A request of ingest-http hands off
    between client and server threads several times; spread over idle
    virtual CPUs, each hand-off waits for the host to schedule a halted
    one, and pass times followed the host's load (steal time) rather than
    the program."""
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, cpus[:HTTP_CPUS])
    return cpus[:HTTP_CPUS]


def cmake_cache(key):
    try:
        with open(os.path.join(CMAKE_DIR, "CMakeCache.txt")) as cache:
            for line in cache:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return None


def source_digest():
    """SHA-256 over the sources the benchmark builds: the code's identity in
    checkouts that are not git repositories, where git_commit is null."""
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            if "__pycache__" in name:
                continue
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def stamp(seed, work, cpus):
    cpu = None
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), None)
    except OSError:
        pass
    compiler = cmake_cache("CMAKE_CXX_COMPILER")
    if compiler:
        try:
            compiler = subprocess.run(
                [compiler, "--version"], capture_output=True, text=True,
                timeout=10).stdout.splitlines()[0]
        except (OSError, IndexError, subprocess.SubprocessError):
            pass
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                cwd=ROOT, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    try:
        fs_type = subprocess.run(["stat", "-f", "-c", "%T", work],
                                 capture_output=True, text=True,
                                 timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        fs_type = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "kernel": platform.release(),
        "compiler": compiler,
        "build_type": cmake_cache("CMAKE_BUILD_TYPE"),
        "git_commit": commit,
        "source_sha256": source_digest(),
        "seed": seed,
        "journal_fs": fs_type,
        "cpus": cpus,
    }


# --------------------------------------------------------------------------
# Workload steps
# --------------------------------------------------------------------------

def simulate(bins, work, seed):
    """`churnlab simulate` into WORK/h.clb; returns (seconds, receipts)."""
    wall, code, out, _ = run_child(
        [bins["cli"], "simulate", "--out", os.path.join(work, "h.clb"),
         "--loyal", str(LOYAL), "--defecting", str(DEFECTING),
         "--months", str(MONTHS), "--onset", str(ONSET),
         "--seed", str(seed)], work, "simulate")
    must(code, "churnlab simulate", work, "simulate")
    match = re.search(r"^receipts:\s+([\d,]+)", out, re.M)
    if not match:
        raise BenchError("simulate printed no receipt count")
    return wall, int(match.group(1).replace(",", ""))


REPLAYED = re.compile(r"replayed (\d+) receipts in (\d+) batches: "
                      r"(\d+) customers, (\d+) alerts")


def serve_replay(bins, work, extra, name):
    """`churnlab serve-replay` over WORK/h.clb. Returns (wall, rss, receipts,
    alerts, quarantined)."""
    wall, code, out, rss = run_child(
        [bins["cli"], "serve-replay", "--data", os.path.join(work, "h.clb")]
        + REPLAY_FLAGS + extra, work, name)
    must(code, "churnlab serve-replay", work, name)
    match = REPLAYED.search(out)
    if not match:
        raise BenchError("serve-replay printed no summary: " + out)
    quarantined = re.search(r"quarantined (\d+) receipts", out)
    return (wall, rss, int(match.group(1)), int(match.group(4)),
            int(quarantined.group(1)) if quarantined else 0)


def read_line(proc, timeout):
    """The next line `proc` prints, killing it after `timeout` seconds."""
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        return proc.stdout.readline().decode()
    finally:
        timer.cancel()


def start_server(bins, work, name):
    """`churnlab serve-http` on a fresh journal, once it is serving.
    Returns (process, port, snapshot path)."""
    journal = os.path.join(work, "journal-" + name)
    os.makedirs(journal)
    snapshot = os.path.join(work, "served-%s.snap" % name)
    cmd = [bins["cli"], "serve-http", "--data", os.path.join(work, "h.clb"),
           "--port", "0", "--threads", "1", "--net-threads", "2",
           "--journal", journal, "--journal-fsync", "none",
           "--snapshot-out", snapshot]
    err = open(os.path.join(work, "server-%s.err" % name), "w")
    proc = CHILDREN.spawn(cmd, subprocess.PIPE, err)
    err.close()
    line = read_line(proc, 60)
    match = re.search(r"serving on http://[\d.]+:(\d+)", line)
    if not match:
        raise BenchError("serve-http did not start: " + line)
    return proc, int(match.group(1)), snapshot


def start_client(bins, work, prefix):
    """`perfbench_client load` once it has read and encoded the history;
    it then runs one pass per port written to its stdin."""
    err = open(prefix + ".err", "w")
    proc = CHILDREN.spawn(
        [bins["client"], "load", "--data", os.path.join(work, "h.clb"),
         "--out", prefix, "--request-receipts", str(REQUEST_RECEIPTS),
         "--ingest-connections", "2"],
        subprocess.PIPE, err, stdin=subprocess.PIPE)
    err.close()
    if read_line(proc, 60).strip() != "ready":
        raise BenchError("perfbench_client load did not start: " +
                         open(prefix + ".err").read()[-2000:])
    return proc


def stop_server(proc):
    """Drains the server with SIGTERM. Returns (exit code, rss, output)."""
    proc.send_signal(signal.SIGTERM)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        rest = proc.stdout.read().decode()
    finally:
        timer.cancel()
    code, rss = CHILDREN.reap(proc)
    proc.stdout.close()
    return code, rss, rest


# --------------------------------------------------------------------------
# Untraced runs: the end-to-end metrics
# --------------------------------------------------------------------------

def run_replay(bins, work, seed, seconds, gates):
    def one(round_no):
        setup_s, generated = simulate(bins, work, seed)
        replays = []
        while sum(r[0] for r in replays) < seconds / ROUNDS:
            replays.append(serve_replay(
                bins, work, [], "replay-%d-%d" % (round_no, len(replays))))
        return {"setup_s": setup_s, "generated": generated,
                "timed_s": sum(r[0] for r in replays),
                "walls_s": [r[0] for r in replays],
                "rss_mb": [r[1] for r in replays],
                "receipts": [r[2] for r in replays],
                "alerts": [r[3] for r in replays],
                "quarantined": [r[4] for r in replays]}

    rounds = [one(i) for i in range(ROUNDS)]
    _, code, out, _ = run_child(
        [bins["client"], "replay-oracle", "--data",
         os.path.join(work, "h.clb")], work, "oracle")
    must(code, "perfbench_client replay-oracle", work, "oracle")
    oracle = json.loads(out.strip().splitlines()[-1])
    gates["replayed_every_generated_receipt"] = all(
        n == r["generated"] for r in rounds for n in r["receipts"])
    gates["no_quarantined_receipts"] = oracle["rejected"] == 0 and not any(
        n for r in rounds for n in r["quarantined"])
    gates["alerts_match_in_process_replay"] = all(
        a == oracle["alerts"] for r in rounds for a in r["alerts"]) and \
        oracle["receipts"] == rounds[0]["generated"]
    walls_ms = [w * 1e3 for r in rounds for w in r["walls_s"]]
    metrics = {
        "setup_s": stats.summarize(r["setup_s"] for r in rounds)["median"],
        "receipts_per_s": stats.summarize(
            n / w for r in rounds
            for n, w in zip(r["receipts"], r["walls_s"]))["median"],
        # One replay is the operation.
        "op_p50_ms": stats.summarize(walls_ms)["median"],
        "peak_rss_mb": stats.summarize(
            m for r in rounds for m in r["rss_mb"])["median"],
    }
    attempted = sum(n + q for r in rounds
                    for n, q in zip(r["receipts"], r["quarantined"]))
    failed = sum(q for r in rounds for q in r["quarantined"])
    detail = {"oracle": oracle, "op": "one serve-replay of the history",
              "op_samples": len(walls_ms), "slowest_op_ms": max(walls_ms)}
    return rounds, metrics, attempted, failed, detail


def run_http(bins, work, seed, seconds, gates):
    def one(round_no):
        # Set-up: datagen, the client's load and encode, the first server.
        start = time.perf_counter()
        _, generated = simulate(bins, work, seed)
        prefix = os.path.join(work, "client-%d" % round_no)
        client = start_client(bins, work, prefix)
        passes, setup_s, timed = [], None, 0.0
        # Each pass streams the whole history into a fresh server.
        while timed < seconds / ROUNDS:
            name = "%d-%d" % (round_no, len(passes))
            server, port, snapshot = start_server(bins, work, name)
            if setup_s is None:
                setup_s = time.perf_counter() - start
            client.stdin.write(b"%d\n" % port)
            client.stdin.flush()
            line = read_line(client, CHILD_TIMEOUT_S).strip()
            server_code, rss, tail = stop_server(server)
            if line != "done %d" % len(passes):
                raise BenchError("perfbench_client load failed: " +
                                 open(prefix + ".err").read()[-2000:])
            with open("%s-%d.json" % (prefix, len(passes))) as handle:
                result = json.load(handle)
            result.update({
                "rss_mb": rss,
                "server_exit": server_code,
                "server_drained": "drained:" in tail,
                "expected": generated,
                "snapshot": snapshot,
                "acks": "%s-%d.acks" % (prefix, len(passes)),
            })
            passes.append(result)
            timed += result["ingest_s"]
        client.stdin.close()
        code, _ = CHILDREN.reap(client)
        must(code, "perfbench_client load", work,
             os.path.basename(prefix))
        return {"setup_s": setup_s, "timed_s": timed, "passes": passes}

    rounds = [one(i) for i in range(ROUNDS)]
    passes = [p for r in rounds for p in r["passes"]]
    gates["server_drained_cleanly"] = all(
        p["server_exit"] == 0 and p["server_drained"] for p in passes)
    gates["every_receipt_acked"] = all(
        p["acked_receipts"] == p["expected"] for p in passes)
    gates["no_refused_or_shed_requests"] = all(
        p["refused"] == 0 and p["shed"] == 0 for p in passes)
    gates["no_rejected_receipts"] = all(
        p["rejected_receipts"] == 0 and p["poisoned_replies"] == 0
        for p in passes)
    gates["health_counts_acked_receipts"] = all(
        p["health_receipts_total"] == p["acked_receipts"]
        and p["health_rejected"] == 0 for p in passes)
    slices, rates, op_pooled = [], [], []
    for p in passes:
        summary = stats.summarize_pass(p)
        p.update(stats.pass_metrics(summary["slices"], summary["rates"]))
        p["op_samples"] = len(summary["op_ms"])
        p["latency_slices"] = len(summary["slices"])
        p["throughput_slices"] = len(summary["rates"])
        slices += summary["slices"]
        rates += summary["rates"]
        op_pooled += summary["op_ms"]
    gates["enough_latency_slices"] = all(
        p["latency_slices"] >= 4 and p["throughput_slices"] >= 4
        for p in passes)
    detail = {"op": "POST /v1/ingest, send to ack",
              "latency_slices": len(slices),
              "slice_operations": stats.OP_SLICE,
              "slice_median_op_p99_ms": stats.summarize(
                  p99 for _, _, p99 in slices)["median"] if slices else None,
              "op_samples": len(op_pooled),
              "tail_percentile": stats.tail_percentile(len(op_pooled)),
              "pooled_op_p99_ms": stats.percentile(op_pooled, 99),
              "pooled_op_p99.9_ms": stats.percentile(op_pooled, 99.9),
              "throughput_slices": len(rates)}
    last = passes[-1]
    _, code, out, _ = run_child(
        [bins["client"], "verify", "--data", os.path.join(work, "h.clb"),
         "--acks", last["acks"], "--snapshot", last["snapshot"],
         "--out", os.path.join(work, "oracle.snap"),
         "--ingest-connections", "2"], work, "verify")
    verify = json.loads(out.strip().splitlines()[-1]) if code == 0 else {}
    gates["drain_snapshot_matches_sequence_replay"] = bool(
        verify.get("identical"))
    detail["verify"] = verify
    for p in passes:
        del p["snapshot"], p["acks"]
    # Not gated: it swung between about 1.4 and 3.4 ms with the machine's
    # load (see README.md), so it stays in the document.
    detail["slice_median_op_p90_ms"] = stats.pass_metrics(
        slices, rates)["op_p90_ms"]
    # The host's load only ever slows a pass, so the least-disturbed pass
    # is the one that shows the program (see README.md).
    metrics = {
        "setup_s": stats.summarize(r["setup_s"] for r in rounds)["median"],
        "receipts_per_s": max(p["receipts_per_s"] for p in passes),
        "op_p50_ms": min(p["op_p50_ms"] for p in passes),
        "peak_rss_mb": stats.summarize(
            p["rss_mb"] for p in passes)["median"],
    }
    attempted = sum(p["requests"] for p in passes)
    failed = sum(p["refused"] + p["poisoned_replies"]
                 + p["rejected_receipts"] for p in passes)
    return rounds, metrics, attempted, failed, detail


# --------------------------------------------------------------------------
# Traced runs: the per-layer metrics
# --------------------------------------------------------------------------

def run_traced(bins, work, workload, seed, gates):
    _, code, out, _ = run_child(
        [bins["trace"], "--workload", workload, "--seed", str(seed),
         "--work", work], work, "trace")
    must(code, "perfbench_trace", work, "trace")
    layers = json.loads(out.strip().splitlines()[-1])
    gates["no_rejected_receipts"] = layers["serve.rejected_receipts"] == 0
    gates["no_shed_requests"] = layers.get("net.shed", 0) == 0
    if workload == "replay-20k":
        # The e2e replay on the same history; what the in-process layers do
        # not explain of its wall time is the CLI's own cost.
        wall, _, receipts, alerts, quarantined = serve_replay(
            bins, work, [], "replay")
        gates["replayed_every_generated_receipt"] = \
            receipts == layers["history.receipts"]
        gates["alerts_match_in_process_replay"] = \
            alerts == layers["replay.alerts"] and quarantined == 0
        explained = (layers["retail.load_binary_s"] + layers["replay.order_s"]
                     + layers["serve.ingest_batch_s"]
                     + layers["serve.finish_all_s"])
        layers["replay.unattributed_s"] = wall - explained
        layers["unattributed_share"] = (wall - explained) / wall
        layers["traced.receipts_per_s"] = receipts / wall
        layers["traced.op_p50_ms"] = wall * 1e3
        attempted, failed = receipts + quarantined, quarantined
    else:
        gates["every_receipt_acked"] = layers["live.unacked_receipts"] == 0
        with open(os.path.join(work, "live.json")) as handle:
            live = stats.summarize_pass(json.load(handle))
        traced = stats.pass_metrics(live["slices"], live["rates"])
        layers["traced.receipts_per_s"] = traced["receipts_per_s"]
        layers["traced.op_p50_ms"] = traced["op_p50_ms"]
        attempted = int(layers["live.requests"])
        failed = int(layers["live.failed"])
    metrics = {name: layers.get(name, 0.0) for name in PER_LAYER}
    return metrics, attempted, failed, {"layers": layers}


# --------------------------------------------------------------------------

def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    for needed in ("CMakeLists.txt", "src", "tools"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            print("perfbench: no churnlab sources next to perfbench/ (%s "
                  "missing)" % needed, file=sys.stderr)
            return 2

    work = os.path.join(BUILD, "work", "%s-%d-%d" % (
        args.workload, args.seed, os.getpid()))
    gates = {}
    try:
        targets = ["churnlab_cli", "perfbench_client"]
        if args.trace:
            targets.append("perfbench_trace")
        bins = build(targets)
        os.makedirs(work)
        cpus = pin_http_cpus() if args.workload == "ingest-http" else \
            sorted(os.sched_getaffinity(0))
        environment = stamp(args.seed, work, cpus)
        if args.trace:
            metrics, attempted, failed, detail = run_traced(
                bins, work, args.workload, args.seed, gates)
            rounds, units = [], PER_LAYER
        else:
            runner = run_replay if args.workload == "replay-20k" \
                else run_http
            rounds, metrics, attempted, failed, detail = runner(
                bins, work, args.seed, args.seconds, gates)
            units = END_TO_END
    except BenchError as error:
        print("perfbench: %s" % error, file=sys.stderr)
        return 1
    finally:
        CHILDREN.stop_all()
        shutil.rmtree(work, ignore_errors=True)

    correct = all(gates.values()) and failed == 0
    document = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment,
        "gates": gates,
        "failed_share": failed / attempted if attempted else 1.0,
        "rounds": rounds,
        "detail": detail,
        "metrics": metrics,
    }
    results = os.path.join(BUILD, "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, "%s-seed%d-trace%d.json" % (
            args.workload, args.seed, args.trace)), "w") as handle:
        json.dump(document, handle, indent=1)
    print(json.dumps(document))
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    if not correct:
        print("perfbench: correctness gate failed: %s" % (", ".join(
            name for name, ok in gates.items() if not ok)
            or "failed operations"), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
