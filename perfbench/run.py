#!/usr/bin/env python3
"""End-to-end benchmark of the session-problem tools (see NOTES.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload NAME --repeat K [--seed N] [--seconds S]
    python3 perfbench/run.py --record-digests

Run from the root of a source checkout. The first run configures and builds
the tools and the layer tour into $CARGO_TARGET_DIR (default .bench_build).

--trace 0 spawns the real tools (sesp_cli, sesp_conformance, sesp_serve),
checks their output and prints the end-to-end metrics. --trace 1 runs the
in-process layer tour (sesp_layers) on the same generated inputs, writes its
span file and prints the per-layer metrics. The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

--repeat K runs the workload K times with seeds N..N+K-1 and prints, for each
metric, the median, the quartiles and the spread against BENCHMARK.json's
bound. --record-digests rewrites table1_digests.json from the current build.
"""

import argparse
import hashlib
import heapq
import json
import math
import os
import random
import selectors
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from collections import deque

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")
DIGESTS = os.path.join(HERE, "table1_digests.json")

# Seed kept out of tuning: every workload is run on it once to check that
# its layer balance holds on inputs the benchmark was not shaped on.
HELD_OUT_SEED = 90001

MODELS = ["sync", "periodic", "semisync", "sporadic", "async"]
SUBSTRATES = ["mpm", "smm"]
TABLE1_SIZES = [24, 32, 40]
TABLE1_SEED_POOL = [1992 + 7919 * k for k in range(8)]
CAMPAIGN_CASES = 1000          # per (model x substrate) cell
SETUP_BATCH = 8                # fork-to-exit samples taken per window
SERVE_SETUP_BATCH = 30         # spawn-to-health samples before and after
# Served traffic (see NOTES.md for the basis of each figure). The request
# mix is an assumption: no recorded production traffic exists. Health and
# bound requests share one connection, and the server's default admission
# lets each connection send SERVE_CONN_RATE requests/s (token bucket, burst
# 40; src/serve/admission.hpp), so shedding starts where the light share of
# the rate passes it: 200 / 0.5 = 400 req/s. The ladder steps through
# fractions of that onset and ends above it, where a third of the light
# requests are shed.
SERVE_MIX = {"health": 10, "bound": 40, "run": 50}
SERVE_CONN_RATE = 200
SERVE_ONSET = SERVE_CONN_RATE * 100 // (SERVE_MIX["health"] +
                                        SERVE_MIX["bound"])
SERVE_RATES = [SERVE_ONSET * f // 4 for f in (1, 2, 3, 6)]  # 100..600 req/s
SERVE_P99_LIMIT_MS = 25.0      # latency limit behind max_qps
SERVE_REPORT_RATES = [SERVE_RATES[1], SERVE_RATES[-1]]   # below, above onset
CHILD_TIMEOUT_S = 150
# Journal fsync per workload. The campaign's gated runs journal without
# fsync: fsync latency on a shared host's disk moved the journaled wall by
# 2.5x between runs minutes apart, more than any bound can absorb, so the
# fsync'd run is measured beside them and reported, not gated.
JOURNAL_FSYNC = {
    "table1_worst": "n/a (no journal)",
    "campaign_journal": "off for journaled/resume/sharded, on for "
                        "journaled_fsync_s",
    "serve_mixed": "on (default)",
}


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


# Timed tools run single-threaded. On a 4-vCPU KVM guest shared with other
# tenants, two foreign busy threads grew the summed wall of four Table-1
# cells by 65% at --jobs=4, 7% at --jobs=2 and not at all at --jobs=1 (CPU
# time moved under 5% in every case). A wall figure measured at --jobs=N
# measures the neighbours as soon as N + their threads pass nproc.
CHILD_JOBS = 1


def pool_jobs():
    """Workers of the exec pool where the pool itself is measured (the
    traced layer tour, table1's printed pool pass) and of untimed reference
    runs; efficiency and straggler share need more than one worker."""
    return max(1, min(4, os.cpu_count() or 1))


def connections():
    """Load-generator connections to the server: at most nproc."""
    return max(1, min(4, os.cpu_count() or 1))


# --- Build -------------------------------------------------------------------

def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def tool(name):
    return os.path.join(build_dir(), "tools" if name != "sesp_layers" else "",
                        name)


def build():
    for need in ("src/CMakeLists.txt", "tools/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            log(f"perfbench: {need} is missing; run from a source checkout")
            sys.exit(2)
    bdir = build_dir()
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "build.log"), "ab") as blog:
        def step(cmd):
            if subprocess.call(cmd, stdout=blog, stderr=blog) != 0:
                log(f"perfbench: build step failed: {' '.join(cmd)}"
                    f" (see .bench_out/build.log)")
                sys.exit(1)
        if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            step(["cmake", "-S", HERE, "-B", bdir, *gen,
                  "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        step(["cmake", "--build", bdir, "-j", str(os.cpu_count() or 1),
              "--target", "sesp_cli", "sesp_conformance", "sesp_serve",
              "sesp_layers"])


def cmake_cache(key):
    try:
        with open(os.path.join(build_dir(), "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def conditions(workload, seed, seconds, trace):
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.check_output(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], text=True,
                stderr=subprocess.DEVNULL).strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    h = hashlib.sha256()
    for top in ("src", "tools"):
        for dirpath, dirnames, files in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(files):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    compiler = cmake_cache("CMAKE_CXX_COMPILER")
    try:
        compiler += " (" + subprocess.check_output(
            [compiler, "--version"], text=True).splitlines()[0] + ")"
    except (OSError, subprocess.CalledProcessError, IndexError):
        pass
    return {"commit": commit, "source_sha256": h.hexdigest()[:16],
            "nproc": os.cpu_count(), "jobs": CHILD_JOBS,
            "server_jobs": SERVER_JOBS, "pool_jobs": pool_jobs(),
            "connections": connections(),
            "build_type": cmake_cache("CMAKE_BUILD_TYPE"),
            "compiler": compiler, "journal_fsync": JOURNAL_FSYNC[workload],
            "workload": workload, "seed": seed, "seconds": seconds,
            "trace": trace}


# --- Children ----------------------------------------------------------------

def child_env(fsync=True):
    env = dict(os.environ)
    env.pop("SESP_JOURNAL_FSYNC", None)   # unset: fsync on, the default
    env.pop("SESP_STOP_AFTER", None)
    env["SESP_JOBS"] = str(CHILD_JOBS)
    if not fsync:
        env["SESP_JOURNAL_FSYNC"] = "0"
    return env


# The server's sweep pool. Beside its two heavy workers and the load
# generator, one sweep thread keeps the workload's busy threads at four.
SERVER_JOBS = 1


class Child:
    """One tool invocation, timed fork to exit, with its peak RSS."""

    def __init__(self, args, fsync=True):
        self.args = args
        os.makedirs(OUT, exist_ok=True)
        out_path = os.path.join(OUT, "child.out")
        err_path = os.path.join(OUT, "child.err")
        with open(out_path, "wb") as fo, open(err_path, "wb") as fe:
            t0 = time.perf_counter()
            proc = subprocess.Popen(args, stdout=fo, stderr=fe,
                                    env=child_env(fsync))
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            _, status, usage = os.wait4(proc.pid, 0)
            self.wall_s = time.perf_counter() - t0
            timer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.rc = proc.returncode
        self.rss_mb = usage.ru_maxrss / 1024.0
        self.cpu_s = usage.ru_utime + usage.ru_stime
        with open(out_path, "rb") as f:
            self.stdout = f.read()
        with open(err_path, "rb") as f:
            self.stderr = f.read()


class Tally:
    """Checked items: every spawned report and every served reply."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.first = ""

    def add(self, attempted, failed, first):
        self.attempted += attempted
        self.failed += failed
        if failed and not self.first:
            self.first = first

    def check(self, ok, what):
        self.add(1, 0 if ok else 1, what)
        return ok


def quantile(values, q):
    """Linear-interpolated quantile, q in [0, 1]."""
    v = sorted(values)
    if not v:
        return float("nan")
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


class Metrics:
    def __init__(self):
        self.values = {}

    def put(self, name, value, unit, samples):
        self.values[name] = (float(value), unit, int(samples))


def setup_time(tally, args, expect, walls, count=SETUP_BATCH):
    """Appends `count` fork-to-exit samples of the tool's smallest input.
    Batches are taken between windows, spreading them over the run."""
    for _ in range(count):
        c = Child(args)
        tally.check(c.rc == 0 and expect in c.stdout,
                    f"setup run {' '.join(args)} rc={c.rc}")
        walls.append(c.wall_s)


class Windows:
    """Per-window figures of one run, reported as medians over windows, so a
    transient stall on a shared host moves one window, not the result."""

    def __init__(self):
        self.rows = []

    def add(self, **figures):
        self.rows.append(figures)

    def median(self, key):
        return statistics.median(row[key] for row in self.rows)

    def __len__(self):
        return len(self.rows)


# --- table1_worst --------------------------------------------------------------

def table1_cells(rng):
    cells = []
    for size in TABLE1_SIZES:
        for model in MODELS:
            for sub in SUBSTRATES:
                cells.append((sub, model, size, rng.choice(TABLE1_SEED_POOL)))
    return cells


def table1_args(cell, jobs):
    sub, model, size, seed = cell
    return [tool("sesp_cli"), f"--substrate={sub}", f"--model={model}",
            f"--s={size}", f"--n={size}", "--adversary=worst",
            f"--seed={seed}", f"--jobs={jobs}"]


def digest_key(cell):
    sub, model, size, seed = cell
    return f"{sub}/{model}/s{size}/n{size}/seed{seed}"


def workload_table1(seed, seconds, tally, m):
    """Passes over the 30 Table-1 cells; each pass is one window."""
    rng = random.Random(seed)
    jobs = CHILD_JOBS
    with open(DIGESTS) as f:
        digests = json.load(f)["digests"]
    setup_args = [tool("sesp_cli"), "--substrate=mpm", "--model=sync",
                  "--s=1", "--n=1", "--adversary=worst", f"--jobs={jobs}"]
    setup = []
    passes = Windows()
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds or len(passes) < 2:
        wall, cpu, runs, rss, cell_ms = 0.0, 0.0, 0, 0.0, []
        for cell in table1_cells(rng):
            c = Child(table1_args(cell, jobs))
            ok = (c.rc == 0 and b"all solved:  yes" in c.stdout and
                  hashlib.sha256(c.stdout).hexdigest() ==
                  digests.get(digest_key(cell)))
            tally.check(ok, f"table1 {digest_key(cell)} rc={c.rc}")
            for line in c.stdout.decode().splitlines():
                if line.startswith("runs:"):
                    runs += int(line.split()[1])
            wall += c.wall_s
            cpu += c.cpu_s
            cell_ms.append(c.wall_s * 1000)
            rss = max(rss, c.rss_mb)
        passes.add(wall=wall, cpu=cpu, rate=runs / wall, rss=rss,
                   p99=quantile(cell_ms, 0.99), p90=quantile(cell_ms, 0.9),
                   p50=quantile(cell_ms, 0.5))
        setup_time(tally, setup_args, b"all solved:  yes", setup)
    # One pass more on a multi-worker exec pool: what the pool saves, and
    # what its stragglers cost, over the single-threaded passes. Printed
    # only; its wall depends on how many cores the host leaves free.
    pool_jobs_wall = 0.0
    for cell in table1_cells(rng):
        c = Child(table1_args(cell, pool_jobs()))
        tally.check(c.rc == 0 and hashlib.sha256(c.stdout).hexdigest() ==
                    digests.get(digest_key(cell)),
                    f"table1 {digest_key(cell)} --jobs={pool_jobs()} "
                    f"rc={c.rc}")
        pool_jobs_wall += c.wall_s
    n = len(passes)
    m.put("setup_s", statistics.median(setup), "s", len(setup))
    m.put("wall_s", passes.median("wall"), "s", n)
    m.put("cpu_s", passes.median("cpu"), "s", n)
    m.put("runs_per_s", passes.median("rate"), "1/s", n)
    m.put("peak_rss_mb", passes.median("rss"), "MB", n)
    m.put("p90_ms", passes.median("p90"), "ms", n)
    m.put("p99_ms", passes.median("p99"), "ms", n)
    m.put("p50_ms", passes.median("p50"), "ms", n)
    m.put("pool_wall_s", pool_jobs_wall, "s", 1)


# --- campaign_journal ----------------------------------------------------------

def workload_campaign(seed, seconds, tally, m):
    """One plain reference run, then rounds of plain, journaled, resumed and
    sharded runs of the same campaign (a round is a window), then one
    journaled run with fsync."""
    jobs = CHILD_JOBS
    work = os.path.join(OUT, "campaign")
    reset_dir(work)
    base = [tool("sesp_conformance"), f"--cases={CAMPAIGN_CASES}",
            f"--seed={seed}"]
    setup_args = [tool("sesp_conformance"), "--cases=1", "--model=sync",
                  "--substrate=smm", f"--seed={seed}", f"--jobs={jobs}"]
    setup = []
    plain = Child(base + [f"--jobs={jobs}"])
    reference = plain.stdout
    tally.check(plain.rc == 0 and b" 0 failures" in reference,
                f"plain campaign rc={plain.rc}")
    cases = 10 * CAMPAIGN_CASES
    rounds = Windows()
    # Multi-threaded runs' peak RSS depends on which threads' malloc arenas
    # grew, so the campaign reports the median invocation's peak.
    rss = []
    invocations_ms = []
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds or len(rounds) < 2:
        r = len(rounds)
        journal = os.path.join(work, f"round{r}.journal")
        walls = {}
        for mode, args in (
                ("plain", base + [f"--jobs={jobs}"]),
                ("journaled",
                 base + [f"--jobs={jobs}", f"--journal={journal}"]),
                ("resume", base + [f"--jobs={jobs}", f"--resume={journal}"]),
                ("sharded",
                 base + ["--jobs=1", "--workers=3",
                         f"--shard-dir={os.path.join(work, f'shard{r}')}"])):
            c = Child(args, fsync=False)
            tally.check(c.rc == 0 and c.stdout == reference,
                        f"{mode} campaign differs from plain (rc={c.rc})")
            walls[mode] = c.wall_s
            if mode == "journaled":
                walls["cpu"] = c.cpu_s
            rss.append(c.rss_mb)
        reset_dir(work)
        # The single-process invocations; the sharded run's three
        # concurrent workers are reported on their own as shard_wall_s.
        invocations_ms.extend(walls[k] * 1000
                              for k in ("plain", "journaled", "resume"))
        rounds.add(rate=cases / walls["journaled"], **walls)
        setup_time(tally, setup_args, b"0 failures", setup)
    # Once, after the rounds: its wall is set by the host's fsync latency.
    fsynced = Child(base + [f"--jobs={jobs}",
                            f"--journal={os.path.join(work, 'fsync.journal')}"])
    tally.check(fsynced.rc == 0 and fsynced.stdout == reference,
                f"fsync'd journaled campaign differs (rc={fsynced.rc})")
    n = len(rounds)
    m.put("setup_s", statistics.median(setup), "s", len(setup))
    m.put("wall_s", rounds.median("journaled"), "s", n)
    m.put("cpu_s", rounds.median("cpu"), "s", n)
    m.put("runs_per_s", rounds.median("rate"), "1/s", n)
    m.put("peak_rss_mb", statistics.median(rss), "MB", len(rss))
    m.put("p50_ms", quantile(invocations_ms, 0.5), "ms", len(invocations_ms))
    m.put("p90_ms", quantile(invocations_ms, 0.9), "ms", len(invocations_ms))
    m.put("resume_s", rounds.median("resume"), "s", n)
    m.put("shard_wall_s", rounds.median("sharded"), "s", n)
    m.put("plain_s", rounds.median("plain"), "s", n)
    m.put("journaled_fsync_s", fsynced.wall_s, "s", 1)
    m.put("recovery.overhead_s",
          rounds.median("journaled") - rounds.median("plain"), "s", n)
    m.put("fsync.overhead_s", fsynced.wall_s - rounds.median("journaled"),
          "s", 1)


# --- serve_mixed ---------------------------------------------------------------

BOUND_CELLS = [(mo, side) for mo in MODELS for side in ("sm", "mp")
               if not (mo == "sporadic" and side == "sm")]
# Random gaps break the sync and periodic models, so their runs use the
# lockstep adversary only; smm has no sporadic algorithm.
RUN_CONFIGS = [(sub, mo, adv) for sub in SUBSTRATES for mo in MODELS
               for adv in ("lockstep", "random")
               if not (sub == "smm" and mo == "sporadic") and
               not (adv == "random" and mo in ("sync", "periodic"))]
RUN_SIZES = [4, 8, 12, 16]
RUN_SEEDS = [1992, 1993, 1994, 1995]   # same simulator work in every run
# A burst is as many sweeps as the server queues past its executor by
# default (max_sweep_queue 4), so a burst never overflows the queue.
SWEEP_BURST = [("mpm", "async"), ("smm", "async"), ("mpm", "semisync"),
               ("smm", "periodic")]
BURSTS_PER_RUNG = 3
BURST_GAP_S = 1.75             # a burst drains in ~0.5 s, so none overlap
POLL_S = 0.012                 # sweep poll interval; two chains stay under
                               # the sweep connection's 200/s rate limit


def serve_schedule(rng, seconds, rates):
    """Open-loop schedule: (due_s, conn, kind, rung, request) by due time.

    Each rung of the ladder carries rate x duration requests at uniformly
    random times, in the SERVE_MIX proportions, in seeded order. Bound
    requests alternate between an 8-key hot set (cache hits) and fresh keys
    (misses). Runs cycle through every run configuration, size and run seed,
    so each rung does the same simulator work whatever the seed. Each rung
    also carries up to four bursts of four sweep tickets, at least
    BURST_GAP_S apart; burst k always asks for the same sweeps, so burst
    walls compare run to run.

    The server answers a connection's requests one at a time, so each class
    has its own connections, as a client that cares about latency would
    open them: light requests on the first, runs on the middle ones, sweeps
    and their polls on the last.
    """
    conns = connections()
    light = 0
    heavy = list(range(1, conns - 1)) or [0]
    sweep_conn = conns - 1
    hot = [(rng.choice(BOUND_CELLS), rng.randint(2, 8), rng.randint(2, 8))
           for _ in range(8)]
    runs = [(c, s) for c in RUN_CONFIGS for s in RUN_SIZES]
    mix = [kind for kind, share in SERVE_MIX.items() for _ in range(share)]
    rung_s = max(2.0, (seconds - 2.0) / len(rates))
    out, rid, burst = [], 0, 0
    for rung, rate in enumerate(rates):
        start = rung * rung_s
        count = int(rate * rung_s)
        kinds = (mix * (count // len(mix) + 1))[:count]
        rng.shuffle(kinds)
        rng.shuffle(runs)
        times = sorted(start + rng.random() * rung_s for _ in range(count))
        seen = {"bound": 0, "run": 0}
        for t, kind in zip(times, kinds):
            rid += 1
            i = seen.get(kind, 0)
            seen[kind] = i + 1
            if kind == "health":
                req = {"op": "health"}
            elif kind == "bound":
                if i % 2:
                    (model, side), s, n = rng.choice(hot)
                else:
                    (model, side) = rng.choice(BOUND_CELLS)
                    s, n = rng.randint(1, 64), rng.randint(1, 64)
                req = {"op": "bound", "model": model, "side": side,
                       "s": s, "n": n}
            else:
                (sub, model, adversary), size = runs[i % len(runs)]
                req = {"op": "run", "substrate": sub, "model": model,
                       "adversary": adversary, "s": size, "n": size,
                       "seed": RUN_SEEDS[i // len(runs) % len(RUN_SEEDS)]}
            conn = heavy[i % len(heavy)] if kind == "run" else light
            out.append((t, conn, kind, rung, dict(id=rid, **req)))
        bursts = max(1, min(BURSTS_PER_RUNG, int(rung_s / BURST_GAP_S)))
        for b in range(bursts):
            at = start + rung_s * (b + 0.25) / bursts
            for k, (sub, model) in enumerate(SWEEP_BURST):
                rid += 1
                out.append((at, sweep_conn, "sweep", rung,
                            {"id": rid, "op": "sweep", "substrate": sub,
                             "model": model, "s": 8, "n": 8,
                             "seed": 1000 + 10 * burst + k}))
            burst += 1
    out.sort(key=lambda e: e[0])
    return out


def line_of(req):
    return json.dumps(req, separators=(",", ":"))


class ServerProcess:
    def __init__(self, journal_dir):
        reset_dir(journal_dir)
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [tool("sesp_serve"), "--port=0", f"--journal-dir={journal_dir}"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            env=dict(child_env(), SESP_JOBS=str(SERVER_JOBS)))
        line = self.proc.stdout.readline().decode()
        if not line.startswith("listening on "):
            self.stop()
            raise RuntimeError(f"sesp_serve did not start: {line!r}")
        self.port = int(line.strip().rsplit(":", 1)[1])

    def request(self, line):
        with socket.create_connection(("127.0.0.1", self.port)) as sock:
            sock.sendall(line + b"\n")
            return sock.makefile("rb").readline()

    def stop(self):
        """SIGTERM drains the server; returns (exit code, peak RSS MB, CPU
        seconds)."""
        self.proc.send_signal(signal.SIGTERM)
        timer = threading.Timer(30, self.proc.kill)
        timer.start()
        _, status, usage = os.wait4(self.proc.pid, 0)
        timer.cancel()
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stdout.close()
        return (self.proc.returncode, usage.ru_maxrss / 1024.0,
                usage.ru_utime + usage.ru_stime)


class ServeRun:
    """Drives one server through the schedule from a single thread: each
    request is written when due (open loop) and matched to its in-order
    reply on its connection. Every reply is checked."""

    def __init__(self, port, tally, schedule, t0):
        self.tally = tally
        self.t0 = t0
        self.records = []
        self.bound_bytes = {}
        self.sweeps = []
        self.lag = []
        self.heap = []
        self.seq = 0
        # select() takes its timeout in microseconds; epoll rounds it up to
        # whole milliseconds, which would send requests up to 1 ms late.
        self.sel = selectors.SelectSelector()
        self.conns = []
        for i in range(connections()):
            sock = socket.create_connection(("127.0.0.1", port))
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn = {"sock": sock, "buf": b"", "in_flight": deque()}
            self.conns.append(conn)
            self.sel.register(sock, selectors.EVENT_READ, conn)
        bursts = {}
        for due, c, kind, rung, req in schedule:
            rec = {"kind": kind, "rung": rung, "due": t0 + due,
                   "line": line_of(req), "req": req}
            if kind == "sweep":
                burst = bursts.setdefault(due, {"sweeps": [], "polling": False})
                rec["sweep"] = {"req": req, "due": t0 + due, "burst": burst}
                burst["sweeps"].append(rec["sweep"])
                self.sweeps.append(rec["sweep"])
            self.push(self.conns[c], rec)

    def push(self, conn, rec):
        self.seq += 1
        self.records.append(rec)
        heapq.heappush(self.heap, (rec["due"], self.seq, conn, rec))

    def run(self, deadline):
        while time.perf_counter() < deadline and (
                self.heap or any(c["in_flight"] for c in self.conns)):
            now = time.perf_counter()
            while self.heap and self.heap[0][0] <= now:
                due, _, conn, rec = heapq.heappop(self.heap)
                rec["sent"] = time.perf_counter()
                self.lag.append(rec["sent"] - due)
                conn["in_flight"].append(rec)
                conn["sock"].sendall(rec["line"].encode() + b"\n")
            wait = self.heap[0][0] - time.perf_counter() if self.heap else 0.05
            for key, _ in self.sel.select(timeout=max(0.0, wait)):
                conn = key.data
                data = conn["sock"].recv(1 << 16)
                done = time.perf_counter()
                if not data:
                    self.sel.unregister(conn["sock"])
                    conn["in_flight"].clear()
                    continue
                conn["buf"] += data
                while b"\n" in conn["buf"]:
                    raw, conn["buf"] = conn["buf"].split(b"\n", 1)
                    rec = conn["in_flight"].popleft()
                    rec["done"] = done
                    self.on_reply(conn, rec, raw)
        for conn in self.conns:
            conn["sock"].close()
        self.sel.close()

    def on_reply(self, conn, rec, raw):
        try:
            reply = json.loads(raw)
        except ValueError:
            reply = {}
        ok = reply.get("status") == "Ok"
        result = reply.get("result", {})
        kind = rec["kind"]
        if (not ok and kind in ("health", "bound", "run") and
                SERVE_RATES[rec["rung"]] > SERVE_ONSET and
                reply.get("status") == "Overloaded" and
                reply.get("retry_after_ms", 0) > 0):
            # Above the onset, a structured shed with a retry hint is the
            # admission contract doing its job, not a failure.
            rec["shed"] = True
            ok = True
        elif kind == "bound" and ok:
            # Reply bytes after the echoed id: equal on every hit of a key.
            key = rec["line"].split(",", 1)[1]
            body = raw.split(b",", 1)[1]
            ok = self.bound_bytes.setdefault(key, body) == body
        elif kind == "run" and ok:
            ok = result.get("solves") is True and result.get("admissible") is True
        elif kind == "sweep" and ok:
            rec["sweep"]["ticket"] = result.get("ticket")
            ok = bool(rec["sweep"]["ticket"])
            if ok and not rec["sweep"]["burst"]["polling"]:
                rec["sweep"]["burst"]["polling"] = True
                self.poll(conn, rec["sweep"]["burst"], POLL_S)
        elif kind == "poll" and ok:
            state = result.get("state")
            if state == "done":
                rec["sweep"]["done"] = rec["done"]
                rec["sweep"]["report"] = result.get("report")
                self.poll(conn, rec["sweep"]["burst"], 0.0)
            elif state in ("queued", "running"):
                self.poll(conn, rec["sweep"]["burst"], POLL_S)
            else:
                ok = False
        rec["ok"] = ok
        self.tally.check(ok, f"{kind} reply {raw[:160]!r}")

    def poll(self, conn, burst, delay):
        """One poll chain per burst: the executor runs sweeps in order, so
        polling the earliest unfinished ticket observes each completion."""
        pending = [s for s in burst["sweeps"] if "done" not in s]
        if not pending or "ticket" not in pending[0]:
            burst["polling"] = bool(pending)
            return
        self.push(conn, {"kind": "poll", "rung": -1, "sweep": pending[0],
                         "due": time.perf_counter() + delay,
                         "line": line_of({"id": 0, "op": "poll",
                                          "ticket": pending[0]["ticket"]})})

    def latencies(self, kinds, rung=None):
        """Due-to-reply latencies in ms of the answered (not shed)
        requests of the given kinds."""
        return [(r["done"] - r["due"]) * 1000 for r in self.records
                if r["kind"] in kinds and r.get("ok") and not r.get("shed")
                and (rung is None or r["rung"] == rung)]

    def spans(self, first_id):
        """One serve.request span per answered request, tagged with its op,
        on this process's clock (origin: the start of the traffic)."""
        out = []
        for r in self.records:
            if "done" not in r:
                continue
            start = (r["due"] - self.t0) * 1e6
            end = (r["done"] - self.t0) * 1e6
            out.append({"id": first_id + len(out), "parent": 0,
                        "name": "serve.request", "tag": r["kind"],
                        "thread": -1, "start_us": start, "end_us": end,
                        "self_us": end - start})
        return out


def degradation_report(tally, req):
    c = Child([tool("sesp_cli"), f"--substrate={req['substrate']}",
               f"--model={req['model']}", f"--s={req['s']}", f"--n={req['n']}",
               f"--seed={req['seed']}", f"--jobs={pool_jobs()}",
               "--degradation"])
    tally.check(c.rc == 0, f"sesp_cli --degradation rc={c.rc}")
    # The served report omits sesp_cli's substrate/model/instance header.
    return b"".join(c.stdout.splitlines(keepends=True)[3:]).decode()


def serve_traffic(schedule, tally, journal_dir):
    """Serves the schedule from one sesp_serve child, checks every reply and
    every finished sweep against sesp_cli --degradation, and returns the
    ServeRun, the closing stats reply and the server's (exit code, peak RSS
    MB, CPU s)."""
    srv = ServerProcess(journal_dir)
    try:
        t0 = time.perf_counter() + 0.05
        run = ServeRun(srv.port, tally, schedule, t0)
        run.run(t0 + schedule[-1][0] + 60)
        stats = json.loads(srv.request(b'{"id":1,"op":"stats"}'))["result"]
    finally:
        usage = srv.stop()
    tally.check(usage[0] == 0, f"server exit {usage[0]}")
    for r in run.records:
        if "ok" not in r:
            tally.check(False, f"no reply to {r['line'][:120]}")
    for sweep in run.sweeps:
        same = sweep.get("report") == degradation_report(tally, sweep["req"])
        tally.check(same, f"sweep report {sweep['req']}")
    return run, stats, usage


def serve_layer_metrics(run, stats, m):
    """The serve.* figures of one served run (per-layer metrics of the
    traced run, printed beside the end-to-end ones untraced)."""
    for kind in ("health", "bound", "run"):
        ms = run.latencies((kind,))
        m.put(f"serve.{kind}_p50_ms", quantile(ms, 0.5), "ms", len(ms))
    heavy = run.latencies(("run",))
    m.put("serve.run_p99_ms", quantile(heavy, 0.99), "ms", len(heavy))
    sweep_ms = [(s["done"] - s["due"]) * 1000 for s in run.sweeps
                if "done" in s]
    m.put("serve.sweep_p50_ms", quantile(sweep_ms, 0.5), "ms", len(sweep_ms))
    m.put("loadgen.lag_p99_ms", quantile([x * 1000 for x in run.lag], 0.99),
          "ms", len(run.lag))
    cache, counters = stats["cache"], stats["counters"]
    m.put("serve.cache_hit_ratio",
          cache["hits"] / max(1, cache["hits"] + cache["misses"]), "ratio",
          cache["hits"] + cache["misses"])
    m.put("serve.overloaded", counters["overloaded"], "count", 1)
    m.put("serve.timeouts", counters["timeout"], "count", 1)


def workload_serve(seed, seconds, tally, m):
    rng = random.Random(seed)
    work = os.path.join(OUT, "serve")
    setup = []

    def spawn_to_health(count):
        for k in range(count):
            srv = ServerProcess(os.path.join(work, f"setup{len(setup)}"))
            try:
                reply = srv.request(b'{"id":1,"op":"health"}')
                setup.append(time.perf_counter() - srv.t0)
            finally:
                rc = srv.stop()[0]
            tally.check(b'"status":"Ok"' in reply, f"health {reply[:80]!r}")
            tally.check(rc == 0, f"setup server exit {rc}")

    spawn_to_health(SERVE_SETUP_BATCH)
    schedule = serve_schedule(rng, seconds, SERVE_RATES)
    run, stats, (_, rss, cpu) = serve_traffic(schedule, tally,
                                              os.path.join(work, "main"))
    spawn_to_health(SERVE_SETUP_BATCH)

    bursts = {}
    for sweep in run.sweeps:
        if "done" in sweep:
            bursts[sweep["due"]] = max(bursts.get(sweep["due"], 0.0),
                                       sweep["done"] - sweep["due"])
    walls = list(bursts.values())
    sweep_runs = 9 * len(SWEEP_BURST)   # 3 crash counts x 3 fault rates each
    heavy = run.latencies(("run",))
    # Gated: runs on the rungs the server admits in full. The top rung
    # measures admission; its latencies are printed with the tails.
    admitted = [x for rung, rate in enumerate(SERVE_RATES)
                if rate < SERVE_ONSET for x in run.latencies(("run",), rung)]
    m.put("setup_s", statistics.median(setup), "s", len(setup))
    m.put("wall_s", statistics.median(walls), "s", len(walls))
    m.put("cpu_s", cpu, "s", 1)
    m.put("runs_per_s", statistics.median(sweep_runs / w for w in walls),
          "1/s", len(walls))
    m.put("peak_rss_mb", rss, "MB", 1)
    m.put("p50_ms", statistics.median(admitted), "ms", len(admitted))
    m.put("p90_ms", quantile(heavy, 0.9), "ms", len(heavy))
    m.put("p99_ms.heavy", quantile(heavy, 0.99), "ms", len(heavy))
    for rate in SERVE_REPORT_RATES:
        rung = SERVE_RATES.index(rate)
        light = run.latencies(("health", "bound"), rung)
        rung_heavy = run.latencies(("run",), rung)
        m.put(f"p50_ms.light@{rate}", quantile(light, 0.5), "ms", len(light))
        m.put(f"p99_ms.light@{rate}", quantile(light, 0.99), "ms", len(light))
        m.put(f"p99_ms.heavy@{rate}", quantile(rung_heavy, 0.99), "ms",
              len(rung_heavy))
    # The highest rung whose p99 meets the limit with every request answered
    # (a shed request misses the limit) and no growing backlog.
    max_qps = 0
    for rung, rate in enumerate(SERVE_RATES):
        recs = [r for r in run.records if r["rung"] == rung and
                r["kind"] in ("health", "bound", "run")]
        ms = run.latencies(("health", "bound", "run"), rung)
        third = max(1, len(ms) // 3)
        growing = (len(ms) < len(recs) or statistics.median(ms[-third:]) >
                   2 * statistics.median(ms[:third]) + 1.0)
        if not growing and quantile(ms, 0.99) <= SERVE_P99_LIMIT_MS:
            max_qps = rate
    m.put("max_qps", max_qps, "1/s", len(SERVE_RATES))
    serve_layer_metrics(run, stats, m)
    m.put("sweep_done_p50_ms", *m.values["serve.sweep_p50_ms"])
    for kind in ("health", "bound", "run", "sweep", "poll"):
        m.put(f"mix.{kind}", sum(r["kind"] == kind for r in run.records),
              "count", 1)


# --- Traced run ----------------------------------------------------------------

def write_plan(workload, seed, seconds, path):
    """Writes the layer tour's inputs, the workload's own at full size and a
    small probe of the other workloads' from the same seed, and returns the
    served schedule."""
    rng = random.Random(seed)
    lines = []
    if workload == "table1_worst":
        cells = table1_cells(rng)
    else:
        cells = [(sub, mo, 12, rng.choice(TABLE1_SEED_POOL))
                 for mo in MODELS for sub in SUBSTRATES]
    for sub, model, size, cseed in cells:
        lines.append(f"cell {sub} {model} {size} {size} {cseed}")
    cases = CAMPAIGN_CASES if workload == "campaign_journal" else 50
    lines.append(f"campaign {cases} {seed}")
    if workload == "serve_mixed":
        schedule = serve_schedule(rng, seconds, SERVE_RATES)
    else:
        schedule = serve_schedule(rng, 6, SERVE_RATES[:1])
    for *_, req in schedule:
        lines.append(f"request {line_of(req)}")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
    return schedule


def traced_run(workload, seed, seconds, tally, m):
    """The in-process layer tour, then the served traffic against the real
    sesp_serve; both write their spans to one file."""
    work = os.path.join(OUT, "layers")
    reset_dir(work)
    plan = os.path.join(work, "plan.txt")
    schedule = write_plan(workload, seed, seconds, plan)
    spans = os.path.join(OUT, f"spans-{workload}-{seed}.jsonl")
    c = Child([tool("sesp_layers"), f"--plan={plan}", f"--work-dir={work}",
               f"--spans={spans}", f"--jobs={pool_jobs()}"])
    check_line = None
    for line in c.stdout.decode().splitlines():
        parts = line.split()
        if parts and parts[0] == "metric":
            m.put(parts[1], float(parts[2]), parts[3], 1)
        elif parts and parts[0] == "check":
            check_line = parts
    if check_line is None:
        tally.check(False, f"sesp_layers rc={c.rc}: {c.stderr[-300:]!r}")
        return
    tally.add(int(check_line[1]), int(check_line[2]), " ".join(check_line[3:]))
    tally.check(c.rc == 0, f"sesp_layers rc={c.rc}")

    run, stats, _ = serve_traffic(schedule, tally, os.path.join(work, "serve"))
    serve_layer_metrics(run, stats, m)
    with open(spans) as f:
        first = 1 + max((json.loads(line)["id"] for line in f), default=0)
    with open(spans, "a") as f:
        for span in run.spans(first):
            f.write(json.dumps(span) + "\n")
    log(f"perfbench: spans written to {os.path.relpath(spans, ROOT)}")


# --- Command line ------------------------------------------------------------

WORKLOADS = {
    "table1_worst": workload_table1,
    "campaign_journal": workload_campaign,
    "serve_mixed": workload_serve,
}


def reset_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(args):
    build()
    tally, m = Tally(), Metrics()
    cond = conditions(args.workload, args.seed, args.seconds, args.trace)
    print("conditions " + json.dumps(cond, sort_keys=True))
    try:
        if args.trace:
            traced_run(args.workload, args.seed, args.seconds, tally, m)
        else:
            WORKLOADS[args.workload](args.seed, args.seconds, tally, m)
    except Exception as e:   # a broken program fails the check, not the run
        tally.check(False, f"{args.workload} stopped: {e!r}")
    bench = load_benchmark()
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    m.put("failed_frac", tally.failed / max(1, tally.attempted), "ratio",
          tally.attempted)
    for name, (value, unit, n) in sorted(m.values.items()):
        print(f"metric {name} = {value:.6g} {unit} (n={n})")
    if tally.failed:
        print(f"first failure: {tally.first}")
    with open(os.path.join(OUT, "results.jsonl"), "a") as f:
        f.write(json.dumps({"conditions": cond, "attempted": tally.attempted,
                            "failed": tally.failed,
                            "metrics": {k: {"value": v[0], "unit": v[1],
                                            "n": v[2]}
                                        for k, v in m.values.items()}})
                + "\n")
    # A figure without samples (nan) is missing: the JSON line stays valid.
    got = {w["name"] for w in wanted if w["name"] in m.values and
           math.isfinite(m.values[w["name"]][0])}
    missing = [w["name"] for w in wanted if w["name"] not in got]
    result = {
        "correct": tally.failed == 0 and not missing,
        "attempted": max(1, tally.attempted),
        "failed": tally.failed,
        "metrics": {w["name"]: {"value": m.values[w["name"]][0],
                                "unit": w["unit"]}
                    for w in wanted if w["name"] in got},
    }
    if missing:
        log(f"perfbench: metrics not produced: {missing}")
    print(json.dumps(result))
    return 0


def repeat(args):
    """Runs the workload K times and prints each metric's spread."""
    build()
    bench = load_benchmark()
    metrics = bench["per_layer"] if args.trace else bench["end_to_end"]
    values = {w["name"]: [] for w in metrics}
    failed = 0
    for k in range(args.repeat):
        seed = args.seed + k
        t0 = time.perf_counter()
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT)
        try:
            result = json.loads(out.stdout.strip().splitlines()[-1])
        except (ValueError, IndexError):
            print(f"seed {seed}: no result (exit {out.returncode})")
            failed += 1
            continue
        failed += 0 if result["correct"] else 1
        for name, v in result["metrics"].items():
            values[name].append(v["value"])
        print(f"seed {seed} ({time.perf_counter() - t0:.0f} s): "
              f"correct={result['correct']} " + " ".join(
                  f"{n}={v['value']:.5g}"
                  for n, v in result["metrics"].items()), flush=True)
    ok = failed == 0
    print(f"{'metric':<28}{'median':>12}{'q1':>12}{'q3':>12}"
          f"{'spread':>9}{'bound':>8}")
    for w in metrics:
        vals = values[w["name"]]
        if len(vals) < 2:
            continue
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = w.get("bound")
        flag = ""
        if bound is not None:
            if spread > bound:
                flag, ok = "  OVER BOUND", False
            elif spread > bound / 3:
                flag = "  above bound/3"
        print(f"{w['name']:<28}{med:>12.5g}{q1:>12.5g}{q3:>12.5g}"
              f"{spread:>9.3f}{'' if bound is None else bound:>8}{flag}")
    return 0 if ok else 1


def record_digests():
    """Writes the sha256 of every table1_worst report the seed pool can
    produce; run once on the commit whose output is the reference."""
    build()
    tally = Tally()
    digests = {}
    jobs = CHILD_JOBS
    for seed in TABLE1_SEED_POOL:
        for size in TABLE1_SIZES:
            for model in MODELS:
                for sub in SUBSTRATES:
                    cell = (sub, model, size, seed)
                    c = Child(table1_args(cell, jobs))
                    if tally.check(c.rc == 0 and b"all solved:  yes" in
                                   c.stdout, digest_key(cell)):
                        digests[digest_key(cell)] = hashlib.sha256(
                            c.stdout).hexdigest()
    if tally.failed:
        log(f"perfbench: {tally.failed} reports failed: {tally.first}")
        return 1
    with open(DIGESTS, "w") as f:
        json.dump({"source": "sesp_cli --adversary=worst reports",
                   "digests": digests}, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1,
                    help=f"workload seed; {HELD_OUT_SEED} is held out from "
                         "tuning")
    ap.add_argument("--seconds", type=int, default=45)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=0)
    ap.add_argument("--record-digests", action="store_true")
    args = ap.parse_args()
    if args.record_digests:
        return record_digests()
    if not args.workload:
        ap.error("--workload is required")
    if args.repeat:
        return repeat(args)
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
