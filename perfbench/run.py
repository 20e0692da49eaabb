#!/usr/bin/env python3
"""popk benchmark runner.

Run from the root of a popk checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

It builds the report binaries and the layer probe from source (into
$CARGO_TARGET_DIR, default .bench_build), runs the workload through the
paths users invoke (the figure binaries, the `serve` daemon and a
client), checks every output, and prints one JSON object as the last
line of stdout:

    {"correct": true, "attempted": N, "failed": F, "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 they
are the per-layer ones (see perfbench/README.md). Every run works in a
fresh directory under .bench_work/ (removed afterwards) and writes its
full record, with provenance and spans, under .bench_runs/.

    python3 perfbench/run.py --smoke     # self-test of every workload

The committed BENCH_*.json host blocks are stale: only their bodies are
used, as correctness references, never their timings.
"""

import argparse
import bisect
import hashlib
import itertools
import json
import os
import random
import re
import selectors
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
NPROC = os.cpu_count() or 1

SWEEP_BUDGET = 200_000  # the budget the committed BENCH_*.json bodies use
# A fig11 sweep takes 6.5-11 s on 2 vCPUs; three give a median that one
# slow sweep cannot move.
MIN_ROUNDS = 3

PISA_WORKLOADS = ["bzip", "gcc", "go", "gzip", "ijpeg", "li", "mcf", "parser", "twolf",
                  "vortex", "vpr"]
# The serve mix. The repo records no real traffic, so it follows the
# protocol's documented defaults (EXPERIMENTS.md, README "Serving"):
# `slice2` is the default config and stays the most popular, `limit` is
# always the default 200000, `seed` 0 (the default) is the most popular,
# and a share of submits ask for progress `events` as the README's
# example does. The other configs, the seeds 1-3, the Zipf exponent and
# the shares below are assumptions.
SERVE_CONFIGS = ["slice2", "ideal", "simple2", "slice4", "ext2"]
SERVE_LIMITS = [200_000]
SERVE_SEEDS = [0, 1, 2, 3]
ZIPF_S = 1.0
EVENTS_SHARE = 0.25
COMPARE_SHARE = 0.03
LOW_RPS = 4.0
HIGH_RPS = 50.0
P99_LIMIT_MS = 1000.0
REQUEST_TIMEOUT_S = 30.0
SIMCHECK_KEYS = 3
# One session's schedule, replayed by every session of a run.
SERVE_PHASES = [("low", LOW_RPS, 3.5), ("high", HIGH_RPS, 3.5)]

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "minsts_per_cpu_s": "Minst/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "workloads.build_ms": "ms",
    "emu.ns_per_inst": "ns",
    "characterize.ns_per_inst.disambig": "ns",
    "characterize.ns_per_inst.tagmatch": "ns",
    "characterize.ns_per_inst.branch": "ns",
    "core.ns_per_inst.ideal": "ns",
    "core.ns_per_inst.slice2": "ns",
    "core.ns_per_inst.slice4": "ns",
    "core.ns_per_cycle": "ns",
    "core.cycles": "count",
    "core.committed": "count",
    "checkpoint.ns_per_inst": "ns",
    "checkpoint.save_ms": "ms",
    "checkpoint.bytes": "bytes",
    "oracle.ns_per_inst": "ns",
    "rv32.ns_per_inst": "ns",
    "journal.open_ms": "ms",
    "journal.record_us": "us",
    "journal.finish_ms": "ms",
    "journal.bytes": "bytes",
    "pool.busy_ratio": "ratio",
    "pool.tail_s": "s",
    "reports.render_ms": "ms",
    "artifact.write_ms": "ms",
    "cache.lookup_us.hit": "us",
    "cache.lookup_us.miss": "us",
    "cache.store_us": "us",
    "cache.hit_ratio": "ratio",
    "serve.boot_ms": "ms",
    "serve.accept_ms": "ms",
    "serve.result_gap_ms.hit": "ms",
    "serve.miss_ms": "ms",
    "serve.queue_depth_max": "count",
    "serve.attach_ratio": "ratio",
    "serve.sim_ratio": "ratio",
    "serve.rejects": "count",
    "gen.lag_p99_ms": "ms",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    """The benchmark cannot run here (not a checkout, build failed)."""


def now():
    return time.perf_counter()


def pct(values, q):
    """Nearest-rank percentile of `values` (q in 0..100)."""
    v = sorted(values)
    if not v:
        return float("nan")
    k = max(0, min(len(v) - 1, int(-(-q * len(v) // 100)) - 1))
    return v[k]


# ---- spans ---------------------------------------------------------------------


class Spans:
    """In-memory spans (name, start, end, parent, row); written at the end."""

    def __init__(self, enabled):
        self.enabled = enabled
        self.t0 = now()
        self.rows = []
        self.stack = []

    def begin(self, name, row=""):
        if not self.enabled:
            return None
        sid = len(self.rows)
        parent = self.stack[-1] if self.stack else None
        self.rows.append({"id": sid, "name": name, "row": row, "parent": parent,
                          "start": now() - self.t0, "end": None})
        self.stack.append(sid)
        return sid

    def end(self, sid):
        if sid is None:
            return
        self.rows[sid]["end"] = now() - self.t0
        self.stack.remove(sid)

    def add(self, name, row, start, end, parent):
        """Record a span timed elsewhere (absolute perf_counter times)."""
        if not self.enabled:
            return None
        sid = len(self.rows)
        self.rows.append({"id": sid, "name": name, "row": row, "parent": parent,
                          "start": start - self.t0, "end": end - self.t0})
        return sid

    def graft(self, spans, offset, parent):
        """Attach spans recorded by the probe (times relative to `offset`)."""
        if not self.enabled:
            return
        base = len(self.rows)
        for s in spans:
            self.rows.append({"id": base + s["id"], "name": s["name"], "row": s["row"],
                              "parent": parent if s["parent"] is None else base + s["parent"],
                              "start": offset - self.t0 + s["start"],
                              "end": offset - self.t0 + s["end"]})

    def self_times(self):
        """Per span name: count, total and self seconds (self = duration
        minus the union of its children's intervals)."""
        children = {}
        for s in self.rows:
            if s["parent"] is not None:
                children.setdefault(s["parent"], []).append(s)
        out = {}
        for s in self.rows:
            dur = s["end"] - s["start"]
            covered, cur_start, cur_end = 0.0, None, None
            for c in sorted(children.get(s["id"], []), key=lambda c: c["start"]):
                a, b = max(c["start"], s["start"]), min(c["end"], s["end"])
                if b <= a:
                    continue
                if cur_end is None or a > cur_end:
                    if cur_end is not None:
                        covered += cur_end - cur_start
                    cur_start, cur_end = a, b
                else:
                    cur_end = max(cur_end, b)
            if cur_end is not None:
                covered += cur_end - cur_start
            agg = out.setdefault(s["name"], {"count": 0, "total_s": 0.0, "self_s": 0.0})
            agg["count"] += 1
            agg["total_s"] += dur
            agg["self_s"] += dur - covered
        return out


# ---- processes -------------------------------------------------------------------


def run_proc(ctx, argv, cwd, sample_rss=True):
    """Run one binary to completion; returns (exit code, stdout text,
    wall s, cpu s, peak RSS kB). CPU comes from the child's rusage. Its
    ru_maxrss would also count this script's pages, forked before the
    exec, so the peak RSS is the binary's VmHWM, sampled every 10 ms."""
    out_path = os.path.join(cwd, ".stdout")
    err_path = os.path.join(cwd, ".stderr")
    peak, done = [0], threading.Event()

    def sample(pid):
        while not done.wait(0.01):
            try:
                peak[0] = max(peak[0], proc_peak_rss_kb(pid))
            except OSError:
                return

    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t = now()
        p = subprocess.Popen(argv, cwd=cwd, stdout=out, stderr=err)
        sampler = threading.Thread(target=sample, args=(p.pid,))
        if sample_rss:
            sampler.start()
        _, status, ru = os.wait4(p.pid, 0)
        wall = now() - t
        done.set()
        if sample_rss:
            sampler.join()
        p.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8", errors="replace") as f:
        text = f.read()
    if p.returncode != 0:
        with open(err_path, encoding="utf-8", errors="replace") as f:
            ctx.note(f"{os.path.basename(argv[0])} exited {p.returncode}: {f.read()[-300:]}")
    return p.returncode, text, wall, ru.ru_utime + ru.ru_stime, peak[0]


def proc_cpu_s(pid):
    """CPU seconds of a live process, all its threads (dead ones too), in
    ns resolution: the kernel's process CPU-time clock for `pid`."""
    return time.clock_gettime_ns((~pid << 3) | 2) / 1e9


def proc_peak_rss_kb(pid):
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


# ---- context -------------------------------------------------------------------


class Ctx:
    def __init__(self, args):
        self.args = args
        self.root = os.getcwd()
        target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
        self.target = os.path.abspath(target)
        self.bin = os.path.join(self.target, "release")
        self.work = os.path.join(self.root, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
        self.notes = []
        self.dirs = itertools.count()

    def note(self, msg):
        self.notes.append(msg)
        print(f"note: {msg}", file=sys.stderr)

    def fresh_dir(self, label):
        d = os.path.join(self.work, f"{next(self.dirs):03d}-{label}")
        os.makedirs(d)
        return d

    def exe(self, name):
        return os.path.join(self.bin, name)


def check_checkout():
    if not (os.path.isfile("Cargo.toml") and os.path.isdir(os.path.join("crates", "bench"))):
        raise BenchError("run from the root of a popk checkout (Cargo.toml and crates/bench not found)")


def build(ctx):
    env = dict(os.environ, CARGO_TARGET_DIR=ctx.target)
    for cmd in (["cargo", "build", "--release", "--offline", "-q", "-p", "popk-bench", "--bins"],
                ["cargo", "build", "--release", "--offline", "-q", "--manifest-path",
                 os.path.join(HERE, "probe", "Cargo.toml")]):
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            raise BenchError(f"build failed: {' '.join(cmd)}")


def provenance(ctx):
    commit = None
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
        if r.returncode == 0:
            commit = r.stdout.strip()
    except OSError:
        pass
    # A checkout without git history is identified by its sources instead.
    h = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "crates", "src"):
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for p in paths:
            h.update(p.encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return {"commit": commit, "source_sha256": h.hexdigest()[:16], "nproc": NPROC,
            "threads": NPROC, "seed": ctx.args.seed, "seconds": ctx.args.seconds,
            "trace": ctx.args.trace, "sweep_budget": SWEEP_BUDGET}


# ---- correctness references -----------------------------------------------------


HOST_BLOCK = re.compile(r',\n  "host": \{[^{}]*\}')


def artifact_body(text):
    """An artifact's text minus its volatile `host` block."""
    return HOST_BLOCK.sub("", text)


def corrupt(text):
    """Flip one digit: the deliberately wrong reference of the self-test."""
    i = next(i for i, c in enumerate(text) if c.isdigit())
    return text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:]


def expected_artifact(ctx, figure):
    with open(os.path.join(ctx.root, f"BENCH_{figure}.json"), encoding="utf-8") as f:
        body = artifact_body(f.read())
    return corrupt(body) if ctx.args.corrupt_expected else body


# ---- sweep workloads --------------------------------------------------------------


def rounds(one_round, spans, seconds, min_rounds):
    """Run whole rounds until the next would overrun `seconds` (at least
    `min_rounds`)."""
    out, t0 = [], now()
    while True:
        sid = spans.begin("round", str(len(out)))
        out.append(one_round(spans))
        spans.end(sid)
        elapsed = now() - t0
        if len(out) >= min_rounds and elapsed + elapsed / len(out) > seconds:
            return out


def summarize_rounds(rs):
    """Medians over the run's rounds."""
    return {
        "wall_s": statistics.median(r["wall"] for r in rs),
        "cpu_s": statistics.median(r["cpu"] for r in rs),
        "minsts_per_cpu_s": statistics.median(r["insts"] / r["cpu"] / 1e6 for r in rs),
        "peak_rss_mb": statistics.median(r["rss_kb"] for r in rs) / 1024.0,
        "attempted": sum(r["attempted"] for r in rs),
        "failed": sum(r["failed"] for r in rs),
        "rounds": [{k: r[k] for k in ("wall", "cpu", "insts")} for r in rs],
    }


def artifact_round(ctx, figure, expected, spans):
    """One `figure` sweep at the committed budget; its artifact body must
    equal the committed one. Every row fails on a mismatch."""
    d = ctx.fresh_dir(figure)
    sid = spans.begin(f"proc.{figure}")
    code, _, wall, cpu, rss = run_proc(
        ctx, [ctx.exe(figure), str(SWEEP_BUDGET), "--json"], d)
    spans.end(sid)
    sid = spans.begin(f"check.{figure}")
    jobs, insts, ok = 1, 0, False
    try:
        with open(os.path.join(d, f"BENCH_{figure}.json"), encoding="utf-8") as f:
            text = f.read()
        host = json.loads(text)["host"]
        jobs, insts = host["jobs"], host["simulated_instructions"]
        ok = code == 0 and artifact_body(text) == expected
        if not ok:
            ctx.note(f"{figure} artifact body differs from the committed BENCH_{figure}.json")
    except (OSError, ValueError, KeyError) as e:
        ctx.note(f"{figure} artifact unreadable: {e}")
    spans.end(sid)
    return {"wall": wall, "cpu": cpu, "insts": max(insts, 1), "rss_kb": rss,
            "attempted": jobs, "failed": 0 if ok else jobs}


# Set-up: the binary at a one-instruction budget in a fresh directory —
# process start, program build, journal open and the fixed per-row cost.
# One takes 30-70 ms, so the host's speed of the moment sets it, and that
# can halve or double within seconds. So SETUP_REPS of them run before
# every sweep, and `setup_s` is their median over the whole run.
SETUP_REPS = 7


def sweep_setup(ctx, spans):
    """SETUP_REPS set-up runs; returns (wall s, exit code) of each."""
    sid = spans.begin("setup")
    out = []
    for _ in range(SETUP_REPS):
        code, _, wall, _, _ = run_proc(ctx, [ctx.exe("fig11"), "1"], ctx.fresh_dir("setup"),
                                       sample_rss=False)
        out.append((wall, code))
    spans.end(sid)
    return out


def sweep_phase(ctx, spans, seconds, min_rounds):
    exp = expected_artifact(ctx, "fig11")
    setups = []

    def one_round(sp):
        setups.extend(sweep_setup(ctx, sp))
        return artifact_round(ctx, "fig11", exp, sp)

    p = summarize_rounds(rounds(one_round, spans, seconds, min_rounds))
    p["setup_s"] = statistics.median(wall for wall, _ in setups)
    p["attempted"] += len(setups)
    p["failed"] += sum(code != 0 for _, code in setups)
    return p


# ---- serve workload -------------------------------------------------------------


def serve_keys(rng):
    """All keys in popularity order: the workload cycles fastest, then
    the config, the limit and the `seed` field. The defaults come first
    (every workload at `slice2`, seed 0), and the seed permutes the
    workloads and the other configs. The most popular ranks always cover
    all workloads, so the cost of the keys a run simulates does not
    hinge on the seed."""
    cfgs = SERVE_CONFIGS[:1] + rng.sample(SERVE_CONFIGS[1:], len(SERVE_CONFIGS) - 1)
    wls = rng.sample(PISA_WORKLOADS, len(PISA_WORKLOADS))
    nw, nc, nl = len(wls), len(cfgs), len(SERVE_LIMITS)
    return [(wls[r % nw], cfgs[r // nw % nc], SERVE_LIMITS[r // (nw * nc) % nl],
             SERVE_SEEDS[r // (nw * nc * nl)])
            for r in range(nw * nc * nl * len(SERVE_SEEDS))]


def schedule(seed, phases):
    """Open-loop schedule from the seed: Poisson arrivals per phase, Zipf
    key popularity, a share of submits with progress events and a small
    share of compare ops. Each phase gets exactly rate x duration
    arrivals at uniformly drawn times (a Poisson process given its
    count), so the amount of work does not vary with the seed."""
    rng = random.Random(seed)
    keys = serve_keys(rng)
    cum = list(itertools.accumulate(1.0 / (r + 1) ** ZIPF_S for r in range(len(keys))))
    events, start = [], 0.0
    for phase, rate, dur in phases:
        n = round(rate * dur)
        # Stratified Zipf draws: one uniform per 1/n slice of the
        # popularity CDF, in seeded order, so the number of distinct keys
        # barely varies with the seed.
        u = [(i + rng.random()) / n for i in range(n)]
        rng.shuffle(u)
        for t, ui in zip(sorted(start + rng.random() * dur for _ in range(n)), u):
            op = "compare" if rng.random() < COMPARE_SHARE else "submit"
            key = keys[bisect.bisect_left(cum, ui * cum[-1])]
            events.append({"due": t, "phase": phase, "op": op, "key": key,
                           "events": rng.random() < EVENTS_SHARE})
        start += dur
    return events


def spec(key):
    w, c, lim, s = key
    return {"workload": w, "config": c, "limit": lim, "seed": s}


class Daemon:
    """A fresh `serve` daemon on an empty cache directory."""

    def __init__(self, ctx):
        self.cache = ctx.fresh_dir("serve-cache")
        self.log = open(self.cache + ".log", "wb")
        t = now()
        self.proc = subprocess.Popen(
            [ctx.exe("serve"), "--addr", "127.0.0.1:0", "--workers", str(NPROC),
             "--cache", self.cache], stdout=subprocess.PIPE, stderr=self.log)
        line = self.proc.stdout.readline().decode()
        m = re.match(r"listening on (\S+):(\d+)", line)
        if not m:
            self.stop()
            raise BenchError(f"serve did not start: {line!r}")
        self.addr = (m.group(1), int(m.group(2)))
        # The daemon's accept loop polls every 50 ms. A client dialling
        # within a millisecond of the banner races the loop's first poll
        # (a few ms or ~50 ms, at random); dialling 5 ms after it always
        # waits for the next poll, so the boot time is steady.
        time.sleep(0.005)
        with socket.create_connection(self.addr) as sock:
            sock.sendall(b'{"op":"ping"}\n')
            reply = sock.makefile("rb").readline()
        self.boot_s = now() - t
        if b'"pong"' not in reply:
            self.stop()
            raise BenchError(f"serve did not answer ping: {reply!r}")

    def stop(self):
        if self.proc.poll() is None:
            try:
                with socket.create_connection(self.addr, timeout=5) as s:
                    s.sendall(b'{"op":"shutdown"}\n')
                    s.makefile("rb").readline()
            except (OSError, AttributeError):
                self.proc.kill()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


def drive(ctx, daemon, events, spans):
    """Send `events` open loop over NPROC connections from one thread;
    time each request from its due time. Returns the final `stats` reply
    and the queue depths sampled while tracing."""
    socks = [socket.create_connection(daemon.addr) for _ in range(NPROC)]
    sel = selectors.DefaultSelector()
    for i, s in enumerate(socks):
        sel.register(s, selectors.EVENT_READ, i)
    bufs = [b""] * len(socks)
    by_tag = {}
    completed_keys = []
    compare_rng = random.Random(ctx.args.seed ^ 0x5EED)
    depths, stats = [], {}
    pending_stats = set()
    t0 = now() + 0.05
    for e in events:
        e["due_abs"] = t0 + e["due"]
    nxt, outstanding = 0, 0
    next_poll = t0
    deadline = t0 + (events[-1]["due"] if events else 0) + REQUEST_TIMEOUT_S

    def send(sock, obj):
        sock.sendall((json.dumps(obj, separators=(",", ":")) + "\n").encode())

    def handle(line, t):
        nonlocal outstanding
        msg = json.loads(line)
        tag = msg.get("tag", "")
        if tag.startswith("s"):
            pending_stats.discard(tag)
            if msg.get("type") == "stats":
                # The daemon's queue_depth gauge can wrap below zero for a
                # moment (a worker may dequeue a job before the submitter
                # counts it); such a reading is recorded as 0.
                depth = msg["queue_depth"]
                depths.append(depth if depth < 1 << 62 else 0)
                stats.update(msg)
            return
        e = by_tag.get(tag)
        if e is None or "done" in e:
            return
        kind = msg.get("type")
        if kind == "accepted":
            e["acc"] = t
            return
        if kind == "progress":
            e.setdefault("progress", []).append(msg.get("committed"))
            return
        e["done"] = t
        outstanding -= 1
        if kind == "result":
            e["cached"] = msg.get("cached", False)
            e["raw"] = line[line.index('"artifact":') + len('"artifact":'):-1]
            completed_keys.append(e["key"])
        elif kind == "compare":
            e["reply"] = msg
        else:
            e["error"] = msg.get("kind", kind)

    def pump(timeout):
        for key, _ in sel.select(timeout=max(0.0, timeout)):
            i = key.data
            data = socks[i].recv(1 << 16)
            t = now()
            if not data:
                raise BenchError("serve closed a client connection")
            bufs[i] += data
            *lines, bufs[i] = bufs[i].split(b"\n")
            for line in lines:
                if line.strip():
                    handle(line.decode(), t)

    poll_n = 0
    try:
        while True:
            t = now()
            while nxt < len(events) and events[nxt]["due_abs"] <= t:
                e = events[nxt]
                tag = f"r{nxt}"
                req = dict(spec(e["key"]), op="submit", tag=tag)
                if e["op"] == "compare" and len(completed_keys) >= 2:
                    e["pair"] = compare_rng.sample(completed_keys, 2)
                    req = {"op": "compare", "tag": tag, "a": spec(e["pair"][0]),
                           "b": spec(e["pair"][1])}
                else:
                    e["op"] = "submit"
                    if e["events"]:
                        req["events"] = True
                e["sent"] = now()
                by_tag[tag] = e
                outstanding += 1
                send(socks[nxt % len(socks)], req)
                nxt += 1
                t = now()
            if spans.enabled and t >= next_poll and nxt < len(events):
                tag = f"s{poll_n}"
                poll_n += 1
                pending_stats.add(tag)
                send(socks[0], {"op": "stats", "tag": tag})
                next_poll = t + 0.1
            if nxt >= len(events) and outstanding == 0:
                break
            if t > deadline:
                break
            wait = events[nxt]["due_abs"] - t if nxt < len(events) else 0.05
            if spans.enabled and nxt < len(events):
                wait = min(wait, next_poll - t)
            pump(wait)
        tag = "sfinal"
        pending_stats.add(tag)
        send(socks[0], {"op": "stats", "tag": tag})
        while tag in pending_stats and now() < deadline + 5:
            pump(0.05)
    finally:
        for s in socks:
            s.close()
    for i, e in enumerate(events):
        if "done" not in e:
            e["error"] = "timeout"
        if spans.enabled and "sent" in e:
            end = e.get("done", now())
            rid = spans.add("serve.request", f"r{i}", e["sent"], end, spans.stack[-1] if spans.stack else None)
            if "acc" in e:
                spans.add("serve.accept", f"r{i}", e["sent"], e["acc"], rid)
                if "done" in e:
                    spans.add("serve.result", f"r{i}", e["acc"], e["done"], rid)
    return t0, stats, depths


def serve_setup(ctx, spans, n=9):
    """Boot-to-first-pong of `n` fresh daemons, each stopped again."""
    times = []
    for i in range(n):
        sid = spans.begin("serve.boot", str(i))
        d = Daemon(ctx)
        spans.end(sid)
        times.append(d.boot_s)
        d.stop()
    return times


def serve_session(ctx, phases, spans):
    """Drive a fresh daemon on an empty cache with the seeded schedule and
    check every answer."""
    sid = spans.begin("serve.boot", "session")
    daemon = Daemon(ctx)
    spans.end(sid)
    events = schedule(ctx.args.seed, phases)
    try:
        cpu0 = proc_cpu_s(daemon.proc.pid)
        sid = spans.begin("serve.traffic")
        t0, stats, depths = drive(ctx, daemon, events, spans)
        spans.end(sid)
        cpu = proc_cpu_s(daemon.proc.pid) - cpu0
        rss_kb = proc_peak_rss_kb(daemon.proc.pid)
    finally:
        daemon.stop()
    end = max((e["done"] for e in events if "done" in e), default=t0)

    sid = spans.begin("check.serve")
    failed = sum(1 for e in events if "error" in e)
    reference = {}
    for e in events:  # the first non-cached answer of each key is the reference
        if e["op"] == "submit" and "raw" in e and not e["cached"] and e["key"] not in reference:
            reference[e["key"]] = e["raw"]
    for e in events:
        if e["op"] == "submit" and "raw" in e and e["raw"] != reference.get(e["key"]):
            e["error"] = "body-mismatch"
        elif e["op"] == "compare" and "reply" in e and not compare_ok(e, reference):
            e["error"] = "compare-mismatch"
        elif not progress_ok(e):
            e["error"] = "progress-mismatch"
        else:
            continue
        ctx.note(f"serve answer {e['error']} for {e['key']}")
        failed += 1
    sample = random.Random(ctx.args.seed).sample(sorted(reference), min(SIMCHECK_KEYS, len(reference)))
    if sample:
        argv = [ctx.exe("popk-probe"), "simcheck"]
        for w, c, lim, seed in sample:
            argv += [w, c, str(seed), str(lim)]
        r = subprocess.run(argv, capture_output=True, text=True, timeout=120)
        lines = r.stdout.splitlines()
        for i, k in enumerate(sample):
            want = lines[i] if i < len(lines) else "null"
            if ctx.args.corrupt_expected:
                want = corrupt(want)
            if json.loads(want) != json.loads(reference[k]):
                ctx.note(f"serve answer for {k} differs from an in-process try_simulate")
                failed += 1
    spans.end(sid)
    return {"events": events, "stats": stats, "depths": depths, "boot_s": daemon.boot_s,
            "wall_s": end - t0, "cpu_s": cpu, "rss_kb": rss_kb,
            "attempted": len(events) + len(sample), "failed": failed}


def compare_ok(e, reference):
    """A `compare` reply must match what the two sides' reference bodies
    give: their keys, IPCs, IPC ratio and differing counters in order."""
    raw = [reference.get(k) for k in e["pair"]]
    if None in raw:
        return False
    reply = e["reply"]
    a, b = (json.loads(r) for r in raw)
    differing = [{"counter": name, "a": va, "b": b["stats"].get(name)}
                 for name, va in a["stats"].items() if b["stats"].get(name) != va]
    ratio = a["ipc"] / b["ipc"] if b["ipc"] > 0 else 0.0
    keys_ok = all(reply[side][f] == v for side, k in zip("ab", e["pair"])
                  for f, v in spec(k).items())
    return (keys_ok and reply["ipc_a"] == a["ipc"] and reply["ipc_b"] == b["ipc"]
            and abs(reply["ipc_ratio"] - ratio) <= 1e-12 * max(1.0, ratio)
            and reply["differing_counters"] == differing)


def progress_ok(e):
    """Progress events, where asked for, count committed instructions up
    and stay within the job's limit."""
    seen = e.get("progress", [])
    return (e["events"] or not seen) and all(
        isinstance(c, int) and 0 < c <= e["key"][2] for c in seen) and seen == sorted(set(seen))


def serve_layers(sessions, phases):
    """Service-layer metrics and job latencies pooled over sessions."""
    events = [e for s in sessions for e in s["events"]]
    total = {k: sum(s["stats"].get(k, 0) for s in sessions)
             for k in ("submitted", "cache_hits", "attached", "simulations")}
    submitted = max(total["submitted"], 1)
    submits = [e for e in events if e["op"] == "submit" and "error" not in e]
    hits = [e for e in submits if e["cached"]]
    misses = []
    for s in sessions:
        first = {}
        for e in s["events"]:
            if e["op"] == "submit" and "error" not in e:
                first.setdefault(e["key"], e)
        misses += [e for e in first.values() if not e["cached"]]
    # A request's own path (no queueing behind others) shows in the
    # light-traffic phase; under load `accepted` and `result` of a hit
    # often share one TCP segment and their gap reads 0.
    light = phases[0][0]
    lag = [(e["sent"] - e["due_abs"]) * 1e3 for e in events if "sent" in e]

    def med(values):
        values = list(values)
        return statistics.median(values) if values else 0.0

    layers = {
        "serve.accept_ms": med((e["acc"] - e["sent"]) * 1e3 for e in submits
                               if "acc" in e and e["phase"] == light),
        "serve.result_gap_ms.hit": med((e["done"] - e["acc"]) * 1e3 for e in hits
                                       if e["phase"] == light),
        "serve.miss_ms": med((e["done"] - e["acc"]) * 1e3 for e in misses if e["phase"] == light),
        "serve.queue_depth_max": max((d for s in sessions for d in s["depths"]), default=0),
        "serve.attach_ratio": total["attached"] / submitted,
        "serve.sim_ratio": total["simulations"] / submitted,
        "serve.rejects": sum(1 for e in events if e.get("error") == "backpressure"),
        "cache.hit_ratio": total["cache_hits"] / submitted,
        "gen.lag_p99_ms": pct(lag, 99),
    }
    latency = {}
    for phase, rate, _ in phases:
        lat = [(e["done"] - e["due_abs"]) * 1e3 for e in events
               if e["phase"] == phase and e["op"] == "submit" and "done" in e]
        missed = sum(1 for e in events if e["phase"] == phase and "error" in e)
        p99 = pct(lat, 99) if not missed else float("inf")
        latency[phase] = {"rate_rps": rate, "samples": len(lat), "failed": missed,
                          "p50_ms": pct(lat, 50), "p99_ms": p99, "meets_limit": p99 <= P99_LIMIT_MS}
    hit_lat = [(e["done"] - e["due_abs"]) * 1e3 for e in hits]
    latency["hits"] = {"samples": len(hit_lat), "p50_ms": pct(hit_lat, 50), "p99_ms": pct(hit_lat, 99)}
    latency["max_rate_rps"] = max((v["rate_rps"] for v in latency.values()
                                   if v.get("meets_limit")), default=0.0)
    return layers, latency, total


# ---- one run --------------------------------------------------------------------


def end_to_end(ctx, spans, seconds, min_rounds=MIN_ROUNDS):
    """The workload's set-up and a timed phase of about `seconds`; returns
    (metrics, attempted, failed, extra)."""
    if ctx.args.workload == "serve-open":
        sid = spans.begin("setup")
        boots = serve_setup(ctx, spans)
        spans.end(sid)
        sessions = rounds(lambda sp: serve_session(ctx, SERVE_PHASES, sp), spans, seconds,
                          min_rounds)
        layers, latency, total = serve_layers(sessions, SERVE_PHASES)
        layers["serve.boot_ms"] = statistics.median(boots) * 1e3
        # Every session replays the same schedule on an empty cache, so
        # each is one repetition of the same work: report medians.
        m = {"wall_s": statistics.median(s["wall_s"] for s in sessions),
             "cpu_s": statistics.median(s["cpu_s"] for s in sessions),
             "minsts_per_cpu_s": statistics.median(
                 s["stats"].get("meter_instructions", 0) / max(s["cpu_s"], 1e-9) / 1e6
                 for s in sessions),
             "setup_s": statistics.median(boots),
             "peak_rss_mb": statistics.median(s["rss_kb"] for s in sessions) / 1024.0}
        extra = {"latency": latency, "stats": total, "layers": layers, "sessions": [
            {k: s[k] for k in ("wall_s", "cpu_s", "rss_kb", "boot_s")} for s in sessions]}
        return (m, sum(s["attempted"] for s in sessions) + len(boots),
                sum(s["failed"] for s in sessions), extra)
    p = sweep_phase(ctx, spans, seconds, min_rounds)
    return {k: p[k] for k in END_TO_END}, p["attempted"], p["failed"], {"rounds": p["rounds"]}


def probe_ledger(ctx, spans):
    d = ctx.fresh_dir("probe")
    spans_path = os.path.join(d, "spans.json")
    sid = spans.begin("probe.ledger")
    t = now()
    r = subprocess.run([ctx.exe("popk-probe"), "ledger", os.path.join(d, "work"), spans_path],
                       capture_output=True, text=True, timeout=170)
    spans.end(sid)
    if r.returncode != 0:
        ctx.note(f"probe ledger failed: {r.stderr[-300:]}")
        return {}, 1
    with open(spans_path, encoding="utf-8") as f:
        spans.graft(json.load(f), t, sid)
    return json.loads(r.stdout.splitlines()[-1]), 0


def per_layer(ctx, spans):
    """Traced run: the timed phase untraced and traced, each for half of
    --seconds and at least one round (their wall-clock difference is the
    tracing overhead), the probe's layer ledger and, on `fig11-sweep`, a
    short serve session for the service layers."""
    half = ctx.args.seconds / 2
    base, att0, fail0, _ = end_to_end(ctx, Spans(False), half, 1)
    sid = spans.begin("phase", ctx.args.workload)
    traced, att1, fail1, extra = end_to_end(ctx, spans, half, 1)
    spans.end(sid)
    layers, probe_failed = probe_ledger(ctx, spans)
    attempted, failed = att0 + att1 + 1, fail0 + fail1 + probe_failed
    if ctx.args.workload == "serve-open":
        layers.update(extra["layers"])
    else:
        phases = [("low", LOW_RPS, 5.0)]
        boots = serve_setup(ctx, spans)
        sid = spans.begin("serve.session", "ledger")
        s = serve_session(ctx, phases, spans)
        spans.end(sid)
        layers.update(serve_layers([s], phases)[0])
        layers["serve.boot_ms"] = statistics.median(boots) * 1e3
        attempted += s["attempted"] + len(boots)
        failed += s["failed"]
    layers["trace.overhead_s"] = traced["wall_s"] - base["wall_s"]
    return layers, attempted, failed, {"untraced_wall_s": base["wall_s"],
                                       "traced_wall_s": traced["wall_s"]}


def run(args):
    ctx = Ctx(args)
    build(ctx)
    prov = provenance(ctx)
    os.makedirs(ctx.work)
    spans = Spans(args.trace == 1)
    try:
        if args.trace:
            metrics, attempted, failed, extra = per_layer(ctx, spans)
            units = PER_LAYER
        else:
            metrics, attempted, failed, extra = end_to_end(ctx, spans, args.seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(ctx.work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(ctx.work))
        except OSError:
            pass
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    correct = failed == 0
    record = {"workload": args.workload, "provenance": prov, "correct": correct,
              "attempted": attempted, "failed": failed, "metrics": metrics, "extra": extra,
              "notes": ctx.notes}
    if args.trace:
        record["self_times"] = spans.self_times()
        record["spans"] = spans.rows
    os.makedirs(".bench_runs", exist_ok=True)
    rec_path = os.path.join(".bench_runs", f"{args.workload}-s{args.seed}-t{args.trace}-"
                            f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}.json")
    with open(rec_path, "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)

    print(f"popk benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} nproc={NPROC} threads={NPROC} commit={prov['commit']} "
          f"source={prov['source_sha256']}")
    for name, unit in units.items():
        print(f"  {name:<36} {metrics[name]:>16.6f} {unit}")
    if args.workload == "serve-open" and not args.trace:
        lat = extra["latency"]
        for phase in ("low", "high"):
            v = lat[phase]
            print(f"  job_p50_ms.{phase} {v['p50_ms']:.3f}  job_p99_ms.{phase} {v['p99_ms']:.3f}  "
                  f"({v['samples']} samples at {v['rate_rps']:.0f}/s, {v['failed']} failed)")
        print(f"  hit_p99_ms {lat['hits']['p99_ms']:.3f} ({lat['hits']['samples']} hits)  "
              f"max_rate_rps {lat['max_rate_rps']:.0f} (p99 limit {P99_LIMIT_MS:.0f} ms)")
    if args.trace:
        print("  self time by span:")
        for name, v in sorted(record["self_times"].items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"    {name:<28} n={v['count']:<6} self {v['self_s']:.4f} s  total {v['total_s']:.4f} s")
    print(f"  record: {rec_path}")
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}
    print(json.dumps(result))
    return 0 if correct else 1


# ---- self-test --------------------------------------------------------------------


def smoke():
    """Every workload at a tiny size, traced and untraced: each named
    metric prints with its unit, and a corrupted reference is caught."""
    with open("BENCHMARK.json", encoding="utf-8") as f:
        bench = json.load(f)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == END_TO_END, "end_to_end drift"
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == PER_LAYER, "per_layer drift"
    me = [sys.executable, os.path.join(HERE, "run.py")]
    ok = True
    for w in [x["name"] for x in bench["workloads"]]:
        for trace, units in ((0, END_TO_END), (1, PER_LAYER)):
            r = subprocess.run(me + ["--workload", w, "--seed", "1", "--seconds", "1",
                                     "--trace", str(trace)], capture_output=True, text=True)
            last = json.loads(r.stdout.splitlines()[-1]) if r.stdout.strip() else {}
            got = {k: v.get("unit") for k, v in last.get("metrics", {}).items()}
            good = r.returncode == 0 and last.get("correct") is True and got == units
            ok &= good
            print(f"smoke {w} trace={trace}: {'ok' if good else 'FAIL'}")
            if not good:
                print(r.stdout[-2000:], r.stderr[-2000:])
        r = subprocess.run(me + ["--workload", w, "--seed", "1", "--seconds", "1", "--trace", "0",
                                 "--corrupt-expected"], capture_output=True, text=True)
        last = json.loads(r.stdout.splitlines()[-1]) if r.stdout.strip() else {}
        good = r.returncode != 0 and last.get("correct") is False and last.get("failed", 0) > 0
        ok &= good
        print(f"smoke {w} corrupted reference caught: {'ok' if good else 'FAIL'}")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=["fig11-sweep", "serve-open"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--corrupt-expected", action="store_true",
                    help="self-test: check against a deliberately corrupted reference")
    ap.add_argument("--smoke", action="store_true", help="run the self-test")
    args = ap.parse_args()
    try:
        check_checkout()
        if args.smoke:
            return smoke()
        if not args.workload:
            ap.error("--workload is required")
        return run(args)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
