#!/usr/bin/env python3
"""Benchmark harness for the quarterwalks CLI.

    python3 bench/run.py --workload kreweras-prove --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

Each measured run is the real CLI (``python -m quarterwalks.cli ...`` with
``PYTHONPATH=src``) in a fresh child process, one child at a time: a closed
loop with one client.  Children get a fresh work directory, no
``CACHE_DIR`` and no ``--cache-dir``, so every DP is computed, never loaded.
With ``--trace 1`` every round also runs the same CLI entry in-process
under the span wrappers of ``tracing.py``, for the per-layer metrics.

The workloads are deterministic; ``--seed`` only shuffles the order in
which children (of different workloads, and set-up probes) interleave.
Runs repeat in rounds until ``--seconds`` (per workload) is spent; times
are medians over the children of the run, and the gated wall metric is
each child's time divided by a reference job timed just before it (see
``reference_s``).
The last line of standard output is one JSON object: correct, attempted,
failed and metrics.
A record with the environment and every sample goes to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field

import tracing
from workloads import WORKLOADS, CheckFailed, Workload

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "bench", "out")
TRACED_CHILD = os.path.join(ROOT, "bench", "tracing.py")

SETUP_PROBES = 5
SETUP_CODE = "import quarterwalks.cli"
REFERENCE_LEVELS = 180
REFERENCE_REPEATS = 3
# a run must end within 180 s even when a child hangs
HARD_LIMIT_S = 165.0


@dataclass
class Child:
    wall_s: float
    rss_mb: float
    exit_code: int
    timed_out: bool


@dataclass
class Samples:
    wall_s: list[float] = field(default_factory=list)
    rss_mb: list[float] = field(default_factory=list)
    ref_s: list[float] = field(default_factory=list)
    norm: list[float] = field(default_factory=list)
    layers: list[dict[str, float]] = field(default_factory=list)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "CACHE_DIR"}
    env["PYTHONPATH"] = SRC
    return env


def spawn(argv: list[str], work: str, timeout_s: float) -> Child:
    """Run one child to completion; time it from spawn to exit and read
    its peak RSS from ``wait4``.  A child past ``timeout_s`` is killed."""
    lock = threading.Lock()
    state = {"exited": False, "killed": False}
    with open(os.path.join(work, "stdout.txt"), "wb") as out, \
            open(os.path.join(work, "stderr.txt"), "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=work, env=child_env(), stdin=subprocess.DEVNULL, stdout=out, stderr=err
        )

        def kill():
            with lock:
                if not state["exited"]:
                    os.kill(proc.pid, signal.SIGKILL)
                    state["killed"] = True

        timer = threading.Timer(timeout_s, kill)
        timer.start()
        try:
            # wait without reaping, so the pid cannot be reused before the
            # timer is disarmed; wait4 then reaps it and gives its rusage
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            wall = time.perf_counter() - t0
            with lock:
                state["exited"] = True
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall, usage.ru_maxrss / 1024.0, proc.returncode, state["killed"])


def reference_s() -> float:
    """Time a fixed pure-Python big-integer DP that shares no code with
    quarterwalks.

    On a shared host the speed of a CPU-bound job drifts by tens of percent
    over minutes.  Timed in the harness right before each untraced child,
    this job slows down with it, so each child's wall time divided by the
    mean of its own reference block cancels the drift, while a change to
    the program still moves the ratio.
    """
    t0 = time.perf_counter()
    prev = [[1]]
    for n in range(REFERENCE_LEVELS):
        cur = [[0] * (n + 2) for _ in range(n + 2)]
        for i, row in enumerate(prev):
            for j, v in enumerate(row):
                if v:
                    cur[i + 1][j + 1] += v
                    if i:
                        cur[i - 1][j] += v
                    if j:
                        cur[i][j - 1] += v
        prev = cur
    return time.perf_counter() - t0


def new_workdir(prefix: str) -> str:
    base = os.path.join(OUT, "work")
    os.makedirs(base, exist_ok=True)
    return tempfile.mkdtemp(prefix=prefix + "-", dir=base)


def setup_probe(timeout_s: float) -> float:
    """Time for a fresh interpreter to import the CLI and exit."""
    work = new_workdir("setup")
    child = spawn([sys.executable, "-c", SETUP_CODE], work, timeout_s)
    if child.exit_code != 0:
        raise RuntimeError(f"'{SETUP_CODE}' failed (exit {child.exit_code}); see {work}")
    shutil.rmtree(work)
    return child.wall_s


def run_workload(w: Workload, traced: bool, timeout_s: float, samples: Samples):
    """One child of workload ``w``: run it, check its outputs, record it."""
    work = new_workdir(w.name)
    w.prepare(work)
    cli_args = w.argv(work)
    spans_path = os.path.join(work, "spans.json")
    if traced:
        argv = [sys.executable, TRACED_CHILD, "--spans", spans_path, "--", *cli_args]
    else:
        argv = [sys.executable, "-m", "quarterwalks.cli", *cli_args]
    samples.attempted += 1
    refs = [] if traced else [reference_s() for _ in range(REFERENCE_REPEATS)]
    child = spawn(argv, work, timeout_s)
    try:
        if child.timed_out:
            raise CheckFailed(f"killed after {timeout_s:.0f} s")
        if child.exit_code != w.expected_exit:
            raise CheckFailed(f"exit code {child.exit_code}, expected {w.expected_exit}")
        w.check(work)
        if traced:
            try:
                with open(spans_path) as fh:
                    trace = json.load(fh)
            except (OSError, json.JSONDecodeError) as e:
                raise CheckFailed(f"no span file: {e}") from e
            total = child.wall_s - trace["post_s"]
            samples.layers.append(tracing.layer_metrics(trace["spans"], total))
        else:
            samples.wall_s.append(child.wall_s)
            samples.ref_s.extend(refs)
            samples.norm.append(child.wall_s / statistics.mean(refs))
            samples.rss_mb.append(child.rss_mb)
    except CheckFailed as e:
        samples.failures.append(f"{w.name}{' (traced)' if traced else ''}: {e}; see {work}")
        return
    shutil.rmtree(work)


def session(names: list[str], seconds: int, trace: bool, seed: int):
    """Interleave children of ``names`` (and set-up probes) in shuffled
    rounds until ``seconds`` per workload are spent."""
    rng = random.Random(seed)
    start = time.perf_counter()
    budget_end = start + seconds * len(names)
    hard_end = budget_end + HARD_LIMIT_S - seconds

    def timeout():
        return max(1.0, hard_end - time.perf_counter())

    setup_probe(timeout())  # untimed: lets the interpreter write bytecode caches
    samples = {name: Samples() for name in names}
    setup: list[float] = []
    modes = [False, True] if trace else [False]
    while True:
        jobs: list[tuple[str | None, bool]] = [(n, m) for n in names for m in modes]
        rng.shuffle(jobs)
        if len(setup) < SETUP_PROBES:
            jobs.insert(rng.randrange(len(jobs) + 1), (None, False))
        round_start = time.perf_counter()
        for name, traced in jobs:
            if name is None:
                setup.append(setup_probe(timeout()))
            else:
                run_workload(WORKLOADS[name], traced, timeout(), samples[name])
        now = time.perf_counter()
        if now + (now - round_start) > budget_end or now > hard_end:
            break
    while len(setup) < SETUP_PROBES:
        setup.append(setup_probe(timeout()))
    return samples, setup


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric names and units that BENCHMARK.json declares for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def workload_metrics(s: Samples, setup: list[float], units: dict[str, str]) -> dict[str, float]:
    """End-to-end metrics, or with traced children the per-layer ones."""
    if not s.wall_s:
        return {}
    wall = statistics.median(s.wall_s)
    if "wall_norm" in units:
        return {
            "wall_norm": statistics.median(s.norm),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(s.rss_mb),
        }
    if not s.layers:
        return {}
    out = {}
    for key in s.layers[0]:
        values = [d[key] for d in s.layers]
        if len(set(values)) == 1:
            out[key] = values[0]
            continue
        out[key] = statistics.median(values)
        if units[key] in ("count", "bits"):
            # a count that moves between runs of one program flags a changed algorithm
            print(f"  WARNING: {key} differs between traced children: {sorted(set(values))}")
    out["trace_overhead_s"] = out["trace.total_s"] - wall
    return out


def spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)}, q1 {q1:.4f}, q3 {q3:.4f}"


def src_digest() -> str:
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for f in sorted(filenames):
            path = os.path.join(dirpath, f)
            h.update(os.path.relpath(path, SRC).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def git_sha() -> str | None:
    try:
        res = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = res.stdout.split()
    if res.returncode or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def loadavg() -> str | None:
    try:
        with open("/proc/loadavg") as fh:
            return fh.read().strip()
    except OSError:
        return None


def environment(seed: int) -> dict:
    return {
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "loadavg_start": loadavg(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Benchmark the quarterwalks CLI.")
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True, help="measuring time per workload")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    opts = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "quarterwalks", "cli.py")):
        print(f"error: no quarterwalks sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if opts.workload == "all" else [opts.workload]
    trace = bool(opts.trace)
    units = declared_metrics(trace)
    env = environment(opts.seed)
    print(
        f"session: seed {opts.seed}, trace {opts.trace}, nproc {env['nproc']}, "
        f"python {env['python']}, numpy {env['numpy']}, git {env['git_sha']}, "
        f"src {env['src_sha256'][:12]}, load {env['loadavg_start']}"
    )
    samples, setup = session(names, opts.seconds, trace, opts.seed)
    env["loadavg_end"] = loadavg()
    print(f"session end: load {env['loadavg_end']}; setup_s probes {spread(setup)}")

    metrics: dict[str, dict] = {}
    attempted = failed = 0
    for name in names:
        s = samples[name]
        attempted += s.attempted
        failed += len(s.failures)
        for msg in s.failures:
            print(f"FAILED {msg}")
        values = workload_metrics(s, setup, units)
        if values and set(values) != set(units):
            raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} do not match BENCHMARK.json")
        print(f"{name}: {len(s.wall_s)} untraced + {len(s.layers)} traced children")
        print(
            f"  fail_rate = {len(s.failures) / s.attempted:.6g} ratio "
            f"({len(s.failures)} of {s.attempted} failed)"
        )
        if s.wall_s:
            print(f"  wall_s = {statistics.median(s.wall_s):.6g} s ({spread(s.wall_s)})")
        if s.ref_s:
            print(f"  reference_s = {statistics.median(s.ref_s):.6g} s ({spread(s.ref_s)})")
        for key, value in values.items():
            print(f"  {key} = {value:.6g} {units[key]}")
            label = key if len(names) == 1 else f"{name}.{key}"
            metrics[label] = {"value": value, "unit": units[key]}
        if trace and values:
            share = sum(values[k] for k in (
                "guess.nullspace.s", "eliminate.eliminate_shifts.s", "walks.origin_sequence.s"
            )) / values["trace.total_s"]
            print(f"  (nullspace + eliminate_shifts + origin_sequence) / traced total = {share:.3f}")

    complete = all(samples[n].wall_s and (samples[n].layers or not trace) for n in names)
    result = {
        "correct": failed == 0 and complete,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": metrics,
    }
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    record_path = os.path.join(
        OUT, "results", f"{stamp}-{opts.workload}-seed{opts.seed}-trace{opts.trace}.json"
    )
    with open(record_path, "w") as fh:
        json.dump(
            {
                "environment": env,
                "workloads": names,
                "seconds": opts.seconds,
                "setup_s": setup,
                "samples": {
                    n: {"wall_s": s.wall_s, "reference_s": s.ref_s, "peak_rss_mb": s.rss_mb,
                        "layers": s.layers, "attempted": s.attempted, "failures": s.failures}
                    for n, s in samples.items()
                },
                "result": result,
            },
            fh, indent=1,
        )
    print(f"record: {os.path.relpath(record_path, ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
