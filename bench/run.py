"""Benchmark of the trienum CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` the CLI runs as a subprocess, one run at a time, in
rounds of ``--limit 1`` runs and one full run, until the next round would
end after ``S`` seconds (at least two rounds). Every stdout line is
timestamped as it arrives, every run's output is checked, and the
end-to-end metrics are medians over the runs; ``mean_gaps_p50`` and
``least_gaps_p99`` say how the delays are taken from the answer gaps of
the full runs. With ``--trace 1`` the CLI's ``main`` runs in this
process, plainly and then with spans around each layer's entry points,
in pairs while time allows, and the per-layer metrics are reported.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are a readable summary.
Metric names and units come from ``BENCHMARK.json``. Inputs, output
copies and span files go to ``.bench_work/`` at the repository root.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
HARD_LIMIT_S = 150.0  # a hung run is killed so the benchmark ends within 180 s
CLI = "import sys; from trienum.cli import main; sys.exit(main())"


# The CLI is started by a small launcher. Linux keeps a process's memory
# high-water mark across exec, so a child spawned straight from this
# process, once it has held a few outputs, would report this process's
# size as its ru_maxrss. The launcher is a bare interpreter, smaller than
# any CLI run. It reports the CLI's pid and spawn time (perf_counter is
# the system-wide monotonic clock) and then its exit code and ru_maxrss.
LAUNCHER = """
import os, sys, time
side = int(sys.argv[1])
os.set_inheritable(side, False)
t0 = time.perf_counter()
pid = os.posix_spawn(sys.argv[2], sys.argv[2:], os.environ)
os.close(1)
os.write(side, f"{pid} {t0!r}\\n".encode())
_, status, usage = os.wait4(pid, 0)
os.write(side, f"{os.waitstatus_to_exitcode(status)} {usage.ru_maxrss}\\n".encode())
"""
QUICK_RUNS = 4  # --limit 1 runs per full run, for more set-up and first-answer samples
MIN_ROUNDS = 2  # so every answer's gap is seen in two runs


@dataclass
class Invocation:
    """One CLI run: arrival time of each stdout line, from spawn."""

    stamps: list[float] = field(default_factory=list)
    out: bytes = b""
    exit_code: int | None = None
    rss_kb: int = 0
    timed_out: bool = False


def invoke(args: list[str], timeout: float, stderr_path: Path) -> Invocation:
    inv = Invocation()
    chunks = []
    env = dict(os.environ, PYTHONPATH=str(SRC))
    side_r, side_w = os.pipe()
    with open(stderr_path, "wb") as err, os.fdopen(side_r, "rb") as side:
        launcher = subprocess.Popen(
            [sys.executable, "-c", LAUNCHER, str(side_w), sys.executable, "-c", CLI, *args],
            stdout=subprocess.PIPE,
            stderr=err,
            env=env,
            cwd=ROOT,
            pass_fds=(side_w,),
        )
        os.close(side_w)
        try:
            pid, t0 = side.readline().split()
            pid, t0 = int(pid), float(t0)

            def kill() -> None:
                inv.timed_out = True
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass

            timer = threading.Timer(timeout, kill)
            timer.start()
            try:
                fd = launcher.stdout.fileno()
                # read to EOF: the pipe is never closed early
                while chunk := os.read(fd, 1 << 16):
                    now = time.perf_counter() - t0
                    inv.stamps.extend([now] * chunk.count(b"\n"))
                    chunks.append(chunk)
            finally:
                timer.cancel()
                timer.join()
            code, rss = side.readline().split()
            inv.exit_code, inv.rss_kb = int(code), int(rss)
        except ValueError:
            pass  # the launcher died early; exit_code stays None
        finally:
            launcher.stdout.close()
            launcher.wait()
    inv.out = b"".join(chunks)
    return inv


def quantile(values: list[float], q: int) -> float:
    """The ``q``th percentile (linear interpolation)."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def mean_gaps_p50(runs: list[list[float]]) -> float:
    """Median of the answer gaps, each gap taken as its mean over the full
    runs. Every full run prints the same answers in the same order, so a
    gap is the same work in each run. The host switches between a fast
    and a slow speed (about 1.6x apart) every few seconds, so the pooled
    gaps of these workloads have two peaks, and their median jumps from
    one to the other as the share of slow time crosses one half; the
    per-answer mean moves with that share smoothly instead."""
    return quantile([statistics.fmean(g) for g in zip(*runs)], 50)


def least_gaps_p99(runs: list[list[float]]) -> float:
    """99th percentile of the answer gaps, each gap taken as the lesser of
    two consecutive full runs, as a median over those pairs. Host stalls
    land on about 1% of the gaps of a run, on different answers in each
    run, and would otherwise set the 99th percentile. Pairs, not all
    runs, so that the estimate does not drift with how many runs fit in
    the time."""
    pairs = list(zip(runs, runs[1:])) or [tuple(runs)]
    return statistics.median(quantile([min(g) for g in zip(*pair)], 99) for pair in pairs)


def end_to_end(full: list[Invocation], quick: list[Invocation]) -> tuple[dict[str, float], int]:
    runs = []
    for inv in full:
        answers = inv.stamps[1:]
        runs.append([b - a for a, b in zip(answers, answers[1:])])
    median = statistics.median
    return {
        "setup_s": median(inv.stamps[0] for inv in full + quick),
        "first_answer_s": median(inv.stamps[1] for inv in full + quick),
        "answers_per_s": median((len(inv.stamps) - 1) / (inv.stamps[-1] - inv.stamps[1]) for inv in full),
        "delay_p50_ms": mean_gaps_p50(runs) * 1000.0,
        "delay_p99_ms": least_gaps_p99(runs) * 1000.0,
        "peak_rss_mb": median(inv.rss_kb / 1024.0 for inv in full),
    }, len(runs[0])


def failure(wl: workloads.Workload, names: list[str], inv: Invocation, expected: int) -> str | None:
    if inv.timed_out:
        return "timed out"
    if inv.exit_code != 0:
        return f"exit code {inv.exit_code}"
    return checks.check(wl, names, inv.out, expected)


def measure(wl, names, input_path, seed, seconds, started):
    """Rounds of quick and full subprocess runs, at least ``MIN_ROUNDS``,
    until the next round would end after ``seconds``; returns (metrics,
    attempted, failed, notes)."""
    full, quick, failed, notes = [], [], 0, []
    plan = [(1, 1, quick)] * QUICK_RUNS + [(None, wl.expected, full)]
    rounds = 0
    begin = time.perf_counter()
    while True:
        t = time.perf_counter()
        for limit, expected, passed in plan:
            inv = invoke(wl.cli_args(input_path, limit), HARD_LIMIT_S - (time.perf_counter() - started), WORK / "stderr.txt")
            reason = failure(wl, names, inv, expected)
            if reason:
                failed += 1
                notes.append(reason)
            else:
                passed.append(inv)
            if inv.timed_out:
                break
        (WORK / f"{wl.name}-{seed}.untraced.out").write_bytes(inv.out)
        last = time.perf_counter() - t
        rounds += 1
        if inv.timed_out or (rounds >= MIN_ROUNDS and time.perf_counter() + last - begin > seconds):
            break
    attempted = len(full) + len(quick) + failed
    if full:
        metrics, gaps = end_to_end(full, quick)
        notes.append(f"{len(full)} full and {len(quick)} quick runs passed, {gaps} answer gaps each")
    else:
        metrics = {}
    notes.append(f"error_rate {failed / attempted:.4f} ratio ({failed} of {attempted} runs failed)")
    return metrics, attempted, failed, notes


def measure_traced(wl, names, input_path, seed, seconds):
    """Pairs of plain and traced in-process runs; returns the same tuple
    as ``measure`` with the per-layer metrics."""
    sys.path.insert(0, str(SRC))
    import tracing

    argv = wl.cli_args(input_path)
    plain_out = WORK / f"{wl.name}-{seed}.plain.out"
    traced_out = WORK / f"{wl.name}-{seed}.traced.out"
    pairs, failed, notes = [], 0, []
    begin = time.perf_counter()
    while True:
        t = time.perf_counter()
        code, plain_wall = tracing.run_cli(argv, plain_out)
        tracer, sampler, engine_stats = tracing.Tracer(), tracing.Sampler(128), []
        with tracing.patched(tracer, sampler, engine_stats):
            traced_code, traced_wall = tracing.run_cli(argv, traced_out, tracer)
        out = traced_out.read_bytes()
        shares, mismatches = tracing.replay(sampler.items)
        if code or traced_code:
            reason = f"exit codes {code}, {traced_code}"
        elif out != plain_out.read_bytes():
            reason = "traced stdout differs from the plain run"
        elif mismatches:
            reason = f"{mismatches} replayed extender calls disagree"
        else:
            reason = checks.check(wl, names, out, wl.expected)
        metrics = layer_metrics(tracer, engine_stats, len(out), traced_wall, plain_wall, shares)
        if reason:
            failed += 1
            notes.append(reason)
        elif pairs and any(metrics[k] != pairs[0][k] for k in COUNTS):
            failed += 1
            notes.append("count metrics differ between traced runs")
        else:
            pairs.append(metrics)
        last = time.perf_counter() - t
        if time.perf_counter() + last - begin > seconds:
            break
    tracer.write(WORK / f"spans-{wl.name}-{seed}.tsv")
    merged = {k: statistics.median(p[k] for p in pairs) for k in pairs[0]} if pairs else {}
    notes.append(f"{len(pairs)} traced runs, {len(tracer.spans)} spans in the last")
    notes.append(
        f"replay shares from {len(sampler.items)} sampled extender calls are approximate: "
        "the public functions validate their arguments"
    )
    return merged, len(pairs) + failed, failed, notes


COUNTS = (
    "separators.pulled",
    "separators.cross_calls",
    "triangulate.extend_calls",
    "maxind.extend_requests",
    "treedecomp.trees",
    "cli.bytes_out",
)


def layer_metrics(tracer, engine_stats, bytes_out, wall, plain_wall, shares) -> dict[str, float]:
    s, c = tracer.self_s, tracer.counts
    requests = sum(st.extender_calls for st in engine_stats)
    misses = c["triangulate.extend_calls"]
    return {
        "io.parse_s": s["io.parse"],
        "separators.stream_s": s["separators.stream"],
        "separators.pulled": c["separators.pulled"],
        "separators.cross_s": s["separators.cross"],
        "separators.cross_calls": c["separators.cross_calls"],
        "triangulate.extend_s": s["triangulate.extend"],
        "triangulate.extend_calls": misses,
        "triangulate.extend_ms_per_call": s["triangulate.extend"] * 1000.0 / misses if misses else 0.0,
        "triangulate.assemble_s": s["triangulate.assemble"],
        "triangulate.replay.saturate_s": shares["saturate"],
        "triangulate.replay.minfill_s": shares["minfill"],
        "triangulate.replay.sandwich_s": shares["sandwich"],
        "triangulate.replay.readoff_s": shares["readoff"],
        "maxind.self_s": s["maxind"],
        "maxind.extend_requests": requests,
        "maxind.memo_hit_ratio": 1.0 - misses / requests if requests else 0.0,
        "maxind.useful_ratio": c["maxind.answers"] / requests if requests else 0.0,
        "treedecomp.clique_graph_s": s["treedecomp.clique_graph"],
        "treedecomp.spanning_trees_s": s["treedecomp.spanning_trees"],
        "treedecomp.trees": c["treedecomp.trees"],
        "cli.self_s": s["cli"],
        "cli.bytes_out": bytes_out,
        "trace.wall_s": wall,
        "trace.overhead_ratio": wall / plain_wall,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.perf_counter()
    if not (SRC / "trienum" / "cli.py").is_file():
        print(f"error: no trienum sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    WORK.mkdir(exist_ok=True)
    # a fresh checkout has no bytecode yet; keep compiling out of set-up time
    compileall.compile_dir(SRC / "trienum", quiet=1)
    wl = workloads.build(args.workload)
    input_path = WORK / f"{wl.name}-{args.seed}.edges"
    names = wl.write_input(input_path, args.seed)

    if args.trace:
        metrics, attempted, failed, notes = measure_traced(wl, names, input_path, args.seed, args.seconds)
    else:
        metrics, attempted, failed, notes = measure(wl, names, input_path, args.seed, args.seconds, started)
    report = {}
    for m in wanted:
        value = metrics.get(m["name"], 0.0)
        report[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{wl.name} {m['name']} {value} {m['unit']}")
    for note in notes:
        print(f"{wl.name} {note}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
