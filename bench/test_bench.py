"""Self-check of the benchmark (about four minutes):

    python3 -m pytest bench/test_bench.py

The repository's own test suite does not collect this file.
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

import run
import workloads

SELF_TIMES = (
    "io.parse_s",
    "separators.stream_s",
    "separators.cross_s",
    "triangulate.extend_s",
    "triangulate.assemble_s",
    "maxind.self_s",
    "treedecomp.clique_graph_s",
    "treedecomp.spanning_trees_s",
    "cli.self_s",
)
SEED = 7


def bench(workload: str, trace: int) -> dict[str, float]:
    """Two rounds of the benchmark (quick runs and one full run each), or one traced pair."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED), "--seconds", "0", "--trace", str(trace)],
        cwd=run.ROOT,
        capture_output=True,
        text=True,
        timeout=180,
        check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stdout
    return {name: m["value"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("name", workloads.NAMES)
def test_fixed_seed_gives_identical_input(name):
    wl = workloads.build(name)
    run.WORK.mkdir(exist_ok=True)
    a, b, c = (run.WORK / f"{name}-selfcheck-{i}.edges" for i in range(3))
    wl.write_input(a, SEED)
    wl.write_input(b, SEED)
    wl.write_input(c, SEED + 1)
    assert a.read_bytes() == b.read_bytes() != c.read_bytes()
    assert workloads.build(name) == wl


@pytest.mark.parametrize("name", workloads.NAMES)
def test_traced_run_matches_untraced_and_repeats_counts(name):
    bench(name, 0)
    first = bench(name, 1)
    untraced = run.WORK / f"{name}-{SEED}.untraced.out"
    traced = run.WORK / f"{name}-{SEED}.traced.out"
    assert traced.read_bytes() == untraced.read_bytes()

    assert all(first[k] >= 0 for k in SELF_TIMES)
    assert sum(first[k] for k in SELF_TIMES) == pytest.approx(first["trace.wall_s"], rel=1e-3)

    second = bench(name, 1)
    assert {k: second[k] for k in run.COUNTS} == {k: first[k] for k in run.COUNTS}
