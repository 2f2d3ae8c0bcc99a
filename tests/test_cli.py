import hashlib
import io
import json
import os
import random
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from trienum import TreeDecomposition, cli, is_proper, is_tree_decomposition, parse_graph
from trienum.cli import main

from conftest import random_connected_graph


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def stdin_of(text):
    """A stand-in for ``sys.stdin`` that, like the real one, has bytes
    underneath."""
    return io.TextIOWrapper(io.BytesIO(text.encode()), encoding="utf-8")


def write_cycle(tmp_path, n, name="g.col"):
    lines = [f"p edge {n} {n}"]
    lines += [f"e {i + 1} {(i + 1) % n + 1}" for i in range(n)]
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return str(path)


SRC = str(Path(__file__).resolve().parents[1] / "src")
# SIGINT is restored to raise KeyboardInterrupt, as in an interactive
# shell, because a background job inherits it ignored
CLI = (
    "import signal, sys; signal.signal(signal.SIGINT, signal.default_int_handler); "
    "from trienum.cli import main; sys.exit(main())"
)


def spawn_python(args, **env):
    env = {**os.environ, **env}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.Popen(
        [sys.executable, *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )


def spawn_cli(argv, **env):
    return spawn_python(["-c", CLI, *argv], **env)


def answers(out, kind):
    records = [json.loads(line) for line in out.splitlines()]
    return [r for r in records if r["kind"] == kind]


class TestCommands:
    def test_triangulations_on_c4(self, tmp_path, capsys):
        path = write_cycle(tmp_path, 4)
        code, out, _ = run_cli(capsys, ["triangulations", path, "--format", "dimacs"])
        assert code == 0
        recs = answers(out, "triangulation")
        assert len(recs) == 2
        assert {tuple(map(tuple, r["answer"]["fill"])) for r in recs} == {
            ((0, 2),),
            ((1, 3),),
        }
        assert all(r["answer"]["edge_count"] == 5 for r in recs)

    def test_treedecomps_on_p4(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", stdin_of("a b\nb c\nc d\n"))
        code, out, _ = run_cli(capsys, ["treedecomps"])
        assert code == 0
        assert len(answers(out, "treedecomp")) == 1

    def test_minseps_on_k4_is_empty(self, tmp_path, capsys):
        path = tmp_path / "k4.json"
        path.write_text(
            json.dumps({"n": 4, "edges": [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]})
        )
        code, out, _ = run_cli(capsys, ["minseps", str(path), "--format", "json"])
        assert code == 0
        assert answers(out, "minsep") == []

    def test_stats_command(self, tmp_path, capsys):
        path = write_cycle(tmp_path, 6)
        code, out, _ = run_cli(
            capsys, ["stats", path, "--format", "dimacs", "--delay-stats"]
        )
        assert code == 0
        (rec,) = answers(out, "stats")
        assert rec["answer"]["triangulations"] == 14
        assert rec["answer"]["minimal_separators"] == 9
        assert rec["answer"]["extender_calls"] >= 14
        assert set(rec["answer"]) == {
            "n",
            "edge_count",
            "triangulations",
            "minimal_separators",
            "extender_calls",
            "delay_ms",
        }
        assert set(rec["answer"]["delay_ms"]) == {"first", "p50", "p90", "p99", "max"}

    def test_crossgraph_on_c5(self, tmp_path, capsys):
        path = write_cycle(tmp_path, 5)
        code, out, _ = run_cli(capsys, ["crossgraph", path, "--format", "dimacs"])
        assert code == 0
        (rec,) = answers(out, "crossgraph")
        assert len(rec["answer"]["nodes"]) == 5
        assert len(rec["answer"]["edges"]) == 5


class TestOutputsAndModes:
    def test_plain_minseps(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", stdin_of("a b\nb c\n"))
        code, out, _ = run_cli(capsys, ["minseps", "--output", "plain"])
        assert code == 0
        assert out == "1\n"

    def test_dot_treedecomps(self, tmp_path, capsys):
        path = write_cycle(tmp_path, 4)
        code, out, _ = run_cli(
            capsys, ["treedecomps", path, "--format", "dimacs", "--output", "dot"]
        )
        assert code == 0
        assert out.count("graph td") == 2
        assert "--" in out

    def test_dot_rejected_elsewhere(self, tmp_path, capsys):
        path = write_cycle(tmp_path, 4)
        with pytest.raises(SystemExit) as exc:
            main(["minseps", path, "--format", "dimacs", "--output", "dot"])
        assert exc.value.code == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv",
        [
            ["minseps", "--bogus"],
            ["minseps", "--limit", "0"],
            ["minseps", "--output", "dot"],
            ["minseps", "--output", "xml"],
            [],
        ],
    )
    def test_bad_flag_is_one_stderr_line(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines

    def test_limit_stops_early(self, tmp_path, capsys):
        path = write_cycle(tmp_path, 12)
        started = time.perf_counter()
        code, out, _ = run_cli(
            capsys, ["triangulations", path, "--format", "dimacs", "--limit", "1"]
        )
        elapsed = time.perf_counter() - started
        assert code == 0
        assert len(answers(out, "triangulation")) == 1
        assert elapsed < 5.0

    def test_ladder_treedecomps_stdout(self, tmp_path, capsys):
        # the benchmark's ladder-treedecomps command: the 2 x 12 ladder,
        # edges in its order; digest recorded from an earlier build
        k = 12
        rows = [(i, i + 1) for i in range(k - 1)] + [(k + i, k + i + 1) for i in range(k - 1)]
        path = tmp_path / "ladder.txt"
        path.write_text("".join(f"{u} {v}\n" for u, v in rows + [(i, k + i) for i in range(k)]))
        code, out, _ = run_cli(capsys, ["treedecomps", str(path)])
        assert code == 0
        assert out.count("\n") == 2049
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "ef577a53093dd9c56126da60a4208b33db2499f79c0274f1d1ff53a8d167a32d"
        )

    def test_byte_identical_reruns(self, tmp_path, capsys):
        path = write_cycle(tmp_path, 6)
        _, first, _ = run_cli(capsys, ["treedecomps", path, "--format", "dimacs"])
        _, second, _ = run_cli(capsys, ["treedecomps", path, "--format", "dimacs"])
        assert first == second

    def test_treedecomp_round_trip(self, tmp_path, capsys):
        path = write_cycle(tmp_path, 6)
        _, out, _ = run_cli(capsys, ["treedecomps", path, "--format", "dimacs"])
        g, _labels = parse_graph((tmp_path / "g.col").read_text(), "dimacs")
        for rec in answers(out, "treedecomp"):
            d = TreeDecomposition(
                host=g,
                bags=tuple(frozenset(b) for b in rec["answer"]["bags"]),
                edges=tuple((a, b) for a, b in rec["answer"]["tree"]),
            )
            assert is_tree_decomposition(g, d)
            assert is_proper(g, d)

    def test_extender_flag(self, tmp_path, capsys):
        path = write_cycle(tmp_path, 5)
        _, bb, _ = run_cli(
            capsys,
            ["triangulations", path, "--format", "dimacs", "--extender", "blackbox"],
        )
        _, sep, _ = run_cli(
            capsys,
            ["triangulations", path, "--format", "dimacs", "--extender", "separator"],
        )
        fills = lambda out: {
            tuple(map(tuple, r["answer"]["fill"])) for r in answers(out, "triangulation")
        }
        assert fills(bb) == fills(sep)


class TestGuardsAndErrors:
    def test_disconnected_rejected(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", stdin_of("a b\nc d\n"))
        code, _, err = run_cli(capsys, ["minseps"])
        assert code == 2
        assert "connected components" in err

    def test_per_component(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", stdin_of("a b\nb c\nx y\ny z\n"))
        code, out, _ = run_cli(capsys, ["minseps", "--per-component"])
        assert code == 0
        recs = answers(out, "minsep")
        assert [(r["component"], r["answer"]) for r in recs] == [(0, [1]), (1, [4])]

    def test_parse_error_exit_one(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", stdin_of("a a\n"))
        code, _, err = run_cli(capsys, ["minseps"])
        assert code == 1
        assert "self-loop" in err

    def test_missing_file_exit_one(self, capsys):
        code, _, err = run_cli(capsys, ["minseps", "/nonexistent/graph.col"])
        assert code == 1
        assert "cannot read" in err

    def test_undecodable_file_exit_one(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        path.write_bytes(b"a b\n\xff c\n")
        code, out, err = run_cli(capsys, ["minseps", str(path)])
        assert (code, out) == (1, "")
        assert err.startswith(f"error: cannot read {path}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "text",
        [
            '{"n": true, "edges": []}',
            '{"n": 3, "edges": [[true, 2]]}',
            '{"n": 3, "edges": 5}',
            '{"n": 10000000000000000000, "edges": []}',
            pytest.param("[" * 100000, id="nested-100000-deep"),
        ],
    )
    def test_malformed_json_exit_one(self, text, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", stdin_of(text))
        code, out, err = run_cli(capsys, ["minseps", "--format", "json"])
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_negative_dimacs_edge_count_exit_one(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", stdin_of("p edge 3 -5\ne 1 2\ne 2 3\n"))
        code, out, err = run_cli(capsys, ["minseps", "--format", "dimacs"])
        assert (code, out) == (1, "")
        assert err == "error: line 1: negative edge count\n"

    @pytest.mark.parametrize(
        "fmt, text",
        [
            ("dimacs", "p edge 1000000000000000 0\n"),
            ("json", '{"n": 1000000000000000, "edges": []}'),
        ],
    )
    def test_out_of_memory_exit_one(self, fmt, text, capsys, monkeypatch):
        # 10**15 adjacency slots cannot be allocated, so this fails at once
        monkeypatch.setattr("sys.stdin", stdin_of(text))
        code, out, err = run_cli(capsys, ["minseps", "--format", fmt])
        assert (code, out, err) == (1, "", "error: out of memory\n")

    def test_crossgraph_guard(self, tmp_path, capsys):
        path = write_cycle(tmp_path, 8)
        code, _, err = run_cli(
            capsys,
            [
                "crossgraph",
                path,
                "--format",
                "dimacs",
                "--max-crossgraph-nodes",
                "3",
            ],
        )
        assert code == 2
        assert "exceeds 3 nodes" in err

    def test_crossgraph_guard_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("TRIENUM_CROSSGRAPH_LIMIT", "3")
        path = write_cycle(tmp_path, 8)
        code, _, err = run_cli(capsys, ["crossgraph", path, "--format", "dimacs"])
        assert code == 2
        assert "exceeds 3 nodes" in err

    def test_crossgraph_cap_env_not_an_integer(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("TRIENUM_CROSSGRAPH_LIMIT", "abc")
        path = write_cycle(tmp_path, 5)
        code, out, err = run_cli(capsys, ["crossgraph", path, "--format", "dimacs"])
        assert code == 2
        assert out == ""
        assert err == "error: TRIENUM_CROSSGRAPH_LIMIT must be a nonnegative integer, got 'abc'\n"

    def test_crossgraph_cap_negative(self, tmp_path, capsys):
        path = write_cycle(tmp_path, 5)
        for command in ("crossgraph", "minseps"):
            code, out, err = run_cli(
                capsys,
                [command, path, "--format", "dimacs", "--max-crossgraph-nodes", "-1"],
            )
            assert code == 2
            assert out == ""
            assert err == "error: --max-crossgraph-nodes must be a nonnegative integer, got '-1'\n"

    def test_empty_graph_rejected(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", stdin_of('{"n": 0, "edges": []}'))
        code, _, err = run_cli(capsys, ["minseps", "--format", "json"])
        assert code == 1
        assert "no vertices" in err


class TestProcessBoundary:
    def test_closed_pipe_exits_quietly(self, tmp_path):
        proc = spawn_cli(["triangulations", write_cycle(tmp_path, 12), "--format", "dimacs"])
        lines = [proc.stdout.readline() for _ in range(2)]
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert [json.loads(line)["kind"] for line in lines] == ["graph", "triangulation"]
        assert proc.returncode == 141
        assert err == b""

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_full_disk_exits_one(self):
        env = {**os.environ}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-c", CLI, "minseps"],
                input=b"a b\nb c\n",
                stdout=full,
                stderr=subprocess.PIPE,
                env=env,
                timeout=60,
            )
        assert proc.returncode == 1
        lines = proc.stderr.decode().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: cannot write output: ")

    def test_closed_stdout_exits_one(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdout", None)
        code = main(["minseps", "--format", "json"])
        lines = capsys.readouterr().err.splitlines()
        assert code == 1
        assert lines == ["error: cannot write output: stdout is closed"]

    def test_closed_stdout_exits_one_from_a_shell(self, tmp_path):
        env = {**os.environ}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
        path = write_cycle(tmp_path, 5)
        script = '"$0" -m trienum minseps "$1" --format dimacs >&-'
        proc = subprocess.run(
            ["sh", "-c", script, sys.executable, path],
            stderr=subprocess.PIPE,
            env=env,
            timeout=60,
        )
        assert proc.returncode == 1
        lines = proc.stderr.decode().splitlines()
        assert lines == ["error: cannot write output: stdout is closed"]

    def test_closed_stdin_exits_one(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", None)
        code = main(["minseps"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: cannot read -: stdin is closed"]

    def test_closed_stdin_exits_one_from_a_shell(self):
        env = {**os.environ}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            ["sh", "-c", '"$0" -m trienum minseps <&-', sys.executable],
            capture_output=True,
            env=env,
            timeout=60,
        )
        assert proc.returncode == 1
        assert proc.stdout == b""
        assert proc.stderr.decode().splitlines() == [
            "error: cannot read -: stdin is closed"
        ]

    def test_non_utf8_stdin_exits_one(self, tmp_path):
        # the C locale reads stdin with surrogateescape, which would turn
        # the bytes into a label; a file with the same bytes is rejected
        env = {**os.environ, "LC_ALL": "C"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
        path = tmp_path / "g.txt"
        path.write_bytes(b"\xff\xfe 1\n")
        for argv, data in ((["minseps", "-"], path.read_bytes()), (["minseps", str(path)], b"")):
            proc = subprocess.run(
                [sys.executable, "-m", "trienum", *argv],
                input=data,
                capture_output=True,
                env=env,
                timeout=60,
            )
            assert proc.returncode == 1
            assert proc.stdout == b""
            lines = proc.stderr.decode().splitlines()
            assert len(lines) == 1
            assert lines[0].startswith(f"error: cannot read {argv[1]}: 'utf-8' codec")

    def test_interrupt_exits_quietly(self, tmp_path):
        proc = spawn_cli(["triangulations", write_cycle(tmp_path, 12), "--format", "dimacs"])
        proc.stdout.readline()
        assert json.loads(proc.stdout.readline())["kind"] == "triangulation"
        proc.send_signal(signal.SIGINT)
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 130
        assert err == b"error: interrupted\n"

    def test_output_independent_of_hash_seed(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("".join(f"{i} {(i + 1) % 8}\n" for i in range(8)) + "0 4\n")
        for command in ("triangulations", "treedecomps"):
            for extender in ("blackbox", "separator"):
                argv = [command, str(path), "--extender", extender]
                outs = []
                for seed in ("1", "2"):
                    proc = spawn_cli(argv, PYTHONHASHSEED=seed)
                    out, _ = proc.communicate(timeout=60)
                    assert proc.returncode == 0
                    outs.append(out)
                assert outs[0] == outs[1]
                assert outs[0].count(b"\n") > 10

    def test_multi_tree_output_independent_of_hash_seed(self, tmp_path):
        # triangulations of these graphs have several clique trees each
        star = [(0, leaf) for leaf in range(1, 5)]
        seeded = random_connected_graph(12, 0.3, random.Random(3)).edges()
        for name, edges in (("star", star), ("seeded", seeded)):
            path = tmp_path / f"{name}.txt"
            path.write_text("".join(f"{u} {v}\n" for u, v in edges))
            for extender in ("blackbox", "separator"):
                argv = ["treedecomps", str(path), "--extender", extender]
                outs = []
                for seed in ("1", "2"):
                    proc = spawn_cli(argv, PYTHONHASHSEED=seed)
                    out, _ = proc.communicate(timeout=60)
                    assert proc.returncode == 0
                    outs.append(out)
                assert outs[0] == outs[1]
                bag_sets = [
                    str(sorted(r["answer"]["bags"]))
                    for r in answers(outs[0].decode(), "treedecomp")
                ]
                assert len(bag_sets) > len(set(bag_sets))

    def test_python_m_trienum(self, tmp_path):
        argv = ["treedecomps", write_cycle(tmp_path, 6), "--format", "dimacs"]
        outs = []
        for module in ("trienum", "trienum.cli"):
            proc = spawn_python(["-m", module, *argv])
            out, err = proc.communicate(timeout=60)
            assert proc.returncode == 0
            assert err == b""
            outs.append(out)
        assert outs[0] == outs[1]
        assert outs[0].count(b"\n") > 10
        proc = spawn_python(["-m", "trienum", "minseps", str(tmp_path / "missing")])
        proc.communicate(timeout=60)
        assert proc.returncode == 1


# The expected stdout of every golden case, keyed by case id, was written
# by the CLI before its commands were folded into one table; the stats
# records lost their duplicate "nodes_pulled" key afterwards.
GOLDEN = json.loads(Path(__file__).with_name("cli_golden.json").read_text())
GOLDEN_INPUTS = {
    "c6": "".join(f"{i} {(i + 1) % 6}\n" for i in range(6)),
    # a C4 (component 0) and a C5 (component 1)
    "two": "a b\nb c\nc d\nd a\np q\nq r\nr s\ns t\nt p\n",
}
GOLDEN_MODES = {
    "c6": [],
    "two": ["--per-component"],
    "two-limit1": ["--per-component", "--limit", "1"],
    "two-limit3": ["--per-component", "--limit", "3"],
}
GOLDEN_OUTPUTS = {
    "minseps": ("jsonl", "plain"),
    "triangulations": ("jsonl", "plain"),
    "treedecomps": ("jsonl", "plain", "dot"),
    "crossgraph": ("jsonl", "plain", "dot"),
    "stats": ("jsonl", "plain"),
}
GOLDEN_CASES = {
    f"{command}-{output}-{mode}": (
        GOLDEN_INPUTS[mode.split("-")[0]],
        [command, "--output", output, *extra]
        + (["--delay-stats"] if command == "stats" else []),
    )
    for command, outputs in GOLDEN_OUTPUTS.items()
    for output in outputs
    for mode, extra in GOLDEN_MODES.items()
}


def mask_delays(out):
    """Replace the timing values of --delay-stats records with 0."""
    return re.sub(
        r'"delay_ms": \{[^}]*\}',
        lambda m: re.sub(r"[-+.e\d]+(?=[,}])", "0", m.group()),
        out,
    )


class TestGoldenOutput:
    @pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
    def test_stdout_matches(self, case, capsys, monkeypatch):
        text, argv = GOLDEN_CASES[case]
        monkeypatch.setattr("sys.stdin", stdin_of(text))
        code, out, err = run_cli(capsys, argv)
        assert (code, err) == (0, "")
        assert mask_delays(out) == GOLDEN[case]

    def test_no_stale_cases(self):
        assert sorted(GOLDEN) == sorted(GOLDEN_CASES)

    def test_cli_calls_rebound_names(self, tmp_path, capsys, monkeypatch):
        # bench/tracing.py rebinds these names in the cli module to time
        # each layer, so the CLI must look them up when it runs
        called = []
        for name in ("enum_min_seps", "enum_min_triangulations", "enum_proper_tds", "crosses"):
            def wrapper(*args, _name=name, _fn=getattr(cli, name), **kwargs):
                called.append(_name)
                return _fn(*args, **kwargs)

            monkeypatch.setattr(cli, name, wrapper)
        path = write_cycle(tmp_path, 5)
        for command in ("minseps", "triangulations", "treedecomps", "crossgraph", "stats"):
            called.clear()
            code, _, _ = run_cli(capsys, [command, path, "--format", "dimacs"])
            assert code == 0
            assert set(called) == {
                "minseps": {"enum_min_seps"},
                "triangulations": {"enum_min_triangulations"},
                "treedecomps": {"enum_proper_tds"},
                "crossgraph": {"enum_min_seps", "crosses"},
                "stats": {"enum_min_triangulations"},
            }[command]
