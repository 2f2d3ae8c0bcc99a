import hashlib
import io
import itertools
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

from trienum import (
    TreeDecomposition,
    cli,
    connected_components,
    crosses,
    enum_min_seps,
    enum_min_triangulations,
    enum_proper_tds,
    induced_subgraph,
    is_proper,
    is_tree_decomposition,
    parse_graph,
)
from trienum.cli import main

from conftest import cycle_graph, ladder_graph, random_connected_graph


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

    def test_delay_stats_are_nearest_rank_percentiles(self, tmp_path, capsys, monkeypatch):
        # the delays come in run order; the first is kept as it came
        delays = [0.007, 0.001, 0.009, 0.003, 0.002, 0.004, 0.008, 0.006, 0.005, 0.010, 0.0005]

        def enum_min_triangulations(sub, extender, stats):
            stats.delays.extend(delays)
            yield from range(len(delays))

        monkeypatch.setattr(cli, "enum_min_triangulations", enum_min_triangulations)
        path = write_cycle(tmp_path, 6)
        code, out, _ = run_cli(capsys, ["stats", path, "--format", "dimacs", "--delay-stats"])
        assert code == 0
        (rec,) = answers(out, "stats")
        ms = sorted(d * 1000.0 for d in delays)
        assert rec["answer"]["delay_ms"] == {
            "first": delays[0] * 1000.0,
            "p50": ms[5],
            "p90": ms[9],
            "p99": ms[10],
            "max": ms[10],
        }

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


def ascending(row):
    return all(a < b for a, b in zip(row, row[1:]))


def sorted_rows(rows):
    """Each row ascends, and the rows are in ascending order."""
    return all(map(ascending, rows)) and rows == sorted(rows)


# A C6 on the even ids and a C6 with a chord on the odd ids, each cycle
# listed out of order, so that the components' ids interleave
INTERLEAVED = [(0, 4), (4, 8), (8, 2), (2, 10), (10, 6), (6, 0)]
INTERLEAVED += [(1, 7), (7, 3), (3, 11), (11, 5), (5, 9), (9, 1), (3, 9)]


class TestRowsFromMasks:
    """The writers map each answer's rows through the component's id map
    and do not sort the fill pairs or tree edges again, and every output
    style joins the fragments in the order it gets them; these tests pin
    the order they rely on."""

    @pytest.mark.parametrize("extender", ["blackbox", "separator"])
    def test_every_row_and_edge_list_is_sorted(self, extender, tmp_path, capsys):
        rng = random.Random(23)
        longest = 0  # the most rows of any fill, so the test sees some order
        for trial in range(6):
            g = random_connected_graph(rng.randint(6, 10), rng.choice([0.25, 0.4]), rng)
            path = tmp_path / f"g{trial}.json"
            path.write_text(json.dumps({"n": g.n, "edges": [list(e) for e in g.edges()]}))
            argv = [str(path), "--format", "json", "--extender", extender, "--limit", "60"]
            _, out, _ = run_cli(capsys, ["minseps", *argv])
            assert all(ascending(r["answer"]) for r in answers(out, "minsep"))
            _, out, _ = run_cli(capsys, ["triangulations", *argv])
            tris = answers(out, "triangulation")
            longest = max([longest] + [len(r["answer"]["fill"]) for r in tris])
            assert all(sorted_rows(r["answer"]["fill"]) for r in tris)
            _, out, _ = run_cli(capsys, ["treedecomps", *argv])
            for r in answers(out, "treedecomp"):
                assert all(map(ascending, r["answer"]["bags"]))
                assert sorted_rows(r["answer"]["tree"])
            _, out, _ = run_cli(capsys, ["crossgraph", *argv])
            (r,) = answers(out, "crossgraph")
            assert all(map(ascending, r["answer"]["nodes"]))
            assert sorted_rows(r["answer"]["edges"])
        assert longest > 1

    @pytest.mark.parametrize("extender", ["blackbox", "separator"])
    @pytest.mark.parametrize("command", ["minseps", "triangulations", "treedecomps"])
    def test_interleaved_components_match_the_library(
        self, command, extender, capsys, monkeypatch
    ):
        text = "p edge 12 13\n" + "".join(f"e {u + 1} {v + 1}\n" for u, v in INTERLEAVED)
        monkeypatch.setattr("sys.stdin", stdin_of(text))
        code, out, _ = run_cli(
            capsys, [command, "--format", "dimacs", "--per-component", "--extender", extender]
        )
        assert code == 0
        g, _labels = parse_graph(text, "dimacs")
        pieces = [induced_subgraph(g, comp) for comp in connected_components(g)]
        assert [orig for _sub, orig in pieces] == [(0, 2, 4, 6, 8, 10), (1, 3, 5, 7, 9, 11)]
        expected = []
        for cid, (sub, orig) in enumerate(pieces):
            if command == "minseps":
                got = [sorted(orig[v] for v in s) for s in enum_min_seps(sub)]
            elif command == "triangulations":
                got = [
                    {
                        "fill": sorted([orig[u], orig[w]] for u, w in t.fill_edges),
                        "edge_count": t.chordal_graph.edge_count,
                    }
                    for t in enum_min_triangulations(sub, extender)
                ]
            else:
                got = [
                    {
                        "bags": [sorted(orig[v] for v in b) for b in d.bags],
                        "tree": [list(e) for e in d.edges],
                    }
                    for d in enum_proper_tds(sub, extender)
                ]
            expected += [(cid, answer) for answer in got]
        kind = cli.COMMANDS[command].kind
        assert [(r["component"], r["answer"]) for r in answers(out, kind)] == expected


class TestEncoder:
    """Every line the CLI writes is what ``json.dumps`` writes for it."""

    def test_non_ascii_labels(self, capsys, monkeypatch):
        text = "é 名\n名 c\nc d\nd é\nd x\n"
        for command in cli.COMMANDS:
            monkeypatch.setattr("sys.stdin", stdin_of(text))
            code, out, _ = run_cli(capsys, [command])
            assert code == 0
            lines = out.splitlines()
            assert "\\u00e9" in lines[0] and "\\u540d" in lines[0]
            assert lines == [json.dumps(json.loads(line)) for line in lines]

    def test_delay_stats_floats(self, tmp_path, capsys):
        path = write_cycle(tmp_path, 8)
        code, out, _ = run_cli(capsys, ["stats", path, "--format", "dimacs", "--delay-stats"])
        assert code == 0
        lines = out.splitlines()
        (rec,) = answers(out, "stats")
        assert all(isinstance(x, float) for x in rec["answer"]["delay_ms"].values())
        assert lines == [json.dumps(json.loads(line)) for line in lines]


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
        # each layer, so the CLI must look them up when it runs; crossgraph
        # tests its pairs on each node's sides, which
        # TestCrossgraph::test_edges_are_the_public_crossing_relation checks
        called = []
        for name in ("enum_min_seps", "enum_min_triangulations", "enum_proper_tds"):
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
                "crossgraph": {"enum_min_seps"},
                "stats": {"enum_min_triangulations"},
            }[command]


def dimacs_args(tmp_path, g):
    """The CLI arguments that read g from a DIMACS file."""
    path = tmp_path / "g.col"
    lines = [f"p edge {g.n} {g.edge_count}"] + [f"e {u + 1} {v + 1}" for u, v in g.edges()]
    path.write_text("\n".join(lines) + "\n")
    return [str(path), "--format", "dimacs"]


def tree_edges_first(g):
    """The edges of a connected g, breadth-first tree edges from vertex 0
    first: the first brings in two vertices and each later tree edge
    one more."""
    adj = [set() for _ in range(g.n)]
    for u, v in g.edges():
        adj[u].add(v)
        adj[v].add(u)
    seen, queue, tree = {0}, [0], []
    for u in queue:
        for v in sorted(adj[u] - seen):
            seen.add(v)
            queue.append(v)
            tree.append((u, v))
    rest = [e for e in g.edges() if e not in tree and e[::-1] not in tree]
    return tree, rest


def interleaved_edgelist(rng):
    """Two seeded random connected graphs as one edge list with labels
    that are not ASCII. The graphs' tree edges come first, taken in
    turn, so the input ids of the two components interleave."""
    parts = []
    for mark in ("é", "名"):
        g = random_connected_graph(rng.randint(5, 8), rng.choice([0.3, 0.45]), rng)
        tree, rest = tree_edges_first(g)
        parts.append([[(f"{mark}{u}", f"{mark}{v}") for u, v in e] for e in (tree, rest)])
    (tree_a, rest_a), (tree_b, rest_b) = parts
    edges = [e for pair in itertools.zip_longest(tree_a, tree_b) for e in pair if e]
    return "".join(f"{a} {b}\n" for a, b in edges + rest_a + rest_b)


def connected_edgelist(rng):
    g = random_connected_graph(rng.randint(5, 9), rng.choice([0.3, 0.45]), rng)
    return "".join(f"ü{u} ü{v}\n" for u, v in g.edges())


def reference_stdout(text, command, output, extender, per_component):
    """What the writer that built each answer as row lists wrote: JSONL
    records through ``json.dumps``, and its plain and dot renderers."""
    g, labels = parse_graph(text, "edgelist")
    if per_component:
        pieces = [(*induced_subgraph(g, c), cid) for cid, c in enumerate(connected_components(g))]
    else:
        pieces = [(g, tuple(range(g.n)), None)]
    fmt_set = lambda vs: " ".join(str(v) for v in vs)
    fmt_pairs = lambda edges: ",".join(f"{u}-{v}" for u, v in edges) or "-"
    lines = []
    if output == "jsonl":
        header = {"kind": "graph", "n": g.n, "edge_count": g.edge_count, "labels": labels}
        lines.append(json.dumps(header))
    index = 0
    for sub, orig, cid in pieces:
        if command == "minseps":
            kind = "minsep"
            got = [[orig[v] for v in sorted(s)] for s in enum_min_seps(sub)]
            plain = fmt_set
        elif command == "triangulations":
            kind = "triangulation"
            got = [
                {
                    "fill": [[orig[u], orig[w]] for u, w in sorted(t.fill_edges)],
                    "edge_count": t.chordal_graph.edge_count,
                }
                for t in enum_min_triangulations(sub, extender)
            ]
            plain = lambda a: f"fill={fmt_pairs(a['fill'])} m={a['edge_count']}"
        else:
            kind = "treedecomp"
            got = [
                {
                    "bags": [[orig[v] for v in sorted(b)] for b in d.bags],
                    "tree": [[a, b] for a, b in d.edges],
                }
                for d in enum_proper_tds(sub, extender)
            ]
            plain = lambda a: (
                f"bags={'|'.join(map(fmt_set, a['bags']))} tree={fmt_pairs(a['tree'])}"
            )
        for k, answer in enumerate(got):
            if output == "jsonl":
                record = {"kind": kind, "index": index}
                if cid is not None:
                    record["component"] = cid
                record["answer"] = answer
                lines.append(json.dumps(record))
            elif output == "dot":
                dot = [f"graph {f'td{k}' if cid is None else f'td_c{cid}_{k}'} {{"]
                dot += [f'  b{i} [label="{fmt_set(s)}"];' for i, s in enumerate(answer["bags"])]
                dot += [f"  b{a} -- b{b};" for a, b in answer["tree"]]
                lines.append("\n".join(dot + ["}"]))
            else:
                lines.append(("" if cid is None else f"c{cid} ") + plain(answer))
            index += 1
    return "".join(line + "\n" for line in lines)


class TestWriterReference:
    """The answers joined from per-component text fragments are, byte
    for byte, what the row-list writer wrote."""

    @pytest.mark.parametrize("extender", ["blackbox", "separator"])
    @pytest.mark.parametrize("per_component", [False, True])
    @pytest.mark.parametrize("command", ["minseps", "triangulations", "treedecomps"])
    def test_stdout_equals_the_reference(
        self, command, per_component, extender, capsys, monkeypatch
    ):
        rng = random.Random(41)
        outputs = ("jsonl", "plain", "dot") if command == "treedecomps" else ("jsonl", "plain")
        for _ in range(3):
            text = interleaved_edgelist(rng) if per_component else connected_edgelist(rng)
            if per_component:
                g, _labels = parse_graph(text, "edgelist")
                first, second = connected_components(g)
                assert min(second) < max(first)  # the components' ids interleave
            for output in outputs:
                argv = [command, "--output", output, "--extender", extender]
                monkeypatch.setattr("sys.stdin", stdin_of(text))
                code, out, err = run_cli(capsys, argv + ["--per-component"] * per_component)
                assert (code, err) == (0, "")
                assert out == reference_stdout(text, command, output, extender, per_component)

    @pytest.mark.parametrize("extender", ["blackbox", "separator"])
    @pytest.mark.parametrize("output", ["jsonl", "plain"])
    def test_wide_and_chordal_components(self, output, extender, capsys, monkeypatch):
        # 70 vertices on a path, with a 4-cycle at its start and a 4- and
        # a 6-cycle at its end, so fill pairs sit on both sides of 64;
        # then a chordal component, whose one answer has no fill
        wide = [(i, i + 1) for i in range(69)] + [(0, 3), (60, 63), (64, 69)]
        chordal = [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)]
        text = "".join(f"w{u} w{v}\n" for u, v in wide)
        text += "".join(f"k{u} k{v}\n" for u, v in chordal)
        argv = ["triangulations", "--output", output, "--extender", extender]
        for per_component, piece in ((True, text), (False, text[: text.index("k")])):
            monkeypatch.setattr("sys.stdin", stdin_of(piece))
            code, out, err = run_cli(capsys, argv + ["--per-component"] * per_component)
            assert (code, err) == (0, "")
            assert out == reference_stdout(piece, "triangulations", output, extender, per_component)
            lines = out.splitlines()
            assert len(lines) == 2 * 2 * 14 + per_component + (output == "jsonl")
            if per_component:
                no_fill = '"fill": [], "edge_count": 6}}' if output == "jsonl" else "fill=- m=6"
                assert lines[-1].endswith(no_fill)


def count_fragments(monkeypatch):
    """The keys whose text a fragment table makes, in the order made."""
    made = []
    make = cli._Texts.__missing__

    def counting(table, key):
        made.append(key)
        return make(table, key)

    monkeypatch.setattr(cli._Texts, "__missing__", counting)
    return made


class TestFragmentsMadeOnce:
    """Each fragment's text is made once per component run, not once per
    answer that holds it."""

    @pytest.mark.parametrize("output", ["jsonl", "plain"])
    def test_one_text_per_distinct_fill_pair(self, output, tmp_path, capsys, monkeypatch):
        g = cycle_graph(9)
        tris = list(enum_min_triangulations(g))
        distinct = set().union(*(t.fill_edges for t in tris))
        assert (len(tris), len(distinct), sum(len(t.fill_edges) for t in tris)) == (429, 27, 2574)
        # the fill pairs' texts are made into slots, one per bit position
        # u*n + w of the packed fill
        made = []
        make = cli._pair_text

        def counting(vertex, pair, n, p):
            made.append(divmod(p, n))
            return make(vertex, pair, n, p)

        monkeypatch.setattr(cli, "_pair_text", counting)
        argv = ["triangulations", *dimacs_args(tmp_path, g), "--output", output]
        code, out, _ = run_cli(capsys, argv)
        assert code == 0 and out.count("fill") == 429
        assert sorted(made) == sorted(distinct)

    @pytest.mark.parametrize("output", ["jsonl", "plain", "dot"])
    def test_one_text_per_distinct_bag(self, output, tmp_path, capsys, monkeypatch):
        g = ladder_graph(8)
        tds = list(enum_proper_tds(g))
        distinct = set().union(*(d.bags for d in tds))
        assert (len(tds), len(distinct)) == (128, 28)
        made = count_fragments(monkeypatch)
        argv = ["treedecomps", *dimacs_args(tmp_path, g), "--output", output]
        code, _, _ = run_cli(capsys, argv)
        assert code == 0
        bags = [key for key in made if isinstance(key, frozenset)]
        assert len(bags) == len(set(bags)) and set(bags) == distinct
        # the tree edges too, each distinct one once; dot writes them as is
        edges = [key for key in made if isinstance(key, tuple)]
        distinct_edges = set().union(*(d.edges for d in tds))
        assert len(edges) == len(set(edges)) == (0 if output == "dot" else len(distinct_edges))


class TestCrossgraph:
    """The crossing graph tests each pair against one node's sides, swept
    once per node, and its edges are the public ``crosses`` relation."""

    @staticmethod
    def expected_edges(sub, nodes):
        return [
            [i, j]
            for i in range(len(nodes))
            for j in range(i + 1, len(nodes))
            if crosses(sub, nodes[i], nodes[j])
        ]

    @pytest.mark.parametrize("seed", range(4))
    def test_edges_are_the_public_crossing_relation(self, seed, tmp_path, capsys):
        rng = random.Random(900 + seed)
        g = random_connected_graph(rng.randint(7, 11), rng.choice([0.2, 0.3, 0.45]), rng)
        code, out, _ = run_cli(capsys, ["crossgraph", *dimacs_args(tmp_path, g)])
        assert code == 0
        (rec,) = answers(out, "crossgraph")
        nodes = [frozenset(row) for row in rec["answer"]["nodes"]]
        assert nodes == list(enum_min_seps(g))
        assert rec["answer"]["edges"] == self.expected_edges(g, nodes)

    @pytest.mark.parametrize("seed", range(3))
    def test_per_component(self, seed, capsys, monkeypatch):
        text = interleaved_edgelist(random.Random(950 + seed))
        monkeypatch.setattr("sys.stdin", stdin_of(text))
        code, out, _ = run_cli(capsys, ["crossgraph", "--per-component"])
        assert code == 0
        g, _labels = parse_graph(text, "edgelist")
        records = answers(out, "crossgraph")
        assert [r["component"] for r in records] == [0, 1]
        for rec, comp in zip(records, connected_components(g)):
            sub, orig = induced_subgraph(g, comp)
            local = {o: i for i, o in enumerate(orig)}
            nodes = [frozenset(local[v] for v in row) for row in rec["answer"]["nodes"]]
            assert rec["answer"]["edges"] == self.expected_edges(sub, nodes)
