"""Stdout of the benchmark-shaped commands, pinned byte for byte.

Each case runs one of the four benchmark workload commands in-process on
the same graph, built here with the suite's own generators, and compares
the sha256 of its whole stdout with a digest recorded from an earlier
build. A change to a writer or to an enumerator's order that moves one
byte of these runs fails here. A digest is re-recorded only when a
change moves the output on purpose.
"""

import hashlib
import random

import pytest

from trienum.cli import main

from conftest import cycle_graph, ladder_graph, random_connected_graph

GRAPHS = {
    "c11": lambda: cycle_graph(11),
    "random30": lambda: random_connected_graph(30, 0.2, random.Random(1)),
    "random40": lambda: random_connected_graph(40, 0.2, random.Random(0)),
    "ladder12": lambda: ladder_graph(12),
}

# (graph, command and flags) -> sha256 of stdout
DIGESTS = {
    ("c11", "triangulations", "--extender", "blackbox"):
        "56218aa0dd104237fa8e8701abcce9e778967d655c7d602f9dc299f0156770bc",
    ("c11", "triangulations", "--extender", "separator"):
        "13571ea67bb1e548905d367b29c03c6e4269f8c76725ae361147db604da3d834",
    ("random30", "triangulations", "--limit", "2000", "--extender", "blackbox"):
        "4cdd3af3bb0c5070bef704a5fdb973276f846fe2d1428e6edff3ff2cca298dc2",
    ("random30", "triangulations", "--limit", "2000", "--extender", "separator"):
        "2b9f1f46091ad402d157fdb591e38db7e016c96362c05236f2b24bc449940196",
    ("random30", "triangulations", "--limit", "2000", "--output", "plain"):
        "b6283fff6ca90ab2a527947689991b766a3087adf09e605fc433af9d29cc3588",
    ("random40", "minseps", "--limit", "20000"):
        "a8d62d861d0c61d3287717e62d426e6de51b13c518b05009ef37dd367661d4dd",
    # the ladder's two extenders give the same triangulations in the same order
    ("ladder12", "treedecomps", "--extender", "blackbox"):
        "7f6b09f0f40b52567844945834d83eb99d5cd92468b26c410496387804852350",
    ("ladder12", "treedecomps", "--extender", "separator"):
        "7f6b09f0f40b52567844945834d83eb99d5cd92468b26c410496387804852350",
}


@pytest.mark.parametrize("case", sorted(DIGESTS), ids="-".join)
def test_stdout_digest(case, tmp_path, capsys):
    name, *argv = case
    g = GRAPHS[name]()
    path = tmp_path / f"{name}.txt"
    path.write_text("".join(f"{u} {v}\n" for u, v in g.edges()))
    assert main([argv[0], str(path), *argv[1:]]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert hashlib.sha256(captured.out.encode()).hexdigest() == DIGESTS[case]
