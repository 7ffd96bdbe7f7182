"""The memory estimates that refuse a corona, a generated graph, a
closed-form spectrum or a dense solve before it is built, against the peak
of the whole CLI call that makes it; and the graph reader's peak per edge.

Each command runs in a fresh process, and its peak is the growth of its
peak resident memory over a process that only imports the package, so
the writer's buffers count as well as the graph.  Each is run writing to
a file with --out and writing to stdout, where the whole text is joined,
decoded and encoded again.  A change to the writer or to validation that
takes more memory per entry than the estimate fails here, instead of
letting an input that the estimate admits run out of memory.
"""

import subprocess
import sys

import numpy as np
import pytest

from harness import child_env
from rcorona.cli import _closed_form_print_bytes, main
from rcorona.closedform import closed_form_spectrum
from rcorona.corona import _ASSEMBLY_BYTES_PER_ENTRY
from rcorona.graphs import _DENSE_PEAK_MATRICES, _GENERATED_BYTES_PER_EDGE, build_graph, load_graph, save_graph

# The child's own peak.  On Linux it is VmHWM, the high-water mark of the
# child's own address space: ru_maxrss also takes in the high-water mark of
# the process that spawned it (the kernel folds the old address space's into
# it at exec), so a child of a test process that has grown would read that
# test process's peak instead of its own.
_PEAK = """
import resource, sys
def peak():
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    except (OSError, StopIteration):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
"""
# prints the CLI's exit code, 0 with no arguments, and the process's peak
# as the last line of stderr: stdout may carry the graph
_CHILD = _PEAK + """
from rcorona.cli import main
code = main(sys.argv[1:]) if len(sys.argv) > 1 else 0
print(code, peak(), file=sys.stderr)
"""
# the same, for load_graph on the file that the one argument names (the
# CLI is imported too, so that the import-only process is its baseline)
_LOAD_CHILD = _PEAK + """
from rcorona.cli import main
from rcorona import load_graph
load_graph(sys.argv[1])
print(0, peak(), file=sys.stderr)
"""
# ru_maxrss is in kilobytes on Linux and in bytes on macOS; VmHWM is in
# kilobytes
_MAXRSS_BYTES = 1 if sys.platform == "darwin" else 1024
# Reading a corona edge list in the form save_graph writes peaked at 43.3
# bytes per edge for C_20000 with {K4, C5} (41.5 at C_100000), against 61.4
# while the decoded text lived on beside the bytes and the int64 arrays.
_LOAD_BYTES_PER_EDGE = 48


def _peak(argv, child=_CHILD):
    """The peak memory in bytes of a fresh process that imports the CLI and
    runs it on argv, if any (or runs another child script)."""
    run = subprocess.run([sys.executable, "-c", child, *argv], env=child_env(), stdout=subprocess.DEVNULL,
                         stderr=subprocess.PIPE, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    code, peak = map(int, run.stderr.splitlines()[-1].split())
    assert code == 0, run.stderr
    return peak * _MAXRSS_BYTES


@pytest.fixture(scope="module")
def import_peak():
    return _peak([])


def _sink(tmp_path, to_file):
    """The CLI's output options: to a file, or none, to stdout."""
    return ["--out", str(tmp_path / "out")] if to_file else []


@pytest.mark.parametrize("to_file", [True, False], ids=["out", "stdout"])
@pytest.mark.parametrize("fmt", ["edgelist", "json"])
def test_corona_write_within_its_estimate(tmp_path, import_peak, fmt, to_file):
    files = []
    for name, *params in (("c100000", "cycle", "100000"), ("k4", "complete", "4"), ("c5", "cycle", "5")):
        files.append(str(tmp_path / f"{name}.el"))
        assert main(["generate", *params, "--out", files[-1]]) == 0
    growth = _peak(["corona", "double", *files, "--format", fmt, *_sink(tmp_path, to_file),
                    "--emit-layout", str(tmp_path / "layout.json")]) - import_peak
    # C_100000 with {K4, C5}: the old and new vertices, 3 edges per base
    # edge, and each copy's edges and spokes
    n = m = 100_000
    entries = n + m + 3 * m + n * (6 + 4) + m * (5 + 5)
    assert growth <= _ASSEMBLY_BYTES_PER_ENTRY * entries, f"{growth / entries:.1f} bytes per entry"


@pytest.mark.parametrize("to_file", [True, False], ids=["out", "stdout"])
@pytest.mark.parametrize("fmt", ["edgelist", "json"])
def test_generated_graph_within_its_estimate(tmp_path, import_peak, fmt, to_file):
    growth = _peak(["generate", "cycle", "2000000", "--format", fmt, *_sink(tmp_path, to_file)]) - import_peak
    edges = 2_000_000
    assert growth <= _GENERATED_BYTES_PER_EDGE * edges, f"{growth / edges:.1f} bytes per edge"


@pytest.mark.parametrize("base, copies, json_flag", [
    # C_100000's 1.1 million values; C_1000000's R-graph, whose family
    # table has a row for every two values; plain, printed from their runs,
    # and expanded by --json
    ("C100000", ("K4", "C5"), False),
    ("C100000", ("K4", "C5"), True),
    ("C1000000", ("null", "null"), False),
    ("C1000000", ("null", "null"), True),
    # 60.2 million values, plain only: expanded, they would need about 9 GiB
    ("C100000", ("K300", "K300"), False),
], ids=["k4-c5-plain", "k4-c5-json", "r-graph-plain", "r-graph-json", "k300-k300-plain"])
def test_closed_form_spectrum_within_its_estimate(tmp_path, import_peak, base, copies, json_flag):
    files = {"null": "null"}
    for name, *params in ((base, "cycle", base[1:]), ("K4", "complete", "4"), ("C5", "cycle", "5"),
                          ("K300", "complete", "300")):
        files[name] = str(tmp_path / f"{name}.el")
        assert main(["generate", *params, "--out", files[name]]) == 0
    growth = _peak(["spectrum", "--corona", "double", files[base], *map(files.get, copies),
                    "--method", "closed-form", *(["--json"] if json_flag else [])]) - import_peak
    cf = closed_form_spectrum(*(build_graph(0, []) if f == "null" else load_graph(f)
                                for f in (files[base], *map(files.get, copies))))
    need = _closed_form_print_bytes(cf, json_flag, json_flag)
    assert growth <= need, f"{growth} bytes against an estimate of {need}"


def random_connected_graph(n, m, seed):
    """A connected graph on n vertices with m edges: a random tree (each
    vertex joined to an earlier one), then random further edges."""
    rng = np.random.default_rng(seed)
    edges = {(int(rng.integers(v)), v) for v in range(1, n)}
    while len(edges) < m:
        u, v = sorted(map(int, rng.choice(n, 2, replace=False)))
        edges.add((u, v))
    return build_graph(n, sorted(edges))


@pytest.mark.parametrize("specs, order", [
    # a sparse corona: the reduction's first panel runs over the nonzero list
    ((("C65_1_2", "circulant", "65", "1", "2"), ("K4", "complete", "4"), ("C5", "cycle", "5")), 1105),
    # a dense Laplacian, above the density gate; the peak includes reading
    # the file's n(n - 1)/2 edges
    ((("K1000", "complete", "1000"),), 1000),
    # a random connected graph with 3n edges has few repeated eigenvalues,
    # so almost nothing deflates: the top merges solve secular sets of
    # nearly n poles, which they take in blocks of roots, not k x k arrays
    ((("random1105", "random"),), 1105),
], ids=["sparse-corona", "complete", "random-graph"])
def test_numeric_spectrum_within_the_dense_estimate(tmp_path, import_peak, specs, order):
    files = []
    for name, *params in specs:
        files.append(str(tmp_path / f"{name}.el"))
        if params == ["random"]:
            save_graph(random_connected_graph(order, 3 * order, order), files[-1])
        else:
            assert main(["generate", *params, "--out", files[-1]]) == 0
    corona = ["--corona", "double"] if len(files) == 3 else []
    growth = _peak(["spectrum", *corona, *files, "--method", "numeric"]) - import_peak
    matrices = growth / (8 * order * order)
    assert matrices <= _DENSE_PEAK_MATRICES, f"{matrices:.2f} {order}x{order} matrices"


def test_load_graph_peak_per_edge(tmp_path, import_peak):
    files = []
    for name, *params in (("c20000", "cycle", "20000"), ("k4", "complete", "4"), ("c5", "cycle", "5")):
        files.append(str(tmp_path / f"{name}.el"))
        assert main(["generate", *params, "--out", files[-1]]) == 0
    corona = str(tmp_path / "corona.el")
    assert main(["corona", "double", *files, "--out", corona]) == 0
    growth = _peak([corona], _LOAD_CHILD) - import_peak
    # the old and new vertices' 3 edges per base edge, and each copy's
    # edges and spokes
    n = m = 20_000
    edges = 3 * m + n * (6 + 4) + m * (5 + 5)
    assert growth <= _LOAD_BYTES_PER_EDGE * edges, f"{growth / edges:.1f} bytes per edge"
