"""The numeric oracle's import boundary: ``rcorona.oracle`` is loaded only
by the routes that solve, and by them before they read any input.

Each case runs in a fresh process, since a module once imported stays in
``sys.modules``.  The child records whether the oracle was loaded when the
CLI first read a graph file and whether it is loaded at the end.  Importing
the package, ``--help``, ``generate``, ``corona``, plain and ``--json``
closed-form spectra and the library's ``closed_form_spectrum`` never load
it, so the closed form cannot reach the oracle's code; ``spectrum --method
numeric|both``, ``cospectral`` and ``invariants`` load it before their first
read, so that its compile never lands after a large input is allocated.
"""

import json
import subprocess
import sys

import pytest

from harness import child_env, write_graphs

# prints, as the last line of stderr, the CLI's exit code, whether the
# oracle was loaded at each graph read, and whether it is loaded at the end
_CHILD = """
import json, sys
import rcorona
mode, args = sys.argv[1], sys.argv[2:]
code, reads = 0, []
if mode == "cli":
    import rcorona.cli as cli
    load = cli.load_graph
    def recording(path):
        reads.append("rcorona.oracle" in sys.modules)
        return load(path)
    cli.load_graph = recording
    try:
        code = cli.main(args)
    except SystemExit as exc:
        code = exc.code
elif mode == "library":
    from rcorona import closed_form_spectrum, flatten, load_graph
    flatten(closed_form_spectrum(*map(load_graph, args)))
print(json.dumps([code, reads, "rcorona.oracle" in sys.modules]), file=sys.stderr)
"""

_GRAPHS = {"P": ("petersen",), "K3": ("complete", 3), "C4": ("cycle", 4), "SH": ("shrikhande",),
           "RK": ("rook4x4",), "K1": ("complete", 1)}
CORONA = ["--corona", "double", "P", "K3", "C4"]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    directory = tmp_path_factory.mktemp("graphs")
    return {**write_graphs(directory, _GRAPHS), "out": str(directory / "out")}


def _child(files, mode, argv):
    """The exit code, the oracle's presence at each graph read and at the
    end, of a fresh process that runs argv (graph names replaced by their
    files) in mode: "import", "cli" or "library"."""
    argv = [files.get(a, a) for a in argv]
    run = subprocess.run([sys.executable, "-c", _CHILD, mode, *argv], env=child_env(),
                         stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    return json.loads(run.stderr.splitlines()[-1])


@pytest.mark.parametrize("mode, argv", [
    ("import", []),
    ("cli", ["--help"]),
    ("cli", ["generate", "cycle", "5", "--out", "out"]),
    ("cli", ["corona", "double", "P", "K3", "C4", "--out", "out"]),
    ("cli", ["spectrum", *CORONA, "--method", "closed-form"]),
    ("cli", ["spectrum", *CORONA, "--method", "closed-form", "--json"]),
    ("library", ["P", "K3", "C4"]),
], ids=["import", "help", "generate", "corona", "closed-form", "closed-form-json", "library-closed-form"])
def test_the_closed_form_and_the_writers_never_load_the_oracle(files, mode, argv):
    code, reads, loaded = _child(files, mode, argv)
    assert code == 0
    assert not any(reads) and not loaded


@pytest.mark.parametrize("argv", [
    ["spectrum", "P", "--method", "numeric"],
    ["spectrum", *CORONA, "--method", "numeric"],
    ["spectrum", *CORONA, "--method", "both"],
    ["cospectral", "SH", "RK", "K1", "K1", "K1", "K1"],
    ["invariants", "P"],
], ids=["numeric", "numeric-corona", "both", "cospectral", "invariants"])
def test_the_routes_that_solve_load_the_oracle_before_any_read(files, argv):
    code, reads, loaded = _child(files, "cli", argv)
    assert code == 0
    assert reads and all(reads) and loaded
