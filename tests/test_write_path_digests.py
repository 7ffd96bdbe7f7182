"""Byte identity of the write path: the SHA-256 of what ``corona`` and
``generate`` write, pinned in ``data/write_path_sha256.json``.

``corona`` is run over the A03 grid (every base with every pair of copy
graphs, ``null`` included, so all four corona kinds), through the
``double`` command and through the ``vertex`` and ``edge`` commands, and on
C_500 ⊗ {K4, C5}.  Each run's stdout is digested in the edge-list and the
``--format json`` form, together with the file that ``--emit-layout``
writes; C_500 also writes both forms through ``--out``.  C_100000 ⊗ {K4, C5}
writes both forms through ``--out`` only, so that labels of 7 digits are
pinned too.  ``generate`` is run for every catalog family, in both forms.
The output is integers only, so the digests do not depend on the BLAS or
LAPACK build.

To record the digests again, at a tree whose output is trusted:

    PYTHONPATH=src python tests/test_write_path_digests.py
"""

import itertools
from pathlib import Path

from harness import _GRID_BASES, _GRID_COPIES, assert_unchanged, pinned, record, run, sha, write_graphs
from rcorona.graphs import GENERATOR_FAMILIES

DATA = Path(__file__).resolve().parent / "data" / "write_path_sha256.json"

_GRAPHS = {**_GRID_BASES, **_GRID_COPIES, "C500": ("cycle", 500), "C100000": ("cycle", 100000)}

# (command, graph names): the grid through every corona command, then C_500
CORONA_CASES = [
    *(("double", case) for case in itertools.product(_GRID_BASES, _GRID_COPIES, _GRID_COPIES)),
    *(("vertex", case) for case in itertools.product(_GRID_BASES, _GRID_COPIES)),
    *(("edge", case) for case in itertools.product(_GRID_BASES, _GRID_COPIES)),
    ("double", ("C500", "K4", "C5")),
]
# (command, graph names) also written through --out, each with its layout
OUT_CASES = [
    ("double", ("C500", "K4", "C5")),
    ("double", ("C100000", "K4", "C5")),
]
# one parameter set per catalog family, two for circulant (s = n/2 pairs
# each vertex once)
GENERATE_CASES = [
    ("complete", 7), ("cycle", 9), ("path", 6), ("complete_bipartite", 3, 4),
    ("circulant", 12, 1, 3), ("circulant", 10, 2, 5), ("petersen",), ("hypercube", 4),
    ("shrikhande",), ("rook4x4",), ("null",),
]
FORMATS = ("edgelist", "json")


def digests(directory: Path) -> dict[str, str]:
    """The digest of everything each case writes, keyed by the case's
    words and what was written."""
    paths = write_graphs(directory, _GRAPHS)
    layout = directory / "layout.json"
    found = {}
    for command, names in CORONA_CASES:
        key = " ".join(("corona", command, *names))
        argv = ["corona", command, *(paths[name] for name in names)]
        for fmt in FORMATS:
            found[f"{key} {fmt}"] = sha(run([*argv, "--format", fmt, "--emit-layout", str(layout)]))
            found[f"{key} layout"] = sha(layout.read_bytes())
    for command, names in OUT_CASES:
        key = " ".join(("corona", command, *names))
        argv = ["corona", command, *(paths[name] for name in names)]
        for fmt in FORMATS:
            out = directory / f"corona.{fmt}"
            run([*argv, "--format", fmt, "--out", str(out), "--emit-layout", str(layout)])
            found[f"{key} {fmt} --out"] = sha(out.read_bytes())
            found[f"{key} layout"] = sha(layout.read_bytes())
    for spec in GENERATE_CASES:
        key = " ".join(("generate", *map(str, spec)))
        for fmt in FORMATS:
            found[f"{key} {fmt}"] = sha(run(["generate", *map(str, spec), "--format", fmt]))
    return found


def test_every_catalog_family_is_generated():
    assert {spec[0] for spec in GENERATE_CASES} == set(GENERATOR_FAMILIES)


def test_write_path_matches_pinned_digests(tmp_path):
    assert_unchanged(digests(tmp_path), pinned(DATA))


if __name__ == "__main__":
    record(DATA, digests)
