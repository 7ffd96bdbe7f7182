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

import contextlib
import hashlib
import io
import itertools
import json
from pathlib import Path
import sys

from rcorona.cli import main
from rcorona.graphs import GENERATOR_FAMILIES

DATA = Path(__file__).resolve().parent / "data" / "write_path_sha256.json"

_GRID_BASES = {"K3": ("complete", 3), "K4": ("complete", 4), "C4": ("cycle", 4),
               "C5": ("cycle", 5), "C6": ("cycle", 6), "petersen": ("petersen",),
               "K33": ("complete_bipartite", 3, 3)}
_GRID_COPIES = {"null": None, "K1": ("complete", 1), "P2": ("path", 2), "K3": ("complete", 3),
                "C4": ("cycle", 4)}
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


def _run(argv) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == 0, argv
    return out.getvalue().encode()


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _write_graphs(directory: Path) -> dict[str, str]:
    paths = {}
    for name, spec in _GRAPHS.items():
        if spec is None:
            paths[name] = "null"
            continue
        paths[name] = str(directory / f"{name}.el")
        assert main(["generate", *map(str, spec), "--out", paths[name]]) == 0
    return paths


def digests(directory: Path) -> dict[str, str]:
    """The digest of everything each case writes, keyed by the case's
    words and what was written."""
    paths = _write_graphs(directory)
    layout = directory / "layout.json"
    found = {}
    for command, names in CORONA_CASES:
        key = " ".join(("corona", command, *names))
        argv = ["corona", command, *(paths[name] for name in names)]
        for fmt in FORMATS:
            found[f"{key} {fmt}"] = _sha(_run([*argv, "--format", fmt, "--emit-layout", str(layout)]))
            found[f"{key} layout"] = _sha(layout.read_bytes())
    for command, names in OUT_CASES:
        key = " ".join(("corona", command, *names))
        argv = ["corona", command, *(paths[name] for name in names)]
        for fmt in FORMATS:
            out = directory / f"corona.{fmt}"
            _run([*argv, "--format", fmt, "--out", str(out), "--emit-layout", str(layout)])
            found[f"{key} {fmt} --out"] = _sha(out.read_bytes())
            found[f"{key} layout"] = _sha(layout.read_bytes())
    for spec in GENERATE_CASES:
        key = " ".join(("generate", *map(str, spec)))
        for fmt in FORMATS:
            found[f"{key} {fmt}"] = _sha(_run(["generate", *map(str, spec), "--format", fmt]))
    return found


def test_every_catalog_family_is_generated():
    assert {spec[0] for spec in GENERATE_CASES} == set(GENERATOR_FAMILIES)


def test_write_path_matches_pinned_digests(tmp_path):
    pinned = json.loads(DATA.read_text(encoding="utf-8"))
    found = digests(tmp_path)
    assert found.keys() == pinned.keys()
    changed = sorted(key for key, digest in found.items() if pinned[key] != digest)
    assert not changed, f"{len(changed)} outputs changed, first {changed[:5]}"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        record = digests(Path(tmp))
    DATA.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{len(record)} digests written to {DATA}", file=sys.stderr)
