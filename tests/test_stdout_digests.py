"""Byte identity of closed-form output: the SHA-256 of plain and ``--json``
stdout of ``spectrum --method closed-form``, pinned in
``data/closed_form_stdout_sha256.json``.

The cases are the A03 grid (every base with every pair of copy graphs,
``null`` included, so all four corona kinds), C_500 ⊗ {K4, C5}, whose base
spectrum comes from structure, and circulant(40; 1, 3) ⊗ {K4, C5}, whose base
spectrum comes from LAPACK.  Every quotient block goes to LAPACK too, so the
digests hold for the LAPACK build that recorded them; the data file keeps a
fingerprint of that build's rounding, and on a build that rounds differently
the comparison is skipped rather than read as a change in the program.

The plain stdout of C_100000 ⊗ {K4, C5}, 1.1 million lines in long runs of
equal values, is pinned here as a constant, ``SCALE_DIGEST``, under the same
fingerprint; the recording command below does not rewrite it.

To record the digests again, at a tree whose output is trusted:

    PYTHONPATH=src python tests/test_stdout_digests.py
"""

import contextlib
import hashlib
import io
import itertools
import json
from pathlib import Path
import sys

import numpy as np
import pytest

from rcorona import generate, normalized_laplacian
from rcorona.cli import main

DATA = Path(__file__).resolve().parent / "data" / "closed_form_stdout_sha256.json"

_GRID_BASES = {"K3": ("complete", 3), "K4": ("complete", 4), "C4": ("cycle", 4),
               "C5": ("cycle", 5), "C6": ("cycle", 6), "petersen": ("petersen",),
               "K33": ("complete_bipartite", 3, 3)}
_GRID_COPIES = {"null": None, "K1": ("complete", 1), "P2": ("path", 2), "K3": ("complete", 3),
                "C4": ("cycle", 4)}
_GRAPHS = {**_GRID_BASES, **_GRID_COPIES, "C500": ("cycle", 500), "C5": ("cycle", 5),
           "circ40_1_3": ("circulant", 40, 1, 3)}
CASES = [*itertools.product(_GRID_BASES, _GRID_COPIES, _GRID_COPIES),
         ("C500", "K4", "C5"), ("circ40_1_3", "K4", "C5")]
MODES = {"plain": [], "json": ["--json"]}
SCALE_GRAPHS = {"C100000": ("cycle", 100_000), "K4": ("complete", 4), "C5": ("cycle", 5)}
SCALE_DIGEST = "e677adb399d888ae56bff20bcca856bcaecfa58a07d3065b1c13ff1e3c742f64"


def lapack_fingerprint() -> str:
    """SHA-256 of LAPACK's eigenvalues of fixed symmetric matrices of the
    sizes the closed form hands it: quotient stacks of order 1 to 4, and one
    40-vertex normalized Laplacian."""
    rng = np.random.default_rng(20171)
    h = hashlib.sha256()
    for d in (1, 2, 3, 4):
        a = rng.uniform(-1, 1, (64, d, d))
        h.update(np.linalg.eigvalsh(a + a.transpose(0, 2, 1)).tobytes())
    h.update(np.linalg.eigvalsh(normalized_laplacian(generate("circulant", 40, 1, 3))).tobytes())
    return h.hexdigest()


def _pinned() -> dict:
    """The data file; the test is skipped on a LAPACK that rounds
    differently from the one that recorded it."""
    pinned = json.loads(DATA.read_text(encoding="utf-8"))
    if lapack_fingerprint() != pinned["lapack_fingerprint"]:
        pytest.skip("this LAPACK rounds differently from the one that recorded the digests")
    return pinned


def _write_graphs(directory: Path, graphs=_GRAPHS) -> dict[str, str]:
    paths = {}
    for name, spec in graphs.items():
        if spec is None:
            paths[name] = "null"
            continue
        paths[name] = str(directory / f"{name}.el")
        assert main(["generate", *map(str, spec), "--out", paths[name]]) == 0
    return paths


def _stdout(argv) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue().encode()


def digests(directory: Path) -> dict[str, str]:
    """The digest of every case's stdout in every mode, keyed
    'base g1 g2 mode'."""
    paths = _write_graphs(directory)
    found = {}
    for case in CASES:
        argv = ["spectrum", "--corona", "double", *(paths[name] for name in case),
                "--method", "closed-form"]
        for mode, flags in MODES.items():
            found[" ".join((*case, mode))] = hashlib.sha256(_stdout(argv + flags)).hexdigest()
    return found


def test_closed_form_stdout_matches_pinned_digests(tmp_path):
    pinned = _pinned()
    found = digests(tmp_path)
    assert len(found) == len(pinned["digests"]) == 2 * len(CASES)
    changed = sorted(key for key, digest in found.items() if pinned["digests"].get(key) != digest)
    assert not changed, f"{len(changed)} outputs changed, first {changed[:5]}"


def test_closed_form_stdout_at_scale_matches_pinned_digest(tmp_path):
    _pinned()
    paths = _write_graphs(tmp_path, SCALE_GRAPHS)
    argv = ["spectrum", "--corona", "double", *paths.values(), "--method", "closed-form"]
    assert hashlib.sha256(_stdout(argv)).hexdigest() == SCALE_DIGEST


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        record = {"lapack_fingerprint": lapack_fingerprint(), "digests": digests(Path(tmp))}
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{len(record['digests'])} digests written to {DATA}", file=sys.stderr)
