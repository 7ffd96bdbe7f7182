"""Byte identity of the numeric oracle's output: the SHA-256 of the plain
stdout of ``spectrum --method numeric``, pinned in
``data/numeric_stdout_sha256.json``.

The inputs run the oracle's every stage: circulant(36; 2, 5) and
circulant(60; 1, 3) with {K4, C5} (N = 612 and 1020), each base under a
seeded relabelling, so that the corona Laplacian takes the sparse first
panel and divide and conquer; the Shrikhande certificate coronas with
{K3, C4} and {null, K3} (N = 304 and 208, one on each side of the divide
and conquer crossover); and K_300, dense and almost all one eigenvalue, so
that its merges deflate nearly everything.  The oracle's last bits depend on
the numpy and BLAS build, so the data file keeps a fingerprint of the
kernels it calls, and on a build that rounds differently the comparison is
skipped rather than read as a change in the program.

To record the digests again, at a tree whose output is trusted:

    PYTHONPATH=src python tests/test_numeric_digests.py
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path
import random
import sys

import numpy as np
import pytest

from rcorona import build_graph, generate, save_graph
from rcorona.cli import main

DATA = Path(__file__).resolve().parent / "data" / "numeric_stdout_sha256.json"

# name: (generator arguments, relabelling seed or None)
_GRAPHS = {"circ36_2_5": (("circulant", 36, 2, 5), 36), "circ60_1_3": (("circulant", 60, 1, 3), 60),
           "shrikhande": (("shrikhande",), None), "K3": (("complete", 3), None),
           "K4": (("complete", 4), None), "C4": (("cycle", 4), None), "C5": (("cycle", 5), None),
           "K300": (("complete", 300), None)}
CASES = [("circ36_2_5", "K4", "C5"), ("shrikhande", "K3", "C4"), ("shrikhande", "null", "K3"),
         ("circ60_1_3", "K4", "C5"), ("K300",)]


def kernel_fingerprint() -> str:
    """SHA-256 of the numpy and BLAS kernels that the oracle calls, on fixed
    inputs of the shapes it hands them: matrix products of a trailing
    update's tile and of a panel's correction, matrix-vector and dot
    products, the einsum sums and the column products of a merge, and a
    weighted bincount."""
    rng = np.random.default_rng(20171)
    a, b = rng.uniform(-1, 1, (56, 64)), rng.uniform(-1, 1, (64, 56))
    m, v = rng.uniform(-1, 1, (300, 300)), rng.uniform(-1, 1, 300)
    rows, cols = rng.uniform(-1, 1, (2, 150)), rng.uniform(-1, 1, (150, 70))
    index = rng.integers(0, 300, 2000)
    h = hashlib.sha256()
    for x in (a @ b, m @ v, m[:64].T @ v[:64], np.dot(v, v), np.einsum("ri,ij->rj", rows, cols),
              np.einsum("ij,ij->j", cols, cols), cols.sum(axis=0), np.multiply.reduce(cols, axis=1),
              np.bincount(index, weights=rng.uniform(-1, 1, 2000), minlength=300), np.sqrt(np.abs(v))):
        h.update(np.asarray(x, dtype=np.float64).tobytes())
    return h.hexdigest()


def _pinned() -> dict:
    """The data file; the test is skipped on a build whose kernels round
    differently from the one that recorded it."""
    pinned = json.loads(DATA.read_text(encoding="utf-8"))
    if kernel_fingerprint() != pinned["kernel_fingerprint"]:
        pytest.skip("this numpy or BLAS rounds differently from the one that recorded the digests")
    return pinned


def _write_graphs(directory: Path) -> dict[str, str]:
    paths = {"null": "null"}
    for name, (spec, seed) in _GRAPHS.items():
        g = generate(*spec)
        if seed is not None:
            perm = list(range(g.vertex_count))
            random.Random(seed).shuffle(perm)
            g = build_graph(g.vertex_count, [(perm[u], perm[v]) for u, v in g.ends.tolist()])
        paths[name] = str(directory / f"{name}.el")
        save_graph(g, paths[name])
    return paths


def _stdout(argv) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue().encode()


def digests(directory: Path) -> dict[str, str]:
    """The digest of every case's plain stdout, keyed by its graphs' names."""
    paths = _write_graphs(directory)
    found = {}
    for case in CASES:
        corona = ["--corona", "double"] if len(case) == 3 else []
        argv = ["spectrum", *corona, *(paths[name] for name in case), "--method", "numeric"]
        found[" ".join(case)] = hashlib.sha256(_stdout(argv)).hexdigest()
    return found


def test_numeric_stdout_matches_pinned_digests(tmp_path):
    pinned = _pinned()
    found = digests(tmp_path)
    assert found.keys() == pinned["digests"].keys()
    changed = sorted(key for key, digest in found.items() if pinned["digests"][key] != digest)
    assert not changed, f"{len(changed)} outputs changed: {changed}"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        record = {"kernel_fingerprint": kernel_fingerprint(), "digests": digests(Path(tmp))}
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{len(record['digests'])} digests written to {DATA}", file=sys.stderr)
