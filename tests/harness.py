"""What the byte-identity suites (``test_stdout_digests``,
``test_numeric_digests`` and ``test_write_path_digests``) share: the
in-process CLI runner, the catalog writer, the A03 grid, the loader of a
pinned data file, the check of found digests against it and the recorder
each suite's ``__main__`` calls.  Also the environment of a CLI child
process, for the suites that run one.
"""

import contextlib
import hashlib
import io
import json
import os
from pathlib import Path
import sys
import tempfile

import pytest

import rcorona
from rcorona.cli import main

# the A03 grid: every base with every pair of copy graphs, null included, so
# all four corona kinds
_GRID_BASES = {"K3": ("complete", 3), "K4": ("complete", 4), "C4": ("cycle", 4),
               "C5": ("cycle", 5), "C6": ("cycle", 6), "petersen": ("petersen",),
               "K33": ("complete_bipartite", 3, 3)}
_GRID_COPIES = {"null": None, "K1": ("complete", 1), "P2": ("path", 2), "K3": ("complete", 3),
                "C4": ("cycle", 4)}


def child_env(**variables) -> dict[str, str]:
    """os.environ with variables set and this package's source directory
    first on PYTHONPATH, for a child process that imports it."""
    src = str(Path(rcorona.__file__).resolve().parents[1])
    return dict(os.environ, **variables,
                PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))


def run(argv) -> bytes:
    """The stdout of the CLI run in process on argv, which must exit 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == 0, argv
    return out.getvalue().encode()


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def write_graphs(directory: Path, graphs: dict) -> dict[str, str]:
    """Each graph, a name and ``generate`` arguments, written by ``generate
    --out`` into directory, and None as ``null``; returns the paths."""
    paths = {}
    for name, spec in graphs.items():
        paths[name] = "null" if spec is None else str(directory / f"{name}.el")
        if spec is not None:
            run(["generate", *map(str, spec), "--out", paths[name]])
    return paths


def pinned(data: Path, fingerprint=None) -> dict[str, str]:
    """The digests pinned in the data file.  A file recorded with a
    fingerprint of the build's rounding keeps it under the fingerprint
    function's name, and on a build that rounds differently the test is
    skipped rather than read as a change in the program."""
    recorded = json.loads(data.read_text(encoding="utf-8"))
    if fingerprint is None:
        return recorded
    if fingerprint() != recorded[fingerprint.__name__]:
        pytest.skip(f"this build's {fingerprint.__name__} differs from the one that recorded the digests")
    return recorded["digests"]


def assert_unchanged(found: dict[str, str], expected: dict[str, str]) -> None:
    assert found.keys() == expected.keys()
    changed = sorted(key for key, digest in found.items() if expected[key] != digest)
    assert not changed, f"{len(changed)} outputs changed, first {changed[:5]}"


def record(data: Path, digests, fingerprint=None) -> None:
    """Write digests(directory), taken in a temporary directory, to the data
    file, with the fingerprint under its name where there is one."""
    with tempfile.TemporaryDirectory() as tmp:
        found = digests(Path(tmp))
    recorded = found if fingerprint is None else {fingerprint.__name__: fingerprint(), "digests": found}
    data.parent.mkdir(exist_ok=True)
    data.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{len(found)} digests written to {data}", file=sys.stderr)
