"""No run of code is written twice in the package: a window of four
consecutive lines of ``src/rcorona/*.py``, compared stripped, may appear
only once.  A window that holds a blank line or a comment line is not
compared, nor one whose stripped lines total fewer than 120 characters,
so that short idioms (``else:``, ``return out``) and shared comments pass.
"""

from pathlib import Path

import rcorona

WINDOW, MIN_CHARS = 4, 120


def repeated_windows(paths) -> list[str]:
    """Each place where a window repeats an earlier one, as 'file:line and
    file:line' at the first line of each run of repeated windows."""
    first, repeats = {}, set()
    for path in sorted(paths):
        lines = [line.strip() for line in path.read_text(encoding="utf-8").splitlines()]
        for i in range(len(lines) - WINDOW + 1):
            window = tuple(lines[i : i + WINDOW])
            if all(line and not line.startswith("#") for line in window) and sum(map(len, window)) >= MIN_CHARS:
                place = (path.name, i + 1)
                if window in first:
                    repeats.add((first[window], place))
                else:
                    first[window] = place
    # a repeat that continues the one a line above belongs to its run
    return [f"{a}:{i} and {b}:{j}" for (a, i), (b, j) in sorted(repeats)
            if ((a, i - 1), (b, j - 1)) not in repeats]


def test_no_window_of_four_lines_appears_twice():
    found = repeated_windows(Path(rcorona.__file__).resolve().parent.glob("*.py"))
    assert not found, f"repeated code at {found}"
