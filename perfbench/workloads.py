"""The benchmark's seeded workloads: input files, CLI jobs and their gates.

Every input is written by this module from ``(workload, seed, job index)``;
the program under test only ever sees the files.  Each job carries a gate
that checks its output independently of the code that produced it: exit
codes against the README, verdict lines, eigenvalue counts, and for the
closed form two conservation laws computed from the corona's degrees.
"""

from dataclasses import dataclass
from fractions import Fraction
import json
import math
from pathlib import Path
import random
from typing import Callable

from rcorona.graphs import load_graph

# The CLI's default --tol, and the agreement the north star asks for.
MATCH_TOL = 1e-8
# |sum(lambda) - N| and |sum(lambda^2) - trace(L^2)| for the closed form at
# N = 5500.  The residual measured there is about 2e-10; this leaves a margin
# of 50 while still catching a single eigenvalue off by 1e-8.
CONSERVATION_TOL = 1e-8


@dataclass(frozen=True)
class Result:
    code: int
    stdout: str
    stderr: str
    start: float  # time.perf_counter() when the call began
    seconds: float


@dataclass(frozen=True)
class Job:
    key: str  # identity of the inputs; repeats of a key must print the same bytes
    argv: tuple
    check: Callable  # Result -> None when the gate passes, else the reason
    outputs: tuple = ()  # files written by the job, digested with its stdout
    # A known error-contract defect: its gate is evaluated like any other,
    # but a miss is tallied as a contract violation, not as a failed job.
    known_defect: bool = False


# --- graph files -------------------------------------------------------------


@dataclass(frozen=True)
class Shape:
    """Vertex count, edge count and degree of a regular graph (n = 0: null)."""

    n: int
    m: int
    r: int


NULL = Shape(0, 0, 0)


def write_edge_list(path: Path, n: int, edges) -> Path:
    lines = [f"{n} {len(edges)}"] + [f"{u} {v}" for u, v in edges]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def complete(n):
    return n, [(i, j) for i in range(n) for j in range(i + 1, n)]


def cycle(n):
    return n, [(i, (i + 1) % n) for i in range(n)]


def relabelled_circulant(n, connections, rng):
    """Circulant graph on n vertices under a random vertex permutation."""
    perm = list(range(n))
    rng.shuffle(perm)
    return n, [(perm[i], perm[(i + s) % n]) for s in connections for i in range(n)]


def catalog():
    """The A03 sweep's graphs plus the Shrikhande / 4x4 rook seed pair."""
    graphs = {
        "K1": complete(1),
        "P2": (2, [(0, 1)]),
        "K3": complete(3),
        "K4": complete(4),
        "C4": cycle(4),
        "C5": cycle(5),
        "C6": cycle(6),
        "K33": (6, [(i, 3 + j) for i in range(3) for j in range(3)]),
        "petersen": (
            10,
            [(i, (i + 1) % 5) for i in range(5)]
            + [(i, i + 5) for i in range(5)]
            + [(5 + i, 5 + (i + 2) % 5) for i in range(5)],
        ),
    }
    cells = [(a, b) for a in range(4) for b in range(4)]
    index = {cell: k for k, cell in enumerate(cells)}
    # Shrikhande: Cayley graph of Z4 x Z4 on {±(1,0), ±(0,1), ±(1,1)}.
    graphs["shrikhande"] = (
        16,
        sorted(
            {
                tuple(sorted((index[(a, b)], index[((a + da) % 4, (b + db) % 4)])))
                for a, b in cells
                for da, db in ((1, 0), (0, 1), (1, 1))
            }
        ),
    )
    # 4x4 rook's graph: same row or same column.
    graphs["rook4x4"] = (
        16,
        [(index[p], index[q]) for p in cells for q in cells
         if index[p] < index[q] and (p[0] == q[0] or p[1] == q[1])],
    )
    return graphs


def shape_of(n, edges) -> Shape:
    return Shape(n, len(edges), 2 * len(edges) // n if n else 0)


def corona_size(g: Shape, g1: Shape, g2: Shape) -> int:
    return g.n + g.m + g.n * g1.n + g.m * g2.n


def corona_edge_count(g: Shape, g1: Shape, g2: Shape) -> int:
    return 3 * g.m + g.n * (g1.m + g1.n) + g.m * (g2.m + g2.n)


def trace_of_square(g: Shape, g1: Shape, g2: Shape) -> Fraction:
    """trace(L^2) = N + sum over edges of 2/(d_u d_v) for the double corona of
    regular graphs, from the degrees alone: old vertices 2r + n1, new
    vertices 2 + n2, copy vertices r1 + 1 and r2 + 1."""
    d_old, d_new = 2 * g.r + g1.n, 2 + g2.n
    d_1, d_2 = g1.r + 1, g2.r + 1
    edge_terms = (
        Fraction(g.m, d_old * d_old)
        + Fraction(2 * g.m, d_old * d_new)
        + Fraction(g.n * g1.m, d_1 * d_1)
        + Fraction(g.n * g1.n, d_old * d_1)
        + Fraction(g.m * g2.m, d_2 * d_2)
        + Fraction(g.m * g2.n, d_new * d_2)
    )
    return corona_size(g, g1, g2) + 2 * edge_terms


# --- gates -------------------------------------------------------------------


def expect_code(code):
    def check(res: Result):
        if res.code != code:
            return f"exit {res.code}, documented {code}: {res.stderr.strip()[:200]}"
        return None

    return check


def check_both(total: int):
    """`spectrum --method both`: exit 0, MATCH, deviation <= 1e-8, N rows."""

    def check(res: Result):
        if res.code != 0:
            return f"exit {res.code}: {res.stderr.strip()[:200]}"
        lines = res.stdout.splitlines()
        if len(lines) != total + 3:
            return f"{len(lines) - 3} rows, expected {total}"
        if lines[-2] != "verdict: MATCH":
            return lines[-2]
        deviation = float(lines[-1].split()[2])
        if not deviation <= MATCH_TOL:
            return f"max deviation {deviation!r} > {MATCH_TOL}"
        return None

    return check


def check_conservation(g: Shape, g1: Shape, g2: Shape):
    """`spectrum --method closed-form`: N values, sum = N, sum of squares =
    trace(L^2) from the degrees."""
    total = corona_size(g, g1, g2)
    square = float(trace_of_square(g, g1, g2))

    def check(res: Result):
        if res.code != 0:
            return f"exit {res.code}: {res.stderr.strip()[:200]}"
        values = [float(v) for v in res.stdout.split()]
        if len(values) != total:
            return f"{len(values)} values, expected {total}"
        trace = math.fsum(values)
        if not abs(trace - total) <= CONSERVATION_TOL:
            return f"sum {trace!r} != {total}"
        trace2 = math.fsum(v * v for v in values)
        if not abs(trace2 - square) <= CONSERVATION_TOL:
            return f"sum of squares {trace2!r} != {square!r}"
        return None

    return check


def check_construct(out: Path, layout: Path, g: Shape, g1: Shape, g2: Shape):
    """`corona --out F --emit-layout L`: re-parse F, check counts and layout."""
    total, edges = corona_size(g, g1, g2), corona_edge_count(g, g1, g2)

    def check(res: Result):
        if res.code != 0:
            return f"exit {res.code}: {res.stderr.strip()[:200]}"
        graph = load_graph(str(out))
        if (graph.vertex_count, graph.edge_count) != (total, edges):
            return f"wrote {graph.vertex_count}/{graph.edge_count}, expected {total}/{edges}"
        spans = json.loads(layout.read_text(encoding="utf-8"))
        ranges = [spans["old"], spans["new"], *spans["g1_copies"], *spans["g2_copies"]]
        if max(end for _, end in ranges) != total:
            return f"layout total {max(end for _, end in ranges)}, expected {total}"
        return None

    return check


def check_cospectral(total: int):
    """`cospectral`: the documented verdict for Shrikhande / rook seeds."""

    def check(res: Result):
        if res.code != 0:
            return f"exit {res.code}: {res.stderr.strip()[:200]}"
        lines = res.stdout.splitlines()
        expected = [
            "verdict: cospectral",
            f"sizes: {total} and {total} vertices",
            "non-regular: True and True",
        ]
        if [lines[0], lines[2], lines[3]] != expected:
            return " | ".join(lines)
        deviation = float(lines[1].split()[2])
        if not deviation <= MATCH_TOL:
            return f"max deviation {deviation!r} > {MATCH_TOL}"
        return None

    return check


# --- workloads ---------------------------------------------------------------


class Workload:
    """Writes a workload's inputs under ``workdir`` and hands out its jobs.

    ``job(i)`` is deterministic in (seed, i) and is asked for in increasing
    i.  Job 0 is the set-up warm-up; ``setup_jobs()`` are further gated
    checks that belong to set-up.  Measuring stops at a multiple of
    ``pass_length`` jobs, and ``trace_pass`` jobs make one pass of the traced
    run.

    ``tail_percentile`` is fixed per workload: the highest percentile with at
    least ten jobs beyond it in a 25-second run on a slow spell of the host.
    Fixing it keeps job_s.tail the same statistic when a faster program fits
    more jobs into a run.
    """

    prefetch = 8  # jobs whose inputs set-up writes ahead of time
    pass_length = 1
    trace_pass = 4

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.dir = workdir
        self._jobs = {}

    def rng(self, i):
        return random.Random(f"{self.name}/{self.seed}/{i}")

    def setup(self):
        self.dir.mkdir(parents=True, exist_ok=True)
        self.attachments = {}
        for name in ("K4", "C5"):
            n, edges = catalog()[name]
            self.attachments[name] = (write_edge_list(self.dir / f"{name}.el", n, edges), shape_of(n, edges))
        for i in range(self.prefetch):
            self.job(i)

    def setup_jobs(self):
        return []

    def job(self, i) -> Job:
        if i not in self._jobs:
            self._jobs[i] = self.make_job(i)
        return self._jobs[i]


class DenseVerify(Workload):
    """`spectrum --corona double B K4 C5 --method both`, B a fresh connected
    4-regular circulant on 36 vertices (N = 612) for every job."""

    name = "dense_verify"
    base_n = 36
    tail_percentile = 75.0  # 42 to 50 jobs per run

    def make_job(self, i):
        rng = self.rng(i)
        n = self.base_n
        pairs = [(a, b) for a in range(1, n // 2) for b in range(a + 1, n // 2)
                 if math.gcd(math.gcd(a, b), n) == 1]
        base = write_edge_list(self.dir / f"B{i}.el", *relabelled_circulant(n, rng.choice(pairs), rng))
        (k4, s1), (c5, s2) = self.attachments["K4"], self.attachments["C5"]
        g = Shape(n, 2 * n, 4)
        argv = ("spectrum", "--corona", "double", str(base), str(k4), str(c5), "--method", "both")
        return Job(f"{self.name}/{self.seed}/{i}", argv, check_both(corona_size(g, s1, s2)))


class ClosedScale(Workload):
    """`spectrum --corona double B K4 C5 --method closed-form`, B a fresh
    relabelled C_500 (a circulant with one step coprime to 500), N = 5500."""

    name = "closed_scale"
    base_n = 500
    tail_percentile = 80.0  # about 51 jobs per run
    oracle_n = 24  # set-up cross-check against the dense oracle (N = 264)

    def _base(self, i, n, tag):
        rng = self.rng(i)
        step = rng.choice([s for s in range(1, n // 2) if math.gcd(s, n) == 1])
        path = write_edge_list(self.dir / f"{tag}{i}.el", *relabelled_circulant(n, (step,), rng))
        return path, Shape(n, n, 2)

    def make_job(self, i):
        base, g = self._base(i, self.base_n, "B")
        (k4, s1), (c5, s2) = self.attachments["K4"], self.attachments["C5"]
        argv = ("spectrum", "--corona", "double", str(base), str(k4), str(c5), "--method", "closed-form")
        return Job(f"{self.name}/{self.seed}/{i}", argv, check_conservation(g, s1, s2))

    def setup_jobs(self):
        base, g = self._base("oracle", self.oracle_n, "oracle")
        (k4, s1), (c5, s2) = self.attachments["K4"], self.attachments["C5"]
        argv = ("spectrum", "--corona", "double", str(base), str(k4), str(c5), "--method", "both")
        return [Job(f"{self.name}/{self.seed}/oracle", argv, check_both(corona_size(g, s1, s2)))]


class Construct(Workload):
    """`corona double C_n K4 C5 --out F --emit-layout L`: the write path, with
    a fresh relabelling of C_5000 per job (1.3 MB of edge list out)."""

    name = "construct"
    base_n = 5000
    tail_percentile = 80.0  # 60 to 70 jobs per run
    trace_pass = 10

    def make_job(self, i):
        base = write_edge_list(self.dir / f"B{i}.el", *relabelled_circulant(self.base_n, (1,), self.rng(i)))
        (k4, s1), (c5, s2) = self.attachments["K4"], self.attachments["C5"]
        out, layout = self.dir / "corona.el", self.dir / "layout.json"
        g = Shape(self.base_n, self.base_n, 2)
        argv = ("corona", "double", str(base), str(k4), str(c5), "--out", str(out), "--emit-layout", str(layout))
        return Job(f"{self.name}/{self.seed}/{i}", argv, check_construct(out, layout, g, s1, s2), (out, layout))


class SmallBatch(Workload):
    """One pass is the A03 sweep as 168 CLI jobs, four Shrikhande/rook
    certificates and six error-contract jobs; passes repeat in a seeded
    order, so inputs are heavily shared."""

    name = "small_batch"
    # 9 to 11 passes of 178 jobs per run.  The four certificates are the top
    # 2.2% of every pass, a quarter each; p99.2 sits inside the second
    # slowest of them (the {null, K3} pair), whatever the number of passes.
    tail_percentile = 99.2
    bases = ("K3", "K4", "C4", "C5", "C6", "petersen", "K33")
    attachments_a03 = ("null", "K1", "P2", "K3", "C4")
    certificates = (("K1", "K1"), ("P2", "null"), ("null", "K3"), ("K3", "C4"))

    def setup(self):
        self.dir.mkdir(parents=True, exist_ok=True)
        graphs = catalog()
        files = {name: write_edge_list(self.dir / f"{name}.el", n, e) for name, (n, e) in graphs.items()}
        shapes = {name: shape_of(n, e) for name, (n, e) in graphs.items()}
        files["null"], shapes["null"] = "null", NULL
        _, edges = cycle(4)
        files["2C4"] = write_edge_list(self.dir / "2C4.el", 8, edges + [(u + 4, v + 4) for u, v in edges])
        files["loop"] = write_edge_list(self.dir / "loop.el", 2, [(0, 0)])
        for name, text in (
            ("json_no_edges", '{"n": 3}'),
            ("json_float_n", '{"n": 2.7, "edges": [[0, 1]]}'),
            ("json_bool_n", '{"n": true, "edges": []}'),
        ):
            files[name] = self.dir / f"{name}.json"
            files[name].write_text(text + "\n", encoding="utf-8")

        def f(name):
            return str(files[name])

        jobs = []
        for b in self.bases:
            for a1 in self.attachments_a03:
                for a2 in self.attachments_a03:
                    if a1 == a2 == "null":
                        continue
                    total = corona_size(shapes[b], shapes[a1], shapes[a2])
                    argv = ("spectrum", "--corona", "double", f(b), f(a1), f(a2), "--method", "both")
                    jobs.append((f"a03/{b}/{a1}/{a2}", argv, check_both(total)))
        for a1, a2 in self.certificates:
            total = corona_size(shapes["shrikhande"], shapes[a1], shapes[a2])
            argv = ("cospectral", f("shrikhande"), f("rook4x4"), f(a1), f(a1), f(a2), f(a2))
            jobs.append((f"cert/{a1}/{a2}", argv, check_cospectral(total)))
        # README exit codes: 2 usage error (bad input files), 3 violated hypothesis.
        jobs += [
            ("refuse/m_lt_n", ("spectrum", "--corona", "double", f("P2"), f("P2"), f("P2"),
                               "--method", "closed-form"), expect_code(3)),
            ("refuse/disconnected", ("spectrum", "--corona", "double", f("2C4"), f("K1"), f("K1"),
                                     "--method", "both"), expect_code(3)),
            ("refuse/self_loop", ("spectrum", f("loop")), expect_code(2)),
        ]
        self.pass_jobs = [Job(f"{self.name}/{key}", argv, check) for key, argv, check in jobs]
        # Malformed JSON graphs (no edges, non-integer n, boolean n) are bad
        # input files and should exit 2; today they end in a traceback or are
        # accepted.
        self.pass_jobs += [
            Job(f"{self.name}/contract/{name}",
                ("spectrum", "--corona", "double", f("C4"), f(name), "null", "--method", "numeric"),
                expect_code(2), known_defect=True)
            for name in ("json_no_edges", "json_float_n", "json_bool_n")
        ]
        self.pass_length = self.trace_pass = len(self.pass_jobs)
        self.order = []

    def job(self, i):
        # Job 0, the warm-up, is the largest certificate (N = 304), which
        # touches every layer the pass uses; measured passes follow in a
        # seeded order, one full pass per len(pass_jobs) indices.
        if i == 0:
            return next(j for j in self.pass_jobs if j.key.endswith("cert/K3/C4"))
        pass_index, k = divmod(i - 1, len(self.pass_jobs))
        if k == 0:
            self.order = list(range(len(self.pass_jobs)))
            random.Random(f"{self.name}/{self.seed}/{pass_index}").shuffle(self.order)
        return self.pass_jobs[self.order[k]]


WORKLOADS = {cls.name: cls for cls in (DenseVerify, ClosedScale, SmallBatch, Construct)}
