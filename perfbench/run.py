#!/usr/bin/env python3
"""rcorona benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each job calls ``rcorona.cli.main(argv)``
in-process on files this benchmark wrote, one job after another (a closed
loop with one client), with the BLAS thread count pinned to 1.  Every job's
output passes an independent gate and a byte-identity check.  ``--trace 0``
measures the end-to-end metrics; ``--trace 1`` alternates untraced and
traced passes over fresh jobs of the same kind and reports per-layer times,
exact work counters and the tracing overhead.  The last line of stdout is
one JSON object: correct, attempted, failed, metrics.  See
perfbench/README.md for the workloads and metrics.
"""

import argparse
import contextlib
import ctypes
import gc
import hashlib
import io
import json
import math
import os
from pathlib import Path
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

BLAS_THREADS = 1
SETUP_REPEATS = 3
COLD_START_PERIOD_S = 2.0
ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
# The host's speed drifts by tens of percent within a minute when other
# tenants load it, and a slow spell slows every kind of work alike.  A fixed
# reference kernel is therefore timed every REF_PERIOD_S throughout the run,
# and every reported time is scaled by REF_NOMINAL_S over the median kernel
# time within REF_WINDOW_S of it: seconds at the kernel's nominal speed.
# REF_NOMINAL_S is the kernel's time on an idle 2-vCPU Intel Xeon host with
# Python 3.11 and numpy 2.4.  Raw wall times are printed beside the scaled
# ones.
REF_PERIOD_S = 0.5
REF_WINDOW_S = 2.0
REF_NOMINAL_S = 0.015


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def blas_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


# --- provenance ----------------------------------------------------------------


def source_digest():
    """SHA-256 over the program's and the benchmark's Python sources."""
    h = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *BENCH_DIR.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return "unavailable (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable"


def blas_runtime_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln})
    except OSError:
        return None
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                return fn()
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(args, source_sha):
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "git_commit": git_commit(),
        "source_sha256": source_sha,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_runtime": blas_runtime_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "loop": "closed, 1 client, in-process",
    }


# --- host speed ----------------------------------------------------------------


class Speedometer:
    """Times a fixed reference kernel to track the host's current speed."""

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._mat = rng.standard_normal((600, 600))
        self._vec = rng.standard_normal(600)
        self.ticks = []  # (midpoint, seconds)
        self.checksum = 0.0

    def tick(self):
        """Time one run of the kernel: a pure-Python float loop, like QL and
        root polishing; dense matrix-vector products on a 2.9 MB matrix, like
        Householder; and building a set of edge tuples and formatting them,
        like graph validation, assembly and serialization."""
        start = time.perf_counter()
        acc = 0.0
        for i in range(30000):
            acc += math.hypot(i, 1.0)
        for _ in range(40):
            acc += float(self._vec @ (self._mat @ self._vec))
        seen, edges = set(), []
        for i in range(25000):
            edge = (i, (i * 7919) % 25000)
            if edge not in seen:
                seen.add(edge)
                edges.append(edge)
        acc += len("\n".join(f"{u} {v}" for u, v in edges[:5000]))
        end = time.perf_counter()
        self.ticks.append(((start + end) / 2, end - start))
        self.checksum += acc

    def maybe_tick(self):
        if not self.ticks or time.perf_counter() - self.ticks[-1][0] >= REF_PERIOD_S:
            self.tick()

    def scale(self, start, seconds):
        """Wall seconds measured from ``start`` at nominal host speed."""
        mid = start + seconds / 2
        near = [s for t, s in self.ticks if abs(t - mid) <= REF_WINDOW_S + seconds / 2]
        if not near:
            near = [min(self.ticks, key=lambda tick: abs(tick[0] - mid))[1]]
        return seconds * REF_NOMINAL_S / statistics.median(near)

    def median(self):
        return statistics.median(s for _, s in self.ticks)


# --- running jobs --------------------------------------------------------------


class Run:
    """Executes gated jobs and keeps the tallies of one benchmark run."""

    def __init__(self, cli, digest_path: Path):
        self.cli = cli
        self.speed = Speedometer()
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.violations = {}
        self.digest_path = digest_path
        self.digests = json.loads(digest_path.read_text()) if digest_path.exists() else {}

    def call(self, job, tracer=None):
        """Run one job; only the cli.main call is inside the timed interval."""
        from workloads import Result

        out, err = io.StringIO(), io.StringIO()
        # Every job starts from a collected heap, as a new CLI process does;
        # otherwise a full collection lands in a different job on each run.
        gc.collect()
        with tracer.installed() if tracer else contextlib.nullcontext():
            main = self.cli.main  # looked up per call: the traced wrapper when installed
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(list(job.argv))
            except SystemExit as exc:  # argparse usage errors
                code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
            except Exception:  # the installed CLI would print a traceback and exit 1
                code = 1
                err.write(traceback.format_exc())
            seconds = time.perf_counter() - start
        return Result(code, out.getvalue(), err.getvalue(), start, seconds)

    def execute(self, job, tracer=None):
        res = self.call(job, tracer)
        try:
            reason = job.check(res)
        except Exception as exc:  # a gate that cannot parse the output fails the job
            reason = f"gate raised {exc!r}"
        h = hashlib.sha256(f"{res.code}\n".encode() + res.stdout.encode())
        for path in job.outputs:
            h.update(b"\0" + (path.read_bytes() if path.exists() else b""))
        digest = h.hexdigest()
        first = self.digests.setdefault(job.key, digest)
        if first != digest:
            reason = f"output bytes differ from an earlier run of the same job ({reason or 'gate passed'})"
        self.attempted += 1
        if reason is None:
            return res
        if job.known_defect and first == digest:
            self.violations[job.key] = reason
        else:
            self.failed += 1
            self.failures.append(f"{job.key}: {reason}")
        return res

    def save_digests(self):
        tmp = self.digest_path.with_suffix(f".{os.getpid()}.tmp")
        stored = json.loads(self.digest_path.read_text()) if self.digest_path.exists() else {}
        stored.update(self.digests)
        tmp.write_text(json.dumps(stored, sort_keys=True))
        os.replace(tmp, self.digest_path)


def set_up(run, factory, workdir):
    """Set up ``SETUP_REPEATS`` times; returns the last workload and the
    scaled set-up times."""
    timed = []
    for k in range(SETUP_REPEATS):
        if k:
            shutil.rmtree(wl.dir)
        run.speed.tick()
        wl = factory(workdir / f"setup{k}")
        start = time.perf_counter()
        wl.setup()
        for job in [wl.job(0), *wl.setup_jobs()]:
            run.execute(job)
        timed.append((start, time.perf_counter() - start))
    run.speed.tick()
    return wl, [run.speed.scale(*t) for t in timed]


def cold_start(run):
    """Time one `python -m rcorona.cli --help` in a new process; returns
    (start, seconds)."""
    env = blas_env()
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    run.speed.tick()
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "rcorona.cli", "--help"], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    seconds = time.perf_counter() - start
    run.speed.tick()
    run.attempted += 1
    if proc.returncode != 0 or not proc.stdout.startswith("usage: rcorona"):
        run.failed += 1
        run.failures.append(f"cold start: exit {proc.returncode}: {proc.stderr.strip()[:200]}")
    return start, seconds


def tail(samples, percentile):
    """Nearest-rank percentile: (value, number of samples beyond it)."""
    ordered = sorted(samples)
    rank = max(math.ceil(percentile / 100 * len(ordered)), 1)
    return ordered[rank - 1], len(ordered) - rank


def measure(run, wl, seconds):
    """Closed loop over fresh jobs until the time is up and a pass is whole,
    with a cold start every COLD_START_PERIOD_S between jobs, so that the
    cold starts sample the same spells of host load as the jobs.  Returns
    the (start, seconds) of each job and of each cold start."""
    timed, cold = [], []
    now = time.perf_counter()
    deadline, next_cold = now + seconds, now
    while now < deadline or len(timed) % wl.pass_length:
        if now >= next_cold:
            cold.append(cold_start(run))
            next_cold += COLD_START_PERIOD_S
        run.speed.maybe_tick()
        res = run.execute(wl.job(len(timed) + 1))
        timed.append((res.start, res.seconds))
        now = time.perf_counter()
    run.speed.tick()
    return timed, cold


def measure_traced(run, wl, seconds):
    """Alternate an untraced and a traced pass of ``wl.trace_pass`` fresh jobs
    while another pair fits in the time, at least one pair.  Returns the
    timed jobs of each kind and one (tracer, scale factor) per traced pass."""
    from tracer import Tracer

    untraced, traced, passes = [], [], []
    start = time.perf_counter()
    i = 1
    while True:
        for sink, tracer in ((untraced, None), (traced, Tracer())):
            timed = []
            for _ in range(wl.trace_pass):
                run.speed.maybe_tick()
                res = run.execute(wl.job(i), tracer)
                timed.append((res.start, res.seconds))
                if tracer is not None:
                    tracer.counts["cli.stdout_bytes"] += len(res.stdout.encode())
                i += 1
            sink.extend(timed)
            if tracer is not None:
                passes.append((tracer, timed))
        elapsed = time.perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > seconds:  # no room for another pair
            break
    run.speed.tick()
    scaled = []
    for tracer, timed in passes:
        raw = sum(s for _, s in timed)
        scaled.append((tracer, sum(run.speed.scale(*t) for t in timed) / raw))
    return untraced, traced, scaled


# --- metrics -------------------------------------------------------------------


def end_to_end(times, setups, cold, tail_percentile):
    value, _ = tail(times, tail_percentile)
    return {
        "jobs_per_s": (len(times) / sum(times), "1/s"),
        "job_s.p50": (statistics.median(times), "s"),
        "job_s.tail": (value, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (statistics.median(setups), "s"),
        "cold_start_s": (cold, "s"),
    }


def per_layer(run, untraced, traced, passes, trace_pass):
    jobs = len(traced)

    def seconds(name, kind="inclusive"):
        return sum(getattr(t, kind)[name] * factor for t, factor in passes) / jobs

    first = passes[0][0]  # counters come from one pass of fixed jobs, so they repeat exactly

    def count(name):
        return first.counts[name] / trace_pass

    closed_form = seconds("closedform.closed_form_spectrum")
    base_copy = seconds("closedform.base_copy_spectra")
    traced_s = sum(run.speed.scale(*t) for t in traced)
    untraced_s = sum(run.speed.scale(*t) for t in untraced)
    return {
        "spectra.numeric_spectrum.s": (seconds("spectra.numeric_spectrum"), "s"),
        "spectra.normalized_laplacian.s": (seconds("spectra.normalized_laplacian"), "s"),
        "spectra.eig_calls": (count("spectra.eig_calls"), "count"),
        "spectra.eig_dim_sum": (count("spectra.eig_dim_sum"), "count"),
        "spectra.eig_flops_computed": (count("spectra.eig_flops_computed"), "flop"),
        "spectra.compare_spectra.s": (seconds("spectra.compare_spectra"), "s"),
        "spectra.max_deviation": (first.max_deviation, "abs"),
        "closedform.base_copy_spectra.s": (base_copy, "s"),
        "closedform.closed_form_spectrum.s": (closed_form, "s"),
        "closedform.assembly_s": (closed_form - base_copy, "s"),
        "closedform.flatten.s": (seconds("closedform.flatten"), "s"),
        "closedform.root_families": (count("closedform.root_families"), "count"),
        "closedform.root_degree_sum": (count("closedform.root_degree_sum"), "count"),
        "graphs.load_graph.s": (seconds("graphs.load_graph"), "s"),
        "graphs.save_graph.s": (seconds("graphs.save_graph"), "s"),
        "graphs.bytes_read": (count("graphs.bytes_read"), "B"),
        "graphs.bytes_written": (count("graphs.bytes_written"), "B"),
        "corona.double_corona.s": (seconds("corona.double_corona"), "s"),
        "corona.vertices_out": (count("corona.vertices_out"), "count"),
        "corona.edges_out": (count("corona.edges_out"), "count"),
        "cospectral.build_cospectral_pair.s": (seconds("cospectral.build_cospectral_pair"), "s"),
        "cli.main.s": (seconds("cli.main"), "s"),
        "cli.self_s": (seconds("cli.main", "self_time"), "s"),
        "cli.stdout_bytes": (count("cli.stdout_bytes"), "B"),
        "cli.error_contract_violations": (len(run.violations), "count"),
        "trace.overhead_ratio": (traced_s / untraced_s, "ratio"),
    }


def layer_report(passes, untraced):
    self_time, total, jobs = {}, 0.0, 0
    for tracer, _ in passes:
        for layer, s in tracer.layer_self_time().items():
            self_time[layer] = self_time.get(layer, 0.0) + s
        total += tracer.inclusive["cli.main"]
        jobs += tracer.calls["cli.main"]
    shares = ", ".join(f"{layer} {100 * s / total:.1f}%" for layer, s in
                       sorted(self_time.items(), key=lambda kv: -kv[1]))
    layers = sum(v for k, v in self_time.items() if k != "cli")
    return [
        f"layer self-time shares of traced cli.main ({jobs} jobs): {shares}",
        f"accounting (raw wall s/job): traced cli.main {total / jobs:.6f} = layer self "
        f"{layers / jobs:.6f} + cli self {self_time.get('cli', 0.0) / jobs:.6f}; untraced job "
        f"{statistics.fmean(s for _, s in untraced):.6f} (mean)",
    ]


# --- entry point -----------------------------------------------------------------


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "rcorona" / "cli.py").is_file():
        print(f"error: no rcorona sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    os.environ.update(blas_env())  # before numpy is first imported
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import rcorona.cli as cli
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    source_sha = source_digest()
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = WORK_ROOT / f"run-{os.getpid()}"
    run = Run(cli, WORK_ROOT / f"digests-{source_sha[:16]}.json")
    workload = WORKLOADS[args.workload]
    try:
        wl, setups = set_up(run, lambda d: workload(args.seed, d), workdir)
        if args.trace:
            untraced, traced, passes = measure_traced(run, wl, args.seconds)
            metrics = per_layer(run, untraced, traced, passes, wl.trace_pass)
            report = layer_report(passes, untraced)
        else:
            timed, cold = measure(run, wl, args.seconds)
            times = [run.speed.scale(*t) for t in timed]
            cold_s = statistics.median(run.speed.scale(*t) for t in cold)
            metrics = end_to_end(times, setups, cold_s, wl.tail_percentile)
            raw = [s for _, s in timed]
            report = [
                f"job_s.tail is p{wl.tail_percentile:g} of {len(times)} measured jobs, "
                f"{tail(times, wl.tail_percentile)[1]} beyond it; cold_start_s is the median "
                f"of {len(cold)} cold starts",
                f"raw wall seconds: job_s.p50 {statistics.median(raw):.6f}, "
                f"job_s.tail {tail(raw, wl.tail_percentile)[0]:.6f}",
            ]
        report.append(f"host speed: reference kernel median {run.speed.median():.6f} s over "
                      f"{len(run.speed.ticks)} ticks, nominal {REF_NOMINAL_S} s")
        run.save_digests()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"rcorona benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("provenance: " + json.dumps(provenance(args, source_sha), sort_keys=True))
    print(f"jobs: attempted {run.attempted} (set-up and cold starts included), "
          f"failed {run.failed}, failed_ratio {run.failed / run.attempted:.6g}")
    for line in run.failures[:20]:
        print(f"FAILED {line}")
    for key, reason in sorted(run.violations.items()):
        print(f"error-contract violation (known defect, not counted as failed) {key}: "
              f"{reason.splitlines()[0]}")
    for line in report:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value!r} {unit}")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
