"""Span recorder that wraps the rcorona modules' public functions from outside.

Nothing inside the package is edited: while a ``Tracer`` is installed, every
module-level name in ``rcorona.*`` that refers to a public function of one of
the layer modules is rebound to a timing wrapper, and the original binding is
restored when the ``installed()`` block ends.  Rebinding the imported names too
(``rcorona.cli.nl_spectrum``, ``rcorona.closedform.nl_spectrum``, ...) is what
makes cross-module calls visible, because the package imports functions by
name.

Each span adds its duration to an inclusive total and its duration minus its
direct children's to a self total.  Exact work counters are taken at the same
boundaries from the arguments and results, never from the clock.
"""

from collections import Counter, defaultdict
import contextlib
import functools
import importlib
import inspect
import os
import sys
import time

# The package's modules in the north-star commands.  ``invariants`` is left
# out on purpose: no workload calls it (its exact count is O(N^3) in Python
# big integers).
LAYERS = ("graphs", "corona", "spectra", "closedform", "cospectral", "cli")

# ``closedform`` imports ``nl_spectrum`` for the base and copy spectra; calls
# through that binding get their own span so the closed form's eigensolve can
# be told apart from its own assembly.
_CALL_SITE_SPANS = {("closedform", "nl_spectrum"): "closedform.base_copy_spectra"}


def _numeric_spectrum_counts(tracer, args, kwargs, result):
    mat = args[0] if args else kwargs["mat"]
    n = len(mat)
    tracer.counts["spectra.eig_calls"] += 1
    tracer.counts["spectra.eig_dim_sum"] += n
    # Householder tridiagonalization of a symmetric n x n matrix costs 4n^3/3
    # flops (Golub & Van Loan, section 8.3); the O(n^2) QL sweep is left out.
    tracer.counts["spectra.eig_flops_computed"] += (4 * n**3) // 3


def _compare_counts(tracer, args, kwargs, result):
    tracer.max_deviation = max(tracer.max_deviation, result.max_deviation)


def _flatten_counts(tracer, args, kwargs, result):
    cfs = args[0] if args else kwargs["cfs"]
    families = list(cfs.root_families)
    if cfs.excess_family is not None:
        families.append(cfs.excess_family)
    tracer.counts["closedform.root_families"] += len(families)
    tracer.counts["closedform.root_degree_sum"] += sum(f.poly.degree for f in families)


def _double_corona_counts(tracer, args, kwargs, result):
    graph = result[0]
    tracer.counts["corona.vertices_out"] += graph.vertex_count
    tracer.counts["corona.edges_out"] += graph.edge_count


def _load_counts(tracer, args, kwargs, result):
    tracer.counts["graphs.bytes_read"] += os.path.getsize(args[0] if args else kwargs["path"])


def _save_counts(tracer, args, kwargs, result):
    tracer.counts["graphs.bytes_written"] += os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])


_COUNTERS = {
    "spectra.numeric_spectrum": _numeric_spectrum_counts,
    "spectra.compare_spectra": _compare_counts,
    "closedform.flatten": _flatten_counts,
    "corona.double_corona": _double_corona_counts,
    "graphs.load_graph": _load_counts,
    "graphs.save_graph": _save_counts,
}


class Tracer:
    """Inclusive and self time per span name, call counts and work counters."""

    def __init__(self):
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.max_deviation = 0.0
        self._child_time = []  # one accumulator per open span
        self._wrappers = self._build_wrappers()

    def _span(self, name, fn):
        count = _COUNTERS.get(name)
        child_time = self._child_time
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            child_time.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = child_time.pop()
                self.inclusive[name] += elapsed
                self.self_time[name] += elapsed - children
                self.calls[name] += 1
                if child_time:
                    child_time[-1] += elapsed
            if count is not None:
                count(self, args, kwargs, result)
            return result

        return span

    def _build_wrappers(self):
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"rcorona.{layer}")
            for name in module.__all__:
                fn = getattr(module, name)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrappers[fn] = self._span(f"{layer}.{name}", fn)
        return wrappers

    @contextlib.contextmanager
    def installed(self):
        """Rebind every package-level reference to a traced function."""
        rebound = []
        try:
            for mod_name, module in list(sys.modules.items()):
                if mod_name != "rcorona" and not mod_name.startswith("rcorona."):
                    continue
                layer = mod_name.rpartition(".")[2]
                for attr, value in list(vars(module).items()):
                    if not inspect.isfunction(value) or value not in self._wrappers:
                        continue
                    wrapper = self._wrappers[value]
                    site = _CALL_SITE_SPANS.get((layer, attr))
                    if site is not None:
                        wrapper = self._span(site, wrapper)
                    rebound.append((module, attr, value))
                    setattr(module, attr, wrapper)
            yield self
        finally:
            for module, attr, value in reversed(rebound):
                setattr(module, attr, value)

    def layer_self_time(self):
        """Self seconds summed per layer (the prefix of each span name)."""
        totals = defaultdict(float)
        for name, seconds in self.self_time.items():
            totals[name.partition(".")[0]] += seconds
        return dict(totals)
