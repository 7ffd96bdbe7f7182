"""Command-line interface: subcommands, exit codes, determinism."""

import argparse
import collections
import contextlib
import functools
import json
from pathlib import Path
import resource
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from harness import child_env
import rcorona
import rcorona.oracle
from rcorona import ConvergenceError, Graph, parse_edge_list, parse_graph_json
from rcorona.cli import build_parser, main
from rcorona.closedform import closed_form_spectrum, flatten
from rcorona.spectra import _WRITE_CHUNK, Spectrum


def _run_cli(argv, threads="1", address_space=None, timeout=120):
    """Run the CLI in a subprocess with the BLAS thread count pinned and,
    if given, an address-space limit (RLIMIT_AS) in bytes."""
    env = child_env(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    return subprocess.run([sys.executable, "-m", "rcorona.cli", *argv], env=env,
                          capture_output=True, timeout=timeout,
                          preexec_fn=limit_memory if address_space else None)


def _stdout_under_1_and_2_threads(argv):
    outputs = []
    for threads in ("1", "2"):
        run = _run_cli(argv, threads)
        assert run.returncode == 0, run.stderr
        outputs.append(run.stdout)
    return outputs


def _generate_files(tmp_path, *specs):
    """Write one catalog graph per (name, family, params...) spec."""
    paths = []
    for name, *args in specs:
        paths.append(str(tmp_path / f"{name}.el"))
        assert main(["generate", *args, "--out", paths[-1]]) == 0
    return paths


def _forbidden(what):
    """A stand-in for a callee that must not run: calling it fails the test
    (pytest.fail raises past the CLI's exit-code handlers)."""
    def call(*args, **kwargs):
        pytest.fail(f"{what} ran")

    return call


@pytest.fixture()
def files(tmp_path):
    def write(name, args):
        path = tmp_path / name
        assert main(["generate", *args, "--out", str(path)]) == 0
        return str(path)

    return {
        "K3": write("K3.el", ["complete", "3"]),
        "K4": write("K4.el", ["complete", "4"]),
        "K2": write("K2.el", ["complete", "2"]),
        "P2": write("P2.el", ["path", "2"]),
        "K1": write("K1.el", ["complete", "1"]),
        "SH": write("SH.el", ["shrikhande"]),
        "RK": write("RK.el", ["rook4x4"]),
        "dir": tmp_path,
    }


class TestGenerate:
    def test_writes_edge_list(self, files):
        g = parse_edge_list(Path(files["K3"]).read_text())
        assert (g.vertex_count, g.edge_count) == (3, 3)

    def test_json_format(self, tmp_path):
        out = tmp_path / "p.json"
        assert main(["generate", "petersen", "--out", str(out), "--format", "json"]) == 0
        assert parse_graph_json(out.read_text()).vertex_count == 10

    def test_stdout(self, capsys):
        assert main(["generate", "path", "3"]) == 0
        assert capsys.readouterr().out == "3 2\n0 1\n1 2\n"

    def test_bad_params_exit_2(self, capsys):
        assert main(["generate", "cycle", "2"]) == 2
        assert main(["generate", "nosuchfamily"]) == 2

    @pytest.mark.parametrize("params", [
        ["complete", "100000"], ["cycle", "100000000"], ["hypercube", "28"],
        ["hypercube", "1000000000000"], ["circulant", "100000000", "1", "2"],
    ])
    def test_beyond_memory_exit_2(self, tmp_path, capsys, monkeypatch, params):
        # refused from the edge count before anything is built
        monkeypatch.setattr("rcorona.graphs._physical_memory", lambda: 8 * 2**30)
        out = tmp_path / "g.el"
        assert main(["generate", *params, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{params[0]}({', '.join(params[1:])}) needs about" in err
        assert "physical memory" in err and not out.exists()

    def test_beyond_address_space_exit_2(self):
        # about 2.7 GiB of edges against a 2 GiB RLIMIT_AS: refused, not a MemoryError
        run = _run_cli(["generate", "cycle", "30000000"], address_space=2 * 2**30, timeout=60)
        assert run.returncode == 2, run.stderr
        assert b"address-space limit" in run.stderr and b"Traceback" not in run.stderr
        assert run.stdout == b""

    def test_deterministic(self, capsys):
        main(["generate", "petersen"])
        first = capsys.readouterr().out
        main(["generate", "petersen"])
        assert capsys.readouterr().out == first


class TestCorona:
    def test_double(self, files, tmp_path, capsys):
        out = tmp_path / "c.el"
        layout = tmp_path / "c.layout.json"
        code = main(["corona", "double", files["K3"], files["P2"], files["P2"],
                     "--out", str(out), "--emit-layout", str(layout)])
        assert code == 0
        g = parse_edge_list(out.read_text())
        assert g.vertex_count == 18
        ranges = json.loads(layout.read_text())
        assert ranges["old"] == [0, 3] and ranges["new"] == [3, 6]
        assert len(ranges["g1_copies"]) == 3 and len(ranges["g2_copies"]) == 3

    def test_vertex_and_edge_kinds(self, files, tmp_path):
        for kind in ("vertex", "edge"):
            out = tmp_path / f"{kind}.el"
            assert main(["corona", kind, files["K3"], files["P2"], "--out", str(out)]) == 0
            assert parse_edge_list(out.read_text()).vertex_count == 12

    def test_null_placeholder(self, files, tmp_path):
        out = tmp_path / "rg.el"
        assert main(["corona", "double", files["K3"], "null", "null", "--out", str(out)]) == 0
        assert parse_edge_list(out.read_text()).vertex_count == 6

    def test_wrong_arity_exit_2(self, files):
        assert main(["corona", "vertex", files["K3"]]) == 2

    def test_disconnected_exit_3(self, tmp_path, files):
        bad = tmp_path / "bad.el"
        bad.write_text("4 2\n0 1\n2 3\n")
        assert main(["corona", "double", str(bad), "null", "null"]) == 3

    def test_allow_disconnected(self, tmp_path, files):
        bad = tmp_path / "bad.el"
        bad.write_text("4 2\n0 1\n2 3\n")
        out = tmp_path / "ok.el"
        assert main(["corona", "double", str(bad), "null", "null",
                     "--allow-disconnected", "--out", str(out)]) == 0


class TestSpectrum:
    def test_numeric_single_graph(self, files, capsys):
        assert main(["spectrum", files["K3"], "--method", "numeric"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        values = [float(v) for v in lines]
        assert values == pytest.approx([0.0, 1.5, 1.5], abs=1e-12)

    def test_both_match_exit_0(self, files, capsys):
        code = main(["spectrum", "--corona", "double", files["K3"], files["P2"], files["P2"],
                     "--method", "both"])
        out = capsys.readouterr().out
        assert code == 0
        assert "MATCH" in out

    def test_bare_r_graph_both_match(self, files, capsys):
        code = main(["spectrum", "--corona", "double", files["K4"], "null", "null", "--method", "both"])
        assert code == 0
        assert "verdict: MATCH\n" in capsys.readouterr().out

    def test_closed_form_builds_no_corona(self, files, capsys, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the closed form built the corona")

        monkeypatch.setattr("rcorona.cli.double_corona", forbidden)
        code = main(["spectrum", "--corona", "double", files["K3"], files["P2"], files["P2"],
                     "--method", "closed-form", "--json"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["vertices"] == 18

    @pytest.mark.parametrize("text", ["0 0\n", "4 2\n0 1\n2 3\n"], ids=["null", "disconnected"])
    def test_closed_form_bad_base_exit_3(self, files, tmp_path, capsys, text):
        base = tmp_path / "base.el"
        base.write_text(text)
        code = main(["spectrum", "--corona", "double", str(base), files["P2"], files["P2"],
                     "--method", "closed-form"])
        assert code == 3
        assert "base graph" in capsys.readouterr().err

    def test_mismatch_exit_1(self, files, capsys):
        # the numeric-vs-closed-form deviation is tiny but nonzero, so an
        # unreachable tolerance yields a negative comparison verdict
        code = main(["spectrum", "--corona", "double", files["K3"], files["P2"], files["P2"],
                     "--method", "both", "--tol", "1e-300"])
        assert code == 1
        assert "MISMATCH" in capsys.readouterr().out

    def test_both_json(self, files, capsys):
        code = main(["spectrum", "--corona", "double", files["K3"], files["P2"], files["P2"],
                     "--method", "both", "--json"])
        assert code == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["match"] is True
        assert obj["vertices"] == 18
        assert len(obj["numeric"]) == 18 and len(obj["closed_form"]) == 18
        assert obj["max_deviation"] <= 1e-8

    @pytest.mark.parametrize("base", ["K3", "SH"])
    def test_both_table_matches_the_per_row_reference(self, files, capsys, base):
        # the table is one format over three columns; the reference prints
        # each row as the per-row f-strings did, from the same values
        argv = ["spectrum", "--corona", "double", files[base], files["P2"], files["K1"],
                "--method", "both"]
        assert main([*argv, "--json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert main(argv) == 0
        rows = [f"{a:>24.17g}  {b:>24.17g}  {abs(a - b):>12.3e}\n"
                for a, b in zip(obj["numeric"], obj["closed_form"], strict=True)]
        want = (f"{'numeric':>24}  {'closed-form':>24}  {'|diff|':>12}\n" + "".join(rows)
                + f"verdict: MATCH\nmax deviation: {obj['max_deviation']:.17g} (tol 1e-08)\n")
        assert capsys.readouterr().out == want

    def test_closed_form_refusal_on_k2_exit_3(self, files, capsys):
        code = main(["spectrum", "--corona", "double", files["K2"], files["P2"], files["P2"],
                     "--method", "closed-form"])
        assert code == 3
        assert "m<n unsupported" in capsys.readouterr().err

    def test_numeric_handles_k2_corona(self, files, capsys):
        code = main(["spectrum", "--corona", "double", files["K2"], files["P2"], files["P2"],
                     "--method", "numeric"])
        assert code == 0
        values = [float(v) for v in capsys.readouterr().out.split()]
        assert len(values) == 9  # 2 + 1 + 2*2 + 1*2

    @pytest.mark.parametrize("text", [
        '{"n": 3}',
        '{"n": 2.7, "edges": [[0, 1]]}',
        '{"n": true, "edges": []}',
        '{"n": 3, "edges": [[0, true]]}',
    ])
    def test_malformed_json_graph_exit_2(self, tmp_path, capsys, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text + "\n")
        assert main(["spectrum", str(bad)]) == 2
        assert "graph JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["nan", "inf", "-5", "0", "abc"])
    def test_bad_tolerance_exit_2(self, files, capsys, tol):
        corona = ["--corona", "double", files["K3"], files["P2"], files["P2"]]
        for argv in (
            ["spectrum", *corona, "--method", "both", "--tol", tol],
            ["spectrum", *corona, "--method", "closed-form", "--tol", tol],
            ["cospectral", files["K3"], files["K3"], files["P2"], files["P2"], "null", "null", "--tol", tol],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert "tolerance must be a finite positive number" in capsys.readouterr().err

    def test_internal_error_exit_4(self, files, capsys, monkeypatch):
        def diverge(*args, **kwargs):
            raise ConvergenceError("QL iteration cap reached")

        monkeypatch.setattr("rcorona.cli.nl_spectrum", diverge)
        assert main(["spectrum", files["K3"]]) == 4
        assert capsys.readouterr().err == "internal error: QL iteration cap reached\n"

    def test_both_runs_the_oracle_once_on_the_corona(self, files, capsys, monkeypatch):
        reduce = rcorona.oracle._householder_tridiagonal
        orders = []

        def recording(mat, *nonzeros):
            orders.append(len(mat))
            return reduce(mat, *nonzeros)

        monkeypatch.setattr("rcorona.oracle._householder_tridiagonal", recording)
        argv = ["spectrum", "--corona", "double", files["SH"], files["K3"], files["P2"], "--method", "both"]
        assert main(argv) == 0
        # Shrikhande (16 vertices, 48 edges) with K3 and P2 copies
        assert orders == [16 + 48 + 16 * 3 + 48 * 2]

    @pytest.mark.parametrize("method, code", [("numeric", 2), ("both", 2), ("closed-form", 0)])
    def test_dense_work_beyond_memory_refused(self, tmp_path, capsys, monkeypatch, method, code):
        graphs = _generate_files(tmp_path, ("C24", "cycle", "24"), ("K4", "complete", "4"),
                                 ("C5", "cycle", "5"))
        # 1 MB fits the 24-vertex base's dense path but not the corona's (N = 264)
        monkeypatch.setattr("rcorona.graphs._physical_memory", lambda: 10**6)
        argv = ["spectrum", "--corona", "double", *graphs, "--method", method]
        assert main(argv) == code
        captured = capsys.readouterr()
        if code:
            assert captured.out == ""
            assert "264x264" in captured.err and "physical memory" in captured.err
        monkeypatch.setattr("rcorona.graphs._physical_memory", lambda: None)
        assert main(argv) == 0

    def test_huge_header_refused_exit_2(self, tmp_path, capsys, monkeypatch):
        # refused by the dense pre-flight before any O(n) work on the graph
        huge = tmp_path / "huge.el"
        huge.write_text("1000000000000000 0\n")
        monkeypatch.setattr("rcorona.graphs._physical_memory", lambda: 8 * 2**30)
        assert main(["spectrum", str(huge)]) == 2
        err = capsys.readouterr().err
        assert "1000000000000000x1000000000000000" in err and "physical memory" in err

    @staticmethod
    def _run_on_huge_base(files, tmp_path, argv, timeout):
        """Run the CLI in a subprocess on a base with 10^15 vertices and no
        edges.  The address-space limit makes a regression that allocates
        per vertex fail fast with a MemoryError instead of exhausting memory."""
        huge = tmp_path / "huge.el"
        huge.write_text("1000000000000000 0\n")
        argv = [a.format(huge=huge, K4=files["K4"]) for a in argv]
        return _run_cli(argv, address_space=2 * 2**30, timeout=timeout)

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--corona", "double", "{huge}", "{K4}", "{K4}", "--method", "closed-form"],
        ["corona", "double", "{huge}", "null", "null"],
    ], ids=["closed-form", "corona"])
    def test_huge_header_corona_routes_exit_3(self, files, tmp_path, argv):
        # the base is disconnected; the check must not allocate per vertex
        run = self._run_on_huge_base(files, tmp_path, argv, timeout=120)
        assert run.returncode == 3, run.stderr
        assert b"connected" in run.stderr and b"Traceback" not in run.stderr

    @pytest.mark.parametrize("argv", [
        ["corona", "double", "{huge}", "null", "null", "--allow-disconnected"],
    ], ids=["corona"])
    def test_huge_header_allow_disconnected_exit_2(self, files, tmp_path, argv):
        # without the connectivity check the assembly itself must refuse the
        # 10^15 layout entries before its per-vertex loops
        run = self._run_on_huge_base(files, tmp_path, argv, timeout=60)
        assert run.returncode == 2, run.stderr
        assert b"1000000000000000 vertices" in run.stderr and b"Traceback" not in run.stderr

    def test_closed_form_beyond_address_space_exit_2(self, tmp_path):
        # C_100000 with K300 twice has 60.2 million eigenvalues, which --json
        # expands, far beyond a 2 GiB RLIMIT_AS: refused before they are
        # expanded, not a MemoryError while printing them
        base, k300 = _generate_files(tmp_path, ("C100000", "cycle", "100000"),
                                     ("K300", "complete", "300"))
        run = _run_cli(["spectrum", "--corona", "double", base, k300, k300, "--method", "closed-form",
                        "--json"], address_space=2 * 2**30, timeout=120)
        assert run.returncode == 2, run.stderr
        assert b"closed-form spectrum of 60200000 values" in run.stderr
        assert b"address-space limit" in run.stderr and b"Traceback" not in run.stderr
        assert run.stdout == b""

    @pytest.mark.parametrize("copies, json_flag, memory, code", [
        # 6 GiB: plain output is printed from its runs and charged per
        # family row, so the 30.2 and 60.2 million values of C_100000 with
        # {K300, null} and {K300, K300} (50004 rows) fit; expanded by
        # --json, the 60.2 million (about 9.3 GiB) do not
        (("K300", "null"), False, 6 * 2**30, 0),
        (("K300", "K300"), False, 6 * 2**30, 0),
        (("K300", "K300"), True, 6 * 2**30, 2),
        # 50 MB: the R-graph's 50002 rows fit, its 200000 values expanded
        # with --json and its family table do not
        (("null", "null"), False, 50 * 10**6, 0),
        (("null", "null"), True, 50 * 10**6, 2),
        # 20 MB: not even the plain R-graph's rows fit
        (("null", "null"), False, 20 * 10**6, 2),
    ], ids=["k300-null", "k300-k300", "k300-k300-json", "r-graph", "r-graph-json", "r-graph-20mb"])
    def test_closed_form_refused_by_its_printed_form(self, tmp_path, capsys, monkeypatch,
                                                     copies, json_flag, memory, code):
        base, k300 = _generate_files(tmp_path, ("C100000", "cycle", "100000"),
                                     ("K300", "complete", "300"))
        files = {"K300": k300, "null": "null"}
        monkeypatch.setattr("rcorona.graphs._physical_memory", lambda: memory)
        # an admitted spectrum is neither expanded nor written: one value
        # stands for it, or its runs' total
        admitted = []
        monkeypatch.setattr("rcorona.cli.flatten",
                            lambda cf: admitted.append(cf.total_multiplicity) or Spectrum(np.zeros(1)))
        monkeypatch.setattr("rcorona.cli._write_runs",
                            lambda values, lengths, write: admitted.append(int(lengths.sum())))
        argv = ["spectrum", "--corona", "double", base, *map(files.get, copies), "--method", "closed-form"]
        assert main(argv + (["--json"] if json_flag else [])) == code
        err = capsys.readouterr().err
        if code:
            assert admitted == [] and "closed-form spectrum of" in err and "physical memory" in err
        else:
            assert len(admitted) == 1 and err == ""

    def test_plain_closed_form_is_printed_from_runs(self, tmp_path, capsys, monkeypatch):
        graphs = _generate_files(tmp_path, ("C500", "cycle", "500"), ("K4", "complete", "4"),
                                 ("C5", "cycle", "5"))
        argv = ["spectrum", "--corona", "double", *graphs, "--method", "closed-form"]
        want = flatten(closed_form_spectrum(*map(rcorona.load_graph, graphs))).to_csv()
        # the N values are never expanded, by the CLI or inside the package
        monkeypatch.setattr("rcorona.cli.flatten", _forbidden("flatten"))
        monkeypatch.setattr("rcorona.closedform.flatten", _forbidden("flatten"))
        assert main(argv) == 0
        assert capsys.readouterr().out == want

    def test_plain_closed_form_peak_is_per_row(self, tmp_path):
        # C_100000 with {K4, C5}: 1.1 million values from 50004 family rows
        # (50001 base groups, one K4 and two C5 fixed families), printed in
        # pieces of at most _WRITE_CHUNK lines; the K4 family's run of
        # 300000 lines takes several.  Its traced peak was 22.7 MB, 454
        # bytes a row, against 71.0 MB (1420 a row) when the values were
        # expanded and printed whole.
        graphs = _generate_files(tmp_path, ("C100000", "cycle", "100000"), ("K4", "complete", "4"),
                                 ("C5", "cycle", "5"))
        pieces = []

        class Sink:
            def write(self, text):
                pieces.append(text.count("\n"))

        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(Sink()):
                code = main(["spectrum", "--corona", "double", *graphs, "--method", "closed-form"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and sum(pieces) == 1_100_000
        assert max(pieces) <= _WRITE_CHUNK < 300_000 and len(pieces) > 1_100_000 // _WRITE_CHUNK
        assert peak <= 600 * 50_004, f"{peak / 50_004:.0f} bytes per row"

    def test_deeply_nested_json_exit_2(self, tmp_path, capsys):
        deep = tmp_path / "deep.json"
        deep.write_text('{"n": ' + "[" * 200_000)
        assert main(["spectrum", str(deep)]) == 2
        assert "graph JSON is nested too deeply" in capsys.readouterr().err

    def test_two_graphs_without_corona_exit_2(self, files, capsys):
        assert main(["spectrum", files["K3"], files["P2"]]) == 2
        assert "spectrum takes one graph file unless --corona is given" in capsys.readouterr().err

    def test_allow_disconnected_is_not_a_spectrum_flag(self, capsys):
        # `corona --allow-disconnected --out F` then `spectrum F` is the route
        with pytest.raises(SystemExit) as exc:
            main(["spectrum", "G.el", "--allow-disconnected"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --allow-disconnected" in capsys.readouterr().err

    def test_closed_form_without_corona_exit_3(self, files, capsys):
        assert main(["spectrum", files["K3"], "--method", "closed-form"]) == 3

    @pytest.mark.parametrize("method", ["both", "closed-form"])
    def test_closed_form_without_corona_refused_before_reading(self, files, capsys, monkeypatch,
                                                               method):
        monkeypatch.setattr("rcorona.cli._load", _forbidden("reading the graph file"))
        monkeypatch.setattr("rcorona.cli.nl_spectrum", _forbidden("the oracle"))
        assert main(["spectrum", files["K3"], "--method", method]) == 3
        assert "pass --corona" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["both", "closed-form"])
    def test_closed_form_without_corona_missing_file_exit_3(self, capsys, method):
        # the route is refused before the file is read
        assert main(["spectrum", "/nonexistent/file.el", "--method", method]) == 3
        assert "pass --corona" in capsys.readouterr().err

    def test_both_refuses_a_non_regular_base_before_building(self, files, tmp_path, capsys,
                                                              monkeypatch):
        (p4,) = _generate_files(tmp_path, ("P4", "path", "4"))
        monkeypatch.setattr("rcorona.cli.double_corona", _forbidden("the corona's assembly"))
        monkeypatch.setattr("rcorona.cli.nl_spectrum", _forbidden("the oracle"))
        argv = ["spectrum", "--corona", "double", p4, files["K3"], "null", "--method", "both"]
        assert main(argv) == 3
        assert "base graph must be regular" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["0 0\n", "4 2\n0 1\n2 3\n"], ids=["null", "disconnected"])
    def test_both_reports_the_closed_form_hypothesis(self, files, tmp_path, capsys, text):
        base = tmp_path / "base.el"
        base.write_text(text)
        argv = ["spectrum", "--corona", "double", str(base), files["P2"], files["P2"], "--method", "both"]
        assert main(argv) == 3
        assert "closed-form spectrum requires a nonempty connected base graph" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["numeric", "both"])
    def test_dense_work_refused_before_assembly(self, files, tmp_path, capsys, monkeypatch, method):
        # C5 with K4 and C5 copies: 125 layout entries and output edges to
        # assemble, a dense 55x55 path to solve; the memory fits the first
        # only.  With both methods the closed form's hypotheses pass, and
        # its solve waits for the pre-flight too
        c5, k4 = _generate_files(tmp_path, ("C5", "cycle", "5"), ("K4", "complete", "4"))
        memory = 50_000
        assert rcorona.corona._ASSEMBLY_BYTES_PER_ENTRY * 125 < memory
        assert memory < rcorona.graphs._DENSE_PEAK_MATRICES * 8 * 55**2
        monkeypatch.setattr("rcorona.graphs._physical_memory", lambda: memory)
        monkeypatch.setattr("rcorona.cli.double_corona", _forbidden("the corona's assembly"))
        monkeypatch.setattr("rcorona.cli.closed_form_spectrum", _forbidden("the closed form's solve"))
        assert main(["spectrum", "--corona", "double", c5, k4, c5, "--method", method]) == 2
        assert "dense 55x55 computation" in capsys.readouterr().err

    def test_byte_identical_reruns(self, files, capsys):
        argv = ["spectrum", "--corona", "double", files["K3"], files["P2"], files["P2"],
                "--method", "both", "--json"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        assert capsys.readouterr().out == first

    def test_blas_thread_count_invariant(self, tmp_path):
        # Petersen with {C4, C4} (N = 125, the largest corona of the
        # acceptance sweep) runs only the unblocked reduction; N = 264 runs
        # blocked panels, then unblocked columns; the sparse coronas of
        # N = 612 (dense_verify's) and 1105 start with the first panel over
        # the nonzero list, and at N = 1105 the panels' trailing
        # matrix-vector products go in blocks of rows; K300's Laplacian lies
        # above the density gate and takes the dense route
        petersen, c24, c36, c65, k4, c5, c4, k300 = _generate_files(
            tmp_path, ("petersen", "petersen"), ("C24", "cycle", "24"),
            ("C36_2_5", "circulant", "36", "2", "5"), ("C65_1_2", "circulant", "65", "1", "2"),
            ("K4", "complete", "4"), ("C5", "cycle", "5"), ("C4", "cycle", "4"), ("K300", "complete", "300"))
        for graphs, order in (((petersen, c4, c4), 125), ((c24, k4, c5), 264), ((c36, k4, c5), 612),
                              ((c65, k4, c5), 1105)):
            one, two = _stdout_under_1_and_2_threads(
                ["spectrum", "--corona", "double", *graphs, "--method", "both"])
            assert b"verdict: MATCH\n" in one
            assert one.count(b"\n") == order + 3
            assert one == two, order
        one, two = _stdout_under_1_and_2_threads(["spectrum", k300, "--method", "numeric"])
        assert one.count(b"\n") == 300
        assert one == two

    def test_closed_form_blas_thread_count_invariant(self, tmp_path):
        # the 500-vertex base's spectrum comes from its structure, not from
        # a LAPACK solve whose last bits follow the thread count
        graphs = _generate_files(tmp_path, ("C500", "cycle", "500"), ("K4", "complete", "4"),
                                 ("C5", "cycle", "5"))
        one, two = _stdout_under_1_and_2_threads(
            ["spectrum", "--corona", "double", *graphs, "--method", "closed-form"])
        assert one.count(b"\n") == 5500
        assert one == two

    def test_header_beyond_any_float_exit_2(self, tmp_path, capsys, monkeypatch):
        # 10^320 vertices: the dense pre-flight's estimate exceeds any float
        huge = tmp_path / "huge.el"
        huge.write_text("1" + "0" * 320 + " 0\n")
        monkeypatch.setattr("rcorona.graphs._physical_memory", lambda: 8 * 2**30)
        assert main(["spectrum", str(huge)]) == 2
        err = capsys.readouterr().err
        assert "needs about inf GiB" in err and "physical memory" in err

    def test_17_digit_output(self, files, capsys):
        main(["spectrum", files["P2"], "--method", "numeric"])
        out = capsys.readouterr().out
        assert "2.2204460492503131e-16" in out or "0\n" in out  # tiny zero noise printed fully
        # C5's eigenvalues 1 - cos(2 pi k / 5) are irrational, so some need
        # all 17 digits
        c5 = str(files["dir"] / "C5.el")
        assert main(["generate", "cycle", "5", "--out", c5]) == 0
        main(["spectrum", c5, "--method", "numeric"])
        out = capsys.readouterr().out
        assert any(len(tok.replace("-", "").replace(".", "").replace("e", "")) >= 17
                   for tok in out.split())

    def test_ql_iteration_cap_exit_4(self, files, capsys, monkeypatch):
        monkeypatch.setattr("rcorona.oracle._QL_MAX_ITER", 0)
        assert main(["spectrum", files["K3"]]) == 4
        assert capsys.readouterr().err.startswith("internal error: tridiagonal QL failed to converge")


class TestCospectral:
    def test_srg_pair_exit_0(self, files, tmp_path, capsys):
        cert = tmp_path / "cert.json"
        code = main(["cospectral", files["SH"], files["RK"],
                     files["K1"], files["K1"], files["K1"], files["K1"],
                     "--out", str(cert)])
        assert code == 0
        obj = json.loads(cert.read_text())
        assert obj["verdict"] == "cospectral"
        assert obj["graph_a"]["n"] == 128
        assert obj["non_regular"] == [True, True]

    def test_json_stdout_is_the_out_file(self, files, tmp_path, capsys):
        cert = tmp_path / "cert.json"
        code = main(["cospectral", files["SH"], files["RK"], "null", "null", "null", "null",
                     "--out", str(cert), "--json"])
        assert code == 0
        assert capsys.readouterr().out.encode() == cert.read_bytes()

    def test_identical_inputs_cospectral(self, files, capsys):
        code = main(["cospectral", files["K3"], files["K3"],
                     files["P2"], files["P2"], "null", "null"])
        assert code == 0

    def test_non_cospectral_seeds_exit_3(self, files, tmp_path, capsys):
        c4 = tmp_path / "C4.el"
        main(["generate", "cycle", "4", "--out", str(c4)])
        code = main(["cospectral", files["K3"], str(c4),
                     "null", "null", "null", "null"])
        assert code == 3

    def test_k1_seeds_exit_3(self, files, capsys):
        # K1 has degree 0, outside the closed form's hypotheses, although
        # its corona with a K1 copy (K2) has a spectrum
        code = main(["cospectral", files["K1"], files["K1"], files["K1"], files["K1"], "null", "null"])
        assert code == 3
        assert "degree >= 1" in capsys.readouterr().err

    def test_seed_verification_uses_requested_tolerance(self, files, capsys):
        # an unreachable tolerance already fails the seed check
        code = main(["cospectral", files["SH"], files["RK"],
                     files["K1"], files["K1"], "null", "null", "--tol", "1e-300"])
        assert code == 3

    @pytest.mark.parametrize("tol", ["1e-8", "1e-300"], ids=["cospectral-seeds", "seeds-refused"])
    def test_dense_work_refused_before_any_seed_is_solved(self, files, capsys, monkeypatch, tol):
        # 100 kB fits a seed's dense 16x16 path but not a corona's 80x80
        # one, and the refusal comes first, even for seeds that would fail
        # their own check at an unreachable tolerance
        monkeypatch.setattr("rcorona.graphs._physical_memory", lambda: 100_000)
        monkeypatch.setattr("rcorona.cospectral.numeric_spectrum", _forbidden("a seed's eigensolve"))
        monkeypatch.setattr("rcorona.spectra.numeric_spectrum", _forbidden("the oracle"))
        code = main(["cospectral", files["SH"], files["RK"],
                     files["K1"], files["K1"], "null", "null", "--tol", tol])
        assert code == 2
        assert "dense 80x80 computation" in capsys.readouterr().err


class TestInvariants:
    def test_k3(self, files, capsys):
        assert main(["invariants", files["K3"]]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["spanning_trees"] == 3
        assert obj["spanning_trees_spectral"] == pytest.approx(3.0, rel=1e-6)
        assert obj["degree_kirchhoff"] == pytest.approx(8.0, rel=1e-9)

    def test_petersen_tree_count(self, tmp_path, capsys):
        p = tmp_path / "pet.el"
        main(["generate", "petersen", "--out", str(p)])
        main(["invariants", str(p)])
        assert json.loads(capsys.readouterr().out)["spanning_trees"] == 2000

    def test_tree_count_beyond_float_range_prints_null(self, tmp_path, capsys):
        # K_150 has 150**148 spanning trees, more than the largest float
        p = tmp_path / "k150.el"
        main(["generate", "complete", "150", "--out", str(p)])
        assert main(["invariants", str(p)]) == 0

        def no_constants(token):
            raise AssertionError(f"{token} is not JSON")

        obj = json.loads(capsys.readouterr().out, parse_constant=no_constants)
        assert obj["spanning_trees"] == 150**148
        assert obj["spanning_trees_spectral"] is None
        assert obj["degree_kirchhoff"] == pytest.approx(149**3, rel=1e-9)

    def test_disconnected_exit_3(self, tmp_path):
        bad = tmp_path / "bad.el"
        bad.write_text("4 2\n0 1\n2 3\n")
        assert main(["invariants", str(bad)]) == 3

    def test_disconnected_refused_before_the_exact_count(self, tmp_path, capsys, monkeypatch):
        two_triangles = tmp_path / "2K3.el"
        two_triangles.write_text("6 6\n0 1\n0 2\n1 2\n3 4\n3 5\n4 5\n")
        monkeypatch.setattr("rcorona.cli.spanning_trees_matrix_tree", _forbidden("the exact count"))
        assert main(["invariants", str(two_triangles)]) == 3
        assert "connected" in capsys.readouterr().err

    def test_missing_file_exit_2(self):
        assert main(["invariants", "/nonexistent/file.el"]) == 2

    def test_one_oracle_run_per_job(self, files, capsys, monkeypatch):
        # the spectral tree count and the Kirchhoff index share one spectrum
        calls = []
        solve = rcorona.spectra.numeric_spectrum

        def counted(matrix):
            calls.append(len(matrix))
            return solve(matrix)

        monkeypatch.setattr("rcorona.spectra.numeric_spectrum", counted)
        assert main(["invariants", files["SH"]]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert calls == [16]
        g = rcorona.generate("shrikhande")
        assert obj["spanning_trees_spectral"] == rcorona.spanning_trees_spectral(g)
        assert obj["degree_kirchhoff"] == rcorona.degree_kirchhoff(g)


@pytest.mark.parametrize("job", [
    ["spectrum", "--corona", "double", "SH", "K3", "C4", "--method", "both"],
    ["cospectral", "SH", "RK", "K3", "K3", "C4", "C4"],
], ids=["spectrum-both", "cospectral"])
def test_each_graph_fact_is_computed_once_per_graph(files, tmp_path, capsys, monkeypatch, job):
    # double_corona and CoronaParams.from_graphs both check the base's
    # connectivity, and every regularity check reads the degrees
    computed = collections.Counter()
    graphs = []  # keeps every counted graph alive, so that no id is reused

    for name in ("connected", "degrees"):
        compute = Graph.__dict__[name].func

        def counted(g, name=name, compute=compute):
            computed[name, g.vertex_count, id(g)] += 1
            graphs.append(g)
            return compute(g)

        prop = functools.cached_property(counted)
        prop.__set_name__(Graph, name)
        monkeypatch.setattr(Graph, name, prop)

    (c4,) = _generate_files(tmp_path, ("C4", "cycle", "4"))
    paths = {**files, "C4": c4}
    assert main([paths.get(arg, arg) for arg in job]) == 0
    assert {(name, n) for name, n, _ in computed} >= {("connected", 16), ("degrees", 16)}
    assert max(computed.values()) == 1, computed


def _subcommands():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return list(sub.choices)


@pytest.mark.parametrize("argv", [["--help"]] + [[name, "--help"] for name in _subcommands()],
                         ids=lambda argv: argv[0])
def test_help_exits_0(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: rcorona")
