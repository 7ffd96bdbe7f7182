"""Command-line interface: subcommands, exit codes, determinism."""

import argparse
import collections
import functools
import json
import os
from pathlib import Path
import resource
import subprocess
import sys

import pytest

import rcorona
from rcorona import ConvergenceError, Graph, parse_edge_list, parse_graph_json
from rcorona.cli import build_parser, main


def _run_cli(argv, threads="1", address_space=None, timeout=120):
    """Run the CLI in a subprocess with the BLAS thread count pinned and,
    if given, an address-space limit (RLIMIT_AS) in bytes."""
    src = str(Path(rcorona.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads,
               PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))

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
        # about 3.4 GiB of edges against a 2 GiB RLIMIT_AS: refused, not a MemoryError
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
        reduce = rcorona.spectra._householder_tridiagonal
        orders = []

        def recording(mat):
            orders.append(len(mat))
            return reduce(mat)

        monkeypatch.setattr("rcorona.spectra._householder_tridiagonal", recording)
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

    def test_byte_identical_reruns(self, files, capsys):
        argv = ["spectrum", "--corona", "double", files["K3"], files["P2"], files["P2"],
                "--method", "both", "--json"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        assert capsys.readouterr().out == first

    def test_blas_thread_count_invariant(self, tmp_path):
        # N = 264 spans more than two panels of the blocked reduction; at
        # N = 1105 its trailing matrix-vector products go in blocks of rows
        k4, c5 = _generate_files(tmp_path, ("K4", "complete", "4"), ("C5", "cycle", "5"))
        for spec, order in ((("C24", "cycle", "24"), 264),
                            (("C65_1_2", "circulant", "65", "1", "2"), 1105)):
            base, = _generate_files(tmp_path, spec)
            one, two = _stdout_under_1_and_2_threads(
                ["spectrum", "--corona", "double", base, k4, c5, "--method", "both"])
            assert b"verdict: MATCH\n" in one
            assert one.count(b"\n") == order + 3
            assert one == two, order

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
        assert any(len(tok.replace("-", "").replace(".", "").replace("e", "")) >= 17
                   for tok in out.split())


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

    def test_disconnected_exit_3(self, tmp_path):
        bad = tmp_path / "bad.el"
        bad.write_text("4 2\n0 1\n2 3\n")
        assert main(["invariants", str(bad)]) == 3

    def test_missing_file_exit_2(self):
        assert main(["invariants", "/nonexistent/file.el"]) == 2


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
