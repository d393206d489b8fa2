"""End-to-end command-line behavior, run in process via glct.cli.main."""
import fnmatch
import json
import math
import os
import re
import resource
import shlex
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import glct
from glct import LctParams, ProductContext, SignalNd, block_rows
from glct.product import program_block
from glct import cli
from glct import experiments as xp
from glct.experiments import _sorted_magnitudes as sorted_magnitudes
from glct.cli import build_parser, main
from glct.io import fmt_num, read_graph, read_signal, write_signal
from glct.params import sample_abc


SRC = Path(__file__).resolve().parent.parent / "src"
CHILD_ADDRESS_SPACE = 1024**3  # bytes; a child that grows past it fails with MemoryError


def run(*argv):
    return main([str(a) for a in argv])


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (CHILD_ADDRESS_SPACE, CHILD_ADDRESS_SPACE))


def _no_transform(monkeypatch):
    """Fail the test if the command runs a block transform."""
    def transform(*args, **kwargs):
        raise AssertionError("a transform ran before the rates were checked")

    monkeypatch.setattr(glct.product, "program_block", transform)
    monkeypatch.setattr(xp, "program_block", transform)


def _frozen_gamma_expansion(start, stop, step):
    """The unbounded loop --gammas ranges were expanded with."""
    out, k = [], 0
    while True:
        g = round(start + k * step, 10)
        if g > stop + 1e-12:
            return out
        out.append(g)
        k += 1


class TestGenGraph:
    def test_ring_file(self, tmp_path):
        out = tmp_path / "g.json"
        assert run("gen-graph", "ring", 14, "--out", out) == 0
        g = read_graph(out)
        assert g.n == 14 and g.edge_count == 14
        sidecar = json.loads((tmp_path / "g.json.run.json").read_text())
        assert sidecar["config"]["command"] == "gen-graph"

    def test_lowstretch_is_tree(self, tmp_path):
        out = tmp_path / "t.json"
        assert run("gen-graph", "lowstretch", 16, "--out", out) == 0
        assert read_graph(out).edge_count == 15

    def test_invalid_size_exits_2(self, capsys):
        assert run("gen-graph", "ring", 2) == 2
        assert "n >= 3" in capsys.readouterr().err

    def test_negative_lowstretch_size_exits_2(self, capsys):
        assert run("gen-graph", "lowstretch", -3) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "n >= 4" in err

    def test_stdout_json(self, capsys):
        assert run("gen-graph", "path", 3) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["n"] == 3

    @pytest.mark.parametrize("name", ["g.csv", "g.CSV"])
    def test_csv_path_exits_2(self, tmp_path, capsys, name):
        # graph files have no CSV form
        assert run("gen-graph", "ring", 4, "--out", tmp_path / name) == 2
        assert "JSON only" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", [
    ("compress", "--gamma", 0.5, "--n1", 6, "--n2", 3),
    ("bench", "additivity", "--signal", "x1", "--trials", 2),
    ("bench", "reversibility", "--signal", "x1", "--trials", 2),
])
def test_negative_seed_exits_2(tmp_path, capsys, command):
    out = tmp_path / "out.json"
    assert run(*command, "--seed", -5, "--out", out) == 2
    assert "--seed must be non-negative" in capsys.readouterr().err
    assert not out.exists() and not (tmp_path / "out.json.run.json").exists()


_TRANSFORM = ("transform", "--signal", "{tmp}/x.json", "--graph", "{tmp}/g.json", "--params", "1,1,0,1")
_COMPRESS = ("compress", "--gamma", 0.5, "--n1", 10, "--n2", 4)
_BENCH = ("bench", "reversibility", "--signal", "x1", "--trials", 3)


@pytest.mark.parametrize("command,out,spy", [
    (("gen-graph", "ring", 4), "{blocker}/g.json", None),
    (_BENCH + ("--curves-dir", "{blocker}"), None, None),
    (_BENCH + ("--curves-dir", "{blocker}"), "{tmp}/out.json", "experiments.suite_reversibility"),
    (_BENCH, "{blocker}/out.json", "experiments.suite_reversibility"),
    (_BENCH, "{tmp}", "experiments.suite_reversibility"),
    (_COMPRESS + ("--recon-dir", "{blocker}"), "{tmp}/out.json", "cli.ProductContext"),
    (_COMPRESS + ("--curves-dir", "{blocker}"), "{tmp}/out.json", "cli.ProductContext"),
    (_COMPRESS + ("--curves-dir", "{blocker}/sub"), "{tmp}/out.json", "cli.ProductContext"),
    (_COMPRESS, "{blocker}/sub/out.json", "cli.ProductContext"),
    (_TRANSFORM, "{blocker}/y.json", "cli.ProductContext"),
], ids=["gen-graph", "bench-curves-dir", "bench-curves-dir-out", "bench-out-under-file",
        "bench-out-is-dir", "compress-recon-dir-out", "compress-curves-dir-out",
        "compress-curves-dir-under-file", "compress-out-under-file", "transform-out-under-file"])
def test_failed_write_exits_2(tmp_path, capsys, monkeypatch, command, out, spy):
    """An output that cannot be written exits 2 before any set-up or study
    runs, and writes nothing."""
    blocker = tmp_path / "afile"  # a regular file where a directory is needed
    blocker.write_text("")
    write_signal(tmp_path / "x.json", SignalNd((4,), np.ones(4)))
    assert run("gen-graph", "ring", 4, "--out", tmp_path / "g.json") == 0
    before = sorted(tmp_path.rglob("*"))
    calls = []
    if spy is not None:
        module, name = spy.split(".")
        target = {"cli": cli, "experiments": xp}[module]
        real = getattr(target, name)
        monkeypatch.setattr(target, name, lambda *a, **k: calls.append(name) or real(*a, **k))
    argv = command + (("--out", out) if out else ())
    assert run(*(str(a).format(blocker=blocker, tmp=tmp_path) for a in argv)) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert calls == []
    assert sorted(tmp_path.rglob("*")) == before


def _readme_commands() -> list[str]:
    """Every ``glct`` line of README's sh blocks, continuations joined."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = "".join(re.findall(r"^```sh\n(.*?)^```", readme, flags=re.S | re.M))
    return [line for line in re.sub(r"\s*\\\n\s*", " ", blocks).splitlines() if line.startswith("glct ")]


@pytest.mark.parametrize("line", _readme_commands())
def test_readme_example_parses(line):
    build_parser().parse_args(shlex.split(line, comments=True)[1:])


def test_readme_quick_start_runs():
    """The python block of README's library quick start runs as written, so a
    name it uses cannot leave the package while the docs still show it."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library quick start\n", 1)[1].split("\n## ", 1)[0]
    (code,) = re.findall(r"^```python\n(.*?)^```", section, flags=re.S | re.M)
    exec(compile(code, "README.md", "exec"), {"__name__": "readme_quick_start"})


def test_readme_public_names_list_the_exports():
    """README's "Public names" list names every public non-module attribute of
    ``glct`` and nothing else, with the count it states: a change that adds or
    deletes a public name updates the list. ``make_*`` stands for every export
    it matches; dotted names and ``__version__`` are not exports."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Public names\n", 1)[1].split("\n`gft_nd`", 1)[0]
    exports = {name for name in dir(glct) if not name.startswith("_")
               and not isinstance(getattr(glct, name), types.ModuleType)}
    listed = set()
    for name in re.findall(r"`([^`]+)`", section):
        if "." not in name and name != "__version__":
            listed |= set(fnmatch.filter(exports, name)) if "*" in name else {name}
    assert listed == exports, (sorted(listed - exports), sorted(exports - listed))
    assert re.search(r"exports (\d+) names", section).group(1) == str(len(exports))


@pytest.mark.parametrize("command", [
    ("gen-graph", "ring", 4, "--format", "csv"),
    ("gen-graph", "ring", 4, "--seed", 1),
    ("gen-graph", "ring", 4, "--gso", "adjacency"),
    ("transform", "--signal", "x.csv", "--graph", "g.json", "--params", "1,0,0,1", "--seed", 1),
    ("bench", "complexity", "--shape", 4, 3, "--seed", 1),
    ("bench", "complexity", "--shape", 4, 3, "--trials", 2),
    ("bench", "complexity", "--shape", 4, 3, "--gso", "adjacency"),
    ("bench", "complexity", "--shape", 4, 3, "--curves-dir", "cdir"),
    ("bench", "additivity", "--signal", "x1", "--trials", 2, "--n1", 5),
], ids=["gen-graph-format", "gen-graph-seed", "gen-graph-gso", "transform-seed", "complexity-seed",
        "complexity-trials", "complexity-gso", "complexity-curves-dir", "additivity-n1"])
def test_option_not_taken_exits_2(tmp_path, command):
    out = tmp_path / "g.csv"
    with pytest.raises(SystemExit) as exc:
        run(*command, "--out", out)
    assert exc.value.code == 2
    assert list(tmp_path.iterdir()) == []


class TestTransform:
    @pytest.fixture
    def workspace(self, tmp_path):
        run("gen-graph", "ring", 14, "--out", tmp_path / "g1.json")
        run("gen-graph", "path", 8, "--out", tmp_path / "g2.json")
        rng = np.random.default_rng(7)
        write_signal(tmp_path / "x.csv", SignalNd((14, 8), rng.normal(size=112)), fmt="csv")
        return tmp_path

    def test_round_trip(self, workspace):
        self._round_trip(workspace, "--params", "0.6,0.8,-0.5,1.0")

    @pytest.mark.parametrize("form", ["eq30", "eq31"])
    def test_round_trip_at_b_zero(self, workspace, form):
        # --inverse runs a b = 0 set in the other form, the one that undoes the forward transform
        self._round_trip(workspace, "--params", "2,0,0.3,0.5", "--zero-b-variant", form)

    @staticmethod
    def _round_trip(workspace, *params):
        args = ["--graph", workspace / "g1.json", "--graph", workspace / "g2.json", *params]
        assert run("transform", "--signal", workspace / "x.csv",
                   "--out", workspace / "y.json", *args) == 0
        assert run("transform", "--signal", workspace / "y.json", "--inverse",
                   "--out", workspace / "back.json", *args) == 0
        x = read_signal(workspace / "x.csv", shape=(14, 8))
        back = read_signal(workspace / "back.json")
        assert np.abs(back.values - x.values).max() < 1e-9

    @pytest.mark.parametrize("gso,mirrored", [("laplacian", [7, 4]), ("adjacency", [6, 0])])
    def test_sidecar_reports_each_factor(self, workspace, gso, mirrored):
        assert run("transform", "--signal", workspace / "x.csv", "--graph", workspace / "g1.json",
                   "--graph", workspace / "g2.json", "--params", "0.6,0.8,-0.5,1.0", "--gso", gso,
                   "--out", workspace / "y.json") == 0
        sidecar = json.loads((workspace / "y.json.run.json").read_text())
        assert set(sidecar) == {"config", "factors"}
        assert [(f["n"], f["gso"]) for f in sidecar["factors"]] == [(14, gso), (8, gso)]
        for factor in sidecar["factors"]:
            assert set(factor) == {"n", "gso", "diagnostics"}
            assert set(factor["diagnostics"]) == {
                "sym_orthonormality", "sym_reconstruction", "q_orthonormality", "off_cluster",
                "cluster_unitarity", "cluster_reconstruction", "unimodularity", "clusters", "max_cluster",
                "mirrored_pairs",
            }
            assert all(math.isfinite(v) for v in factor["diagnostics"].values())
        assert [f["diagnostics"]["mirrored_pairs"] for f in sidecar["factors"]] == mirrored

    def test_csv_to_stdout_equals_csv_file(self, workspace, capsys):
        args = ["transform", "--signal", workspace / "x.csv", "--graph", workspace / "g1.json",
                "--graph", workspace / "g2.json", "--params", "0.6,0.8,-0.5,1.0", "--format", "csv"]
        assert run(*args, "--out", workspace / "y.csv") == 0
        capsys.readouterr()
        assert run(*args) == 0
        assert capsys.readouterr().out == (workspace / "y.csv").read_text()

    @pytest.mark.parametrize("edges,message", [
        ([[0.7, 1, 1.0], [1, 2, 1.0]], "vertex index"),
        ([[0, True, 1.0], [1, 2, 1.0]], "vertex index"),
        ([[0, 1, 1e308], [0, 2, 1e308]], "weighted degree"),
        ([[0, 1, True], [1, 2, 1.0]], "edge weight must be a real number"),
        ([[0, 1, "2.5"], [1, 2, 1.0]], "edge weight must be a real number"),
    ], ids=["float-index", "bool-index", "degree-overflow", "bool-weight", "string-weight"])
    @pytest.mark.parametrize("gso", ["laplacian", "adjacency"])
    def test_bad_graph_file_exits_2(self, tmp_path, capsys, edges, message, gso):
        # rejected before any eigensolve; numpy warnings would fail the test
        (tmp_path / "g.json").write_text(json.dumps({"n": 3, "edges": edges}))
        write_signal(tmp_path / "x.json", SignalNd((3,), np.arange(3.0)))
        assert run("transform", "--signal", tmp_path / "x.json", "--graph", tmp_path / "g.json",
                   "--params", "1,1,0,1", "--gso", gso, "--out", tmp_path / "y.json") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and "Warning" not in err
        assert not (tmp_path / "y.json").exists()

    @staticmethod
    def _no_setup(monkeypatch):
        """Fail the test if the command builds a ProductContext: a bad --params must exit before set-up."""
        def setup(*args, **kwargs):
            raise AssertionError("ProductContext built before --params was checked")

        monkeypatch.setattr(cli, "ProductContext", setup)

    def test_malformed_params_exit_2(self, workspace, capsys, monkeypatch):
        self._no_setup(monkeypatch)
        rc = run("transform", "--signal", workspace / "x.csv",
                 "--graph", workspace / "g1.json", "--graph", workspace / "g2.json",
                 "--params", "1,2,3")
        assert rc == 2
        assert "a,b,c,d" in capsys.readouterr().err

    def test_invalid_determinant_exit_2(self, workspace, capsys, monkeypatch):
        self._no_setup(monkeypatch)
        assert run("transform", "--signal", workspace / "x.csv",
                   "--graph", workspace / "g1.json", "--graph", workspace / "g2.json",
                   "--params", "1,1,1,1") == 2
        assert "ad - bc = 1" in capsys.readouterr().err

    @pytest.mark.parametrize("variant", ["cmccm", "cddhfs"])
    def test_huge_finite_chirp_rate_exit_2(self, workspace, capsys, monkeypatch, variant):
        """b = 0 with c = 1e308 gives eq30 the chirp rate (c + 1) / d = 1e308 and
        cddhfs the chirp rate ac + bd = 1e308; times an angle that overflows, and
        the command printed overflow warnings and exited 3 when writing NaN."""
        _no_transform(monkeypatch)
        rc = run("transform", "--signal", workspace / "x.csv", "--graph", workspace / "g1.json",
                 "--graph", workspace / "g2.json", "--params", "1,0,1e308,1", "--variant", variant,
                 "--out", workspace / "y.json")
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: cm rates must be at most") and err.count("\n") == 1
        assert not (workspace / "y.json").exists()

    def test_shape_mismatch_exit_2(self, workspace):
        assert run("transform", "--signal", workspace / "x.csv",
                   "--graph", workspace / "g1.json",
                   "--params", "0.6,0.8,-0.5,1.0") == 2

    @pytest.mark.parametrize(
        "name,text",
        [("x.json", '{"shape": [14, 8], "data": [[NaN, 0.0]%s]}' % (", [1.0, 0.0]" * 111)),
         ("x.csv", "nan\n" + "1.0\n" * 111)],
        ids=["json", "csv"],
    )
    def test_non_finite_signal_exit_2(self, workspace, capsys, name, text):
        (workspace / name).write_text(text)
        rc = run("transform", "--signal", workspace / name,
                 "--graph", workspace / "g1.json", "--graph", workspace / "g2.json",
                 "--params", "0.6,0.8,-0.5,1.0", "--out", workspace / "y.json")
        assert rc == 2
        assert "non-finite" in capsys.readouterr().err
        assert not (workspace / "y.json").exists()

    @pytest.mark.parametrize("kind", ["signal", "graph"])
    def test_number_too_large_for_a_float_exit_2(self, workspace, capsys, kind):
        huge = "1" + "0" * 400
        signal, graph = workspace / "x.csv", workspace / "g1.json"
        if kind == "signal":
            signal = workspace / "x.json"
            signal.write_text('{"shape": [14, 8], "data": [[%s, 0.0]%s]}' % (huge, ", [1.0, 0.0]" * 111))
        else:
            graph = workspace / "bad.json"
            graph.write_text('{"n": 14, "edges": [[0, 1, %s]]}' % huge)
        rc = run("transform", "--signal", signal, "--graph", graph, "--graph", workspace / "g2.json",
                 "--params", "0.6,0.8,-0.5,1.0", "--out", workspace / "y.json")
        assert rc == 2
        assert "malformed" in capsys.readouterr().err
        assert not (workspace / "y.json").exists()

    def test_non_finite_graph_weight_exit_2(self, workspace, capsys):
        (workspace / "bad.json").write_text('{"n": 14, "edges": [[0, 1, NaN]]}')
        rc = run("transform", "--signal", workspace / "x.csv",
                 "--graph", workspace / "bad.json", "--graph", workspace / "g2.json",
                 "--params", "0.6,0.8,-0.5,1.0", "--out", workspace / "y.json")
        assert rc == 2
        assert "finite" in capsys.readouterr().err
        assert not (workspace / "y.json").exists()

    def test_bool_vertex_count_exit_2(self, workspace, capsys):
        # JSON true is a Python bool, which isinstance(..., int) accepts
        (workspace / "bad.json").write_text('{"n": true, "edges": []}')
        rc = run("transform", "--signal", workspace / "x.csv",
                 "--graph", workspace / "bad.json", "--graph", workspace / "g2.json",
                 "--params", "0.6,0.8,-0.5,1.0", "--out", workspace / "y.json")
        assert rc == 2
        assert "vertex count" in capsys.readouterr().err
        assert not (workspace / "y.json").exists()


class TestBench:
    def test_complexity_payload(self, tmp_path):
        out = tmp_path / "c.json"
        assert run("bench", "complexity", "--shape", 16, 8, "--out", out) == 0
        data = json.loads(out.read_text())
        assert data["complexity"] == {"cddhfs": 1472.0, "cmccm": 640.0, "cmccm_zero_b": 816.0}
        config = data["config"]
        assert config["command"] == "bench" and config["shape"] == [16, 8]
        assert "seed" not in config and "trials" not in config

    def test_complexity_needs_sizes(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run("bench", "complexity")
        assert exc.value.code == 2
        capsys.readouterr()
        assert run("bench", "complexity", "--shape", 16, 1) == 2
        assert "sizes must be >= 2" in capsys.readouterr().err

    def test_complexity_takes_any_shape(self, capsys):
        assert run("bench", "complexity", "--shape", 100, 15, 4) == 0
        counts = json.loads(capsys.readouterr().out)["complexity"]
        assert counts == {v: xp.complexity_model((100, 15, 4), v) for v in xp.MODEL_PROGRAMS}

    def test_reversibility_json(self, tmp_path):
        out = tmp_path / "r.json"
        assert run("bench", "reversibility", "--signal", "x1", "--trials", 4,
                   "--seed", 7, "--variant", "cmccm", "--out", out) == 0
        data = json.loads(out.read_text())
        (report,) = data["reports"]
        assert report["signal"] == "x1" and report["seed"] == 7
        assert report["mean"] < 1e-20
        assert report["values"] == sorted(report["values"])

    def test_csv_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ("bench", "additivity", "--signal", "x1", "--trials", 3,
                "--seed", 5, "--format", "csv")
        assert run(*args, "--out", a) == 0
        assert run(*args, "--out", b) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_csv_suffix_in_any_case(self, tmp_path):
        out = tmp_path / "r.CSV"
        assert run("bench", "reversibility", "--signal", "x1", "--trials", 2, "--out", out) == 0
        assert out.read_text().splitlines()[1] == "kind,variant,signal,seed,rank,nmse"

    def test_curve_files(self, tmp_path):
        curves = tmp_path / "curves"
        assert run("bench", "reversibility", "--signal", "x3", "--trials", 5,
                   "--variant", "cmccm", "--curves-dir", curves,
                   "--out", tmp_path / "r.json") == 0
        lines = (curves / "reversibility_x3_cmccm.csv").read_text().splitlines()
        assert lines[0].startswith("# config:")
        assert lines[1] == "rank,nmse"
        values = [float(line.split(",")[1]) for line in lines[2:]]
        assert len(values) == 5 and values == sorted(values)


def _spy_blocks(monkeypatch) -> list:
    """(rows, kinds, rates) of every block of one group with one rated op,
    run as a chain of that one program, that the compression pipeline runs,
    the rates as a list; any other block is recorded as (rows, None, None)."""
    calls = []

    def spy(values, groups, ctx, *, then=(), out=None):
        (kinds, _, rates, _), *rest = groups
        one = not rest and not then and len(rates) == 1
        calls.append((len(values), kinds if one else None, rates[0].tolist() if one else None))
        return program_block(values, groups, ctx, then=then, out=out)

    monkeypatch.setattr(xp, "program_block", spy)
    return calls


class TestCompress:
    def test_full_ratio_baseline(self, tmp_path):
        out = tmp_path / "c.json"
        assert run("compress", "--gamma", 1.0, "--n1", 10, "--n2", 4, "--out", out) == 0
        data = json.loads(out.read_text())
        (row,) = data["rows"]
        assert row["method"] == "gfrft" and row["alpha"] == 1.0
        assert row["re"] < 1e-9 and row["nrms"] < 1e-9 and abs(row["cc"] - 1.0) < 1e-9

    def test_reference_params_row(self, tmp_path):
        out = tmp_path / "c.json"
        assert run("compress", "--glct-params", "0.40,-1.10,0.70,0.58", "--gamma", 0.9,
                   "--n1", 10, "--n2", 4, "--out", out) == 0
        (row,) = json.loads(out.read_text())["rows"]
        assert row["method"] == "glct"
        assert (row["a"], row["b"], row["c"]) == (0.40, -1.10, 0.70)
        assert row["gamma"] == 0.9

    def test_gamma_range_parsing(self, tmp_path):
        out = tmp_path / "c.json"
        assert run("compress", "--gammas", "0.1:0.9:0.1", "--alpha", 1.0,
                   "--n1", 10, "--n2", 4, "--out", out) == 0
        rows = json.loads(out.read_text())["rows"]
        assert [r["gamma"] for r in rows] == [round(0.1 * k, 1) for k in range(1, 10)]

    def test_invalid_gamma_exit_2(self):
        assert run("compress", "--gamma", 1.5, "--n1", 10, "--n2", 4) == 2

    def test_huge_finite_order_exit_2(self, tmp_path, capsys, monkeypatch):
        """A fractional order of 1e308 overflows times an angle; it is rejected
        before any transform, with one error line and no warning."""
        _no_transform(monkeypatch)
        out = tmp_path / "c.json"
        assert run("compress", "--alpha", 1e308, "--n1", 10, "--n2", 4, "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: frac rates must be at most") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("text", ["nan:1:0.1", "0.1:inf:0.1", "-1e18:1:1", "0.1:0.9:1e-9",
                                      "0.1:0.2:nan", "0.1:nan:0.1", "1:1:1e-300", "0.5:0.50000000001:1e-13"])
    def test_unbounded_gamma_range_exits_2(self, tmp_path, text):
        """Each range exits 2 before any ratio is transformed. The command runs
        in a child process with a time and an address-space limit, so an
        expansion that does not stop fails here instead of hanging."""
        out = tmp_path / "c.json"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
               "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
        argv = [sys.executable, "-m", "glct.cli", "compress", f"--gammas={text}", "--n1", "10", "--n2", "4",
                "--out", str(out)]
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60,
                              preexec_fn=_limit_address_space)
        assert proc.returncode == 2, proc.stderr
        assert "--gammas" in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("text,count", [("0.1:0.9:0.1", 9), ("0.05:0.95:0.05", 19), ("0.2:0.8:0.2", 4),
                                            ("0.1:1:0.1", 10)])
    def test_gamma_range_expands_as_the_unbounded_loop_did(self, text, count):
        ratios = cli._parse_gammas(text)
        assert ratios == _frozen_gamma_expansion(*map(float, text.split(":"))) and len(ratios) == count

    @pytest.mark.parametrize("text,field", [("nan:1:0.1", "start"), ("0.1:inf:0.1", "stop"),
                                            ("0.1:0.2:nan", "step"), ("0.1:nan:0.1", "stop")])
    def test_non_finite_gamma_bound_is_named(self, capsys, text, field):
        assert run("compress", f"--gammas={text}", "--n1", 10, "--n2", 4) == 2
        assert f"--gammas {field} must be a finite number" in capsys.readouterr().err

    @pytest.mark.parametrize("budget", [0, -2])
    def test_search_budget_below_one_exits_2(self, tmp_path, capsys, budget):
        out = tmp_path / "s.json"
        assert run("compress", "--search", budget, "--gamma", 0.5,
                   "--n1", 10, "--n2", 4, "--out", out) == 2
        assert "search budget must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_search_reports_params(self, tmp_path):
        out = tmp_path / "s.json"
        assert run("compress", "--search", 3, "--gamma", 0.5,
                   "--n1", 10, "--n2", 4, "--out", out) == 0
        (row,) = json.loads(out.read_text())["rows"]
        assert row["method"] == "glct" and row["a"] != ""

    def test_csv_format_and_rerun(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ("compress", "--gamma", 0.5, "--alpha", 1.0, "--n1", 10, "--n2", 4,
                "--format", "csv")
        assert run(*args, "--out", a) == 0
        assert run(*args, "--out", b) == 0
        assert a.read_bytes() == b.read_bytes()
        lines = a.read_text().splitlines()
        assert lines[1] == "method,variant,alpha,a,b,c,d,gamma,re,nrms,cc"

    def test_csv_suffix_implies_format(self, tmp_path):
        out = tmp_path / "rows.csv"
        assert run("compress", "--gamma", 0.5, "--alpha", 1.0,
                   "--n1", 10, "--n2", 4, "--out", out) == 0
        assert out.read_text().splitlines()[0].startswith("# config:")

    def test_recon_dir_saves_reconstructions(self, tmp_path):
        recon = tmp_path / "recon"
        assert run("compress", "--gamma", 0.5, "--alpha", 1.0, "--n1", 10, "--n2", 4,
                   "--recon-dir", recon, "--out", tmp_path / "c.json") == 0
        sig = read_signal(recon / "gfrft_alpha1_gamma0.5.json")
        assert sig.shape == (10, 4)

    def test_recon_dir_matches_recomputed_reconstructions(self, tmp_path):
        recon, fresh = tmp_path / "recon", tmp_path / "fresh"
        out = tmp_path / "c.json"
        assert run("compress", "--gamma", 0.3, "--gamma", 0.7, "--alpha", 0.5,
                   "--glct-params", "0.40,-1.10,0.70,0.58", "--search", 2, "--n1", 10, "--n2", 4,
                   "--recon-dir", recon, "--out", out) == 0
        graph, x = xp.study_signal(10, 4, 0)
        ctx = ProductContext(graph)
        for row in json.loads(out.read_text())["rows"]:
            if row["method"] == "gfrft":
                sig, _ = xp.compress_gfrft(x, row["alpha"], ctx, row["gamma"], seed=0)
                name = f"gfrft_alpha{fmt_num(row['alpha'])}"
            else:
                abcd = tuple(row[k] for k in "abcd")
                sig, _ = xp.compress(x, LctParams(*abcd), ctx, row["gamma"], seed=0)
                name = "glct_" + "_".join(fmt_num(v) for v in abcd)
            write_signal(fresh / f"{name}_gamma{fmt_num(row['gamma'])}.json", sig, fmt="json")
        written = sorted(p.name for p in recon.iterdir())
        assert written == sorted(p.name for p in fresh.iterdir()) and len(written) == 6
        for name in written:
            assert (recon / name).read_bytes() == (fresh / name).read_bytes()

    def test_adjacency_gso_flag(self, tmp_path):
        out = tmp_path / "r.json"
        assert run("bench", "reversibility", "--signal", "x1", "--trials", 3,
                   "--gso", "adjacency", "--variant", "cmccm", "--out", out) == 0
        (report,) = json.loads(out.read_text())["reports"]
        assert report["mean"] < 1e-20

    def test_sweep_transforms_forward_once_per_order(self, tmp_path, monkeypatch):
        # the 21 orders fit one block of 10 x 4 signals: one forward block, one
        # order a row, then per order one backward block of its nine ratios at -alpha
        calls = _spy_blocks(monkeypatch)
        assert run("compress", "--sweep-gfrft", "--gammas", "0.1:0.9:0.1",
                   "--n1", 10, "--n2", 4, "--out", tmp_path / "sweep.json") == 0
        forward, *backward = calls
        assert forward == (21, ("frac",), list(xp.DEFAULT_ALPHA_GRID))
        assert backward == [(9, ("frac",), [-a]) for a in xp.DEFAULT_ALPHA_GRID]

    def test_bad_search_budget_exits_before_any_transform(self, tmp_path, monkeypatch, capsys):
        calls = _spy_blocks(monkeypatch)
        assert run("compress", "--sweep-gfrft", "--search", 0, "--n1", 10, "--n2", 4,
                   "--out", tmp_path / "s.json") == 2
        assert "search budget must be >= 1" in capsys.readouterr().err
        assert calls == [] and not (tmp_path / "s.json").exists()

    @pytest.mark.parametrize("methods,message", [
        (("--alpha", 0.5, "--alpha", "nan"), "finite"),
        (("--glct-params", "0.4,-1.1,0.7,0.58", "--glct-params", "5,1e-10,-1e10,0"), "eq30 requires d != 0"),
    ], ids=["nan-order", "eq30-d-zero"])
    def test_bad_method_exits_before_any_transform(self, tmp_path, monkeypatch, capsys, methods, message):
        calls = _spy_blocks(monkeypatch)
        assert run("compress", *methods, "--n1", 10, "--n2", 4, "--out", tmp_path / "c.json") == 2
        assert message in capsys.readouterr().err
        assert calls == [] and not (tmp_path / "c.json").exists()

    def test_search_draws_budget_once_for_all_ratios(self, tmp_path, monkeypatch):
        draws, ranked = [], []
        monkeypatch.setattr(xp, "sample_abc", lambda rng, n: draws.append(n) or sample_abc(rng, n))
        monkeypatch.setattr(xp, "_sorted_magnitudes",
                            lambda coeffs, out=None: ranked.append(len(coeffs)) or sorted_magnitudes(coeffs, out))
        budget = block_rows(40) + 1
        assert run("compress", "--search", budget, "--gammas", "0.2:0.8:0.2",
                   "--n1", 10, "--n2", 4, "--out", tmp_path / "s.json") == 0
        assert draws == [budget] and sum(ranked) == budget  # each draw transformed and sorted once
        assert len(json.loads((tmp_path / "s.json").read_text())["rows"]) == 4

    def test_rows_equal_one_ratio_calls_in_order(self, tmp_path):
        out = tmp_path / "c.json"
        gammas = (0.2, 0.5, 0.9, 0.5)
        assert run("compress", *[a for g in gammas for a in ("--gamma", g)], "--alpha", 0.5, "--alpha", 1.0,
                   "--glct-params", "0.40,-1.10,0.70,0.58", "--glct-params", "0.10,0.60,-0.20,8.80",
                   "--search", 4, "--metric", "cc", "--n1", 10, "--n2", 4, "--out", out) == 0
        graph, x = xp.study_signal(10, 4, 0)
        ctx = ProductContext(graph)
        want = [xp.compress_gfrft(x, a, ctx, g, seed=0)[1] for a in (0.5, 1.0) for g in gammas]
        want += [xp.compress(x, LctParams.from_loose(*abcd), ctx, g, seed=0)[1]
                 for abcd in ((0.40, -1.10, 0.70, 0.58), (0.10, 0.60, -0.20, 8.80)) for g in gammas]
        want += [xp.search_glct_params(x, ctx, g, budget=4, seed=0, metric="cc") for g in gammas]
        rows = json.loads(out.read_text())["rows"]
        assert len(rows) == len(want)
        for row, rep in zip(rows, want):
            for key, value in rep.row().items():
                if key in ("re", "nrms", "cc"):
                    assert row[key] == pytest.approx(value, rel=1e-12)
                else:
                    assert row[key] == value

    def test_sweep_covers_grid(self, tmp_path):
        out = tmp_path / "sweep.json"
        assert run("compress", "--sweep-gfrft", "--gammas", "0.1:0.9:0.1",
                   "--n1", 10, "--n2", 4, "--out", out) == 0
        rows = json.loads(out.read_text())["rows"]
        assert len(rows) == 21 * 9  # default order grid times nine ratios
        assert len({(r["alpha"], r["gamma"]) for r in rows}) == 21 * 9
