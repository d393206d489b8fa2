"""The three benchmark workloads.

Each workload makes its inputs from the seed, builds the workload's product
graphs once per ``setup`` call (timed as ``setup_s``), runs one pass through
public glct entry points as the list of ``steps`` (each timed on its own, with
reference work before it), and checks a pass's outputs in
``check`` (never inside the timed pass). ``check_once`` runs the checks that
need extra computation once per run.

Why these three: they load the same ``product`` layer in three different
ways. ``nmse_suites`` is many tiny transforms with fresh parameters each
(per-call overhead, nothing to reuse); ``compression`` is 5x larger tensors
with each parameter set reused across ratios (where a parameter-keyed cache
would pay off); ``large_graph_cli`` is a few BLAS-sized transforms whose time
is almost all per-factor setup plus interpreter start-up.
"""
from __future__ import annotations

import functools
import hashlib
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import glct
from glct import experiments as xp

CALL_TIMEOUT_S = 60  # a call takes about 3 s; a run must end within 180 s


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()[:16]


class Workload:
    """A pass is the workload's ``steps()`` run in order. The benchmark times
    each step on its own and checks the outputs of the whole pass."""

    reference: str  # kind of reference work that scales its times (calibrate.py)
    items_per_pass: int

    def steps(self, tracer=None) -> list:
        raise NotImplementedError

    def run_pass(self, tracer=None) -> list:
        return [out for step in self.steps(tracer) for out in step()]

    def close(self) -> None:
        pass


class NmseSuites(Workload):
    """Reversibility and additivity NMSE suites over the benchmark signals."""

    name = "nmse_suites"
    reference = "calls"
    SIZES = {
        "full": {"signals": xp.BENCHMARK_SIGNALS, "reversibility": 300, "additivity": 100, "oracle": 8},
        "tiny": {"signals": ("x1",), "reversibility": 3, "additivity": 2, "oracle": 2},
    }

    def __init__(self, seed: int, size: str, workdir: Path) -> None:
        self.seed = seed
        self.cfg = self.SIZES[size]
        self.graphs = {s: xp.benchmark_signal(s)[0] for s in self.cfg["signals"]}
        self.items_per_pass = len(self.graphs) * (self.cfg["reversibility"] + self.cfg["additivity"])

    def setup(self) -> None:
        # the suites build their own contexts; time a direct build of the same graphs
        for graph in self.graphs.values():
            glct.ProductContext(graph)

    def steps(self, tracer=None) -> list:
        # one suite call per signal: the same trials as one call over all signals
        return [functools.partial(suite, signals=(s,), trials=self.cfg[kind], seed=self.seed)
                for kind, suite in (("reversibility", xp.suite_reversibility),
                                    ("additivity", xp.suite_additivity))
                for s in self.cfg["signals"]]

    def digest(self, reports) -> str:
        return _digest(*(r.params for r in reports))

    def check(self, reports) -> tuple[int, int]:
        attempted = failed = 0
        for r in reports:
            attempted += r.values.size
            bad = ~np.isfinite(r.values)
            if r.kind == "reversibility" and r.variant == "cmccm":
                bad |= r.values >= 1e-20
            failed += int(bad.sum())
        return attempted, failed

    def check_once(self) -> tuple[int, int]:
        """A seeded sample of transforms against the dense Kronecker oracle."""
        rng = np.random.default_rng(np.random.SeedSequence((self.seed, 0xD0)))
        failed = 0
        for k in range(self.cfg["oracle"]):
            name = self.cfg["signals"][int(rng.integers(len(self.cfg["signals"])))]
            graph, x = xp.benchmark_signal(name)
            p = glct.sample_random_params(rng)
            variant = xp.VARIANTS[k % 2]
            y = xp.apply_glct(x, p, glct.ProductContext(graph), variant).values
            spec = glct.TransformSpec(f"glct_{variant}", {"abcd": p.astuple()})
            ref = glct.dense_operator(spec, graph) @ x.values
            failed += not np.abs(y - ref).max() <= 1e-9 * max(1.0, np.abs(ref).max())
        return self.cfg["oracle"], failed


class Compression(Workload):
    """Default compression study plus a random parameter search per ratio."""

    name = "compression"
    reference = "arrays"
    SIZES = {
        "full": {"n1": 100, "n2": 15, "study": {}, "budget": 50, "search_gammas": (0.1, 0.3, 0.5)},
        "tiny": {
            "n1": 12, "n2": 4, "budget": 2, "search_gammas": (0.1, 0.5),
            "study": {
                "gammas": (0.2, 0.6),
                "alpha_grid": (0.0, 0.5, 1.0),
                "glct_param_sets": xp.COMPRESSION_REFERENCE_PARAMS[:2],
            },
        },
    }

    def __init__(self, seed: int, size: str, workdir: Path) -> None:
        self.seed = seed
        self.cfg = self.SIZES[size]
        self.study = {"n1": self.cfg["n1"], "n2": self.cfg["n2"], **self.cfg["study"]}
        self.graph, self.x = xp.study_signal(self.cfg["n1"], self.cfg["n2"], seed)
        self.ctx = glct.ProductContext(self.graph)
        n_study = len(self.study.get("gammas", xp.DEFAULT_GAMMAS)) * (
            len(self.study.get("alpha_grid", xp.DEFAULT_ALPHA_GRID))
            + len(self.study.get("glct_param_sets", xp.COMPRESSION_REFERENCE_PARAMS))
        )
        self.items_per_pass = n_study + len(self.cfg["search_gammas"])

    def setup(self) -> None:
        # compression_study builds its own context; the search reuses this one
        self.ctx = glct.ProductContext(self.graph)

    def steps(self, tracer=None) -> list:
        return [functools.partial(xp.compression_study, self.seed, **self.study)] + [
            functools.partial(self._search, gamma) for gamma in self.cfg["search_gammas"]]

    def _search(self, gamma: float) -> list:
        return [xp.search_glct_params(self.x, self.ctx, gamma, budget=self.cfg["budget"], seed=self.seed)]

    def digest(self, reports) -> str:
        return _digest(self.x.values.tobytes(), *(r.params for r in reports[-len(self.cfg["search_gammas"]):]))

    def check(self, reports) -> tuple[int, int]:
        failed = sum(not all(math.isfinite(v) for v in (r.re, r.nrms, r.cc)) for r in reports)
        failed += len(reports) != self.items_per_pass
        return len(reports) + 1, failed

    def check_once(self) -> tuple[int, int]:
        """At gamma = 1 every coefficient is kept, so reconstruction is exact."""
        res = [xp.compress_gfrft(self.x, float(a), self.ctx, 1.0)[1].re
               for a in self.study.get("alpha_grid", xp.DEFAULT_ALPHA_GRID)]
        res += [xp.compress(self.x, glct.LctParams.from_loose(*row), self.ctx, 1.0)[1].re
                for row in self.study.get("glct_param_sets", xp.COMPRESSION_REFERENCE_PARAMS)]
        return len(res), sum(not re < 1e-9 for re in res)


def _strict_json(text: str):
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=reject)


class LargeGraphCli(Workload):
    """``glct transform`` forward then ``--inverse``, each in a fresh interpreter."""

    name = "large_graph_cli"
    items_per_pass = 2  # CLI calls
    # Most of a call is LAPACK (eig_unitary of ring(800)); the calls run in
    # child processes, whose speed Python-heavy reference work in this process
    # did not track.
    reference = "lapack"
    SIZES = {"full": (800, 40), "tiny": (12, 4)}

    def __init__(self, seed: int, size: str, workdir: Path) -> None:
        self.shape = self.SIZES[size]
        self.dir = workdir
        self.dir.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng(np.random.SeedSequence((seed,)))
        self.x = rng.uniform(-10.0, 10.0, size=self.shape[0] * self.shape[1])
        a, b, c = rng.uniform(0.5, 1.5), rng.uniform(0.5, 1.5), rng.uniform(-1.0, 1.0)
        self.params = ",".join(repr(float(v)) for v in (a, b, c, (1.0 + b * c) / a))
        self.factors = (glct.make_ring(self.shape[0]), glct.make_path(self.shape[1]))
        for fname, g in zip(("ring.json", "path.json"), self.factors):
            (self.dir / fname).write_text(json.dumps({"n": g.n, "edges": [list(e) for e in g.edges]}))
        signal = {"shape": list(self.shape), "data": [[float(v), 0.0] for v in self.x]}
        (self.dir / "x.json").write_text(json.dumps(signal))

    def setup(self) -> None:
        # each CLI call builds this context in its own interpreter; time a direct build
        glct.ProductContext(glct.cartesian_product(self.factors))

    def _call(self, src: str, out: str, inverse: bool, tracer) -> list[int]:
        """One CLI call; returns its exit code."""
        (self.dir / out).unlink(missing_ok=True)
        argv = ["transform", "--signal", src, "--graph", "ring.json", "--graph", "path.json",
                "--params", self.params, "--out", out] + (["--inverse"] if inverse else [])
        if tracer is None:
            cmd = [sys.executable, "-m", "glct.cli", *argv]
        else:
            spans_file = self.dir / "spans.json"
            cmd = [sys.executable, str(Path(__file__).with_name("cli_child.py")), str(spans_file), *argv]
            span = tracer.open_span("bench.cli_call")
        proc = subprocess.run(cmd, cwd=self.dir, stdout=subprocess.DEVNULL, timeout=CALL_TIMEOUT_S)
        if tracer is not None:
            tracer.close_span(span)
            if proc.returncode == 0:
                tracer.adopt(json.loads(spans_file.read_text()), span)
        return [proc.returncode]

    def steps(self, tracer=None) -> list:
        return [functools.partial(self._call, "x.json", "y.json", False, tracer),
                functools.partial(self._call, "y.json", "back.json", True, tracer)]

    def digest(self, calls) -> str:
        return _digest((self.dir / "x.json").read_bytes(), self.params)

    def check(self, calls) -> tuple[int, int]:
        """Exit codes, strict JSON in both outputs, and round-trip NMSE: 5 checks."""
        failed = sum(code != 0 for code in calls)
        parsed = {}
        for fname in ("y.json", "back.json"):
            try:
                parsed[fname] = _strict_json((self.dir / fname).read_text())
            except (OSError, ValueError):
                failed += 1
        try:
            back = np.array([complex(re, im) for re, im in parsed["back.json"]["data"]])
            nmse = float(np.sum(np.abs(self.x - back) ** 2) / np.sum(self.x ** 2))
        except (TypeError, KeyError, ValueError):
            nmse = math.inf
        failed += not nmse < 1e-20
        return 5, failed

    def check_once(self) -> tuple[int, int]:
        return 0, 0

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (NmseSuites, Compression, LargeGraphCli)}
