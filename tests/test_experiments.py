"""NMSE studies, the complexity model, and the compression pipeline."""
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from glct import (
    COMPRESSION_REFERENCE_PARAMS,
    GsoKind,
    LctParams,
    ProductContext,
    SignalNd,
    TransformSpec,
    ValidationError,
    ZeroBVariant,
    benchmark_signal,
    cartesian_product,
    complexity_model,
    compress,
    compress_gfrft,
    compression_study,
    inverse,
    make_path,
    make_ring,
    nmse_additivity,
    nmse_reversibility,
    sample_random_params,
    search_glct_params,
    suite_additivity,
    suite_reversibility,
)
from glct import cli, experiments, product
from glct.experiments import (
    BENCHMARK_SIGNALS,
    DEFAULT_ALPHA_GRID,
    DEFAULT_GAMMAS,
    _keep_top,
    _score_rows,
    _sorted_magnitudes,
    _target,
    study_signal,
)
from glct.params import ParamBlock, ProgramGroup
from glct.product import block_rows, program_block

from conftest import REFERENCE_METRICS, nmse_additivity_scalar, run_spec

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(scope="module")
def x1():
    graph, sig = benchmark_signal("x1")
    return ProductContext(graph), sig


#: (a, b, c) rows with |b| <= ZERO_B_TOL, which the six-factor forms run
ZERO_B_ROWS = ((2.0, 0.0, 0.3), (-0.62, 0.0, -1.52), (1.1, 1e-9, 0.28), (0.7, -5e-10, 1.2))


class TestNmse:
    def test_reversibility_cmccm_is_exact(self, x1):
        ctx, x = x1
        rng = np.random.default_rng(0)
        for _ in range(10):
            p = sample_random_params(rng)
            assert nmse_reversibility(x, p, ctx, "cmccm") < 1e-20

    @pytest.mark.parametrize("form", list(ZeroBVariant), ids=lambda f: f.value)
    @pytest.mark.parametrize("name", BENCHMARK_SIGNALS)
    def test_zero_b_rows_are_undone_by_the_other_form(self, name, form):
        # the same form at p and p^-1 does not invert: its NMSE is about 2 on these rows
        graph, x = benchmark_signal(name)
        ctx = ProductContext(graph)
        ps = [LctParams.from_abc(*abc) for abc in ZERO_B_ROWS]
        for p in ps:
            assert nmse_reversibility(x, p, ctx, "cmccm", form.value) < 1e-20, p
        block = ParamBlock.from_params(ps)
        nmse = experiments._nmse_reversibility_block(x, block, block.inverse(), ctx, "cmccm", form)
        assert (nmse < 1e-20).all(), nmse

    def test_reversibility_zero_signal_raises(self, x1):
        ctx, _ = x1
        zero = SignalNd(ctx.shape, np.zeros(ctx.graph.n))
        with pytest.raises(ValidationError):
            nmse_reversibility(zero, LctParams(1, 0, 0, 1), ctx, "cmccm")

    def test_additivity_zero_signal_raises(self, x1):
        ctx, _ = x1
        zero = SignalNd(ctx.shape, np.zeros(ctx.graph.n))
        with pytest.raises(ValidationError):
            nmse_additivity(zero, LctParams(1, 0, 0, 1), LctParams(1, 0, 0, 1), ctx, "cmccm")

    def test_additivity_with_identity_factor_is_finite(self, x1):
        # identity parameters do not realize the identity operator, so this
        # measures a genuine composition gap; it just has to be well defined
        ctx, x = x1
        p1 = LctParams.from_abc(0.6, 0.8, -0.5)
        value = nmse_additivity(x, p1, LctParams(1, 0, 0, 1), ctx, "cmccm")
        assert np.isfinite(value) and value >= 0.0

    def test_additivity_finite_both_variants(self, x1):
        ctx, x = x1
        p1 = LctParams.from_abc(0.6, 0.8, -0.5)
        p2 = LctParams.from_abc(-1.2, 0.7, 1.1)
        for variant in ("cddhfs", "cmccm"):
            value = nmse_additivity(x, p1, p2, ctx, variant)
            assert np.isfinite(value) and value >= 0.0

    def test_additivity_equals_frozen_scalar_formula(self):
        # nmse_additivity is the one-row case of the suite's block path; the
        # two one-signal cascades it replaced must give the same bits, on
        # every signal, shift operator, variant and zero-b form, with both
        # parameter sets of every seventh pair, and so their product, at b = 0
        rng = np.random.default_rng(17)
        pairs = []
        for i in range(20):
            p1, p2 = sample_random_params(rng), sample_random_params(rng)
            if i % 7 == 0:
                p1, p2 = LctParams.from_abc(p1.a, 0.0, p1.c), LctParams.from_abc(p2.a, 0.0, p2.c)
            pairs.append((p1, p2))
        for name in BENCHMARK_SIGNALS:
            graph, x = benchmark_signal(name)
            for gso in (GsoKind.LAPLACIAN, GsoKind.ADJACENCY):
                ctx = ProductContext(graph, gso)
                for variant in ("cddhfs", "cmccm"):
                    for zb in (ZeroBVariant.EQ30, ZeroBVariant.EQ31):
                        for p1, p2 in pairs:
                            got = nmse_additivity(x, p1, p2, ctx, variant, zb)
                            want = nmse_additivity_scalar(x, p1, p2, ctx, variant, zb)
                            assert got == want, (name, gso, variant, zb, p1, p2)


class TestComplexityModel:
    def test_spot_values(self):
        assert complexity_model((16, 8), "cddhfs") == 1472.0
        assert complexity_model((16, 8), "cmccm") == 640.0
        assert complexity_model((16, 8), "cmccm_zero_b") == 816.0

    def test_formulas(self):
        # one term per axis, for two axes and for the 3-D and 1-D cases
        for shape in ((10, 6), (100, 15, 4), (16,)):
            lin = sum(shape)
            logs = sum(n * np.log2(n) for n in shape)
            sq = sum(n * n for n in shape)
            assert complexity_model(shape, "cddhfs") == 4 * sq + 8 * lin
            assert complexity_model(shape, "cmccm") == 12 * lin + 4 * logs
            assert complexity_model(shape, "cmccm_zero_b") == 12 * lin + 6 * logs

    def test_asymptotic_ordering(self):
        assert complexity_model((100, 15), "cddhfs") > complexity_model((100, 15), "cmccm")

    def test_validation(self):
        with pytest.raises(ValidationError, match=r"sizes must be >= 2, got \(1, 8\)"):
            complexity_model((1, 8), "cmccm")
        with pytest.raises(ValidationError, match="sizes must be >= 2"):
            complexity_model((16, 1), "cmccm")
        with pytest.raises(ValidationError, match="at least one axis"):
            complexity_model((), "cmccm")
        for shape in ((2.5, 3), (3.0, 3), (True, 3), (-3, 3)):
            with pytest.raises(ValidationError, match="sizes must be positive integers"):
                complexity_model(shape, "cmccm")
        with pytest.raises(ValidationError):
            complexity_model((16, 8), "fft")

class TestBenchmarkSignals:
    def test_registry(self):
        shapes = {"x1": (14, 8), "x2": (18, 16), "x3": (14, 6), "x4": (8, 16)}
        for name, shape in shapes.items():
            graph, sig = benchmark_signal(name)
            assert graph.shape == shape
            assert sig.shape == shape
            assert set(np.unique(sig.values.real)) == {-1.0, 1.0}
            assert np.all(sig.values.imag == 0)

    def test_separable_structure(self):
        _, sig = benchmark_signal("x1")
        t = sig.tensor().real
        # rank-one: every column is +/- the first column
        for j in range(t.shape[1]):
            assert np.allclose(t[:, j], t[:, 0]) or np.allclose(t[:, j], -t[:, 0])

    def test_unknown_name_raises(self):
        with pytest.raises(ValidationError):
            benchmark_signal("x9")


class TestSuites:
    def test_deterministic_given_seed(self):
        a = suite_reversibility(signals=("x1",), trials=5, seed=3)
        b = suite_reversibility(signals=("x1",), trials=5, seed=3)
        for ra, rb in zip(a, b):
            np.testing.assert_array_equal(ra.values, rb.values)
            assert ra.params == rb.params

    def test_trials_independent_of_signal_selection(self):
        solo = suite_reversibility(signals=("x2",), trials=4, seed=1, variants=("cmccm",))
        both = suite_reversibility(signals=("x1", "x2"), trials=4, seed=1, variants=("cmccm",))
        x2_report = [r for r in both if r.signal == "x2"][0]
        np.testing.assert_array_equal(solo[0].values, x2_report.values)

    def test_report_contract(self):
        reports = suite_additivity(signals=("x1",), trials=6, seed=0)
        assert {r.variant for r in reports} == {"cddhfs", "cmccm"}
        for r in reports:
            assert r.trials == 6
            assert np.all(r.values >= 0)
            assert r.mean == pytest.approx(float(np.mean(r.values)), rel=1e-15)
            sv = r.sorted_values()
            assert np.all(np.diff(sv) >= 0)
            assert len(r.params) == 6
            summary = r.summary_dict()
            assert summary["values"] == [float(v) for v in sv]
            assert summary["mean"] == r.mean

    def test_additivity_both_params_recorded(self):
        (report,) = suite_additivity(signals=("x3",), trials=2, seed=5, variants=("cmccm",))
        for pair in report.params:
            assert len(pair) == 2 and len(pair[0]) == 4 and len(pair[1]) == 4

    @pytest.mark.parametrize("kind", list(GsoKind), ids=lambda k: k.value)
    def test_every_cmccm_trial_reverses_better_than_every_cddhfs_trial(self, kind):
        # the paper's reversibility claim, trial by trial: at 20 trials, seed 0,
        # cmccm read at most 1.7e-29 on x1..x4 under both shift operators and
        # cddhfs at least 1.04
        reports = suite_reversibility(trials=20, seed=0, gso_kind=kind)
        worst = max(r.values.max() for r in reports if r.variant == "cmccm")
        assert worst < min(r.values.min() for r in reports if r.variant == "cddhfs")

    def test_invalid_trials_raise(self):
        with pytest.raises(ValidationError):
            suite_reversibility(trials=0)

    def test_bool_trials_raise(self):
        with pytest.raises(ValidationError, match="trials"):
            suite_reversibility(signals=("x1",), trials=True)

    def test_negative_seed_raises(self):
        with pytest.raises(ValidationError, match="seed"):
            suite_reversibility(signals=("x1",), trials=2, seed=-1)

    def test_float_seed_raises(self):
        with pytest.raises(ValidationError, match="seed"):
            suite_reversibility(signals=("x1",), trials=2, seed=1.5)

    def test_str_seed_raises(self):
        with pytest.raises(ValidationError, match="seed"):
            suite_additivity(signals=("x1",), trials=2, seed="3")

    def test_bool_seed_raises(self):
        with pytest.raises(ValidationError, match="seed"):
            suite_reversibility(signals=("x1",), trials=2, seed=True)

    @pytest.mark.parametrize("variants", [("cmccm",), ("cddhfs",)])
    def test_unknown_zero_b_variant_raises(self, variants):
        with pytest.raises(ValidationError, match="zero-b"):
            suite_reversibility(signals=("x1",), trials=2, variants=variants, zero_b_variant="eq99")

    def test_no_signals_raise(self):
        with pytest.raises(ValidationError, match="signals"):
            suite_reversibility(signals=(), trials=2)

    def test_no_variants_raise(self):
        with pytest.raises(ValidationError, match="variants"):
            suite_additivity(signals=("x1",), trials=2, variants=())

    def test_numpy_int_seed_is_stored_as_int(self):
        (report,) = suite_reversibility(signals=("x1",), trials=2, seed=np.uint64(5), variants=("cmccm",))
        (plain,) = suite_reversibility(signals=("x1",), trials=2, seed=5, variants=("cmccm",))
        assert type(report.seed) is int and report.seed == 5
        assert json.loads(json.dumps(report.summary_dict())) == plain.summary_dict()

    def test_unknown_signal_raises_before_any_work(self, fresh_suite_setup, monkeypatch):
        def no_context(*args, **kwargs):
            raise AssertionError("a ProductContext was built before the names were checked")

        monkeypatch.setattr(experiments, "ProductContext", no_context)
        with pytest.raises(ValidationError):
            suite_reversibility(signals=("x1", "x9"), trials=1000)

    @pytest.mark.parametrize("kind", ["reversibility", "additivity"])
    def test_blocks_equal_per_trial_loop(self, kind):
        # x1 has 112 entries, so 45 trials cross a block boundary
        name, trials, seed = "x1", block_rows(112) + 4, 11
        suite = suite_additivity if kind == "additivity" else suite_reversibility
        reports = suite(signals=(name,), trials=trials, seed=seed)
        graph, x = benchmark_signal(name)
        ctx = ProductContext(graph)
        for r in reports:
            loop = []
            for t in range(trials):
                rng = np.random.default_rng(np.random.SeedSequence((seed, BENCHMARK_SIGNALS.index(name), t)))
                if kind == "additivity":
                    p1, p2 = sample_random_params(rng), sample_random_params(rng)
                    loop.append(nmse_additivity_scalar(x, p1, p2, ctx, r.variant))
                else:
                    loop.append(nmse_reversibility(x, sample_random_params(rng), ctx, r.variant))
            # bit for bit with OpenBLAS; cmccm reversibility NMSEs are rounding
            # noise near 1e-30, so they get an absolute tolerance far below the
            # 1e-20 gate
            np.testing.assert_allclose(r.values, loop, rtol=1e-12, atol=1e-26)


_FROZEN_SUITE_CHECK = """
import numpy as np
from glct import LctParams, ParamBlock, ProductContext, ZeroBVariant, benchmark_signal, inverse
from glct import suite_additivity, suite_reversibility
from glct.experiments import BENCHMARK_SIGNALS
from glct.graphs import GsoKind
from glct.product import block_rows, program_block


def compose(p1, p2):
    return LctParams(*(p1.matrix @ p2.matrix).ravel())


def sample(rng):
    while True:
        a, b, c = rng.uniform(-2.0, 2.0, size=3)
        if abs(a) >= 0.05:
            return LctParams.from_abc(float(a), float(b), float(c))


def glct_block(values, params, ctx, variant, zb):
    params = ParamBlock.from_params(params)
    return program_block(values, params.cddhfs() if variant == "cddhfs" else params.cmccm(zb), ctx)


def additivity(x, pairs, ctx, variant, zb):
    block = np.broadcast_to(x.values, (len(pairs), x.n))
    one = glct_block(block, [compose(p1, p2) for p1, p2 in pairs], ctx, variant, zb)
    den = np.sum(np.abs(one) ** 2, axis=1)
    two = glct_block(block, [p2 for _, p2 in pairs], ctx, variant, zb)
    two = glct_block(two, [p1 for p1, _ in pairs], ctx, variant, zb)
    return np.sum(np.abs(one - two) ** 2, axis=1) / den


def reversibility(x, params, ctx, variant, zb):
    den = float(np.sum(np.abs(x.values) ** 2))
    forward = glct_block(np.broadcast_to(x.values, (len(params), x.n)), params, ctx, variant, zb)
    recon = glct_block(forward, [inverse(p) for p in params], ctx, variant, zb)
    return np.sum(np.abs(x.values - recon) ** 2, axis=1) / den


def frozen_suite(kind, name, trials, seed, variant, gso, zb):
    sig_index = BENCHMARK_SIGNALS.index(name)
    graph, x = benchmark_signal(name)
    ctx = ProductContext(graph, gso)
    rngs = (np.random.default_rng(np.random.SeedSequence((seed, sig_index, t))) for t in range(trials))
    if kind == "additivity":
        nmse, drawn = additivity, [(sample(rng), sample(rng)) for rng in rngs]
        params = tuple((p1.astuple(), p2.astuple()) for p1, p2 in drawn)
    else:
        nmse, drawn = reversibility, [sample(rng) for rng in rngs]
        params = tuple(p.astuple() for p in drawn)
    step = block_rows(x.n)
    values = np.concatenate([nmse(x, drawn[i:i + step], ctx, variant, zb) for i in range(0, trials, step)])
    return values, params


trials = max(block_rows(benchmark_signal(name)[1].n) for name in BENCHMARK_SIGNALS) + 3
cases = [(seed, GsoKind.LAPLACIAN, ZeroBVariant.EQ30) for seed in (0, 9)]
cases += [(4, GsoKind.ADJACENCY, ZeroBVariant.EQ31)]
checked = 0
for seed, gso, zb in cases:
    for kind, suite in (("additivity", suite_additivity), ("reversibility", suite_reversibility)):
        for r in suite(trials=trials, seed=seed, gso_kind=gso, zero_b_variant=zb):
            values, params = frozen_suite(kind, r.signal, trials, seed, r.variant, gso, zb)
            assert r.values.tobytes() == values.tobytes(), (kind, r.signal, r.variant, seed)
            assert r.params == params, (kind, r.signal, r.variant, seed)
            checked += 1
assert checked == len(cases) * 2 * len(BENCHMARK_SIGNALS) * 2
"""


def _suite_bytes(gso_kind=GsoKind.LAPLACIAN, signals=BENCHMARK_SIGNALS):
    """Values and parameters of both suites, both variants, on ``signals``."""
    reports = [suite(signals=signals, trials=5, seed=3, gso_kind=gso_kind)
               for suite in (suite_reversibility, suite_additivity)]
    return [(r.kind, r.variant, r.signal, r.values.tobytes(), r.params) for rs in reports for r in rs]


class TestSuiteSetupCache:
    def test_each_signal_and_gso_is_built_once(self, fresh_suite_setup, monkeypatch):
        built = []

        def spy(graph, kind=GsoKind.LAPLACIAN):
            built.append((graph, kind))
            return ProductContext(graph, kind)

        monkeypatch.setattr(experiments, "ProductContext", spy)
        for _ in range(3):
            for gso_kind in (GsoKind.LAPLACIAN, GsoKind.ADJACENCY, "adjacency"):
                for suite in (suite_reversibility, suite_additivity):
                    suite(signals=("x1", "x3"), trials=2, seed=1, gso_kind=gso_kind)
        expected = [(benchmark_signal(name)[0], kind)
                    for kind in (GsoKind.LAPLACIAN, GsoKind.ADJACENCY) for name in ("x1", "x3")]
        assert built == expected

    def test_fresh_run_equals_cached_run(self, fresh_suite_setup):
        _suite_bytes()  # fills the cache, and builds cddhfs's eigenvectors
        assert fresh_suite_setup.cache_info().currsize == len(BENCHMARK_SIGNALS)
        cached = _suite_bytes()
        fresh_suite_setup.cache_clear()
        assert _suite_bytes() == cached

    def test_threads_sharing_a_cold_cache_get_the_sequential_bytes(self, fresh_suite_setup):
        # each thread's first call may build a set-up, or cddhfs's eigenvectors
        # in it, while another thread reads or builds the same one
        want = _suite_bytes(signals=("x1", "x3"))
        fresh_suite_setup.cache_clear()
        start, got = threading.Barrier(3), {}

        def work(i):
            start.wait(timeout=30)
            got[i] = _suite_bytes(signals=("x1", "x3"))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(3)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert got == {i: want for i in range(3)}

    def test_gso_given_by_value_equals_member(self):
        assert _suite_bytes("adjacency", ("x1",)) == _suite_bytes(GsoKind.ADJACENCY, ("x1",))
        assert _suite_bytes("laplacian", ("x1",)) == _suite_bytes(GsoKind.LAPLACIAN, ("x1",))
        assert _suite_bytes("adjacency", ("x1",)) != _suite_bytes(GsoKind.LAPLACIAN, ("x1",))

    @pytest.mark.parametrize("suite", [suite_reversibility, suite_additivity])
    def test_unknown_gso_raises(self, suite):
        with pytest.raises(ValidationError, match="shift operator"):
            suite(signals=("x1",), trials=2, gso_kind="adjacenc")


_ZERO_B_SUITE_CHECK = """
import numpy as np
from glct import LctParams, ProductContext, ZeroBVariant, benchmark_signal
from glct import experiments, nmse_additivity, nmse_reversibility, suite_additivity, suite_reversibility
from glct.product import block_rows

graph, x = benchmark_signal("x1")
ctx = ProductContext(graph)
step = block_rows(x.n)
trials = step + 4
draw = experiments.trial_abc


def zero_b_draws(seed, signal_index, trials, n):
    # b = 0 on every row of the trials around the first chunk boundary, and
    # on the first row only of trial step + 2
    abc = draw(seed, signal_index, trials, n).reshape(trials, n, 3)
    abc[step - 2:step + 2, :, 1] = 0.0
    abc[step + 2, 0, 1] = 0.0
    return abc.reshape(-1, 3)


experiments.trial_abc = zero_b_draws
abc = zero_b_draws(5, 0, trials, 2)
cmccm = {form: [] for form in ZeroBVariant}
for form in ZeroBVariant:
    for r in suite_reversibility(("x1",), trials, 5, zero_b_variant=form):
        want = [nmse_reversibility(x, LctParams.from_abc(*row), ctx, r.variant, form)
                for row in zero_b_draws(5, 0, trials, 1)]
        assert r.values.tobytes() == np.array(want).tobytes(), (form, r.variant)
        if r.variant == "cmccm":
            assert r.values.max() < 1e-20, (form, r.values.max())
            cmccm[form].append(r.values)
    for r in suite_additivity(("x1",), trials, 5, zero_b_variant=form):
        want = [nmse_additivity(x, LctParams.from_abc(*abc[2 * t]), LctParams.from_abc(*abc[2 * t + 1]), ctx,
                                r.variant, form) for t in range(trials)]
        assert r.values.tobytes() == np.array(want).tobytes(), (form, r.variant)
        if r.variant == "cmccm":
            cmccm[form].append(r.values)
# the forms differ on the b = 0 trials only: the draws reach the six-factor forms
zero_b = np.zeros(trials, bool)
zero_b[step - 2:step + 3] = True
for eq30, eq31 in zip(cmccm[ZeroBVariant.EQ30], cmccm[ZeroBVariant.EQ31]):
    assert (eq30 != eq31).any() and (eq30 == eq31)[~zero_b].all()
"""


class TestZeroBTrials:
    def test_zero_b_rows_across_a_chunk_boundary_equal_one_trial_calls(self):
        # A uniform draw of b lands within 1e-9 of b = 0 with probability
        # about 5e-10, so no seeded suite runs the six-factor forms. With the
        # draws patched to put b = 0 on the trials around x1's first chunk
        # boundary, both suites under either form equal the one-trial NMSE
        # functions bit for bit; that needs one BLAS thread, so it runs in a child.
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
               "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-c", _ZERO_B_SUITE_CHECK], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("kind", ["additivity", "reversibility"])
    def test_bench_help_says_where_the_zero_b_form_acts(self, kind, capsys):
        with pytest.raises(SystemExit):
            cli.main(["bench", kind, "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert "within 1e-9 of b = 0, and for no other" in text and "about 5e-10" in text


class TestSuiteParamBlocks:
    def test_suites_equal_frozen_per_trial_suite_bit_for_bit(self):
        # The suites draw every trial's parameters from its own generator as
        # before, then build one parameter block per signal, compose or invert
        # it once, and factorize it per chunk. A frozen copy of the per-trial
        # suite (one LctParams and one decomposition per trial, parent sampler
        # loop) must give the same bytes on every signal, with trials crossing
        # a block boundary. Bit equality of block rows needs one BLAS thread.
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
               "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-c", _FROZEN_SUITE_CHECK], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr

    def test_suites_check_each_program_once_when_made(self, made_and_ran):
        # the suites of an nmse_suites benchmark pass: x1..x4 cut 300 trials
        # into 3, 7, 2 and 3 chunks and 100 into 1, 3, 1 and 1; a chunk's
        # factorization makes one group per transform and variant (no draw
        # has b = 0), 2 * 2 * 15 + 3 * 2 * 6 = 96, each checked when made and
        # run once by an executor that checks none, a chunk's two-program
        # step as one chain
        made, ran, inside = made_and_ran
        suite_reversibility(trials=300, seed=1)
        suite_additivity(trials=100, seed=1)
        assert len(made) == 96 and inside == []
        assert _ids(ran) == _ids(made)

    @pytest.mark.parametrize("variant,programs", [("cmccm", 1), ("cddhfs", 2)])
    def test_reversibility_inverse_takes_the_forward_diagonals(self, variant, programs, monkeypatch):
        # x1 holds 123 rows a block, so 247 trials run 3 chains of (p, p^-1).
        # A cmccm inverse takes the diagonals of its forward program; a cddhfs
        # one has a scale op and computes its own.
        calls = []
        diag_powers = ProductContext.diag_powers
        monkeypatch.setattr(ProductContext, "diag_powers", lambda self, rates: calls.append(rates) or diag_powers(self, rates))
        suite_reversibility(signals=("x1",), trials=2 * block_rows(112) + 1, seed=3, variants=(variant,))
        assert len(calls) == 3 * programs

    @pytest.mark.parametrize("suite", [suite_reversibility, suite_additivity])
    def test_per_trial_parameter_objects_do_not_grow_with_trials(self, suite, monkeypatch):
        calls = []
        post_init = LctParams.__post_init__

        def spy(self):
            calls.append(1)
            post_init(self)

        monkeypatch.setattr(LctParams, "__post_init__", spy)
        counts = []
        for trials in (2, 3 * block_rows(112) + 1):
            calls.clear()
            suite(signals=("x1",), trials=trials, seed=2)
            counts.append(len(calls))
        assert counts[0] == counts[1]


def _scores(x, xc):
    """(RE, NRMS, CC) rows of the block ``xc`` against the signal ``x``."""
    return _score_rows(_target(x), xc)


class TestMetrics:
    def test_relative_error_hand_value(self):
        assert _scores(np.array([2.0, -2.0]), np.array([[1.0, -1.0]]))[0][0] == pytest.approx(0.5)

    def test_normalized_rms_hand_value(self):
        assert _scores(np.array([1.0, -1.0]), np.array([[0.5, -0.5]]))[1][0] == pytest.approx(0.5)

    def test_correlation_of_identical_signals(self):
        x = np.array([0.3, -1.2, 2.0, 0.1])
        assert _scores(x, x[None])[2][0] == pytest.approx(1.0)

    def test_degenerate_inputs_raise(self):
        with pytest.raises(ValidationError, match="^relative error undefined for an all-zero signal$"):
            _target(np.zeros(2))
        with pytest.raises(ValidationError, match="^normalized RMS undefined for a constant signal$"):
            _target(np.full(2, 2.0))


def _keep(rows, ks):
    return _keep_top(rows, _sorted_magnitudes(rows), ks)


class TestKeepLargest:
    def test_keeps_top_magnitudes(self):
        row = np.array([[1.0, -4.0, 2.0, 0.5]], dtype=complex)
        np.testing.assert_array_equal(_keep(row, [2]), np.array([[0.0, -4.0, 2.0, 0.0]], dtype=complex))

    def test_ties_keep_lower_index(self):
        row = np.array([[1.0, -1.0, 1.0]], dtype=complex)
        np.testing.assert_array_equal(_keep(row, [2]), np.array([[1.0, -1.0, 0.0]], dtype=complex))


@pytest.fixture(scope="module")
def small_study():
    graph = cartesian_product([make_ring(10), make_path(4)])
    ctx = ProductContext(graph)
    rng = np.random.default_rng(42)
    x = SignalNd(graph.shape, rng.uniform(-10, 10, size=graph.n))
    return ctx, x


class TestCompress:
    def test_full_ratio_is_lossless_for_cmccm(self, small_study):
        ctx, x = small_study
        _, rep = compress(x, LctParams.from_abc(0.6, 0.8, -0.5), ctx, gamma=1.0)
        assert rep.re < 1e-9 and rep.nrms < 1e-9 and abs(rep.cc - 1.0) < 1e-9

    def test_full_ratio_is_lossless_for_gfrft(self, small_study):
        ctx, x = small_study
        _, rep = compress_gfrft(x, 0.35, ctx, gamma=1.0)
        assert rep.re < 1e-9 and rep.nrms < 1e-9 and abs(rep.cc - 1.0) < 1e-9

    @pytest.mark.parametrize("form", list(ZeroBVariant), ids=lambda f: f.value)
    def test_full_ratio_is_lossless_at_b_zero(self, small_study, form):
        ctx, x = small_study
        for abc in ZERO_B_ROWS:
            _, rep = compress(x, LctParams.from_abc(*abc), ctx, gamma=1.0, zero_b_variant=form.value)
            assert rep.re < 1e-9 and rep.nrms < 1e-9 and abs(rep.cc - 1.0) < 1e-9

    @pytest.mark.parametrize("call", [
        lambda ctx, x, zero: compression_study(0, gammas=(), n1=10, n2=4),
        lambda ctx, x, zero: compress(x, LctParams(1, 0, 0, 1), ctx, 0.5, variant="cmcm"),
        lambda ctx, x, zero: compress(zero, LctParams.from_abc(0.6, 0.8, -0.5), ctx, 0.5),
        lambda ctx, x, zero: compress_gfrft(SignalNd((4, 10), x.values), 0.5, ctx, 0.5),
        lambda ctx, x, zero: compress_gfrft(x, float("inf"), ctx, 0.5),
        lambda ctx, x, zero: compress(x, LctParams.from_abc(5.0, 1e-10, -1e10), ctx, 0.5),
        lambda ctx, x, zero: search_glct_params(zero, ctx, 0.5, budget=3),
        lambda ctx, x, zero: compress_gfrft(SignalNd(ctx.shape, zero.values + 2.0), 0.5, ctx, 0.5),
        lambda ctx, x, zero: search_glct_params(SignalNd(ctx.shape, zero.values + 2.0), ctx, 0.5, budget=3),
    ], ids=["no-ratio", "variant", "zero-signal", "shape", "order", "eq30-d-zero", "search-zero-signal",
            "constant-signal", "search-constant-signal"])
    def test_bad_input_raises_before_any_transform(self, small_study, monkeypatch, call):
        ctx, x = small_study
        calls = []
        monkeypatch.setattr(experiments, "program_block", lambda *args, **kwargs: calls.append(args))
        with pytest.raises(ValidationError):
            call(ctx, x, SignalNd(ctx.shape, np.zeros(ctx.graph.n)))
        assert calls == []

    def test_cddhfs_reports_rather_than_inverts(self, small_study):
        # the scaling factor is the shift operator itself, so this variant is
        # not unitary and full-ratio reconstruction is only approximate
        ctx, x = small_study
        _, rep = compress(x, LctParams.from_abc(0.6, 0.8, -0.5), ctx, gamma=1.0, variant="cddhfs")
        assert np.isfinite(rep.re) and np.isfinite(rep.nrms) and np.isfinite(rep.cc)

    def test_gamma_out_of_range_raises(self, small_study):
        ctx, x = small_study
        for gamma in (0.0, -0.5, 1.5):
            with pytest.raises(ValidationError):
                compress(x, LctParams(1, 0, 0, 1), ctx, gamma=gamma)

    def test_zero_signal_raises(self, small_study):
        ctx, _ = small_study
        zero = SignalNd(ctx.shape, np.zeros(ctx.graph.n))
        with pytest.raises(ValidationError):
            compress(zero, LctParams.from_abc(0.6, 0.8, -0.5), ctx, gamma=0.5)

    def test_constant_signal_raises(self, small_study):
        ctx, _ = small_study
        flat = SignalNd(ctx.shape, np.full(ctx.graph.n, 2.0))
        with pytest.raises(ValidationError, match="^normalized RMS undefined for a constant signal$"):
            compress(flat, LctParams.from_abc(0.6, 0.8, -0.5), ctx, gamma=0.5)

    def test_reconstruction_is_real(self, small_study):
        ctx, x = small_study
        recon, _ = compress(x, LctParams.from_abc(0.6, 0.8, -0.5), ctx, gamma=0.4)
        assert np.all(recon.values.imag == 0)


@pytest.fixture
def made_and_ran(monkeypatch):
    """Every ProgramGroup made from here on, and every group the executor ran,
    in order, those of every program of a chain; a group made while the
    executor runs goes to a third list. A group checks itself in ``__new__``,
    so a group made is a group checked."""
    made, ran, inside, running = [], [], [], []
    new = ProgramGroup.__new__

    def spy_new(cls, *args, **kwargs):
        group = new(cls, *args, **kwargs)
        (inside if running else made).append(group)
        return group

    def spy_run(values, groups, ctx, *, then=(), out=None):
        for program in (groups, *then):
            ran.extend(program)
        running.append(True)
        try:
            return program_block(values, groups, ctx, then=then, out=out)
        finally:
            running.pop()

    monkeypatch.setattr(ProgramGroup, "__new__", spy_new)
    for module in (experiments, product):
        monkeypatch.setattr(module, "program_block", spy_run)
    return made, ran, inside


def _ids(groups) -> list:
    return sorted(map(id, groups))


class TestStudy:
    def test_default_study_checks_each_program_once(self, made_and_ran):
        # 21 orders and 27 general-b sets run forward in chunks of at most 9
        # (block_rows of 100 x 15): 3 frac groups and 3 cmccm groups. Each of
        # the 48 methods makes one backward group and widens it to the 9 ratios.
        made, ran, inside = made_and_ran
        compression_study()
        assert len(made) == 6 + 2 * 48 and inside == []
        assert len(set(_ids(ran))) == len(ran) == 6 + 48 and set(_ids(ran)) <= set(_ids(made))

    @pytest.mark.parametrize("zero_b_variant", ["eq30", "eq31"])
    def test_forward_chunks_mix_branches_and_cross_block_boundaries(self, monkeypatch, zero_b_variant):
        # 10 orders and 10 sets on 100 x 15, where a block holds 9 rows: each
        # family runs forward as a chunk of 9 methods and one of 1, and the
        # b = 0 set in the first set chunk makes it two groups, which the
        # executor gathers; every report equals the per-method call's
        assert block_rows(100 * 15) == 9
        alphas = DEFAULT_ALPHA_GRID[:10]
        rows = [*COMPRESSION_REFERENCE_PARAMS[:2], (2.0, 0.0, 0.3, 0.5), *COMPRESSION_REFERENCE_PARAMS[2:9]]
        gammas = (0.2, 0.5, 0.8)
        blocks = []

        def spy(values, groups, ctx, *, then=(), out=None):
            blocks.append((len(values), len(groups), len(then)))
            return program_block(values, groups, ctx, then=then, out=out)

        monkeypatch.setattr(experiments, "program_block", spy)
        study = compression_study(seed=6, gammas=gammas, alpha_grid=alphas, glct_param_sets=rows,
                                  zero_b_variant=zero_b_variant)
        monkeypatch.undo()
        backward = [(len(gammas), 1, 0)]
        assert blocks == ([(9, 1, 0)] + backward * 9 + [(1, 1, 0)] + backward
                          + [(9, 2, 0)] + backward * 9 + [(1, 1, 0)] + backward)
        graph, x = study_signal(seed=6)
        ctx = ProductContext(graph)
        per_call = [compress_gfrft(x, a, ctx, g, seed=6)[1] for a in alphas for g in gammas]
        per_call += [compress(x, LctParams.from_loose(*row), ctx, g, zero_b_variant=zero_b_variant, seed=6)[1]
                     for row in rows for g in gammas]
        assert len(study) == len(per_call) == 20 * len(gammas)
        for got, want in zip(study, per_call):
            for f in ("method", "gamma", "alpha", "params", "variant", "seed"):
                assert getattr(got, f) == getattr(want, f)
            for f in ("re", "nrms", "cc"):
                assert getattr(got, f) == pytest.approx(getattr(want, f), rel=1e-12, abs=1e-15)

    def test_gso_given_by_value_runs_its_context(self):
        graph, x = study_signal(12, 4, seed=5)
        ctx = ProductContext(graph, GsoKind.ADJACENCY)
        study = compression_study(5, gammas=(0.3, 0.7), alpha_grid=(0.6,), glct_param_sets=(),
                                  n1=12, n2=4, gso_kind="adjacency")
        assert study == [compress_gfrft(x, 0.6, ctx, g, seed=5)[1] for g in (0.3, 0.7)]

    def test_rows_cover_requested_grid(self):
        reports = compression_study(
            seed=1, gammas=(0.5, 1.0), alpha_grid=(1.0,),
            glct_param_sets=((0.40, -1.10, 0.70, 0.58),), n1=10, n2=4,
        )
        assert len(reports) == 4
        methods = {(r.method, r.gamma) for r in reports}
        assert ("gfrft", 0.5) in methods and ("glct", 1.0) in methods
        glct_rows = [r for r in reports if r.method == "glct"]
        assert all(r.params[:3] == (0.40, -1.10, 0.70) for r in glct_rows)

    def test_metrics_improve_with_ratio_per_seed(self):
        reports = compression_study(
            seed=2, gammas=(0.2, 0.5, 0.9), alpha_grid=(1.0,), glct_param_sets=(), n1=12, n2=5,
        )
        res = sorted(reports, key=lambda r: r.gamma)
        assert res[0].re >= res[1].re >= res[2].re
        assert res[0].nrms >= res[1].nrms >= res[2].nrms
        assert res[0].cc <= res[1].cc <= res[2].cc

    def test_reference_rows_satisfy_loose_determinant(self):
        assert len(COMPRESSION_REFERENCE_PARAMS) == 27
        for a, b, c, d in COMPRESSION_REFERENCE_PARAMS:
            assert abs(a * d - b * c - 1.0) <= 0.02

    def test_default_alpha_grid_spans_unit_interval(self):
        from glct.experiments import DEFAULT_ALPHA_GRID

        assert len(DEFAULT_ALPHA_GRID) == 21
        assert DEFAULT_ALPHA_GRID[0] == 0.0 and DEFAULT_ALPHA_GRID[-1] == 1.0

    def test_study_signal_deterministic(self):
        g1, x1 = study_signal(8, 3, seed=9)
        g2, x2 = study_signal(8, 3, seed=9)
        assert g1.shape == (8, 3)
        np.testing.assert_array_equal(x1.values, x2.values)

    def test_study_reports_equal_per_call_reports(self):
        alphas, rows = DEFAULT_ALPHA_GRID[::5], COMPRESSION_REFERENCE_PARAMS[:4]
        for variant in ("cmccm", "cddhfs"):
            study = compression_study(seed=4, alpha_grid=alphas, glct_param_sets=rows,
                                      n1=10, n2=4, variant=variant)
            graph, x = study_signal(10, 4, seed=4)
            ctx = ProductContext(graph)
            per_call = [compress_gfrft(x, a, ctx, g, seed=4)[1] for a in alphas for g in DEFAULT_GAMMAS]
            per_call += [compress(x, LctParams.from_loose(*row), ctx, g, variant, seed=4)[1]
                         for row in rows for g in DEFAULT_GAMMAS]
            assert len(study) == len(per_call) == 9 * 9
            for got, want in zip(study, per_call):
                for f in ("method", "gamma", "alpha", "params", "variant", "seed"):
                    assert getattr(got, f) == getattr(want, f)
                for f in ("re", "nrms", "cc"):
                    assert getattr(got, f) == pytest.approx(getattr(want, f), rel=1e-12, abs=1e-15)

    def test_search_blocks_keep_first_best_in_draw_order(self, small_study):
        ctx, x = small_study
        budget = block_rows(x.n) + 3
        for metric in ("nrms", "cc"):
            rep = search_glct_params(x, ctx, gamma=0.3, budget=budget, seed=2, metric=metric)
            rng = np.random.default_rng(np.random.SeedSequence((2,)))
            manual = [compress(x, sample_random_params(rng), ctx, 0.3, seed=2)[1] for _ in range(budget)]
            scores = [(-1.0 if metric == "cc" else 1.0) * getattr(r, metric) for r in manual]
            want = manual[int(np.argmin(scores))]
            assert rep.params == want.params
            assert getattr(rep, metric) == pytest.approx(getattr(want, metric), rel=1e-12)

    @pytest.mark.parametrize("budget", [0, -2, 2.5, True, "3"])
    def test_search_budget_must_be_a_positive_int(self, small_study, budget):
        ctx, x = small_study
        with pytest.raises(ValidationError, match="budget"):
            search_glct_params(x, ctx, gamma=0.5, budget=budget)

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "3"])
    def test_search_and_study_seed_must_be_a_non_negative_int(self, small_study, seed):
        ctx, x = small_study
        with pytest.raises(ValidationError, match="seed"):
            search_glct_params(x, ctx, gamma=0.5, budget=2, seed=seed)
        with pytest.raises(ValidationError, match="seed"):
            compression_study(seed=seed, n1=10, n2=4)

    def test_search_and_study_take_numpy_ints(self, small_study):
        ctx, x = small_study
        assert search_glct_params(x, ctx, 0.5, budget=np.int64(3), seed=np.uint8(1)) == \
            search_glct_params(x, ctx, 0.5, budget=3, seed=1)
        assert study_signal(10, 4, np.int32(2))[1].values.tobytes() == study_signal(10, 4, 2)[1].values.tobytes()

    @pytest.mark.parametrize("size", [10.0, "10", True, np.float64(10)], ids=["float", "str", "bool", "np-float"])
    def test_study_sizes_must_be_integers(self, size):
        # checked by the graph builders before any comparison or range() sees them
        with pytest.raises(ValidationError, match="size must be an integer"):
            study_signal(size)
        with pytest.raises(ValidationError, match="size must be an integer"):
            compression_study(n1=size)

    def test_search_returns_best_of_budget(self, small_study):
        ctx, x = small_study
        rep = search_glct_params(x, ctx, gamma=0.5, budget=4, seed=0)
        rng = np.random.default_rng(np.random.SeedSequence((0,)))
        manual = []
        for _ in range(4):
            p = sample_random_params(rng)
            manual.append(compress(x, p, ctx, 0.5)[1])
        assert rep.nrms == pytest.approx(min(r.nrms for r in manual))


# ---------------------------------------------------------------------------
# Differential tests: the block compression pipeline (one magnitude sort per
# coefficient row, threshold masks, RE/NRMS/CC as row reductions) against
# the per-row pipeline it replaced, frozen here as the reference: a lexsort
# keep-largest per row and per ratio, one backward call per row, and scalar
# metrics taken with np.linalg.norm and np.dot.


def _ref_keep_largest(values, k):
    order = np.lexsort((np.arange(values.size), -np.abs(values)))
    out = np.zeros_like(values)
    keep = order[:k]
    out[keep] = values[keep]
    return out


def _ref_metrics(x, xc):
    """(RE, NRMS, CC) of one real reconstruction."""
    x, xc = np.asarray(x, dtype=float).ravel(), np.asarray(xc, dtype=float).ravel()
    re = float(np.abs(x - xc).sum()) / float(np.abs(x).sum())
    nrms = float(np.linalg.norm(x - xc)) / float(np.linalg.norm(x - x.mean()))
    dx, dc = x - x.mean(), xc - xc.mean()
    cc = float(np.dot(dx, dc)) / float(np.linalg.norm(dx) * np.linalg.norm(dc))
    return re, nrms, cc


def _ref_compress(x, forward, backward, gamma):
    """(reconstruction, (RE, NRMS, CC)) of the per-row pipeline."""
    kept = _ref_keep_largest(forward(x).values, int(np.ceil(gamma * x.n)))
    recon = backward(SignalNd(x.shape, kept)).values.real
    return recon, _ref_metrics(x.values.real, recon)


def _ref_glct(x, p, ctx, gamma, variant="cmccm"):
    return _ref_compress(x, lambda s: experiments.apply_glct(s, p, ctx, variant),
                         lambda s: experiments.apply_glct(s, inverse(p), ctx, variant), gamma)


def _ref_gfrft(x, alpha, ctx, gamma):
    def frac(order):
        return lambda s: SignalNd(s.shape, run_spec(s, TransformSpec("gfrft", {"alpha": order}), ctx))

    return _ref_compress(x, frac(alpha), frac(-alpha), gamma)


def _assert_metrics_close(report, want):
    got = (report.re, report.nrms, report.cc)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def _search_sweep(x, ctx, *args):
    """``experiments._search_sweep`` of ``x``, scored against its real part."""
    return experiments._search_sweep(x, _target(x.values.real), ctx, *args)


@pytest.fixture
def kept_calls(monkeypatch):
    """Every (coeffs, ks, kept) that the pipeline passes through _keep_top."""
    calls = []
    keep = experiments._keep_top

    def spy(coeffs, magnitudes, ks, out=None):
        kept = keep(coeffs, magnitudes, ks, out)
        calls.append((coeffs.copy(), list(ks), kept.copy()))  # both in work arrays that later blocks overwrite
        return kept

    monkeypatch.setattr(experiments, "_keep_top", spy)
    return calls


def _assert_kept_sets_match(calls):
    """Row t of every keep call equals the lexsort keep-largest of its coefficient row."""
    assert calls
    for coeffs, ks, kept in calls:
        assert kept.shape == (len(ks), coeffs.shape[1])
        for t, k in enumerate(ks):
            want = _ref_keep_largest(coeffs[t if coeffs.shape[0] > 1 else 0], k)
            np.testing.assert_array_equal(kept[t], want)


@pytest.fixture(scope="module")
def default_study():
    graph, x = study_signal(100, 15, seed=6)
    return ProductContext(graph), x


class TestRanking:
    CASES = {
        "ties": np.array([1.0, -1.0, 1j, -1j, 0.5, 1.0, 0.5j], dtype=complex),
        "zeros": np.array([0.0, 0.0, 3.0, 0.0, -0.0, 2.0, 0.0j], dtype=complex),
        "all_zero": np.zeros(5, dtype=complex),
        "rounded": np.round(np.random.default_rng(3).normal(size=40)
                            + 1j * np.random.default_rng(4).normal(size=40), 1),
        "real": np.array([3.0, -3.0, 0.0, 2.0, -2.0, 3.0]),
        # long enough that an unstable sort would reorder the ties
        "many_ties": np.random.default_rng(5).choice(np.array([1.0, -1.0, 1j, -1j, 2.0, 0.0]), size=1500),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_keep_matches_lexsort(self, name):
        values = self.CASES[name]
        row = values[None]
        magnitudes = _sorted_magnitudes(row)
        marks = np.arange(1, values.size + 1)[None]  # nonzero stand-ins: kept positions stay nonzero
        for k in sorted({1, values.size, *range(1, values.size, 1 + values.size // 64)}):
            (got,) = _keep_top(row, magnitudes, [k])
            np.testing.assert_array_equal(got, _ref_keep_largest(values, k))
            assert got.dtype == values.dtype
            assert np.count_nonzero(_keep_top(marks, magnitudes, [k])) == k
        np.testing.assert_array_equal(_keep_top(row, magnitudes, [values.size])[0], values)

    def test_keeps_k_positions_per_row(self):
        rows = np.stack([self.CASES["rounded"], self.CASES["rounded"][::-1]])
        magnitudes = _sorted_magnitudes(rows)
        marks = np.arange(1, rows.size + 1).reshape(rows.shape)
        for k in range(1, rows.shape[1] + 1):
            np.testing.assert_array_equal(np.count_nonzero(_keep_top(marks, magnitudes, [k, k]), axis=1), [k, k])

    def test_shared_row_equals_distinct_rows(self):
        values = self.CASES["rounded"]
        ks = [1, 7, 7, 20, 40, 3]
        shared = _keep(values[None], ks)
        rows = np.repeat(values[None], len(ks), axis=0)
        distinct = _keep(rows, ks)
        np.testing.assert_array_equal(shared, distinct)
        for t, k in enumerate(ks):
            np.testing.assert_array_equal(shared[t], _ref_keep_largest(values, k))

    @pytest.mark.parametrize("seed", range(8))
    def test_random_ties_match_lexsort(self, seed):
        """Blocks whose values come from a few magnitudes, so ties straddle
        most cuts: a shared row and distinct rows against the lexsort."""
        rng = np.random.default_rng(seed)
        pool = np.array([0.0, 1.0, -1.0, 1j, -1j, 2.0, 0.5j])
        for _ in range(20):
            t, p = rng.integers(1, 7), rng.integers(1, 61)
            rows = rng.choice(pool, size=(t, p))
            ks = rng.integers(1, p + 1, size=t)
            distinct = _keep(rows, ks)
            shared = _keep(rows[:1], ks)
            for i, k in enumerate(ks):
                np.testing.assert_array_equal(distinct[i], _ref_keep_largest(rows[i], k))
                np.testing.assert_array_equal(shared[i], _ref_keep_largest(rows[0], k))


class TestFrozenPipeline:
    @pytest.mark.parametrize("variant", ["cmccm", "cddhfs"])
    def test_study_matches_per_row_pipeline(self, variant, kept_calls):
        alphas, rows = (0.0, 0.35, 1.0), COMPRESSION_REFERENCE_PARAMS[::9]
        study = compression_study(seed=6, alpha_grid=alphas, glct_param_sets=rows, variant=variant)
        _assert_kept_sets_match(kept_calls)
        assert len(kept_calls) == len(alphas) + len(rows)  # one keep per method, all ratios at once
        graph, x = study_signal(100, 15, seed=6)
        ctx = ProductContext(graph)
        want = [(("gfrft", g, a, None), _ref_gfrft(x, a, ctx, g)[1]) for a in alphas for g in DEFAULT_GAMMAS]
        for row in rows:
            p = LctParams.from_loose(*row)
            want += [(("glct", g, None, p.astuple()), _ref_glct(x, p, ctx, g, variant)[1])
                     for g in DEFAULT_GAMMAS]
        assert len(study) == len(want)
        for rep, (fields, metrics) in zip(study, want):
            assert (rep.method, rep.gamma, rep.alpha, rep.params) == fields
            assert rep.seed == 6 and rep.variant == (variant if rep.method == "glct" else None)
            _assert_metrics_close(rep, metrics)

    def test_sweeps_across_block_boundary(self, default_study, kept_calls):
        # block_rows(1500) is 9, so nineteen ratios take three backward blocks
        ctx, x = default_study
        assert block_rows(x.n) == 9
        p = LctParams.from_abc(0.6, 0.8, -0.5)
        gammas = [0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5,
                  0.55, 0.6, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95, 1.0]
        assert len(gammas) >= 2 * block_rows(x.n) + 1
        sweeps = experiments._study(x, ctx, gammas, alphas=[0.45], params=[p], seed=1)
        refs = (lambda g: _ref_gfrft(x, 0.45, ctx, g), lambda g: _ref_glct(x, p, ctx, g))
        for (recon, reports), ref in zip(sweeps, refs, strict=True):
            assert recon.shape == (len(gammas), x.n) and recon.dtype == float
            for t, g in enumerate(gammas):
                want_recon, want = ref(g)
                np.testing.assert_allclose(recon[t], want_recon, rtol=0, atol=1e-13 * np.abs(want_recon).max())
                assert reports[t].gamma == g
                if g < 1.0:  # at gamma = 1 the errors are rounding noise
                    _assert_metrics_close(reports[t], want)
        _assert_kept_sets_match(kept_calls)

    @pytest.mark.parametrize("variant", ["cmccm", "cddhfs"])
    def test_compress_matches_per_row_pipeline(self, default_study, variant, kept_calls):
        ctx, x = default_study
        p = LctParams.from_loose(*COMPRESSION_REFERENCE_PARAMS[4])
        for gamma in (0.1, 0.4, 0.9):
            recon, rep = compress(x, p, ctx, gamma, variant)
            want_recon, want = _ref_glct(x, p, ctx, gamma, variant)
            np.testing.assert_array_equal(recon.values, want_recon.astype(complex))
            _assert_metrics_close(rep, want)
            recon, rep = compress_gfrft(x, 0.8, ctx, gamma)
            want_recon, want = _ref_gfrft(x, 0.8, ctx, gamma)
            np.testing.assert_array_equal(recon.values, want_recon.astype(complex))
            _assert_metrics_close(rep, want)
        _assert_kept_sets_match(kept_calls)

    @pytest.mark.parametrize("metric", ["re", "nrms", "cc"])
    def test_search_matches_per_row_pipeline(self, default_study, metric, kept_calls):
        ctx, x = default_study
        budget, seed, gamma = 3 * block_rows(x.n) + 2, 5, 0.3
        rep = search_glct_params(x, ctx, gamma, budget=budget, seed=seed, metric=metric)
        _assert_kept_sets_match(kept_calls)
        rng = np.random.default_rng(np.random.SeedSequence((seed,)))
        sign = -1.0 if metric == "cc" else 1.0
        best = None
        for _ in range(budget):
            p = sample_random_params(rng)
            metrics = _ref_glct(x, p, ctx, gamma)[1]
            score = sign * metrics[("re", "nrms", "cc").index(metric)]
            if best is None or score < best[0]:
                best = (score, p, metrics)
        assert rep.params == best[1].astuple()
        assert (rep.method, rep.gamma, rep.variant, rep.seed) == ("glct", gamma, "cmccm", seed)
        _assert_metrics_close(rep, best[2])

    def test_search_over_ratios_equals_one_ratio_searches(self, small_study):
        ctx, x = small_study
        gammas = [0.2, 0.5, 0.9, 0.5]
        budget = 2 * block_rows(x.n) + 1
        _, together = _search_sweep(x, ctx, gammas, budget, 3, "nrms", "cmccm", ZeroBVariant.EQ30)
        apart = [search_glct_params(x, ctx, g, budget=budget, seed=3) for g in gammas]
        assert together == apart

    def test_search_factorizes_each_block_once(self, small_study, monkeypatch):
        # each block's draws and their inverses: two factorizations, whatever the ratio count
        ctx, x = small_study
        budget = 2 * block_rows(x.n) + 1
        calls = []
        cmccm = ParamBlock.cmccm
        monkeypatch.setattr(ParamBlock, "cmccm", lambda self, *zb: calls.append(len(self)) or cmccm(self, *zb))
        for gammas in ([0.3], [0.1, 0.3, 0.5, 0.7, 0.9]):
            calls.clear()
            _search_sweep(x, ctx, gammas, budget, 2, "nrms", "cmccm", ZeroBVariant.EQ30)
            assert len(calls) == 2 * 3 and sum(calls) == 2 * budget

    def test_search_checks_each_block_program_once(self, small_study, monkeypatch, made_and_ran):
        # a block's backward programs serve every ratio; each program is
        # checked once, when its block is factorized, never by the executor
        ctx, x = small_study
        factorized, factorize = [], ParamBlock.factorize

        def spy(block, *args):
            groups = factorize(block, *args)
            factorized.extend(groups)
            return groups

        monkeypatch.setattr(ParamBlock, "factorize", spy)
        made, ran, inside = made_and_ran
        _search_sweep(x, ctx, [0.1, 0.3, 0.5, 0.7, 0.9], 2 * block_rows(x.n) + 1, 2, "nrms", "cmccm", ZeroBVariant.EQ30)
        assert len(made) >= 6 and _ids(made) == _ids(factorized) and inside == []
        assert set(map(id, ran)) == set(map(id, made))

    @pytest.mark.parametrize("metric", ["re", "cc"])
    def test_search_returns_the_reconstructions_it_scored(self, default_study, metric):
        # each row is the winning draw's reconstruction at that ratio: its
        # metrics are the report's, bit for bit, and compress rebuilds it
        ctx, x = default_study
        gammas = [0.2, 0.6, 0.9]
        recon, reports = _search_sweep(x, ctx, gammas, 2 * block_rows(x.n) + 1, 7, metric, "cmccm", ZeroBVariant.EQ30)
        assert recon.shape == (len(gammas), x.n) and recon.dtype == float
        xr = x.values.real
        for row, rep in zip(recon, reports):
            scores = tuple(float(metric(xr, row[None])[0]) for metric in REFERENCE_METRICS)
            assert scores == (rep.re, rep.nrms, rep.cc)
            want, _ = compress(x, LctParams(*rep.params), ctx, rep.gamma)
            np.testing.assert_allclose(row, want.values.real, rtol=0, atol=1e-13 * np.abs(want.values).max())

    def test_search_ties_keep_earliest_draw(self, small_study, monkeypatch):
        # every score ties, so at every ratio the first draw wins
        ctx, x = small_study
        score = experiments._score_rows

        def nrms_all_zero(target, xc, scratch=None):
            re, nrms, cc = score(target, xc, scratch)
            return re, np.zeros_like(nrms), cc

        monkeypatch.setattr(experiments, "_score_rows", nrms_all_zero)
        budget = 2 * block_rows(x.n) + 1
        _, reports = _search_sweep(x, ctx, [0.3, 0.6], budget, 4, "nrms", "cmccm", ZeroBVariant.EQ30)
        first = sample_random_params(np.random.default_rng(np.random.SeedSequence((4,))))
        assert [r.gamma for r in reports] == [0.3, 0.6]
        assert all(r.params == first.astuple() and r.nrms == 0.0 for r in reports)


_ONE_RATIO_CHECK = """
from glct import LctParams, ProductContext, compress, compress_gfrft, compression_study
from glct.experiments import COMPRESSION_REFERENCE_PARAMS, DEFAULT_GAMMAS, study_signal
graph, x = study_signal(100, 15, seed=6)
ctx = ProductContext(graph)
alphas, rows = (0.2, 0.9), COMPRESSION_REFERENCE_PARAMS[3:5]
for variant in ("cmccm", "cddhfs"):
    study = compression_study(seed=6, alpha_grid=alphas, glct_param_sets=rows, variant=variant)
    per_call = [compress_gfrft(x, a, ctx, g, seed=6)[1] for a in alphas for g in DEFAULT_GAMMAS]
    per_call += [compress(x, LctParams.from_loose(*row), ctx, g, variant, seed=6)[1]
                 for row in rows for g in DEFAULT_GAMMAS]
    assert len(study) == 36 and study == per_call, variant
"""


@pytest.fixture
def scored(monkeypatch):
    """Every (signal, block, (RE, NRMS, CC)) that the pipeline scores."""
    calls = []
    score = experiments._score_rows

    def spy(target, xc, scratch=None):
        out = score(target, xc, scratch)
        calls.append((target.x, xc.copy(), out))
        return out

    monkeypatch.setattr(experiments, "_score_rows", spy)
    return calls


def _assert_scores_equal_reference(calls):
    """Each scored block's metrics equal the frozen three-function form bit for bit."""
    assert calls
    for x, xc, scores in calls:
        assert len(scores) == len(REFERENCE_METRICS)
        for got, metric in zip(scores, REFERENCE_METRICS):
            assert got.tobytes() == metric(x, xc).tobytes()


class TestScoring:
    @pytest.mark.parametrize("variant", ["cmccm", "cddhfs"])
    def test_study_blocks_equal_frozen_metrics(self, default_study, variant, scored):
        alphas, rows = (0.0, 0.35, 1.0), COMPRESSION_REFERENCE_PARAMS[::9]
        compression_study(6, alpha_grid=alphas, glct_param_sets=rows, variant=variant)
        assert len(scored) == len(alphas) + len(rows)
        assert all(xc.shape == (len(DEFAULT_GAMMAS), default_study[1].n) for _, xc, _ in scored)
        _assert_scores_equal_reference(scored)

    @pytest.mark.parametrize("metric", ["re", "nrms", "cc"])
    def test_search_blocks_equal_frozen_metrics(self, default_study, metric, scored):
        ctx, x = default_study
        budget = 2 * block_rows(x.n) + 1
        search_glct_params(x, ctx, 0.3, budget=budget, seed=4, metric=metric)
        assert [xc.shape[0] for _, xc, _ in scored] == [block_rows(x.n), block_rows(x.n), 1]
        _assert_scores_equal_reference(scored)

    def test_signal_constants_are_computed_once_per_call(self, small_study, monkeypatch):
        ctx, x = small_study
        calls = []
        target = experiments._target
        monkeypatch.setattr(experiments, "_target", lambda xr: calls.append(1) or target(xr))
        compression_study(0, alpha_grid=(0.2, 0.7), glct_param_sets=COMPRESSION_REFERENCE_PARAMS[:2], n1=10, n2=4)
        assert len(calls) == 1
        search_glct_params(x, ctx, 0.4, budget=3 * block_rows(x.n) + 1, seed=1)
        assert len(calls) == 2


class TestRowMetrics:
    def test_study_reports_equal_one_ratio_reports_bit_for_bit(self):
        # RE/NRMS/CC are reductions along each row, so a row's values do not
        # depend on how many ratios share its block. Bit equality with the
        # one-ratio calls also needs the backward block's rows to equal its
        # one-row calls bit for bit, which single-threaded OpenBLAS gives and a
        # multi-threaded GEMM need not (it splits a 9-row block differently),
        # so the check runs in a child with BLAS pinned to one thread.
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
               "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-c", _ONE_RATIO_CHECK], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_row_values_do_not_depend_on_block_height(self):
        rng = np.random.default_rng(8)
        x = rng.uniform(-10, 10, size=1500)
        block = x + rng.normal(scale=3.0, size=(16, 1500))
        for i in range(3):
            full = _scores(x, block)[i]
            for t in range(block.shape[0]):
                assert full[t] == _scores(x, block[t:t + 1])[i][0]
                assert _scores(x, block[: t + 1])[i][t] == full[t]
            np.testing.assert_allclose(full, [_ref_metrics(x, r)[i] for r in block], rtol=1e-13)

    def test_constant_reconstruction_raises(self):
        x = np.array([0.3, -1.2, 2.0])
        for block in (np.ones((1, 3)), np.stack([x, np.ones(3)])):
            with pytest.raises(ValidationError, match="^correlation undefined for a constant signal$"):
                _scores(x, block)
            with pytest.raises(ValidationError, match="^correlation undefined for a constant signal$"):
                REFERENCE_METRICS[2](x, block)
