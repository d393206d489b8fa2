"""NMSE studies, the complexity model, and the compression pipeline."""
import numpy as np
import pytest

from glct import (
    COMPRESSION_REFERENCE_PARAMS,
    LctParams,
    ProductContext,
    SignalNd,
    ValidationError,
    benchmark_signal,
    cartesian_product,
    complexity_model,
    compress,
    compress_gfrft,
    compression_study,
    correlation_coefficient,
    make_path,
    make_ring,
    nmse_additivity,
    nmse_reversibility,
    normalized_rms,
    relative_error,
    sample_random_params,
    search_glct_params,
    suite_additivity,
    suite_reversibility,
)
from glct import experiments
from glct.experiments import (
    BENCHMARK_SIGNALS,
    DEFAULT_ALPHA_GRID,
    DEFAULT_GAMMAS,
    _keep_largest,
    _trial_rng,
    best_by_metric,
    study_signal,
)
from glct.product import block_rows


@pytest.fixture(scope="module")
def x1():
    graph, sig = benchmark_signal("x1")
    return ProductContext(graph), sig


class TestNmse:
    def test_reversibility_cmccm_is_exact(self, x1):
        ctx, x = x1
        rng = np.random.default_rng(0)
        for _ in range(10):
            p = sample_random_params(rng)
            assert nmse_reversibility(x, p, ctx, "cmccm") < 1e-20

    def test_reversibility_zero_signal_raises(self, x1):
        ctx, _ = x1
        zero = SignalNd(ctx.shape, np.zeros(ctx.graph.n))
        with pytest.raises(ValidationError):
            nmse_reversibility(zero, LctParams.identity(), ctx, "cmccm")

    def test_additivity_zero_signal_raises(self, x1):
        ctx, _ = x1
        zero = SignalNd(ctx.shape, np.zeros(ctx.graph.n))
        with pytest.raises(ValidationError):
            nmse_additivity(zero, LctParams.identity(), LctParams.identity(), ctx, "cmccm")

    def test_additivity_with_identity_factor_is_finite(self, x1):
        # identity parameters do not realize the identity operator, so this
        # measures a genuine composition gap; it just has to be well defined
        ctx, x = x1
        p1 = LctParams.from_abc(0.6, 0.8, -0.5)
        value = nmse_additivity(x, p1, LctParams.identity(), ctx, "cmccm")
        assert np.isfinite(value) and value >= 0.0

    def test_additivity_finite_both_variants(self, x1):
        ctx, x = x1
        p1 = LctParams.from_abc(0.6, 0.8, -0.5)
        p2 = LctParams.from_abc(-1.2, 0.7, 1.1)
        for variant in ("cddhfs", "cmccm"):
            value = nmse_additivity(x, p1, p2, ctx, variant)
            assert np.isfinite(value) and value >= 0.0


class TestComplexityModel:
    def test_spot_values(self):
        assert complexity_model(16, 8, "cddhfs") == 1472.0
        assert complexity_model(16, 8, "cmccm") == 640.0
        assert complexity_model(16, 8, "cmccm_zero_b") == 816.0

    def test_formulas(self):
        n1, n2 = 10, 6
        logs = n1 * np.log2(n1) + n2 * np.log2(n2)
        assert complexity_model(n1, n2, "cddhfs") == 4 * (n1**2 + n2**2) + 8 * (n1 + n2)
        assert complexity_model(n1, n2, "cmccm") == pytest.approx(12 * (n1 + n2) + 4 * logs)
        assert complexity_model(n1, n2, "cmccm_zero_b") == pytest.approx(12 * (n1 + n2) + 6 * logs)

    def test_asymptotic_ordering(self):
        assert complexity_model(100, 15, "cddhfs") > complexity_model(100, 15, "cmccm")

    def test_validation(self):
        with pytest.raises(ValidationError):
            complexity_model(1, 8, "cmccm")
        with pytest.raises(ValidationError):
            complexity_model(16, 8, "fft")


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

    def test_invalid_trials_raise(self):
        with pytest.raises(ValidationError):
            suite_reversibility(trials=0)

    def test_unknown_signal_raises_before_any_work(self, monkeypatch):
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
                rng = _trial_rng(seed, BENCHMARK_SIGNALS.index(name), t)
                if kind == "additivity":
                    p1, p2 = sample_random_params(rng), sample_random_params(rng)
                    loop.append(nmse_additivity(x, p1, p2, ctx, r.variant))
                else:
                    loop.append(nmse_reversibility(x, sample_random_params(rng), ctx, r.variant))
            # bit for bit with OpenBLAS; cmccm reversibility NMSEs are rounding
            # noise near 1e-30, so they get an absolute tolerance far below the
            # 1e-20 gate
            np.testing.assert_allclose(r.values, loop, rtol=1e-12, atol=1e-26)


class TestMetrics:
    def test_relative_error_hand_value(self):
        assert relative_error([2.0, -2.0], [1.0, -1.0]) == pytest.approx(0.5)

    def test_normalized_rms_hand_value(self):
        assert normalized_rms([1.0, -1.0], [0.0, 0.0]) == pytest.approx(1.0)

    def test_correlation_of_identical_signals(self):
        x = np.array([0.3, -1.2, 2.0, 0.1])
        assert correlation_coefficient(x, x) == pytest.approx(1.0)

    def test_degenerate_inputs_raise(self):
        with pytest.raises(ValidationError):
            relative_error([0.0, 0.0], [1.0, 1.0])
        with pytest.raises(ValidationError):
            normalized_rms([2.0, 2.0], [1.0, 0.0])


class TestKeepLargest:
    def test_keeps_top_magnitudes(self):
        vals = np.array([1.0, -4.0, 2.0, 0.5], dtype=complex)
        np.testing.assert_array_equal(
            _keep_largest(vals, 2), np.array([0.0, -4.0, 2.0, 0.0], dtype=complex)
        )

    def test_ties_keep_lower_index(self):
        vals = np.array([1.0, -1.0, 1.0], dtype=complex)
        np.testing.assert_array_equal(
            _keep_largest(vals, 2), np.array([1.0, -1.0, 0.0], dtype=complex)
        )


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
                compress(x, LctParams.identity(), ctx, gamma=gamma)

    def test_zero_signal_raises(self, small_study):
        ctx, _ = small_study
        zero = SignalNd(ctx.shape, np.zeros(ctx.graph.n))
        with pytest.raises(ValidationError):
            compress(zero, LctParams.from_abc(0.6, 0.8, -0.5), ctx, gamma=0.5)

    def test_reconstruction_is_real(self, small_study):
        ctx, x = small_study
        recon, _ = compress(x, LctParams.from_abc(0.6, 0.8, -0.5), ctx, gamma=0.4)
        assert np.all(recon.values.imag == 0)


class TestStudy:
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

    def test_best_by_metric(self):
        reports = compression_study(
            seed=3, gammas=(0.5,), alpha_grid=(0.5, 1.0), glct_param_sets=(), n1=10, n2=4,
        )
        best = best_by_metric(reports, "nrms")
        assert set(best) == {0.5}
        assert best[0.5].nrms == min(r.nrms for r in reports)

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

    def test_search_returns_best_of_budget(self, small_study):
        ctx, x = small_study
        rep = search_glct_params(x, ctx, gamma=0.5, budget=4, seed=0)
        rng = np.random.default_rng(np.random.SeedSequence((0,)))
        manual = []
        for _ in range(4):
            p = sample_random_params(rng)
            manual.append(compress(x, p, ctx, 0.5)[1])
        assert rep.nrms == pytest.approx(min(r.nrms for r in manual))
