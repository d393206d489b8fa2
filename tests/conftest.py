import numpy as np
import pytest

from glct import (
    LctParams,
    ProductContext,
    SignalNd,
    ValidationError,
    ZeroBVariant,
    apply_glct,
    cartesian_product,
    make_path,
    make_ring,
)
from glct.experiments import _benchmark_setup
from glct.params import RATED_KINDS
from glct.product import program_block
from glct.spectral import frac_diag_power


def frac_operator(fe, t):
    """Fractional power P diag(mu**t) P^H of a unitary eigendecomposition
    ``fe`` (a FourierEigen), with mu**t from ``frac_diag_power``: the dense
    matrix the transforms' fractional op stands for."""
    return (fe.vectors * frac_diag_power(fe.values, t)) @ fe.vectors.conj().T


def run_spec(x, spec, ctx):
    """The values of ``x`` through the program of ``spec`` (a TransformSpec),
    run by the block executor as a block of one row."""
    return program_block(x.values[None], [spec.program()], ctx)[0]


def _op_matrix(kind, rate):
    """Parameter matrix of one op; ``ft`` is ``frac(1)`` and ``ift`` ``frac(-1)``."""
    if kind == "ft":
        return np.array([[0.0, 1.0], [-1.0, 0.0]])
    if kind == "ift":
        return np.array([[0.0, -1.0], [1.0, 0.0]])
    if kind == "cm":
        return np.array([[1.0, 0.0], [rate, 1.0]])
    if kind == "scale":
        return np.diag([rate, 1.0 / rate])
    angle = rate * np.pi / 2.0
    return np.array([[np.cos(angle), np.sin(angle)], [-np.sin(angle), np.cos(angle)]])


def recompose(group):
    """Check a one-row ProgramGroup as the executor does, then multiply its
    op matrices back into (a, b; c, d), the last op leftmost. The constant
    phase has no 2x2 counterpart."""
    group.check()
    if len(group.rows) != 1:
        raise ValidationError(f"recompose takes a program group of one row, got {len(group.rows)} rows")
    rates = iter(group.rates[:, 0].tolist())
    m = np.eye(2)
    for kind in group.kinds:
        m = _op_matrix(kind, next(rates) if kind in RATED_KINDS else None) @ m
    return m


def compose(p1, p2):
    """Parameter matrix product p1 p2 of two LctParams, one 2x2 matmul."""
    return LctParams(*(p1.matrix @ p2.matrix).ravel())


def nmse_additivity_scalar(x, p1, p2, ctx, variant="cmccm", zero_b_variant=ZeroBVariant.EQ30):
    """Additivity NMSE of one parameter pair as two one-signal cascades:
    ||T_{p1 p2} x - T_{p1} T_{p2} x||^2 / ||T_{p1 p2} x||^2."""
    one = apply_glct(x, compose(p1, p2), ctx, variant, zero_b_variant)
    den = float(np.sum(np.abs(one.values) ** 2))
    if den == 0.0:
        raise ValidationError("degenerate signal: the reference transform is identically zero")
    two = apply_glct(apply_glct(x, p2, ctx, variant, zero_b_variant), p1, ctx, variant, zero_b_variant)
    num = float(np.sum(np.abs(one.values - two.values) ** 2))
    return num / den


@pytest.fixture
def fresh_suite_setup():
    """Empty the suites' per-process set-up cache before and after the test,
    so a test that patches set-up code sees every build and leaves none
    behind that was built under its patch."""
    _benchmark_setup.cache_clear()
    yield _benchmark_setup
    _benchmark_setup.cache_clear()


@pytest.fixture(scope="session")
def ctx_ring4_path3():
    return ProductContext(cartesian_product([make_ring(4), make_path(3)]))


@pytest.fixture(scope="session")
def ctx_3d():
    return ProductContext(cartesian_product([make_path(2), make_path(3), make_ring(4)]))


@pytest.fixture
def rand_signal():
    def make(ctx, seed=0, complex_valued=True):
        rng = np.random.default_rng(seed)
        n = ctx.graph.n
        values = rng.normal(size=n)
        if complex_valued:
            values = values + 1j * rng.normal(size=n)
        return SignalNd(ctx.shape, values)

    return make
