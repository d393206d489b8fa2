import numpy as np
import pytest

from glct import ProductContext, SignalNd, cartesian_product, make_path, make_ring
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
