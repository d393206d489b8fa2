"""Seeded fuzz of the factorized transforms against the dense oracle and the
reversibility gate, on small random weighted product graphs.

Graphs have 1 to 6 vertices per factor, single vertices and disconnected
graphs included, and 1 to 3 factors under either shift operator. Parameter
sets come from four draws: |b| <= ZERO_B_TOL (0 included), b just above it,
|a| down to 1e-6, and the general draw. Every case runs cmccm under both
zero-b forms and cddhfs through ``apply_glct`` against ``dense_operator``;
cmccm must also invert to NMSE < 1e-20, a b = 0 set by the other form.
"""
import numpy as np

from glct import (
    Graph,
    GsoKind,
    LctParams,
    ProductContext,
    SignalNd,
    ZeroBVariant,
    apply_glct,
    cartesian_product,
    dense_operator,
    nmse_reversibility,
)
from glct.params import ZERO_B_TOL
from glct.product import TransformSpec

CASES = 100
FORMS = tuple(ZeroBVariant)


def _graph(rng) -> Graph:
    """1 to 6 vertices, each pair joined with probability 1/2 by an edge of weight in [0.1, 2)."""
    n = int(rng.integers(1, 7))
    edges = [(i, j, rng.uniform(0.1, 2.0)) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
    return Graph(n, tuple(edges))


def _params(rng, draw: int) -> LctParams:
    a, b, c = rng.uniform(-2.0, 2.0, size=3)
    if abs(a) < 0.05:
        a = np.copysign(0.05, a)
    sign = rng.choice([-1.0, 1.0])
    if draw == 0:  # the b = 0 forms
        b = rng.choice([0.0, sign * rng.uniform(0.0, ZERO_B_TOL)])
    elif draw == 1:  # the general form, just above its tolerance
        b = sign * ZERO_B_TOL * (1.0 + rng.uniform(1e-9, 1e-3))
    elif draw == 2:  # small |a|, with either form
        a = sign * 10.0 ** rng.uniform(-6.0, -1.0)
        b = rng.choice([0.0, b])
    return LctParams.from_abc(a, b, c)


def _case(seed: int):
    rng = np.random.default_rng(np.random.SeedSequence((2024, seed)))
    graph = cartesian_product([_graph(rng) for _ in range(int(rng.integers(1, 4)))])
    gso = rng.choice(list(GsoKind))
    p = _params(rng, seed % 4)
    x = SignalNd(graph.shape, rng.normal(size=graph.n) + 1j * rng.normal(size=graph.n))
    return graph, gso, p, x


def test_fuzz_against_dense_oracle_and_reversibility():
    for seed in range(CASES):
        graph, gso, p, x = _case(seed)
        ctx = ProductContext(graph, gso)
        for variant, form in [("cmccm", form) for form in FORMS] + [("cddhfs", ZeroBVariant.EQ30)]:
            what = f"case {seed}: {variant} {form.value} at {p.astuple()} on {graph.shape} ({gso.value})"
            spec = TransformSpec(f"glct_{variant}", {"abcd": p.astuple()}, gso=gso.value, zero_b_variant=form.value)
            want = dense_operator(spec, graph) @ x.values
            got = apply_glct(x, p, ctx, variant, form).values
            assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want), what
            if variant == "cmccm":
                assert nmse_reversibility(x, p, ctx, variant, form) < 1e-20, what


def _connected(g: Graph) -> bool:
    reached, todo = {0}, [0]
    while todo:
        i = todo.pop()
        for u, v, _ in g.edges:
            for a, b in ((u, v), (v, u)):
                if a == i and b not in reached:
                    reached.add(b)
                    todo.append(b)
    return len(reached) == g.n


def test_cases_cover_what_they_claim():
    cases = [_case(seed) for seed in range(CASES)]
    factors = [g for graph, _, _, _ in cases for g in graph.factors]
    assert {g.n for g in factors} == set(range(1, 7))
    assert any(g.n > 1 and not _connected(g) for g in factors)
    assert {len(graph.factors) for graph, _, _, _ in cases} == {1, 2, 3}
    assert {gso for _, gso, _, _ in cases} == set(GsoKind)
    ps = [p for _, _, p, _ in cases]
    assert all(abs(p.b) <= ZERO_B_TOL for p in ps[0::4]) and any(p.b == 0.0 for p in ps[0::4])
    assert all(ZERO_B_TOL < abs(p.b) < 1.01 * ZERO_B_TOL for p in ps[1::4])
    assert min(abs(p.a) for p in ps[2::4]) < 1e-5 and any(p.b == 0.0 for p in ps[2::4])
