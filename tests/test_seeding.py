"""The suites' one-pass trial draws against numpy's own per-trial generators."""
import numpy as np
import pytest

from glct import seeding, suite_additivity, suite_reversibility
from glct.seeding import trial_abc


def numpy_rows(seed, signal_index, trials, n, min_abs_a=0.05):
    """Rows (a, b, c) drawn one at a time from numpy's generator of each
    trial, redrawing |a| < min_abs_a."""
    rows = []
    for t in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence((seed, signal_index, t)))
        kept = 0
        while kept < n:
            a, b, c = rng.uniform(-2.0, 2.0, size=3)
            if abs(a) >= min_abs_a:
                rows.append((a, b, c))
                kept += 1
    return np.array(rows, dtype=float).reshape(-1, 3)


# 2**32 - 1 .. 2**40 + 17 are one and two entropy words; 10**30 is four, so
# with the signal and trial words the entropy outgrows the four-word pool
@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**40 + 17, 10**30])
def test_rows_equal_numpy_streams(seed):
    trials = 700
    for signal_index in range(4):
        for n in (1, 2):
            got = trial_abc(seed, signal_index, trials, n)
            want = numpy_rows(seed, signal_index, trials, n)
            assert got.shape == (trials * n, 3)
            assert got.tobytes() == want.tobytes(), (signal_index, n)


def test_forced_redraws_equal_numpy_streams(monkeypatch):
    # |a| >= 1.95 accepts one row in 40, so short streams draw again for many rounds
    rounds = []
    uniform = seeding._uniform

    def counted(state, k):
        rounds.append(state.shape[1])
        return uniform(state, k)

    monkeypatch.setattr(seeding, "_uniform", counted)
    got = trial_abc(7, 2, 120, 2, min_abs_a=1.95)
    assert got.tobytes() == numpy_rows(7, 2, 120, 2, min_abs_a=1.95).tobytes()
    assert len(rounds) > 10 and rounds[0] == 120 and rounds[-1] < rounds[0]


@pytest.mark.parametrize("suite", [suite_reversibility, suite_additivity])
def test_suite_builds_no_generator_per_trial(suite, monkeypatch):
    built = []
    seed_sequence, default_rng = np.random.SeedSequence, np.random.default_rng

    def counting(make):
        def build(*args, **kwargs):
            built.append(make)
            return make(*args, **kwargs)
        return build

    monkeypatch.setattr(np.random, "SeedSequence", counting(seed_sequence))
    monkeypatch.setattr(np.random, "default_rng", counting(default_rng))
    counts = []
    for trials in (2, 40):
        built.clear()
        suite(signals=("x1",), trials=trials, seed=3, variants=("cmccm",))
        counts.append(len(built))
    assert counts[0] == counts[1] <= 2
