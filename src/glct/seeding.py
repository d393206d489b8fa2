"""The NMSE suites' parameter rows for every trial in one array pass.

Trial t of benchmark signal s draws its rows (a, b, c) from its own generator,
``np.random.default_rng(np.random.SeedSequence((seed, s, t)))``, with
``Generator.uniform(-2, 2)`` and :func:`glct.params.sample_abc`'s rule of
redrawing rows with |a| < ``glct.params.MIN_ABS_A``. Building a SeedSequence,
a PCG64 and a Generator per trial costs more than the draws themselves, so
:func:`trial_abc` computes the same three stages with integer arrays whose
element t is trial t:

- numpy's SeedSequence hash: the entropy words of (seed, s, t) are mixed into
  a four-word pool, and ``generate_state(4, uint64)`` hashes the pool into
  the 256 seed bits. The hash constants do not depend on the data, so they
  are Python ints masked to 32 bits, computed once per call;
- PCG64 (O'Neill, "PCG: A family of simple fast space-efficient statistically
  good algorithms for random number generation", HMC-CS-2014-0905): numpy's
  ``pcg64_set_seed`` rule, then the 128-bit LCG step and the XSL-RR output,
  with the 128-bit state as (hi, lo) uint64 arrays and the product assembled
  from 32-bit limbs;
- numpy's ``next_double`` and ``uniform``: ``(out >> 11) * 2**-53``, then
  ``-2 + 4 * u``.

The rows equal numpy's byte for byte on every build:

- integer arithmetic on fixed-width arrays is exact (it wraps modulo 2**32
  or 2**64 exactly as the C code does);
- ``out >> 11`` has at most 53 bits, so its conversion to float64 and the
  scaling by 2**-53 are exact;
- ``4 * u`` is exact, so ``-2 + 4 * u`` rounds once, and a numpy built with
  FMA contraction, which computes ``fma(4, u, -2)``, rounds the same exact
  value once to the same double.

Only the suites' bounds (-2, 2) are served.
"""
from __future__ import annotations

import itertools

import numpy as np

from . import params

_MASK32 = 0xFFFF_FFFF

# numpy/random/bit_generator.pyx
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715

# PCG_DEFAULT_MULTIPLIER_128 as (hi, lo) and the 32-bit halves of lo
_PCG_MULT_HI, _PCG_MULT_LO = 2549297995355413924, 4865540595714422341
_PCG_MULT_LO0, _PCG_MULT_LO1 = _PCG_MULT_LO & _MASK32, _PCG_MULT_LO >> 32

_LOW, _SPAN = -2.0, 4.0


def _words(value: int) -> list[int]:
    """The uint32 words of a non-negative int, least significant first, as
    SeedSequence reads an int entropy entry (0 is one word)."""
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _hash_constants(init: int, mult: int):
    """The (xor, multiply) constants of successive hash calls: the multiplier
    is advanced between the two, so call k uses init * mult**k and
    init * mult**(k + 1)."""
    h = init
    while True:
        nxt = h * mult & _MASK32
        yield h, nxt
        h = nxt


def _hash(value: np.ndarray, constants) -> np.ndarray:
    xor, mult = next(constants)
    value = (value ^ xor) * mult
    return value ^ (value >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    value = x * _MIX_MULT_L - y * _MIX_MULT_R
    return value ^ (value >> 16)


def _seed_state(entropy: list[np.ndarray]) -> list[np.ndarray]:
    """``SeedSequence(entropy).generate_state(4, np.uint64)`` as four uint64
    arrays, from the entropy words as uint32 arrays."""
    hash_a = _hash_constants(_INIT_A, _MULT_A)
    zero = np.zeros_like(entropy[0])
    pool = [_hash(entropy[i] if i < len(entropy) else zero, hash_a) for i in range(_POOL_SIZE)]
    for src, dst in itertools.permutations(range(_POOL_SIZE), 2):
        pool[dst] = _mix(pool[dst], _hash(pool[src], hash_a))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], _hash(word, hash_a))
    hash_b = _hash_constants(_INIT_B, _MULT_B)
    out = [_hash(pool[i % _POOL_SIZE], hash_b).astype(np.uint64) for i in range(2 * _POOL_SIZE)]
    # little-endian pairs of uint32 words make each uint64
    return [out[2 * k] | (out[2 * k + 1] << np.uint64(32)) for k in range(_POOL_SIZE)]


def _step(state: np.ndarray) -> None:
    """One LCG step, state = state * multiplier + inc modulo 2**128, in place
    on the rows (hi, lo, inc_hi, inc_lo) of ``state``."""
    hi, lo, inc_hi, inc_lo = state
    lo0, lo1 = lo & _MASK32, lo >> np.uint64(32)
    p00, p01 = lo0 * _PCG_MULT_LO0, lo0 * _PCG_MULT_LO1
    p10, p11 = lo1 * _PCG_MULT_LO0, lo1 * _PCG_MULT_LO1
    mid = (p00 >> np.uint64(32)) + (p01 & _MASK32) + (p10 & _MASK32)
    carry_hi = p11 + (p01 >> np.uint64(32)) + (p10 >> np.uint64(32)) + (mid >> np.uint64(32))
    new_lo = lo * _PCG_MULT_LO + inc_lo
    state[0] = carry_hi + hi * _PCG_MULT_LO + lo * _PCG_MULT_HI + inc_hi + (new_lo < inc_lo)
    state[1] = new_lo


def _pcg64(seed_state: list[np.ndarray]) -> np.ndarray:
    """The PCG64 states numpy seeds from ``generate_state(4, uint64)``
    (``pcg64_set_seed``): rows (hi, lo, inc_hi, inc_lo) of a (4, T) array."""
    s_hi, s_lo, i_hi, i_lo = seed_state
    inc_hi = (i_hi << np.uint64(1)) | (i_lo >> np.uint64(63))
    inc_lo = (i_lo << np.uint64(1)) | np.uint64(1)
    # state = 0; step; state += s; step
    lo = inc_lo + s_lo
    state = np.stack([inc_hi + s_hi + (lo < s_lo), lo, inc_hi, inc_lo])
    _step(state)
    return state


def _uniform(state: np.ndarray, k: int) -> np.ndarray:
    """The next ``k`` values of ``Generator.uniform(-2, 2)`` of every stream
    of ``state``, as a (T, k) array; advances ``state``."""
    out = np.empty((k, state.shape[1]), dtype=np.uint64)
    for j in range(k):
        _step(state)
        hi, lo = state[0], state[1]
        x = hi ^ lo
        rot = hi >> np.uint64(58)
        out[j] = (x >> rot) | (x << ((np.uint64(64) - rot) & np.uint64(63)))
    u = (out.T >> np.uint64(11)).astype(float) * 2.0 ** -53
    return _LOW + _SPAN * u


def trial_abc(seed: int, signal_index: int, trials: int, n: int) -> np.ndarray:
    """The rows that ``sample_abc(rng, n)`` returns for
    ``rng = np.random.default_rng(np.random.SeedSequence((seed, signal_index,
    t)))``, byte for byte, for every t < trials in turn: a (trials * n, 3) array.

    Every stream draws n rows at once; streams left short by rows with
    |a| < ``MIN_ABS_A`` draw together again, as many rows as the shortest
    needs, keeping accepted rows in draw order up to the n-th. Later rows of a
    stream are never returned, so drawing more of them changes nothing.
    """
    t = np.arange(trials, dtype=np.uint32)
    entropy = [np.full(trials, w, dtype=np.uint32) for w in _words(seed) + _words(signal_index)] + [t]
    state = _pcg64(_seed_state(entropy))
    rows = np.empty((trials, n, 3))
    filled = np.zeros(trials, dtype=np.intp)
    live = np.arange(trials)
    need = n
    while live.size:
        drawn = _uniform(state, 3 * need).reshape(live.size, need, 3)
        ok = np.abs(drawn[:, :, 0]) >= params.MIN_ABS_A
        slot = filled[live, None] + np.cumsum(ok, axis=1) - 1
        i, j = np.nonzero(ok & (slot < n))
        rows[live[i], slot[i, j]] = drawn[i, j]
        filled[live] = np.minimum(filled[live] + ok.sum(axis=1), n)
        short = filled[live] < n
        live, state = live[short], state[:, short]
        need = n - int(filled[live].min(initial=n))
    return rows.reshape(-1, 3)
