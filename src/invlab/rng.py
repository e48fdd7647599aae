"""Deterministic random streams with pinned bit-level semantics.

Experiments must reproduce bit for bit from a 64-bit seed, on any platform
and in any host language, so we do not lean on numpy's generators. The
integer stream is xoshiro256** (Blackman/Vigna), state-seeded through
splitmix64, both defined below exactly:

splitmix64 step (all arithmetic mod 2**64)::

    state += 0x9E3779B97F4A7C15
    z = state
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    out = z ^ (z >> 31)

xoshiro256** step (all arithmetic mod 2**64)::

    out = rotl(s1 * 5, 7) * 9
    t = s1 << 17
    s2 ^= s0 ; s3 ^= s1 ; s1 ^= s2 ; s0 ^= s3
    s2 ^= t  ; s3 = rotl(s3, 45)

The four state words are the first four splitmix64 outputs for the seed.
Derived draws are pinned too:

* uniform: ``(next_u64() >> 11) * 2.0**-53``, a double in [0, 1).
* normal: Box-Muller pairs in fixed draw order. Each pair consumes two
  uniforms u1, u2 (u1 redrawn while exactly zero) and yields first
  ``sqrt(-2 ln u1) * cos(2 pi u2)``, then ``sqrt(-2 ln u1) * sin(2 pi u2)``.
  The sine variate is cached and returned by the following call, so
  ``normals(k)`` consumes ``2 * ceil(k / 2)`` uniforms.

Integer outputs are bit-exact everywhere; the float transforms additionally
pin the operation order, so they agree wherever libm's log/cos/sin do.

The spec is ``Rng.next_u64``, ``uniform`` and ``normal``: one Python-int
step per word. ``normals`` evaluates the same spec faster for large counts.
xoshiro is linear over GF(2) (Blackman & Vigna, "Scrambled linear
pseudorandom number generators", ACM TOMS 2021): one step is a 256x256 bit
matrix T acting on the state, so T^k jumps k words ahead. A block of L
lanes starts lane j at offset j*m (m a power of two), the lanes step in
lockstep as numpy uint64 arrays, and reading the (m, L) outputs lane by
lane gives the sequence in draw order. Box-Muller then runs on whole
blocks. Its ``sqrt`` and products are numpy, which rounds them correctly,
like ``math``; its ``log``, ``cos`` and ``sin`` are ``math``'s mapped over
the block, since numpy's own can differ from libm in the last bit. So the
rule above holds for both paths by construction. A block with a u1 of
exactly zero, the words past the last full lane and small counts run on
the scalar spec.
"""

from __future__ import annotations

import functools
import math

import numpy as np

_MASK64 = (1 << 64) - 1

_LANE_STEPS = 256  # m: words per lane in a block, a power of two
_LANES = 256       # L: lanes per block at most, a power of two
# normals(count) below this stays on the scalar loop. The first lane draw in
# a process builds the jump matrices (about 50 ms); three draws of this size
# in a fresh process cost about the same on either path.
_LANE_MIN = 16384


def _splitmix64(state: int) -> tuple[int, int]:
    """One splitmix64 step: returns (new_state, output)."""
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


def child_seed(seed: int, index: int) -> int:
    """The index-th splitmix64 output for ``seed`` (index >= 0).

    Used to carve independent named substreams out of one master seed.
    """
    if index < 0:
        raise ValueError("substream index must be nonnegative")
    state = seed & _MASK64
    out = 0
    for _ in range(index + 1):
        state, out = _splitmix64(state)
    return out


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK64


class Rng:
    """xoshiro256** stream with uniform and Gaussian draws as documented above."""

    __slots__ = ("_s", "_spare")

    def __init__(self, seed: int):
        state = seed & _MASK64
        s = []
        for _ in range(4):
            state, out = _splitmix64(state)
            s.append(out)
        if not any(s):  # all-zero state is invalid for xoshiro
            s[0] = 1
        self._s = s
        self._spare: float | None = None

    def next_u64(self) -> int:
        s0, s1, s2, s3 = self._s
        out = (_rotl((s1 * 5) & _MASK64, 7) * 9) & _MASK64
        t = (s1 << 17) & _MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = _rotl(s3, 45)
        self._s = [s0, s1, s2, s3]
        return out

    def uniform(self) -> float:
        """Double in [0, 1) from the top 53 bits of the next word."""
        return (self.next_u64() >> 11) * 2.0 ** -53

    def normal(self) -> float:
        """Standard Gaussian, Box-Muller, fixed draw order."""
        if self._spare is not None:
            z = self._spare
            self._spare = None
            return z
        u1 = self.uniform()
        while u1 == 0.0:  # log(0) guard; consumes one extra uniform
            u1 = self.uniform()
        u2 = self.uniform()
        r = math.sqrt(-2.0 * math.log(u1))
        a = 2.0 * math.pi * u2
        self._spare = r * math.sin(a)
        return r * math.cos(a)

    def normals(self, count: int) -> np.ndarray:
        """Array of ``count`` Gaussians in draw order."""
        if count < _LANE_MIN:
            return np.array([self.normal() for _ in range(count)], dtype=np.float64)
        z = np.empty(count)
        done = 0
        if self._spare is not None:
            z[0] = self.normal()
            done = 1
        done = self._lane_normals(z, done)
        for k in range(done, count):
            z[k] = self.normal()
        return z

    def _lane_normals(self, z: np.ndarray, i: int) -> int:
        """Fill z[i:] by whole lane blocks, each m words per lane, so every
        block ends on a whole pair; returns where the scalar loop resumes.
        Expects no pending spare. ``_s`` advances past each block kept."""
        while (lanes := min(_LANES, (len(z) - i) // _LANE_STEPS)) > 0:
            words, end = _lane_words(self._s, lanes)
            u = (words >> 11).astype(np.float64) * 2.0 ** -53
            if not u[0::2].all():  # a u1 of 0.0: the scalar path redraws it
                return i
            r = np.sqrt(-2.0 * _map(math.log, u[0::2]))
            a = 2.0 * math.pi * u[1::2]
            z[i:i + len(u):2] = r * _map(math.cos, a)
            z[i + 1:i + len(u):2] = r * _map(math.sin, a)
            self._s = end
            i += len(u)
        return i


def _map(f, x: np.ndarray) -> np.ndarray:
    return np.array(list(map(f, x.tolist())), dtype=np.float64)


def _step_lanes(s: list[np.ndarray], out: np.ndarray) -> None:
    """One xoshiro256** step of the lanes s = [s0, s1, s2, s3] (uint64
    arrays, updated in place) per row of out, which gets that step's words."""
    s0, s1, s2, s3 = s
    for o in out:
        np.multiply(s1, 5, out=o)
        np.bitwise_or(o << 7, o >> 57, out=o)
        np.multiply(o, 9, out=o)
        t = s1 << 17
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        np.bitwise_or(s3 << 45, s3 >> 19, out=s3)


def _to_bits(states: np.ndarray) -> np.ndarray:
    """(k, 4) uint64 states -> (k, 256) 0/1 rows, bit b of word w at 64*w + b."""
    return np.unpackbits(states.astype("<u8").view(np.uint8), axis=1, bitorder="little")


def _from_bits(bits: np.ndarray) -> np.ndarray:
    return np.packbits(bits, axis=1, bitorder="little").view("<u8").astype(np.uint64)


def _gf2(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x @ y over GF(2). The float64 product is exact: entries are 0/1 and
    every sum is at most 256."""
    return (x.astype(np.float64) @ y.astype(np.float64) % 2).astype(np.uint8)


@functools.lru_cache(maxsize=1)
def _lane_jumps() -> tuple[np.ndarray, ...]:
    """T^(m * 2^i) for 2^i < L as uint8 bit matrices: a state's bit row
    times the i-th one is that state m * 2^i words ahead."""
    basis = _from_bits(np.eye(256, dtype=np.uint8))  # row k: the state e_k
    s = [basis[:, w].copy() for w in range(4)]
    _step_lanes(s, np.empty((1, 256), np.uint64))
    p = _to_bits(np.stack(s, axis=1))  # row k: T e_k, so x @ p is T x
    for _ in range(_LANE_STEPS.bit_length() - 1):
        p = _gf2(p, p)
    jumps = [p]  # T^m
    while len(jumps) < _LANES.bit_length() - 1:  # up to T^(m L / 2)
        jumps.append(_gf2(jumps[-1], jumps[-1]))
    return tuple(jumps)


def _lane_words(s: list[int], lanes: int) -> tuple[np.ndarray, list[int]]:
    """The next lanes * m words from state s in draw order, and the state
    after them. Lane starts are seeded by doubling: X <- [X, X T^(m * 2^i)]."""
    x = _to_bits(np.array([s], dtype=np.uint64))
    for jump in _lane_jumps():
        if len(x) >= lanes:
            break
        x = np.vstack([x, _gf2(x[:lanes - len(x)], jump)])
    starts = _from_bits(x)
    lane = [starts[:, w].copy() for w in range(4)]
    out = np.empty((_LANE_STEPS, lanes), np.uint64)
    _step_lanes(lane, out)
    return out.T.ravel(), [int(w[-1]) for w in lane]
