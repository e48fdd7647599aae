"""Bit-exact tests for the seeded generator.

The stream is part of the package contract (outputs must be reproducible
across platforms), so these tests pin actual values.  The splitmix64 vector
is the canonical one for state 0; the xoshiro256** outputs are regression
pins computed from the seeded state. The lane path of ``normals`` is held
to the scalar spec (``normal`` in a loop): same values, same state after.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invlab import rng as rng_mod
from invlab.rng import Rng, child_seed, _splitmix64

# canonical splitmix64 output sequence for initial state 0
SPLITMIX_ZERO = (
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
    0xF88BB8A8724C81EC,
)

# regression pins: first outputs of the seed-0 stream
XOSHIRO_SEED0 = (
    0x99EC5F36CB75F2B4,
    0xBF6E1F784956452A,
    0x1A5F849D4933E6E0,
    0x6AA594F1262D2D2C,
    0xBBA5AD4A1F842E59,
)


def test_splitmix64_canonical_vector():
    state = 0
    outs = []
    for _ in range(4):
        state, out = _splitmix64(state)
        outs.append(out)
    assert tuple(outs) == SPLITMIX_ZERO


def test_child_seed_matches_splitmix_sequence():
    for k in range(4):
        assert child_seed(0, k) == SPLITMIX_ZERO[k]


def test_child_seed_distinct():
    seeds = [child_seed(3, k) for k in range(16)]
    assert len(set(seeds)) == 16


def test_u64_stream_pinned():
    r = Rng(0)
    assert tuple(r.next_u64() for _ in range(5)) == XOSHIRO_SEED0


def test_u64_range_and_determinism():
    a, b = Rng(42), Rng(42)
    for _ in range(100):
        x = a.next_u64()
        assert 0 <= x < 2**64
        assert x == b.next_u64()


def test_uniform_is_top_53_bits():
    # uniform is defined as (u64 >> 11) * 2**-53
    r, twin = Rng(9), Rng(9)
    for _ in range(50):
        u = r.uniform()
        assert u == (twin.next_u64() >> 11) * 2.0**-53
        assert 0.0 <= u < 1.0


def test_normal_is_box_muller_over_uniform_stream():
    r, twin = Rng(5), Rng(5)
    for _ in range(8):
        z0 = r.normal()
        z1 = r.normal()
        u1 = twin.uniform()
        while u1 == 0.0:
            u1 = twin.uniform()
        u2 = twin.uniform()
        rad = math.sqrt(-2.0 * math.log(u1))
        assert z0 == rad * math.cos(2.0 * math.pi * u2)
        assert z1 == rad * math.sin(2.0 * math.pi * u2)


def test_normals_matches_scalar_draw_order():
    r, twin = Rng(7), Rng(7)
    block = r.normals(5)
    assert isinstance(block, np.ndarray)
    assert block.shape == (5,)
    # an odd count still consumes a whole pair; the spare is cached
    scalars = [twin.normal() for _ in range(5)]
    assert list(block) == scalars


def test_normals_pair_consumption():
    # normals(3) consumes two full pairs and caches the fourth value as spare
    r, twin = Rng(11), Rng(11)
    block4 = twin.normals(4)
    r.normals(3)
    assert r.normal() == block4[3]


def test_normal_sample_moments():
    r = Rng(1)
    z = r.normals(4096)
    assert abs(float(np.mean(z))) < 0.08
    assert abs(float(np.std(z)) - 1.0) < 0.08


def test_streams_with_different_seeds_differ():
    assert [Rng(0).next_u64() for _ in range(4)] != [
        Rng(1).next_u64() for _ in range(4)
    ]


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**64 - 1))
def test_seed_wraps_modulo_2_64(seed):
    a, b = Rng(seed), Rng(seed + 2**64)
    assert [a.next_u64() for _ in range(3)] == [b.next_u64() for _ in range(3)]


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32))
def test_uniform_always_in_unit_interval(seed):
    r = Rng(seed)
    for _ in range(16):
        assert 0.0 <= r.uniform() < 1.0


# ------------------------------------------------------------ lane path

LANE_MIN = rng_mod._LANE_MIN
BLOCK = rng_mod._LANES * rng_mod._LANE_STEPS  # words (and normals) per full block


def scalar_normals(r, count):
    """The spec: one ``normal()`` per value."""
    return np.array([r.normal() for _ in range(count)], dtype=np.float64)


def assert_lane_matches_spec(a, b, count):
    """a draws by ``normals``, its twin b by the spec; values and state agree,
    and the streams stay in step afterwards."""
    z = a.normals(count)
    ref = scalar_normals(b, count)
    assert z.dtype == np.float64 and z.shape == (count,)
    assert np.array_equal(z, ref)
    assert a._s == b._s and a._spare == b._spare
    assert a.normal() == b.normal()
    assert a.next_u64() == b.next_u64()
    assert a.normal() == b.normal()


@pytest.mark.parametrize("spare", [False, True])
@pytest.mark.parametrize("count", [
    LANE_MIN - 1,                           # scalar loop
    LANE_MIN,                               # whole lanes, no tail
    LANE_MIN + 1,                           # odd: the tail leaves a spare
    LANE_MIN + rng_mod._LANE_STEPS + 2,     # a lane count off a power of two
])
@pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
def test_lane_normals_match_scalar_spec(seed, count, spare):
    a, b = Rng(seed), Rng(seed)
    if spare:  # a pending sine goes out first
        assert a.normal() == b.normal()
    assert_lane_matches_spec(a, b, count)


def test_lane_normals_span_blocks():
    a, b = Rng(3), Rng(3)
    assert a.normal() == b.normal()
    assert_lane_matches_spec(a, b, 2 * BLOCK + 3)


def test_lane_normals_redraw_falls_back_to_scalar():
    # s1 = 0 makes the next word 0, so the first u1 is exactly 0.0 and the
    # spec redraws it; the block is dropped and the scalar loop finishes
    a, b = Rng(0), Rng(0)
    a._s = [1, 0, 0, 0]
    b._s = [1, 0, 0, 0]
    assert_lane_matches_spec(a, b, LANE_MIN + 1)


def _state_with_first_word(word):
    """A state whose next xoshiro256** word is ``word``: out depends on s1
    alone, as rotl(s1 * 5, 7) * 9, and each step of that is invertible."""
    mask = 2**64 - 1
    x = word * pow(9, -1, 2**64) & mask
    x = (x >> 7 | x << 57) & mask
    s1 = x * pow(5, -1, 2**64) & mask
    return [1, s1, 2, 3]


def test_lane_transform_uses_libm_log():
    # find a state whose first pair of normals differs between numpy's log
    # and libm's, and require libm's from the lane path
    sample, twin = Rng(2), Rng(0)
    for _ in range(20000):
        twin._s = _state_with_first_word(sample.next_u64())
        state = list(twin._s)
        u1, u2 = twin.uniform(), twin.uniform()
        if u1 == 0.0:
            continue
        a = 2.0 * math.pi * u2
        spec = [math.sqrt(-2.0 * math.log(u1)) * f(a) for f in (math.cos, math.sin)]
        r_np = float(np.sqrt(-2.0 * np.log(u1)))
        if spec != [r_np * f(a) for f in (math.cos, math.sin)]:
            break
    else:
        pytest.skip("numpy's log agrees with libm's on this sample")
    r = Rng(0)
    r._s = state
    assert list(r.normals(LANE_MIN)[:2]) == spec


def test_lane_transform_calls_no_numpy_transcendentals(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the block transform must use math.log/cos/sin")

    blocks = []
    lane_words = rng_mod._lane_words
    monkeypatch.setattr(rng_mod, "_lane_words",
                        lambda *args: blocks.append(1) or lane_words(*args))
    for name in ("log", "cos", "sin"):
        monkeypatch.setattr(np, name, refuse)
    a, b = Rng(5), Rng(5)
    assert np.array_equal(a.normals(LANE_MIN), scalar_normals(b, LANE_MIN))
    assert blocks  # the lane path ran
