"""coldspin.rng against numpy: the normal stream, the SeedSequence hash and
the CLI's linspace, bit for bit."""

import hashlib
import struct

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from coldspin import rng
from coldspin.runners import _linspace
from coldspin.rng import POOL_SIZE, normal_draws, seed_sequence_words, seeded_state, uint32_words

# 1 to 6 uint32 words: the pool holds 4, so the last two seeds also run
# mix_entropy's loop over the remaining entropy
SEEDS = (0, 1, 7, 20260816, 2**32 - 1, 2**32 + 5, 2**40 + 7, 2**64 + 1, 2**70 + 3,
         10**30, 2**160 + 3)
DRAWS = 100_000  # per seed
SCALAR_DRAWS = 10_000  # per seed, also drawn one numpy call at a time


def bits(values) -> list[int]:
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


@pytest.fixture
def slow_branch_calls(monkeypatch):
    """Calls of exp and log1p: the ziggurat's slow branches are their only
    callers (the wedge test and the tail beyond r), so counting them shows
    both taken."""
    calls = {"exp": 0, "log1p": 0}

    def counted(name, function):
        def wrapper(x):
            calls[name] += 1
            return function(x)
        return wrapper

    monkeypatch.setattr(rng, "exp", counted("exp", rng.exp))
    monkeypatch.setattr(rng, "log1p", counted("log1p", rng.log1p))
    return calls


@pytest.mark.numpy_oracle
def test_normal_stream_is_numpy_standard_normal(slow_branch_calls):
    assert len(SEEDS) * DRAWS >= 10**6
    assert {len(uint32_words(seed)) for seed in SEEDS} >= {1, 2, 3, POOL_SIZE + 2}
    for seed in SEEDS:
        # one draw at a time, each call resuming from the last one's state
        state, inc = seeded_state(seed)
        ours = []
        for _ in range(DRAWS):
            (draw,), state = normal_draws(state, inc, 1)
            ours.append(draw)
        bulk = np.random.Generator(np.random.PCG64(seed))
        assert bits(ours) == bits(bulk.standard_normal(DRAWS)), seed
        scalar = np.random.Generator(np.random.PCG64(seed))
        drawn = [scalar.standard_normal() for _ in range(SCALAR_DRAWS)]
        assert bits(ours[:SCALAR_DRAWS]) == bits(drawn), seed
        assert bulk.bit_generator.state == {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }, seed
    assert slow_branch_calls["exp"] > 0
    assert slow_branch_calls["log1p"] > 0


@pytest.mark.numpy_oracle
def test_normal_draws_are_numpy_bulk_standard_normal(slow_branch_calls):
    # batches of uneven sizes, empty ones included, each resuming from the
    # state the last one returned
    batches = (0, 1, 2, 997, 0, DRAWS - 1000)
    assert sum(batches) == DRAWS and len(SEEDS) * DRAWS >= 10**6
    for seed in SEEDS:
        state, inc = seeded_state(seed)
        ours = []
        for count in batches:
            draws, state = normal_draws(state, inc, count)
            assert len(draws) == count
            ours += draws
        bulk = np.random.Generator(np.random.PCG64(seed))
        assert bits(ours) == bits(bulk.standard_normal(DRAWS)), seed
        assert bulk.bit_generator.state["state"] == {"state": state, "inc": inc}, seed
    assert slow_branch_calls["exp"] > 0
    assert slow_branch_calls["log1p"] > 0


@pytest.mark.numpy_oracle
def test_seed_sequence_words_are_numpy_generate_state():
    for seed in SEEDS:
        expected = np.random.SeedSequence(seed).generate_state(4, np.uint64).tolist()
        assert seed_sequence_words(uint32_words(seed)) == expected, seed
        for key in [(0, 0), (3, 2**16 + 1), (2**31, 2**32 + 9)]:
            spawned = np.random.SeedSequence(seed, spawn_key=key)
            entropy = uint32_words(seed)
            entropy += [0] * (POOL_SIZE - len(entropy))
            for entry in key:
                entropy += uint32_words(entry)
            expected = spawned.generate_state(4, np.uint64).tolist()
            assert seed_sequence_words(entropy) == expected, (seed, key)


def test_ziggurat_tables_are_numpys():
    # SHA-256 of ki_double, wi_double and fi_double as they lie in numpy
    # 2.4.6's libnpyrandom.a (little-endian uint64, double, double): an
    # entry the draws reach too rarely for the oracle test still counts
    packed = struct.pack("<256Q256d256d", *rng.ki_double, *rng.wi_double, *rng.fi_double)
    assert hashlib.sha256(packed).hexdigest() == (
        "d46841a090f638a74c6bd112345fe681089be798d725b251129f062cad5521a3"
    )


def test_normal_stream_rejects_negative_seeds():
    with pytest.raises(ValueError, match=">= 0"):
        seeded_state(-1)


# wide spans, and spans among subnormals, where the step underflows to 0
ENDPOINTS = st.one_of(
    st.floats(min_value=-1e300, max_value=1e300),
    st.floats(min_value=-1e-305, max_value=1e-305),
)


@pytest.mark.numpy_oracle
@given(start=ENDPOINTS, stop=ENDPOINTS, num=st.integers(2, 300))
@example(start=0.0, stop=0.0, num=5)
@example(start=-2.3e9, stop=-2.3e9, num=15)
@example(start=0.0, stop=5e-324, num=3)
@example(start=-5e-324, stop=1e-323, num=200)
@example(start=1e-310, stop=1.0000000001e-310, num=40)
@example(start=-0.0, stop=0.0, num=2)
@example(start=-2.3e9, stop=-0.8e9, num=15)
@example(start=0.0, stop=90.0, num=46)
@example(start=0.5e-3, stop=4.0e-3, num=8)
def test_linspace_is_numpy_linspace(start, stop, num):
    assert bits(_linspace(start, stop, num)) == bits(np.linspace(start, stop, num))
