"""Stream derivation contract: injective, reproducible, bit-exact."""

import numpy as np
import pytest

from pivotal.rng import RngStream, _rekey, mix64


def test_same_stream_reproduces_bits():
    a = RngStream(42, 3).generator().random(16)
    b = RngStream(42, 3).generator().random(16)
    assert np.array_equal(a, b)


def test_frozen_values():
    # pinned: Philox keyed by (master_seed, stream_index) is platform-stable
    g = RngStream(12345, 7).generator()
    assert g.random(3).tolist() == [
        0.04075621842612909, 0.3322372403724486, 0.3577593034840133,
    ]
    assert mix64(12345, 7) == 10626447662073903133
    child = RngStream(12345, 7).substream(3)
    assert (child.master_seed, child.stream_index) == (10626447662073903133, 3)
    assert float(child.generator().random()) == 0.6904419424618442


def test_substreams_distinct():
    masters = {RngStream(999, i).substream(j).master_seed for i in range(40) for j in [0]}
    assert len(masters) == 40
    # first draws across substream indices do not collide
    draws = [float(RngStream(7, 0).substream(i).generator().random()) for i in range(1000)]
    assert len(set(draws)) == 1000


def test_mix64_injective_in_index():
    seen = {mix64(2**63 + 17, b) for b in range(5000)}
    assert len(seen) == 5000


def test_independent_of_partitioning():
    # replicate streams depend only on (master, index), not on who draws first
    vals_forward = [float(RngStream(5, 0).substream(i).generator().random()) for i in range(10)]
    vals_backward = [float(RngStream(5, 0).substream(i).generator().random()) for i in reversed(range(10))]
    assert vals_forward == vals_backward[::-1]


DRAWS = [
    lambda g: g.random(5),
    lambda g: g.poisson(3.5, 4),
    lambda g: g.uniform(-2.0, 3.0, (3, 2)),
    lambda g: g.integers(0, 2**32, 5, dtype=np.uint32),
]


@pytest.mark.parametrize("stream", [RngStream(2**64 + 7, 3).substream(11), RngStream(-3, -1)])
def test_rekey_gives_the_fresh_generator(stream):
    used = RngStream(1, 2).generator()
    used.random(3)
    used.integers(0, 2**32, 3, dtype=np.uint32)  # an odd count leaves half a word cached
    assert used.bit_generator.state["has_uint32"] == 1
    for draw in DRAWS:
        gen = _rekey(used, stream)
        assert gen is used
        fresh = stream.generator()
        assert repr(gen.bit_generator.state) == repr(fresh.bit_generator.state)
        for d in DRAWS:
            assert np.array_equal(d(gen), d(fresh))
        draw(used)  # rekey again after leaving the generator partly used
