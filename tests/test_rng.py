import numpy as np

from netar import rng


def test_mix_seed_deterministic_and_order_sensitive():
    assert rng.mix_seed(1, 2, 3) == rng.mix_seed(1, 2, 3)
    assert rng.mix_seed(1, 2) != rng.mix_seed(2, 1)
    assert 0 <= rng.mix_seed(0) < 2 ** 64


def test_mix_seed_no_collisions_in_a_million_derivations():
    seen = set()
    for s in range(1000):
        for r in range(1000):
            seen.add(rng.mix_seed(42, s, r))
    assert len(seen) == 1_000_000


def test_stream_reproducible():
    a = rng.stream(7, 1).random(5)
    b = rng.stream(7, 1).random(5)
    c = rng.stream(7, 2).random(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)

