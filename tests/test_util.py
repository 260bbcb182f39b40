"""Tests for seed derivation and the thread-pool helper."""

import numpy as np
import pytest

from rfsquash._util import derive_seed, parallel_map, rng_for, thread_count


class TestSeeds:
    def test_rng_deterministic_per_key(self):
        a = rng_for(1, 2, 3).random(4)
        b = rng_for(1, 2, 3).random(4)
        c = rng_for(1, 2, 4).random(4)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_derive_seed_stable(self):
        assert derive_seed(5, 0) == derive_seed(5, 0)
        assert derive_seed(5, 0) != derive_seed(5, 1)
        assert 0 <= derive_seed(5, 0) < 2**64

    def test_large_path_keys_accepted(self):
        rng_for(0, 2**60 + 1, 7).random(1)

    def test_negative_key_rejected(self):
        with pytest.raises(ValueError):
            rng_for(1, -2, 3)


class TestThreads:
    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("RFSQ_THREADS", "5")
        assert thread_count() == 5
        monkeypatch.setenv("RFSQ_THREADS", "not-a-number")
        assert thread_count() == 1
        monkeypatch.delenv("RFSQ_THREADS")
        assert thread_count() == 1

    def test_parallel_map_preserves_order(self, monkeypatch):
        items = list(range(40))
        monkeypatch.setenv("RFSQ_THREADS", "4")
        assert parallel_map(lambda v: v * v, items) == [v * v for v in items]
        monkeypatch.setenv("RFSQ_THREADS", "1")
        assert parallel_map(lambda v: v + 1, items) == [v + 1 for v in items]
