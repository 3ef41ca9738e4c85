"""Parity suite: the vectorised FIFO fast path vs the scalar kernel.

:func:`repro.kernels.fifo_forward` dispatches plain single-class
traversals to a numpy idle-period block decomposition whose contract is
*bit-identical* fates and departures — not approximately equal.  Every
test here compares against :func:`repro.kernels.fifo._scalar_fifo` (the
authoritative per-packet loop) with ``np.array_equal``, no tolerances.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.kernels import FreezePolicy, KernelResult, fifo_forward
from repro.kernels.fifo import _LONG_SEGMENT, _scalar_fifo


def scalar_reference(t, s, queue):
    """Run the authoritative scalar loop on a plain single-class stream."""
    n = int(np.asarray(t).size)
    fates = np.ones(n, dtype=np.int8)
    departures = np.full(n, np.nan)
    windows = _scalar_fifo(
        np.asarray(t, dtype=np.float64),
        np.asarray(s, dtype=np.float64),
        None,
        queue,
        1,
        (),
        None,
        fates,
        departures,
    )
    assert windows == []
    return fates, departures


def assert_bit_identical(t, s, queue):
    fates, departures = scalar_reference(t, s, queue)
    result = fifo_forward(t, s, primary_queue=queue)
    np.testing.assert_array_equal(result.fates, fates)
    assert np.array_equal(result.departures, departures, equal_nan=True)
    return result


# ----------------------------------------------------------------------
# seeded randomized stream families
# ----------------------------------------------------------------------
def poisson_stream(rng, n, utilization):
    t = np.cumsum(rng.exponential(1.0, n))
    s = rng.uniform(0.5, 1.5, n) * utilization
    return t, s


def bursty_stream(rng, n, burst=16):
    """Clusters of simultaneous arrivals separated by idle gaps."""
    n_bursts = max(n // burst, 1)
    centers = np.cumsum(rng.exponential(burst * 2.0, n_bursts))
    t = np.sort(np.repeat(centers, burst)[:n])
    s = rng.exponential(1.0, n)
    return t, s


def ties_stream(rng, n):
    """Sorted integer timestamps with heavy ties and zero services."""
    t = np.sort(rng.integers(0, max(n // 4, 1), n).astype(np.float64))
    s = rng.choice([0.0, 0.1, 2.0], size=n)
    return t, s


class TestRandomizedParity:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("queue", [1, 2, 8, 64])
    def test_poisson_streams(self, seed, queue):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 4000))
        t, s = poisson_stream(rng, n, utilization=float(rng.choice([0.5, 0.9, 1.2])))
        assert_bit_identical(t, s, queue)

    @pytest.mark.parametrize("seed", [10, 11, 12])
    @pytest.mark.parametrize("queue", [1, 4, 32])
    def test_bursty_streams(self, seed, queue):
        rng = np.random.default_rng(seed)
        t, s = bursty_stream(rng, int(rng.integers(64, 3000)))
        assert_bit_identical(t, s, queue)

    @pytest.mark.parametrize("seed", [20, 21, 22])
    @pytest.mark.parametrize("queue", [1, 3, 16])
    def test_sorted_with_ties_and_zero_services(self, seed, queue):
        rng = np.random.default_rng(seed)
        t, s = ties_stream(rng, int(rng.integers(16, 2000)))
        assert_bit_identical(t, s, queue)

    @pytest.mark.parametrize("queue", [1, 8, 49, 50, 51])
    def test_all_drop_simultaneous_burst(self, queue):
        # 50 arrivals at t=0 against long services: exactly `queue`
        # admitted, the rest tail-dropped
        t = np.zeros(50)
        s = np.full(50, 1.0)
        result = assert_bit_identical(t, s, queue)
        assert int((result.fates == 1).sum()) == min(queue, 50)

    def test_buffer_of_one(self):
        # queue=1: any packet arriving strictly before the previous
        # departure is dropped
        rng = np.random.default_rng(33)
        t, s = poisson_stream(rng, 2500, utilization=0.8)
        result = assert_bit_identical(t, s, 1)
        assert result.fates.min() == 0  # some drops must occur

    def test_empty_stream(self):
        result = fifo_forward(np.empty(0), np.empty(0), primary_queue=4)
        assert result.fates.size == 0
        assert result.departures.size == 0
        assert result.freeze_windows == []

    def test_long_busy_periods_cross_cumsum_threshold(self):
        # one sustained busy period much longer than _LONG_SEGMENT takes
        # the per-segment cumsum branch; parity must still be exact
        rng = np.random.default_rng(44)
        n = 8 * _LONG_SEGMENT
        t = np.cumsum(rng.exponential(1.0, n))
        s = np.full(n, 0.999)
        result = assert_bit_identical(t, s, 10_000)
        assert np.all(result.fates == 1)

    def test_mixed_short_and_long_busy_periods(self):
        rng = np.random.default_rng(55)
        pieces_t, pieces_s = [], []
        clock = 0.0
        for k in range(30):
            n = int(rng.integers(2, 4 * _LONG_SEGMENT if k % 7 == 0 else 20))
            t = clock + np.cumsum(rng.exponential(1.0, n))
            pieces_t.append(t)
            pieces_s.append(rng.uniform(0.2, 1.4, n))
            clock = float(t[-1]) + 50.0  # guaranteed drain between pieces
        t = np.concatenate(pieces_t)
        s = np.concatenate(pieces_s)
        for queue in (1, 7, 256):
            assert_bit_identical(t, s, queue)


class TestDispatch:
    def test_fast_path_taken_for_plain_streams(self, monkeypatch):
        import repro.kernels.fifo as fifo_module

        calls = []
        original = fifo_module._vectorized_fifo

        def spy(*args, **kwargs):
            calls.append(True)
            return original(*args, **kwargs)

        monkeypatch.setattr(fifo_module, "_vectorized_fifo", spy)
        t = np.arange(100, dtype=np.float64)
        s = np.full(100, 0.5)
        fifo_module.fifo_forward(t, s, primary_queue=4)
        assert calls  # plain single-class stream dispatched to the fast path

    def test_scalar_for_masked_blackout_or_freeze(self, monkeypatch):
        import repro.kernels.fifo as fifo_module

        def explode(*args, **kwargs):  # fast path must not be touched
            raise AssertionError("vectorized path used")

        monkeypatch.setattr(fifo_module, "_vectorized_fifo", explode)
        t = np.arange(50, dtype=np.float64)
        s = np.full(50, 0.1)
        mask = np.arange(50) % 2 == 0
        fifo_module.fifo_forward(t, s, primary_mask=mask, primary_queue=4)
        fifo_module.fifo_forward(t, s, primary_queue=4, blackouts=[(1.0, 2.0)])
        fifo_module.fifo_forward(
            t,
            s,
            primary_queue=4,
            freeze=FreezePolicy(threshold=1, window=1.0, duration=1.0, lag=0.0),
        )

    def test_scalar_fallback_for_unsorted_or_negative_service(self):
        # the guards must reject streams the fast path cannot segment;
        # results still come from the authoritative loop
        t = np.array([0.0, 2.0, 1.0, 3.0])
        s = np.full(4, 0.5)
        result = fifo_forward(t, s, primary_queue=2)
        assert isinstance(result, KernelResult)
        t2 = np.arange(4, dtype=np.float64)
        s2 = np.array([0.5, -0.5, 0.5, 0.5])
        result2 = fifo_forward(t2, s2, primary_queue=2)
        assert isinstance(result2, KernelResult)

    def test_numpy_cumsum_is_sequential(self):
        # the fast path's exactness relies on np.cumsum performing the
        # scalar loop's left-to-right additions; pin that here so a
        # numpy behaviour change fails loudly instead of as silent drift
        rng = np.random.default_rng(99)
        values = rng.uniform(0.0, 1e-3, 4096)
        acc = 0.0
        expected = np.empty(values.size)
        for i, value in enumerate(values):
            acc = acc + float(value)
            expected[i] = acc
        np.testing.assert_array_equal(np.cumsum(values), expected)


class TestCompatibilityExports:
    def test_package_namespace(self):
        import repro.kernels as kernels

        assert isinstance(kernels.KERNEL_VERSION, str)
        assert callable(kernels.fifo_forward)
        assert callable(kernels.tail_drop_link)

    def test_kernels_package_is_numpy_only(self):
        # the kernel layer must stay import-cycle-proof: no repro
        # dependencies beyond numpy
        import subprocess
        import sys

        import os

        src = os.path.abspath(
            os.path.join(os.path.dirname(__file__), os.pardir, "src")
        )
        code = (
            "import sys; import repro.kernels; "
            "bad = [m for m in sys.modules "
            "if m.startswith('repro.') and not m.startswith('repro.kernels')]; "
            "sys.exit(1 if bad else 0)"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = src
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
