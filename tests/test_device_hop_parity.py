"""Regression: the refactored device reproduces pre-refactor results.

``router/device.py``'s FIFO core was generalised into
:func:`repro.kernels.fifo_forward`; the device now delegates to
that kernel.  These tests pin the engine's outputs on seeded busy
windows to the exact values the pre-refactor loop produced (captured
before the refactor), so any behavioural drift in the shared kernel —
drop decisions, freeze bookkeeping, departure arithmetic — fails loudly
instead of silently recalibrating Table IV.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.kernels import FreezePolicy, fifo_forward
from repro.net.addresses import IPv4Address
from repro.router.device import DeviceProfile, ForwardingEngine
from repro.trace.packet import Direction
from repro.trace.trace import TraceBuilder

SERVER = IPv4Address("10.0.0.2")
CLIENT = IPv4Address("24.0.0.1")


def busy_window(in_rate, out_burst, duration=60.0, seed=1202):
    """A seeded busy-hour-style window: Poisson inbound, tick bursts out."""
    rng = np.random.default_rng(seed)
    builder = TraceBuilder(server_address=SERVER)
    t = 0.0
    while t < duration:
        t += float(rng.exponential(1.0 / in_rate))
        if t >= duration:
            break
        builder.add(t, Direction.IN, CLIENT.value, SERVER.value, 1000, 27015, 40)
    for tick in np.arange(0.05, duration, 0.05):
        for j in range(out_burst):
            builder.add(tick + j * 1e-4, Direction.OUT, SERVER.value,
                        CLIENT.value, 27015, 1000, 130)
    return builder.build()


#: (in_rate, out_burst) -> exact pre-refactor outputs of
#: ForwardingEngine(DeviceProfile(), seed=7) on busy_window(..., seed=1202).
PRE_REFACTOR = {
    (900.0, 14): dict(
        packets=70654,
        inbound_offered=53868,
        inbound_dropped=1527,
        outbound_offered=4312,
        outbound_dropped=0,
        suppressed=12474,
        n_freezes=82,
        n_stalls=1,
        departures_sum=1707825.4504208677,
        delay_sum=163.4605467571,
    ),
    (700.0, 26): dict(
        packets=73103,
        inbound_offered=41929,
        inbound_dropped=1422,
        outbound_offered=8216,
        outbound_dropped=1555,
        suppressed=22958,
        n_freezes=81,
        n_stalls=1,
        departures_sum=1421084.1460337790,
        delay_sum=157.5553519752,
    ),
}


class TestPreRefactorParity:
    @pytest.mark.parametrize("stream", sorted(PRE_REFACTOR))
    def test_loss_counts_bit_identical(self, stream):
        trace = busy_window(*stream)
        expected = PRE_REFACTOR[stream]
        result = ForwardingEngine(DeviceProfile(), seed=7).process(trace)
        assert len(trace) == expected["packets"]
        assert result.inbound_offered == expected["inbound_offered"]
        assert (
            result.inbound_offered - result.inbound_forwarded
            == expected["inbound_dropped"]
        )
        assert result.outbound_offered == expected["outbound_offered"]
        assert (
            result.outbound_offered - result.outbound_forwarded
            == expected["outbound_dropped"]
        )
        assert result.suppressed_count == expected["suppressed"]
        assert len(result.freeze_windows) == expected["n_freezes"]
        assert len(result.stall_windows) == expected["n_stalls"]

    @pytest.mark.parametrize("stream", sorted(PRE_REFACTOR))
    def test_departure_arithmetic_bit_identical(self, stream):
        trace = busy_window(*stream)
        expected = PRE_REFACTOR[stream]
        result = ForwardingEngine(DeviceProfile(), seed=7).process(trace)
        # sums over tens of thousands of float64 departures: any changed
        # drop decision or service-order change shifts these immediately
        assert float(np.nansum(result.departures)) == pytest.approx(
            expected["departures_sum"], rel=1e-12
        )
        assert float(result.delays().sum()) == pytest.approx(
            expected["delay_sum"], rel=1e-12
        )


class TestKernelMatchesDevice:
    def test_manual_kernel_call_reproduces_engine(self):
        """Driving the kernel with the device's own inputs is identical."""
        trace = busy_window(900.0, 14)
        profile = DeviceProfile()
        engine = ForwardingEngine(profile, seed=7)
        reference = engine.process(trace)

        # re-derive the exact same service times and stalls the engine drew
        replay = ForwardingEngine(profile, seed=7)
        rng = replay.streams.get("service")
        sigma = np.sqrt(np.log(1.0 + profile.service_cv**2))
        mu = np.log(1.0 / profile.lookup_rate) - 0.5 * sigma**2
        service_times = rng.lognormal(mu, sigma, size=len(trace))
        stalls = replay._draw_stalls(
            float(trace.timestamps[-1]), float(trace.timestamps[0])
        )

        kernel = fifo_forward(
            trace.timestamps,
            service_times,
            primary_mask=trace.direction_mask(Direction.IN),
            primary_queue=profile.wan_queue,
            secondary_queue=profile.lan_queue,
            blackouts=stalls,
            freeze=FreezePolicy(
                threshold=profile.freeze_threshold,
                window=profile.freeze_window,
                duration=profile.freeze_duration,
                lag=profile.freeze_lag,
            ),
        )
        assert np.array_equal(kernel.fates, reference.fates)
        assert np.array_equal(
            kernel.departures, reference.departures, equal_nan=True
        )
        assert kernel.freeze_windows == reference.freeze_windows


class TestImportOrder:
    @pytest.mark.parametrize(
        "module",
        ["repro.router", "repro.router.device", "repro.router.nat",
         "repro.facilitynet", "repro.core"],
    )
    def test_cold_import_has_no_cycle(self, module):
        """The device->hops dependency must not close an import cycle.

        device.py imports the shared kernel from repro.facilitynet.hops;
        facilitynet's package __init__ resolves lazily precisely so that
        a *cold* interpreter can import the router (or core, which pulls
        the router via natanalysis) first.  In-process imports can't
        test this — everything is already in sys.modules — so spawn a
        fresh interpreter.
        """
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        proc = subprocess.run(
            [sys.executable, "-c", f"import {module}"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
