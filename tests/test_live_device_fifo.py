"""The live device and the offline replay are one FIFO.

:class:`~repro.router.livedevice.LiveForwardingDevice` forwards packets
as the closed loop offers them, one event at a time;
:func:`~repro.kernels.fifo.fifo_forward` replays a finished stream.  Both
draw one service time per offered packet, so a stream offered to the live
device on an :class:`~repro.sim.engine.EventScheduler` and replayed
through the kernel, with the live device's stall windows as blackouts
and its service draws, must give the same fates and departures, bit for
bit.

Half the streams put their arrivals on a 2**-10 s grid with a constant
service time of 2**-10 s, so departures land exactly on later arrivals
and the buffers' expiry edge (a packet leaves its buffer at its finish
time) decides drops.
"""

from __future__ import annotations

from functools import partial

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels.fifo import fifo_forward
from repro.router.device import DeviceProfile
from repro.router.livedevice import LiveForwardingDevice
from repro.sim.engine import EventScheduler
from repro.trace.packet import Direction

#: Lookups per second: a constant service time of exactly 2**-10 s.
LOOKUP_RATE = 1024.0


@st.composite
def offered_streams(draw):
    n = draw(st.integers(1, 300))
    seed = draw(st.integers(0, 2**32 - 1))
    load = draw(st.floats(0.5, 2.0))
    rng = np.random.default_rng(seed)
    times = np.cumsum(rng.exponential(1.0 / (load * LOOKUP_RATE), n))
    # on the grid, several packets share a time and, at constant
    # service, packets arrive exactly as others finish
    grid = draw(st.booleans())
    if grid:
        times = np.floor(times * LOOKUP_RATE) / LOOKUP_RATE
    inbound = rng.random(n) < draw(st.floats(0.0, 1.0))
    profile = DeviceProfile(
        lookup_rate=LOOKUP_RATE,
        service_cv=0.0 if grid else draw(st.sampled_from([0.0, 0.35, 1.0])),
        wan_queue=draw(st.integers(1, 4)),
        lan_queue=draw(st.integers(1, 4)),
        # no stall inside the stream, or one every 5 to 200 ms
        stall_interval_mean=draw(st.sampled_from([1e9]) | st.floats(0.005, 0.2)),
        stall_duration_mean=draw(st.floats(0.0005, 0.01)),
    )
    return times, inbound, profile, draw(st.integers(0, 1000))


def _live(times, inbound, profile, seed, horizon):
    """Fates and departures of the stream offered to the live device."""
    scheduler = EventScheduler()
    device = LiveForwardingDevice(scheduler, profile, seed=seed, horizon=horizon)
    fates = np.zeros(times.size, dtype=np.int8)
    departures = np.full(times.size, np.nan)

    def deliver(i):
        departures[i] = scheduler.now

    def offer(i, direction):
        fates[i] = device.submit(direction, partial(deliver, i))

    for i, (time, is_in) in enumerate(zip(times.tolist(), inbound.tolist())):
        direction = Direction.IN if is_in else Direction.OUT
        scheduler.call_at(time, partial(offer, i, direction))
    scheduler.run_until(horizon + times.size)
    return device, fates, departures


@settings(deadline=None)
@given(stream=offered_streams())
def test_live_device_is_the_replay_fifo(stream):
    times, inbound, profile, seed = stream
    horizon = float(times[-1]) + 1.0
    device, fates, departures = _live(times, inbound, profile, seed, horizon)
    # a twin device on the same seed yields the same service draws
    twin = LiveForwardingDevice(EventScheduler(), profile, seed=seed, horizon=horizon)
    services = [next(twin._service) for _ in range(times.size)]
    replay = fifo_forward(
        times,
        np.asarray(services),
        primary_mask=inbound,
        primary_queue=profile.wan_queue,
        secondary_queue=profile.lan_queue,
        blackouts=device._stalls,
        freeze=None,
    )
    assert replay.fates.tobytes() == fates.tobytes()
    assert replay.departures.tobytes() == departures.tobytes()
    stats = device.stats
    assert stats.offered_in + stats.offered_out == times.size
    assert stats.forwarded_in + stats.forwarded_out == int(np.sum(fates == 1))
