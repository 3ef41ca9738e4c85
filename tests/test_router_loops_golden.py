"""Golden pins of the router studies' per-packet loops.

The live closed loop (clean and behind :class:`LiveForwardingDevice`)
and the NAT replay are pinned by sha256 over their raw outputs at a
fixed seed and a size cheap enough for Tier-1.  A rewrite of the event
scheduler, the live endpoints, the live device, the trace builder or the
NAT upkeep that moves a single draw, event or packet fails here, naming
the part.

If a change is *intentional*, regenerate the constants from the helpers
below and say so in the commit.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.gameserver.config import olygamer_week
from repro.gameserver.generator import PacketLevelGenerator
from repro.gameserver.server import run_closed_loop
from repro.router.device import DeviceProfile
from repro.router.livedevice import LiveForwardingDevice
from repro.router.nat import NatDevice
from repro.trace.trace import _COLUMNS

N_CLIENTS = 20
DURATION_S = 30.0
SEED = 1


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for array in arrays:
        array = np.asarray(array)
        h.update(str(array.dtype).encode())
        h.update(array.tobytes())
    return h.hexdigest()[:16]


def _trace_digest(trace) -> str:
    return _digest(*(getattr(trace, name) for name in _COLUMNS))


def _loop_summary(result) -> dict:
    server = result["server"]
    clients = result["clients"]
    summary = {
        "trace": _trace_digest(result["trace"]),
        "executed": result["scheduler"].executed_count,
        "freeze_seconds": repr(server.freeze_seconds),
        "timeouts": server.timeouts,
        "players": server.player_count,
        "clients": _digest(
            np.array([c.snapshots_received for c in clients], dtype=np.int64),
            np.array([c.updates_sent for c in clients], dtype=np.int64),
            np.array([c.timed_out for c in clients], dtype=bool),
            np.array([c.state.value for c in clients], dtype=str),
        ),
    }
    device = result["device"]
    if device is not None:
        stats = device.stats
        summary["device"] = (
            stats.offered_in, stats.forwarded_in, stats.dropped_in,
            stats.offered_out, stats.forwarded_out, stats.dropped_out,
        )
        summary["delays"] = _digest(np.array(stats.delays, dtype=np.float64))
    return summary


def _bindings_digest(table) -> str:
    bindings = list(table._bindings.values())
    return _digest(
        np.array([b.internal for b in bindings], dtype=np.int64),
        np.array([b.mapped_port for b in bindings], dtype=np.int64),
        np.array([(b.created, b.last_used) for b in bindings], dtype=np.float64),
    )


def _behind_device():
    def factory(scheduler):
        return LiveForwardingDevice(
            scheduler, DeviceProfile(), seed=SEED + 50, horizon=DURATION_S + 10.0
        )

    return run_closed_loop(
        olygamer_week(), N_CLIENTS, DURATION_S, seed=SEED, transport_factory=factory
    )


#: 20 clients for 30 s at seed 1, direct to the server.
GOLDEN_CLEAN = {
    "trace": "9dab1f0b2c4f1667",
    "executed": 44814,
    "freeze_seconds": "0.11304058262521643",
    "timeouts": 0,
    "players": 20,
    "clients": "b52819b20c5b86d1",
}

#: The same run with both directions through the default live device.
GOLDEN_BEHIND = {
    "trace": "943efc03fd4d7c34",
    "executed": 66810,
    "freeze_seconds": "0.11604224878116387",
    "timeouts": 0,
    "players": 20,
    "clients": "f2e87c7500d5c13f",
    "device": (11852, 11735, 117, 10265, 10265, 0),
    "delays": "b788aa3075a32fe8",
}

#: Seed and device seed of the profile variants below (20 clients, 30 s,
#: device horizon 40 s).
VARIANT_SEED = 7
VARIANT_DEVICE_SEED = 57


def _behind_variant(profile: DeviceProfile):
    def factory(scheduler):
        return LiveForwardingDevice(
            scheduler, profile, seed=VARIANT_DEVICE_SEED, horizon=DURATION_S + 10.0
        )

    return run_closed_loop(
        olygamer_week(), N_CLIENTS, DURATION_S, seed=VARIANT_SEED,
        transport_factory=factory,
    )


#: Device variants that reach the branches the default profile does not:
#: constant service (``service_cv=0``), a one-slot LAN buffer (outbound
#: drops), and stalls long enough that both ends time out (the client's
#: liveness rule and the server's liveness sweep).
GOLDEN_VARIANTS = {
    "constant_service": {
        "trace": "4ee5f00480ad4bb8",
        "executed": 66236,
        "freeze_seconds": "0.00691398898045037",
        "timeouts": 0,
        "players": 20,
        "clients": "a5a7a96b4f9c4373",
        "device": (11759, 11568, 191, 10190, 10190, 0),
        "delays": "5132c8b0b2a08a72",
    },
    "lan_queue_1": {
        "trace": "c32b3fec73e6d6b2",
        "executed": 49802,
        "freeze_seconds": "0.006975243745888093",
        "timeouts": 0,
        "players": 19,
        "clients": "23b2edc74554ccd0",
        "device": (11699, 11550, 149, 10134, 2056, 8078),
        "delays": "9c418e691a5b5b5f",
    },
    "long_stalls": {
        "trace": "daed8332677a2852",
        "executed": 10923,
        "freeze_seconds": "0.0",
        "timeouts": 20,
        "players": 0,
        "clients": "08d21c179ed39662",
        "device": (3218, 947, 2271, 987, 987, 0),
        "delays": "e555eb7bfdedf61a",
    },
}

VARIANT_PROFILES = {
    "constant_service": DeviceProfile(service_cv=0.0),
    "lan_queue_1": DeviceProfile(lan_queue=1),
    "long_stalls": DeviceProfile(stall_interval_mean=3.0, stall_duration_mean=3.0),
}

#: One minute of the 2-hour paper profile (seed 5) through the NAT box,
#: at the default idle timeout and at one short enough to expire a binding.
GOLDEN_NAT = {
    300.0: {
        "fates": "30406634c9ae22fe",
        "departures": "e8cb35152f9bda1c",
        "table_created": 21,
        "table_peak": 21,
        "expired": 0,
        "bindings": "10a497912d81d703",
    },
    1.0: {
        "fates": "30406634c9ae22fe",
        "departures": "e8cb35152f9bda1c",
        "table_created": 21,
        "table_peak": 20,
        "expired": 1,
        "bindings": "66b579956233caac",
    },
}


class TestClosedLoopGolden:
    def test_clean(self):
        assert _loop_summary(
            run_closed_loop(olygamer_week(), N_CLIENTS, DURATION_S, seed=SEED)
        ) == GOLDEN_CLEAN

    def test_behind_device(self):
        summary = _loop_summary(_behind_device())
        assert summary == GOLDEN_BEHIND
        # the pin covers the feedback paths: inbound drops and a freeze
        assert summary["device"][2] > 0
        assert float(summary["freeze_seconds"]) > 0.0

    @pytest.mark.parametrize("variant", sorted(GOLDEN_VARIANTS))
    def test_device_variant(self, variant):
        result = _behind_variant(VARIANT_PROFILES[variant])
        assert _loop_summary(result) == GOLDEN_VARIANTS[variant]
        if variant == "long_stalls":
            assert sum(c.timed_out for c in result["clients"]) == N_CLIENTS


@pytest.fixture(scope="module")
def nat_window(full_profile, full_population):
    generator = PacketLevelGenerator(full_profile, population=full_population, seed=5)
    return generator.generate(3600.0, 3660.0)


class TestNatReplayGolden:
    @pytest.mark.parametrize("idle_timeout", [300.0, 1.0])
    def test_replay(self, nat_window, idle_timeout):
        device = NatDevice(seed=105, idle_timeout=idle_timeout)
        result = device.run(nat_window)
        forwarding = result.forwarding
        assert {
            "fates": _digest(forwarding.fates),
            "departures": _digest(forwarding.departures),
            "table_created": result.table_created,
            "table_peak": result.table_peak,
            "expired": device.table.expired_total,
            "bindings": _bindings_digest(device.table),
        } == GOLDEN_NAT[idle_timeout]
