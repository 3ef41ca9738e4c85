"""Shared fixtures: small, fast simulation artifacts reused across tests."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings
from helpers import quick_test_profile

from repro.gameserver.config import ServerProfile
from repro.gameserver.generator import PacketLevelGenerator
from repro.gameserver.population import PopulationResult, simulate_population
from repro.net.addresses import IPv4Address
from repro.trace.packet import Direction
from repro.trace.trace import Trace, TraceBuilder

# `--hypothesis-profile=deep`: ten times hypothesis's default example
# count for the `@given` tests that leave `max_examples` to the profile
# (the kernel-oracle sweeps); tier-1 runs the default profile
settings.register_profile("deep", max_examples=1000, deadline=None)


@pytest.fixture(scope="session")
def quick_profile() -> ServerProfile:
    """A 10-minute, 8-slot profile for fast unit tests."""
    return quick_test_profile()


@pytest.fixture(scope="session")
def quick_population(quick_profile) -> PopulationResult:
    """Session-level result over the quick profile."""
    return simulate_population(quick_profile, seed=11)


@pytest.fixture(scope="session")
def quick_trace(quick_profile, quick_population) -> Trace:
    """Packet-level trace of the quick profile's first 120 seconds."""
    generator = PacketLevelGenerator(
        quick_profile, population=quick_population, seed=11
    )
    return generator.generate(0.0, 120.0)


@pytest.fixture(scope="session")
def full_profile() -> ServerProfile:
    """The paper profile with a 2-hour horizon (keeps tests quick)."""
    from repro.gameserver.config import olygamer_week

    return olygamer_week().scaled(7200.0)


@pytest.fixture(scope="session")
def full_population(full_profile) -> PopulationResult:
    """Session-level result over the 2-hour paper profile."""
    return simulate_population(full_profile, seed=5)


@pytest.fixture
def rng() -> np.random.Generator:
    """A fresh seeded generator per test."""
    return np.random.default_rng(1234)


@pytest.fixture
def synthetic_trace() -> Trace:
    """A tiny hand-built bidirectional trace with known totals.

    10 inbound packets of 40 B at t = 0.0,0.1,... and 5 outbound of
    130 B at t = 0.05,0.25,...; server at 10.0.0.2.
    """
    server = IPv4Address("10.0.0.2")
    builder = TraceBuilder(server_address=server)
    for i in range(10):
        builder.add(0.1 * i, Direction.IN, IPv4Address("10.0.0.1").value,
                    server.value, 27005, 27015, 40)
    for i in range(5):
        builder.add(0.05 + 0.2 * i, Direction.OUT, server.value,
                    IPv4Address("10.0.0.1").value, 27015, 27005, 130)
    return builder.build()
