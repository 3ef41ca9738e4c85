"""Property-based invariants of the server-selection policies.

The matchmaker trusts its policies to respect a few contracts no matter
what occupancy snapshot they see: admission-control policies
(``capacity_aware``, ``latency_aware``, ``lowest_rtt``) never hand back
a full server, ``sticky`` always honours a previous server with room,
``lowest_rtt`` really is an argmin over the reachable servers, and every
policy is a *pure* function of ``(occupancy, capacities, last_server,
rtt, rng state)`` — no hidden state, no input mutation.  Hypothesis
drives these over arbitrary facilities so a future policy refactor
cannot quietly weaken the slot-table or determinism guarantees.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.matchmaking import POLICIES, make_policy
from repro.matchmaking.policies import (
    CapacityAwarePolicy,
    LatencyAwarePolicy,
    LowestRttPolicy,
    StickyPolicy,
)


@st.composite
def facility_snapshots(draw):
    """An arbitrary ``(occupancy, capacities, last_server, rtt)`` state."""
    n_servers = draw(st.integers(min_value=1, max_value=8))
    capacities = np.asarray(
        draw(
            st.lists(
                st.integers(min_value=1, max_value=32),
                min_size=n_servers,
                max_size=n_servers,
            )
        ),
        dtype=np.int64,
    )
    occupancy = np.asarray(
        [
            draw(st.integers(min_value=0, max_value=int(cap)))
            for cap in capacities
        ],
        dtype=np.int64,
    )
    last_server = draw(st.integers(min_value=-1, max_value=n_servers - 1))
    rtt = np.asarray(
        draw(
            st.lists(
                st.floats(
                    min_value=0.5,
                    max_value=500.0,
                    allow_nan=False,
                    allow_infinity=False,
                ),
                min_size=n_servers,
                max_size=n_servers,
            )
        ),
        dtype=float,
    )
    return occupancy, capacities, last_server, rtt


class TestAdmissionControlNeverOverfills:
    @pytest.mark.parametrize(
        "policy_factory",
        [CapacityAwarePolicy, LatencyAwarePolicy, LowestRttPolicy],
        ids=["capacity_aware", "latency_aware", "lowest_rtt"],
    )
    @given(snapshot=facility_snapshots(), seed=st.integers(0, 2**31))
    @settings(max_examples=60, deadline=None)
    def test_never_selects_a_full_server(self, policy_factory, snapshot, seed):
        occupancy, capacities, last_server, rtt = snapshot
        rng = np.random.default_rng(seed)
        chosen = policy_factory().select(
            occupancy, capacities, last_server, rng, rtt=rtt
        )
        if np.all(occupancy >= capacities):
            assert chosen is None
        else:
            assert chosen is not None
            assert occupancy[chosen] < capacities[chosen]

    @given(
        snapshot=facility_snapshots(),
        alpha=st.floats(0.0, 10.0, allow_nan=False),
        beta=st.floats(0.0, 10.0, allow_nan=False),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=60, deadline=None)
    def test_latency_aware_for_any_weights(self, snapshot, alpha, beta, seed):
        occupancy, capacities, last_server, rtt = snapshot
        chosen = LatencyAwarePolicy(alpha=alpha, beta=beta).select(
            occupancy, capacities, last_server, np.random.default_rng(seed),
            rtt=rtt,
        )
        if chosen is not None:
            assert occupancy[chosen] < capacities[chosen]


class TestStickyAffinity:
    @given(snapshot=facility_snapshots(), seed=st.integers(0, 2**31))
    @settings(max_examples=60, deadline=None)
    def test_returns_last_server_whenever_it_has_room(self, snapshot, seed):
        occupancy, capacities, last_server, rtt = snapshot
        rng = np.random.default_rng(seed)
        chosen = StickyPolicy().select(
            occupancy, capacities, last_server, rng, rtt=rtt
        )
        if 0 <= last_server and occupancy[last_server] < capacities[last_server]:
            assert chosen == last_server
        elif np.all(occupancy >= capacities):
            assert chosen is None
        else:
            assert chosen is not None
            assert occupancy[chosen] < capacities[chosen]


class TestLowestRttIsAnArgmin:
    @given(snapshot=facility_snapshots(), seed=st.integers(0, 2**31))
    @settings(max_examples=60, deadline=None)
    def test_choice_minimises_rtt_over_open_servers(self, snapshot, seed):
        occupancy, capacities, last_server, rtt = snapshot
        rng = np.random.default_rng(seed)
        chosen = LowestRttPolicy().select(
            occupancy, capacities, last_server, rng, rtt=rtt
        )
        open_servers = np.flatnonzero(occupancy < capacities)
        if open_servers.size == 0:
            assert chosen is None
        else:
            assert chosen in open_servers
            assert rtt[chosen] == rtt[open_servers].min()


class TestPoliciesArePureFunctions:
    @pytest.mark.parametrize("name", sorted(POLICIES))
    @given(snapshot=facility_snapshots(), seed=st.integers(0, 2**31))
    @settings(max_examples=40, deadline=None)
    def test_same_inputs_same_rng_state_same_choice(self, name, snapshot, seed):
        occupancy, capacities, last_server, rtt = snapshot
        policy = make_policy(name)
        before = (occupancy.copy(), capacities.copy(), rtt.copy())
        first = policy.select(
            occupancy, capacities, last_server,
            np.random.default_rng(seed), rtt=rtt,
        )
        # a second call — same snapshot, a fresh generator at the same
        # state, even a fresh policy instance — must reproduce the choice
        second = make_policy(name).select(
            occupancy.copy(), capacities.copy(), last_server,
            np.random.default_rng(seed), rtt=rtt.copy(),
        )
        assert first == second
        # and the snapshot the policy read is untouched
        assert np.array_equal(occupancy, before[0])
        assert np.array_equal(capacities, before[1])
        assert np.array_equal(rtt, before[2])


def _latency_aware_numpy(policy, occupancy, capacities, rtt):
    """The one-pass numpy body ``LatencyAwarePolicy.select`` had before
    it scored a few open servers in Python floats: the reference the
    current ``select`` must agree with on every input."""
    free = capacities - occupancy
    closed = free <= 0
    if closed.all():
        return None
    free_share = free / max(int(capacities.max()), 1)
    rtt_scale = float(rtt.max())
    normalised_rtt = rtt / rtt_scale if rtt_scale > 0 else rtt
    score = policy.alpha * free_share - policy.beta * normalised_rtt
    score[closed] = -np.inf
    return int(score.argmax())


@st.composite
def crowded_snapshots(draw):
    """Facilities large enough to reach both scoring paths, with small
    capacities and a coarse RTT grid so that tied scores are common."""
    n_servers = draw(st.integers(min_value=1, max_value=40))
    capacities = np.asarray(
        draw(st.lists(st.integers(1, 4), min_size=n_servers, max_size=n_servers)),
        dtype=np.int64,
    )
    occupancy = np.asarray(
        [draw(st.integers(0, int(cap))) for cap in capacities], dtype=np.int64
    )
    rtt_values = st.one_of(
        st.sampled_from([0.0, 10.0, 20.0, 40.0]),
        st.floats(min_value=0.0, max_value=500.0),
    )
    rtt = np.asarray(
        draw(st.lists(rtt_values, min_size=n_servers, max_size=n_servers)),
        dtype=float,
    )
    return occupancy, capacities, rtt


class TestLatencyAwareMatchesNumpyBody:
    weights = st.one_of(
        st.sampled_from([0.0, 0.25, 1.0, 2.0]),
        st.floats(min_value=0.0, max_value=10.0),
    )

    @given(snapshot=crowded_snapshots(), alpha=weights, beta=weights)
    @settings(max_examples=300, deadline=None)
    def test_select_equals_numpy_body(self, snapshot, alpha, beta):
        occupancy, capacities, rtt = snapshot
        policy = LatencyAwarePolicy(alpha=alpha, beta=beta)
        rng = np.random.default_rng(0)
        assert policy.select(
            occupancy, capacities, -1, rng, rtt=rtt
        ) == _latency_aware_numpy(policy, occupancy, capacities, rtt)

    @pytest.mark.parametrize("n_servers", [3, 40])
    @pytest.mark.parametrize(
        "case",
        ["all closed", "one open", "alpha 0", "beta 0", "zero rtt", "tied"],
    )
    def test_edge_cases(self, case, n_servers):
        rng = np.random.default_rng(5)
        capacities = np.full(n_servers, 4, dtype=np.int64)
        occupancy = rng.integers(0, 4, n_servers)
        rtt = rng.uniform(5.0, 80.0, n_servers)
        alpha, beta = 1.0, 1.0
        if case == "all closed":
            occupancy = capacities.copy()
        elif case == "one open":
            occupancy = capacities.copy()
            occupancy[n_servers // 2] -= 1
        elif case == "alpha 0":
            alpha = 0.0
        elif case == "beta 0":
            beta = 0.0
        elif case == "zero rtt":
            rtt = np.zeros(n_servers)
        else:  # every server scores the same: the lowest index wins
            occupancy = np.ones(n_servers, dtype=np.int64)
            rtt = np.full(n_servers, 30.0)
        policy = LatencyAwarePolicy(alpha=alpha, beta=beta)
        chosen = policy.select(occupancy, capacities, -1, rng, rtt=rtt)
        assert chosen == _latency_aware_numpy(policy, occupancy, capacities, rtt)
        if case == "all closed":
            assert chosen is None
        elif case == "tied":
            assert chosen == 0
