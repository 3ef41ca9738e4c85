"""The latency-aware scorer with cached terms equals ``select``.

The columnar engine scores ``latency_aware`` through
:meth:`LatencyAwarePolicy.pick` with the latency terms
(:meth:`LatencyAwarePolicy.rtt_terms`) computed once per RTT row for
the whole run, the share scale once per epoch, and its own incrementally
kept free counts, instead of calling ``select``, which recomputes all
three per call.  These sweeps check that the two give the same server,
and the same as the score written out per server in Python floats, on
every state the engine can reach: 1-40 servers (both sides of the
12-open switch between the scalar and the vector scoring), occupancy
above a reduced effective capacity (negative free counts), RTT rows
with all-zero and tied entries, and zero weights.  ``max_examples`` is
left to the hypothesis profile (``--hypothesis-profile=deep`` runs ten
times the default).
"""

import numpy as np
from hypothesis import given, strategies as st
from matchmaking_reference import select

from repro.matchmaking.policies import LatencyAwarePolicy

weights = st.one_of(
    st.sampled_from([0.0, 0.25, 1.0, 2.0]),
    st.floats(min_value=0.0, max_value=10.0),
)


@st.composite
def rtt_rows(draw, n_servers):
    """A per-server RTT row: a coarse grid (ties), any float, or zeros."""
    kind = draw(st.sampled_from(["grid", "any", "zeros"]))
    if kind == "zeros":
        return np.zeros(n_servers)
    values = (
        st.sampled_from([0.0, 10.0, 20.0, 40.0])
        if kind == "grid"
        else st.floats(min_value=0.0, max_value=500.0)
    )
    return np.asarray(
        draw(st.lists(values, min_size=n_servers, max_size=n_servers)),
        dtype=float,
    )


@st.composite
def scorer_states(draw):
    """``(occupancy, capacities, rtt)`` with capacities possibly scaled
    below occupancy, as an outage epoch leaves them."""
    n_servers = draw(st.integers(min_value=1, max_value=40))
    capacities = np.asarray(
        draw(st.lists(st.integers(0, 6), min_size=n_servers, max_size=n_servers)),
        dtype=np.int64,
    )
    occupancy = np.asarray(
        [draw(st.integers(0, int(cap) + 2)) for cap in capacities],
        dtype=np.int64,
    )
    return occupancy, capacities, draw(rtt_rows(n_servers))


def _score_loop(policy, occupancy, capacities, rtt):
    """The score written out per server in Python floats, as the
    policy's docstring states it: the independent reference."""
    share_scale = max(int(capacities.max()), 1)
    rtt_scale = float(rtt.max())
    best, best_score = None, None
    for server in range(occupancy.size):
        free = int(capacities[server] - occupancy[server])
        if free <= 0:
            continue
        server_rtt = float(rtt[server])
        if rtt_scale > 0:
            server_rtt = server_rtt / rtt_scale
        score = policy.alpha * (free / share_scale) - policy.beta * server_rtt
        if best is None or score > best_score:
            best, best_score = server, score
    return best


def _engine_pick(policy, occupancy, capacities, terms):
    """What the engine calls: its own free counts, the share scale."""
    return policy.pick(
        capacities - occupancy, max(int(capacities.max()), 1), terms
    )


class TestCachedScorerEqualsSelect:
    @given(state=scorer_states(), alpha=weights, beta=weights)
    def test_pick_with_cached_terms_equals_select(self, state, alpha, beta):
        occupancy, capacities, rtt = state
        policy = LatencyAwarePolicy(alpha=alpha, beta=beta)
        terms = policy.rtt_terms(rtt)
        chosen = _engine_pick(policy, occupancy, capacities, terms)
        assert chosen == select(policy,
            occupancy, capacities, -1, np.random.default_rng(0), rtt=rtt
        )
        assert chosen == _score_loop(policy, occupancy, capacities, rtt)
        if chosen is not None:
            assert occupancy[chosen] < capacities[chosen]

    @given(
        state=scorer_states(),
        alpha=weights,
        beta=weights,
        moves=st.lists(st.tuples(st.integers(0, 39), st.booleans()), max_size=30),
    )
    def test_terms_stay_valid_as_occupancy_moves(self, state, alpha, beta, moves):
        # the engine computes the terms once per run and keeps scoring
        # with them while admissions and departures move the occupancy
        occupancy, capacities, rtt = state
        policy = LatencyAwarePolicy(alpha=alpha, beta=beta)
        terms = policy.rtt_terms(rtt)
        cached = terms.copy()
        for server, admit in moves:
            server %= occupancy.size
            if admit:
                occupancy[server] += 1
            elif occupancy[server] > 0:
                occupancy[server] -= 1
            assert _engine_pick(
                policy, occupancy, capacities, terms
            ) == select(policy,
                occupancy, capacities, -1, np.random.default_rng(0), rtt=rtt
            )
        np.testing.assert_array_equal(terms, cached)

    @given(alpha=weights, beta=weights, n_open=st.integers(1, 40))
    def test_both_scoring_branches_on_tied_scores(self, alpha, beta, n_open):
        # equal free counts and equal RTTs: every open server ties and
        # the lowest open index wins, below and above the branch switch
        n_servers = 40
        capacities = np.full(n_servers, 3, dtype=np.int64)
        occupancy = capacities.copy()
        open_servers = np.arange(n_servers - n_open, n_servers)
        occupancy[open_servers] = 1
        rtt = np.full(n_servers, 25.0)
        policy = LatencyAwarePolicy(alpha=alpha, beta=beta)
        chosen = _engine_pick(policy, occupancy, capacities, policy.rtt_terms(rtt))
        assert chosen == open_servers[0]

    def test_rtt_terms_normalise_by_the_row_maximum(self):
        policy = LatencyAwarePolicy(alpha=1.0, beta=0.5)
        np.testing.assert_array_equal(
            policy.rtt_terms(np.array([10.0, 40.0, 20.0])),
            [0.5 * 0.25, 0.5 * 1.0, 0.5 * 0.5],
        )
        # an all-zero row is left unnormalised
        np.testing.assert_array_equal(policy.rtt_terms(np.zeros(3)), np.zeros(3))
