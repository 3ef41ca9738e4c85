"""Pluggable server-selection policies for the facility matchmaker.

A policy answers one question per connection attempt: *which server
should this player try to join, given the facility's current occupancy?*
The matchmaker (see :mod:`repro.matchmaking.engine`) then applies the
slot-table rule — a full server refuses the attempt — so policies never
mutate state; they only read the occupancy snapshot and draw from the
epoch's assignment stream.

The six policies span the provisioning trade-off the paper's closing
section motivates:

* :class:`RandomPolicy` — the server-browser baseline: players pick
  uniformly at random, blind to load, and balk when refused;
* :class:`LeastLoadedPolicy` — a load-balancing matchmaker: always the
  server with the most free slots, so refusals only occur when the whole
  facility is full;
* :class:`StickyPolicy` — session affinity: returning players rejoin the
  server they last played on (map familiarity, friends, ping history),
  falling back to a random server *with room* otherwise;
* :class:`CapacityAwarePolicy` — admission control: least-loaded among
  the non-full servers, refusing at the matchmaker when the facility is
  full; refused players retry after a delay or balk (the retry/balk
  split lives in :class:`~repro.matchmaking.pool.PoolConfig`);
* :class:`LowestRttPolicy` — ping-first placement: the reachable
  (non-full) server minimising the player's RTT, ties broken toward the
  most free slots — with a uniform RTT matrix this *is* least-loaded;
* :class:`LatencyAwarePolicy` — the modern matchmaker objective:
  score every open server ``α·(free slots / largest capacity) −
  β·(RTT / worst row RTT)`` and take the argmax, trading occupancy
  against QoE explicitly.

The engine passes every ``select`` the player's per-server RTT vector
as the ``rtt`` keyword (the row of the facility's
:class:`~repro.matchmaking.rtt.RttMatrix` for the player's region);
latency-aware policies score on it and load-only policies ignore it, so
both kinds slot into one registry.

Determinism contract: ``select`` is a pure function of
``(occupancy, capacities, last_server, rtt)`` and the draws it takes
from ``rng`` — the engine hands it the per-epoch assignment stream, so
the whole assignment sequence is reproducible from one seed.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Type, Union

import numpy as np


def validate_score_weight(label: str, value: float) -> float:
    """Validate a latency-aware score weight (the one shared rule).

    Used by :class:`LatencyAwarePolicy`, the experiment overrides and
    the CLI's argparse type, so "what is a legal α/β" lives here once.
    """
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{label} must be finite, got {value!r}")
    if value < 0:
        raise ValueError(f"{label} must be >= 0, got {value!r}")
    return value


class SelectionPolicy:
    """Base class: pick a server for one connection attempt.

    Subclasses set ``name`` (the registry/CLI identifier) and
    ``retry_on_reject`` (whether the pool schedules retries for attempts
    this policy gets refused — admission-control behaviour).  Policies
    that score on latency call :meth:`_require_rtt`, which turns a
    missing RTT view into a clear error at selection time.
    """

    #: Registry / CLI identifier.
    name: str = ""
    #: Whether refused attempts enter the pool's retry/balk machinery.
    retry_on_reject: bool = False

    def select(
        self,
        occupancy: np.ndarray,
        capacities: np.ndarray,
        last_server: int,
        rng: np.random.Generator,
        rtt: Optional[np.ndarray] = None,
    ) -> Optional[int]:
        """Server index for this attempt, or ``None`` to refuse outright.

        ``occupancy`` and ``capacities`` are read-only per-server arrays;
        ``last_server`` is the player's previous server (-1 if none);
        ``rtt`` is the player's per-server RTT vector in milliseconds
        (their region's row of the facility RTT matrix); the engine
        always passes it, so overrides must accept the keyword.
        Returning a full server's index is allowed — the slot table
        refuses the attempt — while ``None`` means the policy itself
        turned the player away (admission control).
        """
        raise NotImplementedError

    def _require_rtt(self, rtt: Optional[np.ndarray]) -> np.ndarray:
        """The RTT view, or a clear error for latency-blind call sites."""
        if rtt is None:
            raise ValueError(
                f"policy {self.name!r} needs the per-player RTT view; "
                "run it through a MatchmakingSimulator with an RttMatrix"
            )
        return rtt

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


class RandomPolicy(SelectionPolicy):
    """Uniform random server, blind to load (the server-browser baseline)."""

    name = "random"

    def select(
        self, occupancy, capacities, last_server, rng, rtt=None
    ) -> Optional[int]:
        return int(rng.integers(occupancy.size))


class LeastLoadedPolicy(SelectionPolicy):
    """The server with the most free slots (ties to the lowest index)."""

    name = "least_loaded"

    def select(
        self, occupancy, capacities, last_server, rng, rtt=None
    ) -> Optional[int]:
        return int(np.argmax(capacities - occupancy))


class StickyPolicy(SelectionPolicy):
    """Session affinity: rejoin the previous server while it has room.

    New players — and returning players whose server is full — pick
    uniformly among the servers with free slots; when every server is
    full the attempt is refused.
    """

    name = "sticky"

    def select(
        self, occupancy, capacities, last_server, rng, rtt=None
    ) -> Optional[int]:
        if 0 <= last_server < occupancy.size and (
            occupancy[last_server] < capacities[last_server]
        ):
            return int(last_server)
        open_servers = np.flatnonzero(occupancy < capacities)
        if open_servers.size == 0:
            return None
        return int(open_servers[int(rng.integers(open_servers.size))])


class CapacityAwarePolicy(SelectionPolicy):
    """Admission control: least-loaded among non-full servers, else refuse.

    The only policy with ``retry_on_reject``: a refused player retries
    after an exponential delay (or balks) instead of silently returning
    to the idle pool — the matchmaker equivalent of the paper's clients
    hammering a full server's slot table.
    """

    name = "capacity_aware"
    retry_on_reject = True

    def select(
        self, occupancy, capacities, last_server, rng, rtt=None
    ) -> Optional[int]:
        free = capacities - occupancy
        if not np.any(free > 0):
            return None
        return int(np.argmax(free))


class LowestRttPolicy(SelectionPolicy):
    """Ping-first: the non-full server minimising the player's RTT.

    RTT ties break toward the most free slots (then the lowest index),
    so a *uniform* RTT matrix — every pair equidistant — makes this
    policy reproduce :class:`LeastLoadedPolicy` assignment-for-
    assignment: the parity the determinism suite pins.  Refuses only
    when the whole facility is full.
    """

    name = "lowest_rtt"

    def select(
        self, occupancy, capacities, last_server, rng, rtt=None
    ) -> Optional[int]:
        rtt = self._require_rtt(rtt)
        open_servers = np.flatnonzero(occupancy < capacities)
        if open_servers.size == 0:
            return None
        open_rtt = rtt[open_servers]
        candidates = open_servers[open_rtt == open_rtt.min()]
        free = (capacities - occupancy)[candidates]
        return int(candidates[int(np.argmax(free))])


#: Open-server count up to which :meth:`LatencyAwarePolicy.select`
#: scores in Python floats; past it one vector pass over the open
#: servers costs less than the per-server loop.
_SCALAR_SCORE_MAX_OPEN = 12


class LatencyAwarePolicy(SelectionPolicy):
    """Occupancy/QoE trade-off: ``α·free-slot share − β·normalised RTT``.

    Every open server is scored ``alpha * free_slots / max(capacities)
    - beta * rtt / max(rtt)`` and the argmax wins (ties to the lowest
    index).  ``beta = 0`` (with ``alpha > 0``) degenerates to
    least-loaded — the share term is monotone in free slots;
    ``alpha = 0`` chases ping alone (and with ``beta = 0`` too the
    score is constant, so placement falls to the lowest open index);
    the defaults weight both, which is what buys lower session RTT at a
    small utilisation cost under saturating demand.  Refuses only when
    the whole facility is full.
    """

    name = "latency_aware"

    def __init__(self, alpha: float = 1.0, beta: float = 1.0) -> None:
        self.alpha = validate_score_weight("alpha", alpha)
        self.beta = validate_score_weight("beta", beta)

    def select(
        self, occupancy, capacities, last_server, rng, rtt=None
    ) -> Optional[int]:
        """The best-scoring open server, or ``None`` when all are full.

        Both normalisations (largest capacity, worst row RTT) are
        recomputed per call, with no memo that could go stale on a
        mutated row or a per-epoch capacity vector: ``select`` stays a
        pure function of its arguments.  The scoring itself is
        :meth:`pick` over :meth:`rtt_terms`, which the columnar engine
        calls directly with the terms cached per region and the share
        scale per epoch.
        """
        rtt = self._require_rtt(rtt)
        return self.pick(
            capacities - occupancy,
            max(int(capacities.max()), 1),
            self.rtt_terms(rtt),
        )

    def rtt_terms(self, rtt: np.ndarray) -> np.ndarray:
        """The score's latency term per server: ``beta * rtt / max(rtt)``.

        An all-zero (or non-positive) row is not normalised: the term is
        ``beta * rtt``.  A function of the row alone, so a caller may
        compute it once per RTT row and reuse it across calls.
        """
        rtt = np.asarray(rtt, dtype=np.float64)
        rtt_scale = float(rtt.max())
        return self.beta * (rtt / rtt_scale if rtt_scale > 0 else rtt)

    def pick(
        self, free: np.ndarray, share_scale: int, terms: np.ndarray
    ) -> Optional[int]:
        """The argmax of ``alpha * free / share_scale - terms`` over the
        servers with ``free > 0``, or ``None`` when there are none.

        Which of two equal scorings runs depends on the open-server
        count alone: up to ``_SCALAR_SCORE_MAX_OPEN`` open servers are
        scored in Python floats, more in one numpy pass.  Each server's
        score goes through the same IEEE operations either way, and ties
        go to the lowest index.
        """
        open_servers = (free > 0).nonzero()[0]
        if open_servers.size == 0:
            return None
        if open_servers.size <= _SCALAR_SCORE_MAX_OPEN:
            # the strict > keeps ties on the lowest index, as argmax does
            alpha = self.alpha
            best, best_score = -1, -math.inf
            for server in open_servers.tolist():
                share = free.item(server) / share_scale
                score = alpha * share - terms.item(server)
                if best < 0 or score > best_score:
                    best, best_score = server, score
            return best
        share = free[open_servers] / share_scale
        score = self.alpha * share - terms[open_servers]
        return int(open_servers[int(score.argmax())])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(alpha={self.alpha}, beta={self.beta})"


#: Policy registry in presentation order (CLI ``--policy`` choices).
POLICIES: Dict[str, Type[SelectionPolicy]] = {
    policy.name: policy
    for policy in (
        RandomPolicy,
        LeastLoadedPolicy,
        StickyPolicy,
        CapacityAwarePolicy,
        LowestRttPolicy,
        LatencyAwarePolicy,
    )
}


def make_policy(policy: Union[str, SelectionPolicy]) -> SelectionPolicy:
    """Resolve a policy name (or pass an instance through)."""
    if isinstance(policy, SelectionPolicy):
        return policy
    if policy not in POLICIES:
        raise KeyError(
            f"unknown policy {policy!r}; known: {', '.join(POLICIES)}"
        )
    return POLICIES[policy]()
