"""The matchmaking epoch loop, vectorised wherever it is provably exact.

:func:`run_columnar` is the one engine behind
:class:`~repro.matchmaking.engine.MatchmakingSimulator`.  Its semantics
are the plain per-attempt loop: drain the departures due, ask the
policy's ``select`` for a server, let the slot table refuse a full one,
and retry or balk on refusal.  ``tests/matchmaking_reference.py`` keeps
that loop, written out one attempt at a time, as the oracle the parity
suites compare against bit for bit.

State is columnar (attempt times/players as parallel arrays, departures
as sorted arrays instead of a heap), and every span that provably
behaves like the per-attempt loop is batched — the
``repro.kernels.fifo`` playbook (segment at provable no-contention
points, vectorise within segments, step one attempt at a time
elsewhere).

Segment classes, and why each is exact.  The spans are proven for the
six stock policy classes only; a policy of any other type (a subclass
overriding ``select`` included) takes the per-attempt step for every
attempt.

* **Full-facility spans** — once ``drain_departures(when)`` leaves every
  server full, nothing can change before the next departure: every
  attempt with ``when < next_departure`` is refused with *no* policy
  randomness (``random`` pre-draws its uniform choices; the other five
  refuse before touching the stream), so the whole span collapses to a
  few counter updates.  Under saturating demand this is the dominant
  regime, and the source of the batch speedup.
* **Fill spans** (``least_loaded`` / ``capacity_aware``, whose select is
  ``argmax(free)``) — while the facility has room, every attempt is
  admitted, and the repeated argmax-and-decrement sequence equals the
  first ``m`` tokens ``(server s, level free_s..1)`` sorted by
  ``(-level, server)``: the next argmax pick is always the token with
  the highest remaining level and lowest index, which is exactly the
  lexsort order.
* **Random spans** — choices are pre-drawn (`integers(n, size=k)`
  consumes the bit stream exactly as ``k`` one-at-a-time calls), and
  within a departure-free span the attempt with occurrence-rank ``r`` on
  server ``s`` is admitted iff ``r < free_s`` at span start: occupancy
  only grows, so the first ``free_s`` attempts per server land and the
  rest bounce.
* **Saturated windows** (the five deterministic policies: all but
  ``random``) — once the facility is full, the steady state is a dense
  departure/attempt alternation.  Over a ``[when, when +
  session_duration_min)`` window (capped at the epoch boundary) no
  in-window admission can end inside the window, so the departure set
  is known up front.  Walking the reflected free-slot count over the
  merged event sequence classifies the attempts of its longest prefix
  where the free count never exceeds one, and there the ``k``-th
  admitted attempt provably lands on the ``k``-th departure's server
  (unique open server; ``sticky``'s ``integers(1)`` draw consumes zero
  bits).
  ``capacity_aware`` refuses at the matchmaker when the facility is
  full and retries or balks, and that too batches: its admissions draw
  nothing from the assign stream, so refusing the window's refused
  attempts first, in attempt order, draws the retry uniforms and
  delays in the per-attempt loop's order; and a player attempts at
  most once per epoch (retries re-enter at a later epoch start), so a
  refused player is never an admitted one and the QoE refusal counts
  and resets commute.  This batches the dominant post-warmup cadence
  thousands of events at a time.
* **Per-attempt step** — everything else (``sticky`` draws with a
  live-state-dependent bound, ``lowest_rtt``/``latency_aware`` re-rank
  as occupancy moves, every attempt of a custom policy) calls the
  policy's own ``select`` on the live occupancy.  ``random``,
  ``least_loaded`` and ``capacity_aware`` have no ``select``: the
  engine never steps them one attempt at a time, and their
  per-attempt forms live in ``tests/matchmaking_reference.py`` as the
  oracle.  A policy that is neither a stock class nor has a
  ``select`` is refused by :func:`~repro.matchmaking.policies.make_policy`
  before the run starts.  ``latency_aware``
  scores through the policy's own ``pick``: its latency terms
  (``rtt_terms``) are a function of the RTT row alone, so they are
  computed once per region for the run, the free-slot share's scale
  (the largest effective capacity) once per epoch, and the free counts
  are the engine's own.  When exactly one slot is open, the
  deterministic stock policies provably choose the single open server
  — and ``sticky``'s ``integers(1)`` draw consumes zero bits from the
  stream — so the common post-warmup ``[departure, admission]``
  cadence skips the call.  So does a fill span of one attempt (one
  slot open, or the next attempt already past the span's bound): its
  single pick is the argmax.

Per-event state is read as Python scalars.  The departure columns keep
their next departure as a cached float (``next_col``, refreshed
wherever the head or the columns move), so the per-attempt "anything
due?" test compares two floats; a session's QoE multiplier comes from a
region x server table built once per run with ``duration_multiplier``;
and careful mode tests ``free.min() >= 0`` only until it first holds in
an epoch — every admission needs ``free > 0`` and drains only raise
``free``, so it then holds for the rest of the epoch.

Span boundaries are conservative three ways: the next pending departure
(strictly later than the current attempt), the earliest time an
*in-span* admission could end (``when + session_duration_min``, valid
because IEEE float addition is monotone, truncated at the horizon), and
— for fill spans — the remaining free capacity.  Within such a span the
per-attempt loop would drain nothing and admit/refuse exactly as the
batch does.

RNG discipline: the pool stream is consumed by two ``random(n)`` calls
per epoch (the same values and stream state as ``uniform(size=n)``).
The first is compared against the idle players' attempt
probabilities; with a scenario these come per region
(:meth:`~repro.matchmaking.scenarios.CompiledScenario.region_attempt_probabilities`,
the expression the oracle gathers per player), and an epoch whose
regions all share one value (every epoch whose hazard is unscaled)
compares against that scalar instead of gathering it per player — the
same mask.  The assign stream is only touched where the per-attempt
loop touches it (``random``'s pre-draw, ``select``'s own draws, the
retry draws, in order; a scalar ``random()`` equals ``uniform()``).
The per-``(server, epoch)`` duration streams are seeded in bulk: one
:func:`~repro.sim.random.seed_sequence_words` call yields the seed
words of every stream, :func:`~repro.sim.random.pcg64_state` turns a
stream's words into its PCG64 start state when the stream opens, and
each stream is drawn in blocks on one shared generator
(``lognormal(mu, sigma, size=k)`` consumes identically to ``k``
one-at-a-time draws).  ``tests/test_sim_random.py`` pins these numpy
identities; the golden, property, QoE and shard/cache parity suites pin
the result bit-identical to the oracle, which still builds one
``default_rng`` per stream and draws ``uniform``.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.gameserver.population import SessionTable
from repro.matchmaking.policies import (
    POLICIES,
    CapacityAwarePolicy,
    LatencyAwarePolicy,
    LeastLoadedPolicy,
    RandomPolicy,
)
from repro.sim.random import (
    derive_seed,
    lognormal_params,
    pcg64_state,
    seed_sequence_words,
)

#: Player states.  Only idleness is ever read (the next epoch's arrival
#: draw is over the idle players), so a player attempting this epoch is
#: busy from its attempt until it balks or its session ends.
_IDLE, _BUSY = 0, 1

#: Fill spans shorter than this use the plain argmax-and-decrement loop;
#: the token sort only pays off once it amortises over many picks.
_TOKEN_SPAN_MIN = 32


class _ColumnarCounters:
    """Segment accounting published into the ``repro.obs`` metrics
    registry, mirroring ``kernels.fifo``'s fast-vs-fallback counters.

    Lazy binding for the same reason as the kernels: look the registry
    up at first use, not at import.
    """

    __slots__ = (
        "segments",
        "vectorised_attempts",
        "scalar_fallback_attempts",
    )

    def __init__(self) -> None:
        from repro.obs.metrics import registry

        for field in self.__slots__:
            setattr(
                self, field, registry().counter(f"matchmaking.columnar.{field}")
            )


_COUNTERS: Optional[_ColumnarCounters] = None


def _counters() -> _ColumnarCounters:
    global _COUNTERS
    if _COUNTERS is None:
        _COUNTERS = _ColumnarCounters()
    return _COUNTERS


#: Session durations drawn per block of a ``(server, epoch)`` stream.
_DURATION_BLOCK = 32


class _DurationSource:
    """Every ``(server, epoch)`` session-duration stream of one run.

    Stream ``epoch * n_servers + server`` is the lognormal sequence of
    ``np.random.default_rng(derive_seed(seed,
    "matchmaking-server:{server}:{epoch}"))``.  Building that generator
    per stream costs far more than its few draws, so the seed words of
    all ``n_servers * n_epochs`` streams come from one
    :func:`~repro.sim.random.seed_sequence_words` call, and every block
    is drawn on one shared ``Generator`` whose bit generator is first
    set to the stream's start state (:func:`~repro.sim.random.pcg64_state`,
    taken only for the streams a run opens).
    """

    __slots__ = ("_words", "_n_servers", "_gen", "_bit_state", "_mu", "_sigma")

    def __init__(
        self, seed: int, n_servers: int, n_epochs: int, mu: float, sigma: float
    ) -> None:
        seeds = np.fromiter(
            (
                derive_seed(seed, f"matchmaking-server:{server}:{epoch}")
                for epoch in range(n_epochs)
                for server in range(n_servers)
            ),
            dtype=np.uint64,
            count=n_epochs * n_servers,
        )
        self._words = seed_sequence_words(seeds)
        self._n_servers = n_servers
        self._gen = np.random.Generator(np.random.PCG64(0))
        self._bit_state = self._gen.bit_generator.state
        self._mu = mu
        self._sigma = sigma

    def first_block(self, stream: int) -> List[float]:
        """The first block of stream ``epoch * n_servers + server``."""
        state, inc = pcg64_state(self._words[stream].tolist())
        self._bit_state["state"] = {"state": state, "inc": inc}
        self._gen.bit_generator.state = self._bit_state
        return self._gen.lognormal(
            self._mu, self._sigma, size=_DURATION_BLOCK
        ).tolist()

    def next_block(
        self, stream: int, resume: Optional[dict]
    ) -> Tuple[List[float], dict]:
        """The block after the one that left the stream at ``resume``
        (``None``: after its first block), and the state after it.

        Most streams never need a second block, so the state is read
        back only here; a first refill replays the first block.
        """
        if resume is None:
            self.first_block(stream)
        else:
            self._gen.bit_generator.state = resume
        values = self._gen.lognormal(self._mu, self._sigma, size=_DURATION_BLOCK)
        return values.tolist(), self._gen.bit_generator.state


class _DurationStream:
    """Block-buffered session-duration draws for one ``(server, epoch)``.

    ``lognormal(mu, sigma, size=k)`` consumes the bit stream exactly as
    ``k`` scalar draws, so the blocks equal, draw for draw, one
    ``sample_lognormal`` per admission on the stream's own generator.
    The first block is drawn when the stream opens; a refill continues
    from the state the previous block left.  Over-draw past the last
    admission is harmless: the stream is scoped to this (server, epoch)
    and never read again.
    """

    __slots__ = ("_source", "_stream", "_buf", "_pos", "_resume")

    def __init__(self, source: _DurationSource, stream: int) -> None:
        self._source = source
        self._stream = stream
        self._buf = source.first_block(stream)
        self._pos = 0
        self._resume: Optional[dict] = None

    def next(self) -> float:
        if self._pos == _DURATION_BLOCK:
            self._buf, self._resume = self._source.next_block(
                self._stream, self._resume
            )
            self._pos = 0
        value = self._buf[self._pos]
        self._pos += 1
        return value


class _DepartureColumns:
    """Active sessions' departures as sorted parallel arrays.

    The bulk lives in time-sorted numpy columns consumed through a head
    index (drains are a ``searchsorted`` plus one ``bincount``); the
    current epoch's own admissions — which may end within the epoch —
    collect in a small heap and merge into the columns once per epoch.
    Drain *order* inside one call never matters to the engine (occupancy
    decrements commute and no randomness is drawn), only the drained
    set, which both representations define by time alone.

    ``next_col`` caches the column departure at ``head`` as a Python
    float (``inf`` past the end): every move of ``head`` or ``times``
    goes through :meth:`set_head`, so the per-attempt peeks read a
    float instead of indexing the array.
    """

    __slots__ = ("times", "servers", "players", "head", "next_col", "pending")

    def __init__(self) -> None:
        self.times = np.empty(0, dtype=np.float64)
        self.servers = np.empty(0, dtype=np.int64)
        self.players = np.empty(0, dtype=np.int64)
        self.head = 0
        self.next_col = math.inf
        self.pending: List[Tuple[float, int, int]] = []

    def set_head(self, head: int) -> None:
        """Consume the columns up to ``head`` and refresh ``next_col``."""
        self.head = head
        self.next_col = (
            self.times.item(head) if head < self.times.size else math.inf
        )

    def next_time(self) -> float:
        """Earliest pending departure time (``inf`` when none)."""
        earliest = self.next_col
        if self.pending and self.pending[0][0] < earliest:
            earliest = self.pending[0][0]
        return earliest

    def drain(
        self,
        until: float,
        strict: bool,
        occupancy: np.ndarray,
        free: np.ndarray,
        player_state: np.ndarray,
        n_servers: int,
        careful: bool = False,
    ) -> int:
        """Finish sessions ending before ``until`` (``<=`` unless strict);
        returns how many *admittable* slots opened.

        Without scenario capacity modulation every departure opens one
        admittable slot and the return value equals the drain count.
        ``careful`` handles reduced effective capacities: a server whose
        occupancy still exceeds its effective capacity has negative
        ``free``, and a departure there opens no admittable slot until
        ``free`` climbs back above zero (drain semantics — downed
        servers stop admitting while sessions play out).
        """
        pending = self.pending
        # fast exit: nothing due — one float peek per source instead of
        # a searchsorted per attempt
        if strict:
            if self.next_col >= until and (
                not pending or pending[0][0] >= until
            ):
                return 0
        elif self.next_col > until and (not pending or pending[0][0] > until):
            return 0
        opened = 0
        head = self.head
        stop = int(
            self.times.searchsorted(until, side="left" if strict else "right")
        )
        if stop > head:
            lo, hi = head, stop
            if hi - lo <= 4:
                # the steady-state case is one departure at a time; a
                # bincount over every server would dwarf the work
                servers, players = self.servers, self.players
                for k in range(lo, hi):
                    server = servers.item(k)
                    occupancy[server] -= 1
                    free[server] += 1
                    if not careful or free[server] > 0:
                        opened += 1
                    player_state[players.item(k)] = _IDLE
            else:
                counts = np.bincount(
                    self.servers[lo:hi], minlength=n_servers
                )
                if careful:
                    before = np.maximum(free, 0)
                    occupancy -= counts
                    free += counts
                    opened += int((np.maximum(free, 0) - before).sum())
                else:
                    occupancy -= counts
                    free += counts
                    opened += hi - lo
                player_state[self.players[lo:hi]] = _IDLE
            self.set_head(hi)
        while pending and (
            pending[0][0] < until if strict else pending[0][0] <= until
        ):
            _, server, player = heapq.heappop(pending)
            occupancy[server] -= 1
            free[server] += 1
            if not careful or free[server] > 0:
                opened += 1
            player_state[player] = _IDLE
        return opened

    def merge_pending(self) -> None:
        """Fold the epoch's admissions into the sorted columns.

        ``pending`` is cleared in place, so a caller may keep it bound.
        """
        if not self.pending and self.head == 0:
            return
        live_t = self.times[self.head :]
        live_s = self.servers[self.head :]
        live_p = self.players[self.head :]
        if self.pending:
            new_t = np.fromiter(
                (e[0] for e in self.pending),
                dtype=np.float64,
                count=len(self.pending),
            )
            new_s = np.fromiter(
                (e[1] for e in self.pending),
                dtype=np.int64,
                count=len(self.pending),
            )
            new_p = np.fromiter(
                (e[2] for e in self.pending),
                dtype=np.int64,
                count=len(self.pending),
            )
            live_t = np.concatenate([live_t, new_t])
            live_s = np.concatenate([live_s, new_s])
            live_p = np.concatenate([live_p, new_p])
            self.pending.clear()
        order = np.argsort(live_t, kind="stable")
        self.times = live_t[order]
        self.servers = live_s[order]
        self.players = live_p[order]
        self.set_head(0)


def _fill_span_choices(free: np.ndarray, m: int) -> List[int]:
    """First ``m`` picks of repeated ``argmax(free)``-and-decrement.

    Token view: server ``s`` holds tokens at levels ``free_s .. 1``;
    repeated argmax (ties to the lowest index) consumes tokens in
    ``(-level, server)`` lexicographic order.  Only levels that can
    appear among the first ``m`` picks are materialised: the k-th pick's
    level is at least ``max(free) - k + 1``, because the running maximum
    drops by at most one per pick.  (One-pick spans never get here: the
    engine admits their argmax directly.)
    """
    if m < _TOKEN_SPAN_MIN:
        scratch = free.copy()
        picks = []
        for _ in range(m):
            s = int(scratch.argmax())
            picks.append(s)
            scratch[s] -= 1
        return picks
    floor = max(int(free.max()) - m, 0)
    reps = np.maximum(free - floor, 0)
    total = int(reps.sum())
    servers = np.repeat(np.arange(free.size), reps)
    block_start = np.repeat(np.cumsum(reps) - reps, reps)
    levels = np.repeat(free, reps) - (np.arange(total) - block_start)
    order = np.lexsort((servers, -levels))
    return servers[order[:m]].tolist()


def _occurrence_ranks(choices: np.ndarray) -> np.ndarray:
    """``ranks[i]`` = how many earlier span attempts chose the same server."""
    m = choices.size
    order = np.argsort(choices, kind="stable")
    grouped = choices[order]
    boundary = np.empty(m, dtype=bool)
    boundary[0] = True
    np.not_equal(grouped[1:], grouped[:-1], out=boundary[1:])
    starts = np.flatnonzero(boundary)
    lengths = np.diff(np.append(starts, m))
    ranks = np.empty(m, dtype=np.int64)
    ranks[order] = np.arange(m) - np.repeat(starts, lengths)
    return ranks


def _per_server_sessions(
    admissions: List[Tuple[int, int, float, float, bool]],
    traits,
    n_servers: int,
    rtt_table: np.ndarray,
    mult_table: Optional[np.ndarray],
):
    """Per-server views of ``admissions``, each in admission order.

    Returns the admissions per server, the session tables, the session
    RTTs and (with ``mult_table``, else ``()``) the QoE multipliers.  A
    session's id is its admission index; its player's traits are
    gathered here, once, rather than per admission, and so are its RTT
    and multiplier, which depend on its ``(player region, server)``
    alone: entries of the region x server tables the loop read.
    """
    server, player, start, end, storm = (
        zip(*admissions) if admissions else ((), (), (), (), ())
    )
    server = np.asarray(server, dtype=np.int64)
    player = np.asarray(player, dtype=np.int64)
    table = SessionTable(
        session_id=np.arange(server.size, dtype=np.int64),
        client_id=player,
        start=np.asarray(start, dtype=np.float64),
        end=np.asarray(end, dtype=np.float64),
        rate_multiplier=traits.rate_multipliers[player],
        link_class=traits.link_class_index[player].astype(np.uint8),
        wants_download=traits.wants_download[player]
        | np.asarray(storm, dtype=bool),
        link_class_names=traits.link_classes,
    )
    counts = np.bincount(server, minlength=n_servers)
    order = np.argsort(server, kind="stable")
    groups = np.split(order, np.cumsum(counts)[:-1])
    region = traits.region_index[player]
    rtts = rtt_table[region, server]
    mults = mult_table[region, server] if mult_table is not None else None
    return (
        counts,
        tuple(table.take(rows) for rows in groups),
        tuple(rtts[rows] for rows in groups),
        tuple(mults[rows] for rows in groups) if mults is not None else (),
    )


def run_columnar(sim) -> "MatchmakingResult":
    """Run ``sim``'s closed loop.

    Takes a :class:`~repro.matchmaking.engine.MatchmakingSimulator` and
    returns its :class:`~repro.matchmaking.engine.MatchmakingResult`.
    """
    from repro.matchmaking.engine import MatchmakingResult
    from repro.matchmaking.pool import PlayerTraits
    from repro.core.facility import AdmissionStats
    from repro import obs

    policy = sim.policy
    config = sim.config
    fleet = sim.fleet
    seed = sim.seed
    capacities = fleet.server_slots()
    n_servers = int(capacities.size)
    n_epochs = config.n_epochs
    horizon = config.horizon
    min_dur = float(config.session_duration_min)
    retry_p = config.retry_probability
    retry_mean = config.retry_delay_mean
    mu, sigma = lognormal_params(
        config.session_duration_mean, config.session_duration_cv
    )
    compiled = sim.compiled_scenario
    # `careful` slot accounting is needed once effective capacities can
    # drop below live occupancy (free counts may go negative; total_free
    # then means *admittable* slots, sum(max(free, 0)))
    careful = compiled is not None and compiled.any_capacity_modulation
    qoe = config.qoe
    qoe_on = qoe.enabled
    refusal_counts = (
        np.zeros(config.pool_size, dtype=np.int64) if qoe_on else None
    )
    qoe_repeat_refusals = 0

    # the vectorised spans are proven for the six stock classes only; a
    # subclass may override select, so membership is by identity, not
    # isinstance, and anything else takes the per-attempt step throughout
    policy_type = type(policy)
    stock = policy_type in POLICIES.values()
    is_random = policy_type is RandomPolicy
    is_least = policy_type is LeastLoadedPolicy
    is_capacity = policy_type is CapacityAwarePolicy
    is_latency = policy_type is LatencyAwarePolicy
    retry_on_reject = policy.retry_on_reject

    traits = PlayerTraits.draw(config, seed)
    rtt_rows = [sim.rtt.row(r) for r in range(sim.rtt.n_regions)]
    rtt_table = np.asarray(rtt_rows, dtype=np.float64)
    if is_latency:
        # the scorer's latency term is a function of the RTT row alone:
        # computed once per region, scored through the policy's own pick
        pick = policy.pick
        region_terms = [policy.rtt_terms(row) for row in rtt_rows]
    if qoe_on:
        # a session's multiplier depends on its (region, server) alone;
        # the per-admission reads take Python floats from lists
        mult_table = [
            [qoe.duration_multiplier(rtt_ms) for rtt_ms in row.tolist()]
            for row in rtt_rows
        ]
        retry_p_at: Dict[int, float] = {}
    player_region = traits.region_index
    player_state = np.zeros(config.pool_size, dtype=np.int8)
    last_server = [-1] * config.pool_size
    durations = _DurationSource(seed, n_servers, n_epochs, mu, sigma)

    occupancy = np.zeros(n_servers, dtype=np.int64)
    free = capacities.copy()
    total_free = int(capacities.sum())
    occupancy_trace = np.zeros((n_servers, n_epochs), dtype=np.int64)
    # (server, player, start, end, in_storm) per admission, in admission
    # order; the per-server sessions, RTTs, multipliers and admitted
    # attempt counts are built from it once, after the loop
    admissions: List[Tuple[int, int, float, float, bool]] = []
    per_server_attempts = np.zeros(n_servers, dtype=np.int64)
    per_server_rejections = np.zeros(n_servers, dtype=np.int64)

    deps = _DepartureColumns()
    pending = deps.pending
    heappush = heapq.heappush
    retries = []  # (retry_time, player) min-heap
    eff_cap = capacities

    attempts = admitted = rejected = balked = retried = 0
    repeat_assignments = 0
    full_least_count = 0
    segments = vectorised_attempts = fallback_attempts = 0
    obs_session = obs.current_session()
    prev_totals = (0, 0, 0, 0, 0)

    for epoch in range(n_epochs):
        t0 = epoch * config.epoch_length
        t1 = min(t0 + config.epoch_length, horizon)
        rng_pool = np.random.default_rng(
            derive_seed(seed, f"matchmaking-pool:{epoch}")
        )
        rng_assign = np.random.default_rng(
            derive_seed(seed, f"matchmaking-assign:{epoch}")
        )
        duration_streams: List[Optional[_DurationStream]] = [None] * n_servers
        # scenario modulation: per-epoch effective capacities mean the
        # incrementally-maintained free counts must be rebased
        if compiled is not None:
            eff_cap = compiled.capacities_at(epoch, capacities)
            free = eff_cap - occupancy
            total_free = (
                int(np.maximum(free, 0).sum()) if careful else int(free.sum())
            )
        share_scale = max(int(eff_cap.max()), 1)
        # careful mode: whether free.min() >= 0 is known to hold.  Once it
        # holds it holds for the rest of the epoch — every admission
        # needs free > 0 and drains only raise free
        free_nonneg = not careful
        assign_random = rng_assign.random
        assign_exponential = rng_assign.exponential
        in_storm = compiled is not None and compiled.forces_downloads(epoch)
        ep_mult_sum = 0.0
        ep_admitted_before = admitted
        ep_shortened = 0
        ep_repeat_refusals = 0

        # -- fresh arrivals from the idle pool --------------------------
        idle_players = np.flatnonzero(player_state == _IDLE)
        hazard = config.attempt_rate_at(0.5 * (t0 + t1))
        draws = rng_pool.random(idle_players.size)
        if compiled is not None:
            region_p = compiled.region_attempt_probabilities(
                epoch, hazard, t1 - t0
            )
            if (region_p == region_p[0]).all():
                # every region alike (an unscaled hazard): the per-player
                # gather would only repeat one value
                hits = (draws < region_p.item(0)).nonzero()[0]
            else:
                per_player = region_p[player_region[idle_players]]
                hits = (draws < per_player).nonzero()[0]
        else:
            p_attempt = 1.0 - math.exp(-hazard * (t1 - t0))
            hits = (draws < p_attempt).nonzero()[0]
        aplayers = idle_players[hits]
        offsets = rng_pool.random(hits.size)
        atimes = t0 + offsets * (t1 - t0)
        # -- retries that came due this epoch ---------------------------
        if retries and retries[0][0] < t1:
            due_t: List[float] = []
            due_p: List[int] = []
            while retries and retries[0][0] < t1:
                retry_at, player = heapq.heappop(retries)
                due_t.append(max(retry_at, t0))
                due_p.append(player)
            atimes = np.concatenate(
                [atimes, np.asarray(due_t, dtype=np.float64)]
            )
            aplayers = np.concatenate(
                [aplayers, np.asarray(due_p, dtype=np.int64)]
            )
        # chronological (time, player) order; players are unique within
        # an epoch, so lexsort on (player, time) keys is that order
        order = np.lexsort((aplayers, atimes))
        atimes = atimes[order]
        aplayers = aplayers[order]
        player_state[aplayers] = _BUSY
        n_attempts = int(atimes.size)
        atime_values = atimes.tolist()
        aplayer_values = aplayers.tolist()

        if is_random:
            # one integers(n_servers) per attempt, nothing else, so the
            # whole epoch's choices batch into a single draw
            choices = rng_assign.integers(n_servers, size=n_attempts)

        def _admit(k: int, chosen: int) -> None:
            nonlocal admitted, repeat_assignments, total_free
            nonlocal ep_mult_sum, ep_shortened
            player = aplayer_values[k]
            when = atime_values[k]
            stream = duration_streams[chosen]
            if stream is None:
                stream = duration_streams[chosen] = _DurationStream(
                    durations, epoch * n_servers + chosen
                )
            duration = stream.next()
            if qoe_on:
                # the multiplier scales the raw draw, before the
                # min-duration clamp, so duration >= min_dur still holds
                # (the window proofs rely on it)
                multiplier = mult_table[player_region.item(player)][chosen]
                duration *= multiplier
                ep_mult_sum += multiplier
                if multiplier < 1.0:
                    ep_shortened += 1
                refusal_counts[player] = 0
            if duration < min_dur:
                duration = min_dur
            end = when + duration
            if end > horizon:
                end = horizon
            heappush(pending, (end, chosen, player))
            occupancy[chosen] += 1
            free[chosen] -= 1
            total_free -= 1
            admissions.append((chosen, player, when, end, in_storm))
            admitted += 1
            if chosen == last_server[player]:
                repeat_assignments += 1
            last_server[player] = chosen

        def _refuse(k: int) -> None:
            """One refused attempt: QoE refusal count, then retry or balk.

            The retry uniform (then the delay exponential) is drawn
            only for ``retry_on_reject`` policies; everyone else balks.
            """
            nonlocal rejected, retried, balked
            nonlocal qoe_repeat_refusals, ep_repeat_refusals
            player = aplayer_values[k]
            rejected += 1
            if qoe_on:
                # escalation reuses the same uniform draw with a lower
                # threshold; counted before incrementing
                prior = refusal_counts.item(player)
                refusal_counts[player] = prior + 1
                if prior:
                    qoe_repeat_refusals += 1
                    ep_repeat_refusals += 1
                retry_p_k = retry_p_at.get(prior)
                if retry_p_k is None:
                    retry_p_k = retry_p_at[prior] = qoe.retry_probability(
                        retry_p, prior
                    )
            else:
                retry_p_k = retry_p
            if retry_on_reject and assign_random() < retry_p_k:
                retry_at = atime_values[k] + assign_exponential(retry_mean)
                if retry_at < horizon:
                    heapq.heappush(retries, (retry_at, player))
                    retried += 1
                    return
            balked += 1
            player_state[player] = _IDLE

        def _note_refusals(players: np.ndarray) -> None:
            """Batch equivalent of :func:`_refuse`'s QoE counting.

            Players attempt at most once per epoch (retries re-enter at
            the *next* epoch start), so the batched fancy-index
            increment matches the one-at-a-time order exactly.
            """
            nonlocal qoe_repeat_refusals, ep_repeat_refusals
            n_repeat = int(np.count_nonzero(refusal_counts[players]))
            qoe_repeat_refusals += n_repeat
            ep_repeat_refusals += n_repeat
            refusal_counts[players] += 1

        i = 0
        while i < n_attempts:
            when = atime_values[i]
            # the call only when a departure is due: most attempts find
            # none, and the peek is two float comparisons
            if deps.next_col <= when or (pending and pending[0][0] <= when):
                total_free += deps.drain(
                    when, False, occupancy, free, player_state, n_servers,
                    careful,
                )

            if (
                stock
                and total_free == 0
                and not is_random
                # the window walk assumes every in-window departure opens
                # exactly one admittable slot; a server drained below a
                # reduced effective capacity (negative free) breaks that,
                # so those epochs take the plain full span instead
                and (free_nonneg or (free_nonneg := int(free.min()) >= 0))
            ):
                # -- saturated window: batch a whole [when, when+min_dur)
                # window of the departure/attempt alternation ----------
                # No in-window admission can end inside the window (IEEE
                # float addition is monotone and durations >= min_dur),
                # so the only departures are the already-scheduled ones.
                # Walk the reflected free-slot count over the merged
                # event sequence: while it never exceeds one, the k-th
                # admitted attempt provably lands on the k-th
                # departure's server under all five deterministic
                # policies (unique open server; sticky's integers(1)
                # draw consumes no bits).  The walk stops before a
                # departure that would open a second slot; the generic
                # spans take over from there.
                # capped at the epoch boundary: a departure at or past
                # t1 is drained by the epoch-end strict drain (or the
                # next epoch), never early — consuming it here would
                # move its player into the idle pool one epoch too soon
                # and shift the next epoch's arrival draw
                window_end = min(when + min_dur, t1)
                if pending and pending[0][0] < window_end:
                    window_end = pending[0][0]
                dhead = deps.head
                dstop = int(deps.times.searchsorted(window_end, side="left"))
                if window_end > when and dstop > dhead:
                    # a plain loop, not array passes: the walk usually
                    # stops after a few events, long before window_end.
                    # Departures go before attempts at equal times,
                    # exactly as the per-attempt <=-drain does.  Event 0
                    # is the refused attempt at `when` (the loop drain
                    # consumed every departure <= when), so the walk
                    # always makes progress.
                    dep_t = deps.times[dhead:dstop].tolist()
                    n_dep = len(dep_t)
                    admits: List[int] = []
                    refused: List[int] = []
                    d = 0
                    k = i
                    slot_open = False
                    while k < n_attempts and atime_values[k] < window_end:
                        if d < n_dep and dep_t[d] <= atime_values[k]:
                            if slot_open:
                                break
                            slot_open = True
                            d += 1
                        elif slot_open:
                            slot_open = False
                            admits.append(k)
                            k += 1
                        else:
                            refused.append(k)
                            k += 1
                    dused = dhead + d
                    dep_servers = deps.servers[dhead:dused]
                    # consume the walked departures up front — the net
                    # occupancy effect commutes with admissions
                    deps.set_head(dused)
                    if d <= 4:
                        for server in dep_servers.tolist():
                            occupancy[server] -= 1
                            free[server] += 1
                    else:
                        counts = np.bincount(dep_servers, minlength=n_servers)
                        occupancy -= counts
                        free += counts
                    player_state[deps.players[dhead:dused]] = _IDLE
                    total_free += d
                    if is_capacity:
                        # refusals draw retries from the assign stream,
                        # admissions draw nothing from it: refusing in
                        # attempt order first keeps the draw order
                        for att in refused:
                            _refuse(att)
                    elif refused:
                        refused_players = aplayers[refused]
                        rejected += len(refused)
                        balked += len(refused)
                        if qoe_on:
                            _note_refusals(refused_players)
                        player_state[refused_players] = _IDLE
                        if is_least:
                            # refusals inside the window occur with every
                            # free count at zero, so argmax (select's
                            # attribution) is server 0
                            full_least_count += len(refused)
                    for att, server in zip(admits, dep_servers.tolist()):
                        _admit(att, server)
                    n_att_used = k - i
                    attempts += n_att_used
                    segments += 1
                    vectorised_attempts += n_att_used
                    i = k
                    continue
                # degenerate window (no departures due, or a horizon-edge
                # attempt): the plain full span below, up to the next
                # departure

            if stock and total_free == 0:
                # -- full-facility span: batch-refuse every attempt
                # strictly before the next departure -------------------
                j = int(atimes.searchsorted(deps.next_time(), side="left"))
                if j <= i:
                    j = i + 1
                count = j - i
                attempts += count
                segments += 1
                vectorised_attempts += count
                if is_capacity:
                    # retry draws interleave uniform/exponential on the
                    # assign stream, so they stay sequential — but no
                    # select() calls, no occupancy reads
                    for k in range(i, j):
                        _refuse(k)
                else:
                    if is_random:
                        counts = np.bincount(
                            choices[i:j], minlength=n_servers
                        )
                        per_server_attempts += counts
                        per_server_rejections += counts
                    elif is_least:
                        if careful:
                            # reduced capacities can leave negative free
                            # entries, so select's argmax attribution
                            # is no longer necessarily server 0 — free
                            # is static across the span, attribute once
                            target = int(free.argmax())
                            per_server_attempts[target] += count
                            per_server_rejections[target] += count
                        else:
                            # argmax of an all-zero free vector is
                            # server 0; accumulate in a plain int and
                            # fold in at the end
                            full_least_count += count
                    rejected += count
                    balked += count
                    if qoe_on:
                        _note_refusals(aplayers[i:j])
                    player_state[aplayers[i:j]] = _IDLE
                i = j
                continue

            if is_least or is_capacity:
                # -- fill span: argmax(free) admits every attempt until
                # a departure, a possible in-span session end, or free
                # capacity could intervene ----------------------------
                bound = min(deps.next_time(), min(when + min_dur, horizon))
                if (
                    total_free == 1
                    or i + 1 == n_attempts
                    or atime_values[i + 1] >= bound
                ):
                    # a one-attempt span: its single pick is the argmax
                    m = 1
                    j = i + 1
                    _admit(i, int(free.argmax()))
                else:
                    j = int(atimes.searchsorted(bound, side="left"))
                    j = min(j, i + total_free)
                    if j <= i:
                        j = i + 1
                    m = j - i
                    for k, chosen in enumerate(_fill_span_choices(free, m)):
                        _admit(i + k, chosen)
                attempts += m
                segments += 1
                vectorised_attempts += m
                i = j
                continue

            if is_random:
                # -- random span: rank-vs-free admits, batched refusals
                bound = min(deps.next_time(), min(when + min_dur, horizon))
                j = int(atimes.searchsorted(bound, side="left"))
                if j <= i:
                    j = i + 1
                m = j - i
                span_choices = choices[i:j]
                ranks = _occurrence_ranks(span_choices)
                admit_mask = ranks < free[span_choices]
                refused = np.flatnonzero(~admit_mask)
                if refused.size:
                    # admitted attempts are attributed inside _admit;
                    # refused ones count as attempt + rejection here
                    counts = np.bincount(
                        span_choices[refused], minlength=n_servers
                    )
                    per_server_attempts += counts
                    per_server_rejections += counts
                    rejected += int(refused.size)
                    balked += int(refused.size)
                    if qoe_on:
                        _note_refusals(aplayers[i + refused])
                    player_state[aplayers[i + refused]] = _IDLE
                for k in np.flatnonzero(admit_mask):
                    _admit(i + int(k), int(span_choices[k]))
                attempts += m
                segments += 1
                vectorised_attempts += m
                i = j
                continue

            # -- per-attempt step: one attempt through the policy's own
            # select, refused by the slot table when the server is full
            attempts += 1
            fallback_attempts += 1
            player = aplayer_values[i]
            if stock and total_free == 1:
                # the unique open server wins under every deterministic
                # stock policy, and sticky's integers(1) consumes no bits
                chosen = int(free.argmax())
            else:
                if is_latency:
                    # the engine's own free counts, the epoch's share
                    # scale and the region's cached latency terms
                    chosen = pick(
                        free, share_scale, region_terms[player_region[player]]
                    )
                else:
                    chosen = policy.select(
                        occupancy,
                        eff_cap,
                        last_server[player],
                        rng_assign,
                        rtt=rtt_rows[player_region[player]],
                    )
                if chosen is None or free[chosen] <= 0:
                    if chosen is not None:
                        per_server_attempts[chosen] += 1
                        per_server_rejections[chosen] += 1
                    _refuse(i)
                    i += 1
                    continue
            _admit(i, chosen)
            i += 1

        # occupancy sampled just before the epoch boundary (a strict
        # drain: sessions ending exactly at t1 still count)
        total_free += deps.drain(
            t1, True, occupancy, free, player_state, n_servers, careful
        )
        occupancy_trace[:, epoch] = occupancy
        deps.merge_pending()

        if obs_session is not None:
            totals = (attempts, admitted, rejected, balked, retried)
            row = {
                "policy": policy.name,
                "seed": seed,
                "epoch": epoch,
                "t0": t0,
                "t1": t1,
                "attempts": totals[0] - prev_totals[0],
                "admitted": totals[1] - prev_totals[1],
                "rejected": totals[2] - prev_totals[2],
                "balked": totals[3] - prev_totals[3],
                "retried": totals[4] - prev_totals[4],
                "occupancy": int(occupancy.sum()),
                "capacity": int(capacities.sum()),
            }
            # new fields ride only on qoe/scenario runs, keeping the
            # off-run artifact rows byte-identical to history
            if qoe_on:
                ep_admitted = admitted - ep_admitted_before
                row["qoe_mean_multiplier"] = (
                    ep_mult_sum / ep_admitted if ep_admitted else 1.0
                )
                row["qoe_sessions_shortened"] = ep_shortened
                row["qoe_repeat_refusals"] = ep_repeat_refusals
            if compiled is not None:
                row["effective_capacity"] = int(eff_cap.sum())
            obs_session.stream("matchmaking_epochs").write(row)
            prev_totals = totals

    admitted_per_server, sessions, session_rtts, qoe_multipliers = (
        _per_server_sessions(
            admissions,
            traits,
            n_servers,
            rtt_table,
            np.asarray(mult_table, dtype=np.float64) if qoe_on else None,
        )
    )
    per_server_attempts += admitted_per_server
    if full_least_count:
        per_server_attempts[0] += full_least_count
        per_server_rejections[0] += full_least_count

    counters = _counters()
    counters.segments.inc(segments)
    counters.vectorised_attempts.inc(vectorised_attempts)
    counters.scalar_fallback_attempts.inc(fallback_attempts)

    return MatchmakingResult(
        fleet=fleet,
        config=config,
        policy=policy.name,
        seed=seed,
        capacities=tuple(int(c) for c in capacities),
        sessions=sessions,
        occupancy=occupancy_trace,
        admission=AdmissionStats(
            attempts=attempts,
            admitted=admitted,
            rejected=rejected,
            balked=balked,
            retried=retried,
        ),
        per_server_attempts=per_server_attempts,
        per_server_rejections=per_server_rejections,
        repeat_assignments=repeat_assignments,
        rtt=sim.rtt,
        session_rtts=session_rtts,
        qoe_multipliers=qoe_multipliers,
        qoe_repeat_refusals=qoe_repeat_refusals,
        scenario_name=(sim.scenario.name if sim.scenario is not None else None),
    )
