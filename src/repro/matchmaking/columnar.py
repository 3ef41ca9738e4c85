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
* **Saturated windows** (the four deterministic non-retry policies) —
  once the facility is full, the steady state is a dense
  departure/attempt alternation.  Over a ``[when, when +
  session_duration_min)`` window (capped at the epoch boundary) no
  in-window admission can end inside the window, so the departure set
  is known up front; running the reflected free-slot walk over the
  merged event sequence classifies every attempt, and for the longest
  prefix where the free count never exceeds one the ``k``-th admitted
  attempt provably lands on the ``k``-th departure's server (unique
  open server; ``sticky``'s ``integers(1)`` draw consumes zero bits).
  This batches the dominant post-warmup cadence thousands of events at
  a time.
* **Per-attempt step** — everything else (``sticky`` draws with a
  live-state-dependent bound, ``lowest_rtt``/``latency_aware`` re-rank
  as occupancy moves, every attempt of a custom policy) calls the
  policy's own ``select`` on the live occupancy, so each policy is
  defined once, in :mod:`repro.matchmaking.policies`.  When exactly one
  slot is open, the deterministic stock policies provably choose the
  single open server — and ``sticky``'s ``integers(1)`` draw consumes
  zero bits from the stream — so the common post-warmup
  ``[departure, admission]`` cadence skips the call.

Span boundaries are conservative three ways: the next pending departure
(strictly later than the current attempt), the earliest time an
*in-span* admission could end (``when + session_duration_min``, valid
because IEEE float addition is monotone, truncated at the horizon), and
— for fill spans — the remaining free capacity.  Within such a span the
per-attempt loop would drain nothing and admit/refuse exactly as the
batch does.

RNG discipline: the pool stream is consumed by two ``uniform(size=…)``
calls per epoch; the assign stream is only touched where the
per-attempt loop touches it (``random``'s pre-draw, ``select``'s own
draws, the retry draws, in order); per-``(server, epoch)`` duration
streams are refilled in blocks (``lognormal(mu, sigma, size=k)``
consumes identically to ``k`` one-at-a-time draws).  The golden,
property, QoE and shard/cache parity suites pin the result bit-identical
to the oracle.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.gameserver.population import SessionRecord
from repro.matchmaking.policies import (
    POLICIES,
    CapacityAwarePolicy,
    LeastLoadedPolicy,
    RandomPolicy,
)
from repro.sim.random import derive_seed, lognormal_params

#: Player lifecycle states.
_IDLE, _WAITING, _PLAYING = 0, 1, 2

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


class _DurationStream:
    """Block-buffered session-duration draws for one ``(server, epoch)``.

    ``Generator.lognormal(mu, sigma, size=k)`` consumes the underlying
    bit stream exactly as ``k`` scalar calls would, so refilling in
    blocks keeps the draw sequence bit-identical to one
    ``sample_lognormal`` per admission while amortising the per-call
    Generator overhead.  Over-draw past the last admission is
    harmless: the stream is scoped to this (server, epoch) and never
    read again.
    """

    __slots__ = ("_rng", "_mu", "_sigma", "_buf", "_pos")

    _BLOCK = 32

    def __init__(self, seed: int, mu: float, sigma: float) -> None:
        self._rng = np.random.default_rng(seed)
        self._mu = mu
        self._sigma = sigma
        self._buf = self._rng.lognormal(mu, sigma, size=self._BLOCK)
        self._pos = 0

    def next(self) -> float:
        if self._pos >= self._buf.size:
            self._buf = self._rng.lognormal(
                self._mu, self._sigma, size=self._BLOCK
            )
            self._pos = 0
        value = float(self._buf[self._pos])
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
    """

    __slots__ = ("times", "servers", "players", "head", "pending")

    def __init__(self) -> None:
        self.times = np.empty(0, dtype=np.float64)
        self.servers = np.empty(0, dtype=np.int64)
        self.players = np.empty(0, dtype=np.int64)
        self.head = 0
        self.pending: List[Tuple[float, int, int]] = []

    def next_time(self) -> float:
        """Earliest pending departure time (``inf`` when none)."""
        if self.head < self.times.size:
            earliest = self.times[self.head]
        else:
            earliest = math.inf
        if self.pending and self.pending[0][0] < earliest:
            earliest = self.pending[0][0]
        return earliest

    def push(self, end: float, server: int, player: int) -> None:
        heapq.heappush(self.pending, (end, server, player))

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
        # fast exit: nothing due — one scalar peek per source instead of
        # a searchsorted per attempt
        if (
            self.head >= self.times.size
            or (
                self.times[self.head] >= until
                if strict
                else self.times[self.head] > until
            )
        ) and (
            not self.pending
            or (
                self.pending[0][0] >= until
                if strict
                else self.pending[0][0] > until
            )
        ):
            return 0
        opened = 0
        stop = int(
            self.times.searchsorted(until, side="left" if strict else "right")
        )
        if stop > self.head:
            lo, hi = self.head, stop
            if hi - lo <= 4:
                # the steady-state case is one departure at a time; a
                # bincount over every server would dwarf the work
                for k in range(lo, hi):
                    server = self.servers[k]
                    occupancy[server] -= 1
                    free[server] += 1
                    if not careful or free[server] > 0:
                        opened += 1
                    player_state[self.players[k]] = _IDLE
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
            self.head = hi
        while self.pending and (
            self.pending[0][0] < until
            if strict
            else self.pending[0][0] <= until
        ):
            _, server, player = heapq.heappop(self.pending)
            occupancy[server] -= 1
            free[server] += 1
            if not careful or free[server] > 0:
                opened += 1
            player_state[player] = _IDLE
        return opened

    def merge_pending(self) -> None:
        """Fold the epoch's admissions into the sorted columns."""
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
            self.pending = []
        order = np.argsort(live_t, kind="stable")
        self.times = live_t[order]
        self.servers = live_s[order]
        self.players = live_p[order]
        self.head = 0


def _fill_span_choices(free: np.ndarray, m: int) -> np.ndarray:
    """First ``m`` picks of repeated ``argmax(free)``-and-decrement.

    Token view: server ``s`` holds tokens at levels ``free_s .. 1``;
    repeated argmax (ties to the lowest index) consumes tokens in
    ``(-level, server)`` lexicographic order.  Only levels that can
    appear among the first ``m`` picks are materialised: the k-th pick's
    level is at least ``max(free) - k + 1``, because the running maximum
    drops by at most one per pick.
    """
    if m == 1:
        return (int(free.argmax()),)
    if m < _TOKEN_SPAN_MIN:
        scratch = free.copy()
        picks = np.empty(m, dtype=np.int64)
        for k in range(m):
            picks[k] = s = int(scratch.argmax())
            scratch[s] -= 1
        return picks
    floor = max(int(free.max()) - m, 0)
    reps = np.maximum(free - floor, 0)
    total = int(reps.sum())
    servers = np.repeat(np.arange(free.size), reps)
    block_start = np.repeat(np.cumsum(reps) - reps, reps)
    levels = np.repeat(free, reps) - (np.arange(total) - block_start)
    order = np.lexsort((servers, -levels))
    return servers[order[:m]]


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
    profiles = fleet.server_profiles()
    capacities = np.asarray([p.max_players for p in profiles], dtype=np.int64)
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
    qoe_multipliers: List[List[float]] = [[] for _ in range(n_servers)]
    qoe_repeat_refusals = 0

    # the vectorised spans are proven for the six stock classes only; a
    # subclass may override select, so membership is by identity, not
    # isinstance, and anything else takes the per-attempt step throughout
    policy_type = type(policy)
    stock = policy_type in POLICIES.values()
    is_random = policy_type is RandomPolicy
    is_least = policy_type is LeastLoadedPolicy
    is_capacity = policy_type is CapacityAwarePolicy
    retry_on_reject = policy.retry_on_reject

    traits = PlayerTraits.draw(config, seed)
    rtt_rows = [sim.rtt.row(r) for r in range(sim.rtt.n_regions)]
    player_region = traits.region_index
    rate_multipliers = traits.rate_multipliers
    wants_download_arr = traits.wants_download
    player_state = np.zeros(config.pool_size, dtype=np.int8)
    last_server = np.full(config.pool_size, -1, dtype=np.int64)

    occupancy = np.zeros(n_servers, dtype=np.int64)
    free = capacities.copy()
    total_free = int(capacities.sum())
    occupancy_trace = np.zeros((n_servers, n_epochs), dtype=np.int64)
    sessions = [[] for _ in range(n_servers)]
    session_rtts = [[] for _ in range(n_servers)]
    per_server_attempts = np.zeros(n_servers, dtype=np.int64)
    per_server_rejections = np.zeros(n_servers, dtype=np.int64)
    # per-admission attempt attribution accumulates in a plain list —
    # scalar increments of a numpy array are several times slower —
    # and folds into per_server_attempts at the end
    admit_attempts = [0] * n_servers

    deps = _DepartureColumns()
    retries = []  # (retry_time, player) min-heap
    eff_cap = capacities

    attempts = admitted = rejected = balked = retried = 0
    repeat_assignments = 0
    next_session_id = 0
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
        duration_streams: Dict[int, _DurationStream] = {}
        # scenario modulation: per-epoch effective capacities mean the
        # incrementally-maintained free counts must be rebased
        if compiled is not None:
            eff_cap = compiled.capacities_at(epoch, capacities)
            free = eff_cap - occupancy
            total_free = (
                int(np.maximum(free, 0).sum()) if careful else int(free.sum())
            )
        in_storm = compiled is not None and compiled.forces_downloads(epoch)
        ep_mult_sum = 0.0
        ep_mult_count = 0
        ep_shortened = 0
        ep_repeat_refusals = 0

        # -- fresh arrivals from the idle pool --------------------------
        idle_players = np.flatnonzero(player_state == _IDLE)
        hazard = config.attempt_rate_at(0.5 * (t0 + t1))
        draws = rng_pool.uniform(size=idle_players.size)
        if compiled is not None:
            mask = draws < compiled.attempt_probabilities(
                epoch, hazard, t1 - t0, player_region[idle_players]
            )
        else:
            p_attempt = 1.0 - math.exp(-hazard * (t1 - t0))
            mask = draws < p_attempt
        aplayers = idle_players[mask]
        offsets = rng_pool.uniform(size=int(mask.sum()))
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
        player_state[aplayers] = _WAITING
        n_attempts = int(atimes.size)

        if is_random:
            # one integers(n_servers) per attempt, nothing else, so the
            # whole epoch's choices batch into a single draw
            choices = rng_assign.integers(n_servers, size=n_attempts)

        def _admit(k: int, chosen: int) -> None:
            nonlocal admitted, next_session_id, repeat_assignments, total_free
            nonlocal ep_mult_sum, ep_mult_count, ep_shortened
            player = int(aplayers[k])
            when = atimes[k]
            admit_attempts[chosen] += 1
            stream = duration_streams.get(chosen)
            if stream is None:
                stream = duration_streams[chosen] = _DurationStream(
                    derive_seed(
                        seed, f"matchmaking-server:{chosen}:{epoch}"
                    ),
                    mu,
                    sigma,
                )
            duration = stream.next()
            rtt_ms = float(rtt_rows[player_region[player]][chosen])
            if qoe_on:
                # the multiplier scales the raw draw, before the
                # min-duration clamp, so duration >= min_dur still holds
                # (the window proofs rely on it)
                multiplier = qoe.duration_multiplier(rtt_ms)
                duration *= multiplier
                qoe_multipliers[chosen].append(multiplier)
                ep_mult_sum += multiplier
                ep_mult_count += 1
                if multiplier < 1.0:
                    ep_shortened += 1
                refusal_counts[player] = 0
            if duration < min_dur:
                duration = min_dur
            end = when + duration
            if end > horizon:
                end = horizon
            deps.push(end, chosen, player)
            occupancy[chosen] += 1
            free[chosen] -= 1
            total_free -= 1
            sessions[chosen].append(
                SessionRecord(
                    session_id=next_session_id,
                    client_id=player,
                    start=when,
                    end=end,
                    rate_multiplier=float(rate_multipliers[player]),
                    link_class=traits.link_class_of(player),
                    wants_download=bool(wants_download_arr[player])
                    or in_storm,
                )
            )
            session_rtts[chosen].append(rtt_ms)
            next_session_id += 1
            admitted += 1
            if chosen == int(last_server[player]):
                repeat_assignments += 1
            last_server[player] = chosen
            player_state[player] = _PLAYING

        def _refuse(k: int) -> None:
            """One refused attempt: QoE refusal count, then retry or balk.

            The retry uniform (then the delay exponential) is drawn
            only for ``retry_on_reject`` policies; everyone else balks.
            """
            nonlocal rejected, retried, balked
            nonlocal qoe_repeat_refusals, ep_repeat_refusals
            player = int(aplayers[k])
            rejected += 1
            if qoe_on:
                # escalation reuses the same uniform draw with a lower
                # threshold; counted before incrementing
                prior = int(refusal_counts[player])
                refusal_counts[player] += 1
                if prior:
                    qoe_repeat_refusals += 1
                    ep_repeat_refusals += 1
                retry_p_k = qoe.retry_probability(retry_p, prior)
            else:
                retry_p_k = retry_p
            if retry_on_reject and rng_assign.uniform() < retry_p_k:
                retry_at = float(atimes[k]) + float(
                    rng_assign.exponential(retry_mean)
                )
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
            when = atimes[i]
            total_free += deps.drain(
                when, False, occupancy, free, player_state, n_servers,
                careful,
            )

            if (
                stock
                and total_free == 0
                and not (is_random or is_capacity)
                # the window walk assumes every in-window departure opens
                # exactly one admittable slot; a server drained below a
                # reduced effective capacity (negative free) breaks that,
                # so those epochs take the plain full span instead
                and (not careful or int(free.min()) >= 0)
            ):
                # -- saturated window: batch a whole [when, when+min_dur)
                # window of the departure/attempt alternation ----------
                # No in-window admission can end inside the window (IEEE
                # float addition is monotone and durations >= min_dur),
                # so the only departures are the already-scheduled ones.
                # Run the reflected free-slot walk over the merged event
                # sequence: while the free count never exceeds one, the
                # k-th admitted attempt provably lands on the k-th
                # departure's server under all four deterministic
                # policies (unique open server; sticky's integers(1)
                # draw consumes no bits).  A window where two departures
                # pile up before an attempt bails to the generic spans.
                # capped at the epoch boundary: a departure at or past
                # t1 is drained by the epoch-end strict drain (or the
                # next epoch), never early — consuming it here would
                # move its player into the idle pool one epoch too soon
                # and shift the next epoch's arrival draw
                window_end = min(float(when) + min_dur, t1)
                if deps.pending and deps.pending[0][0] < window_end:
                    window_end = deps.pending[0][0]
                dhead = deps.head
                dstop = int(deps.times.searchsorted(window_end, side="left"))
                dep_t = deps.times[dhead:dstop]
                n_dep = dstop - dhead
                handled = False
                if window_end > when and n_dep > 0:
                    jw = int(atimes.searchsorted(window_end, side="left"))
                    n_att = jw - i
                    att_t = atimes[i:jw]
                    ev_times = np.concatenate([dep_t, att_t])
                    ev_is_att = np.zeros(n_dep + n_att, dtype=np.int8)
                    ev_is_att[n_dep:] = 1
                    # departures sort before attempts at equal times,
                    # exactly as the per-attempt <=-drain does
                    ev_order = np.lexsort((ev_is_att, ev_times))
                    typ = ev_is_att[ev_order]
                    steps = np.where(typ == 0, 1, -1)
                    walk = np.cumsum(steps)
                    reflected = walk - np.minimum.accumulate(
                        np.minimum(walk, 0)
                    )
                    # process the longest prefix where the free count
                    # never exceeds one; the event at the cut (a second
                    # piled-up departure) is left for the generic spans.
                    # Event 0 is always the attempt at `when` (the loop
                    # drain consumed every departure <= when), so the
                    # prefix contains at least one attempt and the loop
                    # makes progress.
                    if int(reflected.max()) <= 1:
                        cut = reflected.size
                    else:
                        cut = int(np.argmax(reflected >= 2))
                    typ_prefix = typ[:cut]
                    n_dep_used = int(np.count_nonzero(typ_prefix == 0))
                    n_att_used = cut - n_dep_used
                    if n_att_used > 0:
                        before = np.empty(cut, dtype=np.int64)
                        before[0] = 0
                        before[1:] = reflected[: cut - 1]
                        admit_mask_w = before[typ_prefix == 1] > 0
                        dused = dhead + n_dep_used
                        dep_servers = deps.servers[dhead:dused]
                        # consume the prefix departures up front — the
                        # net occupancy effect commutes with admissions
                        deps.head = dused
                        if n_dep_used <= 4:
                            for k in range(dhead, dused):
                                server = deps.servers[k]
                                occupancy[server] -= 1
                                free[server] += 1
                        elif n_dep_used:
                            counts = np.bincount(
                                dep_servers, minlength=n_servers
                            )
                            occupancy -= counts
                            free += counts
                        player_state[deps.players[dhead:dused]] = _IDLE
                        total_free += n_dep_used
                        refused = np.flatnonzero(~admit_mask_w)
                        if refused.size:
                            rejected += int(refused.size)
                            balked += int(refused.size)
                            if qoe_on:
                                _note_refusals(aplayers[i + refused])
                            player_state[aplayers[i + refused]] = _IDLE
                            if is_least:
                                # refusals inside the window occur with
                                # every free count at zero, so argmax
                                # (select's attribution) is server 0
                                full_least_count += int(refused.size)
                        for rank, att in enumerate(
                            np.flatnonzero(admit_mask_w)
                        ):
                            _admit(i + int(att), int(dep_servers[rank]))
                        attempts += n_att_used
                        segments += 1
                        vectorised_attempts += n_att_used
                        i += n_att_used
                        handled = True
                if handled:
                    continue
                # degenerate window (no departures due, a horizon-edge
                # attempt, or free count would exceed one): the plain
                # full span below, up to the next departure

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
                bound = min(deps.next_time(), min(float(when) + min_dur, horizon))
                j = int(atimes.searchsorted(bound, side="left"))
                j = min(j, i + total_free)
                if j <= i:
                    j = i + 1
                m = j - i
                for k, chosen in enumerate(_fill_span_choices(free, m)):
                    _admit(i + k, int(chosen))
                attempts += m
                segments += 1
                vectorised_attempts += m
                i = j
                continue

            if is_random:
                # -- random span: rank-vs-free admits, batched refusals
                bound = min(deps.next_time(), min(float(when) + min_dur, horizon))
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
            player = int(aplayers[i])
            if stock and total_free == 1:
                # the unique open server wins under every deterministic
                # stock policy, and sticky's integers(1) consumes no bits
                chosen = int(free.argmax())
            else:
                chosen = policy.select(
                    occupancy,
                    eff_cap,
                    int(last_server[player]),
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
                row["qoe_mean_multiplier"] = (
                    ep_mult_sum / ep_mult_count if ep_mult_count else 1.0
                )
                row["qoe_sessions_shortened"] = ep_shortened
                row["qoe_repeat_refusals"] = ep_repeat_refusals
            if compiled is not None:
                row["effective_capacity"] = int(eff_cap.sum())
            obs_session.stream("matchmaking_epochs").write(row)
            prev_totals = totals
        obs.progress(
            "matchmaking.columnar.epochs",
            epoch + 1,
            n_epochs,
            policy=policy.name,
        )

    per_server_attempts += np.asarray(admit_attempts, dtype=np.int64)
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
        sessions=tuple(tuple(per_server) for per_server in sessions),
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
        session_rtts=tuple(
            np.asarray(rtts, dtype=float) for rtts in session_rtts
        ),
        qoe_multipliers=(
            tuple(np.asarray(mults, dtype=float) for mults in qoe_multipliers)
            if qoe_on
            else ()
        ),
        qoe_repeat_refusals=qoe_repeat_refusals,
        scenario_name=(sim.scenario.name if sim.scenario is not None else None),
    )
