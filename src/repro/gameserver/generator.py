"""Packet-level traffic generation.

Materialises every packet of a time window of the simulated server's
life: per-client update streams (periodic with path jitter — inbound is
*not* tick-synchronised), the server's tick-synchronised snapshot floods
(outbound *is* — the paper's defining burst structure), connection
handshakes, disconnects, and rate-limited download transfers.  Map-change
downtime and outages gate all game traffic to zero.

Synthesis runs in two passes, with no per-packet event dispatch.  Per
session, only what must stay in order runs: the session's random draws
(update times, snapshot ticks and jitter, payload draws, downloads) and
the masks that size the next draw.  Per window, once: the direction,
address and port columns, round intensity and the payload rounding and
clip, then one stable sort by timestamp — so multi-hour windows
(millions of packets) generate in seconds.  The result is a standard
:class:`repro.trace.Trace`, indistinguishable to the analysis layer from
a parsed capture.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import List, Optional, Tuple

import numpy as np

from repro.gameserver.config import ServerProfile
from repro.gameserver.downloads import DownloadScheduler
from repro.gameserver.population import PopulationResult, SessionRecord, simulate_population
from repro.gameserver.protocol import CONTROL_PAYLOADS, MessageType, ProtocolModel
from repro.gameserver.rounds import RoundSchedule
from repro.sim.random import RandomStreams, sample_truncated_normal
from repro.trace.packet import Direction
from repro.trace.trace import Trace

#: Within-tick serialisation window: all snapshots of one tick leave the
#: server NIC inside this many seconds (back-to-back small packets).
TICK_SERIALIZATION_WINDOW = 0.004


def _session_port(session: SessionRecord) -> int:
    """Stable per-session client-side UDP port (distinct flows per session)."""
    return 1024 + (session.session_id * 7 + session.client_id) % 60000


class _Gaps:
    """The population's gap intervals (map changes, outages), sorted by start."""

    def __init__(self, gaps: List[Tuple[float, float]]) -> None:
        self._start_list = [g[0] for g in gaps]
        self._end_list = [g[1] for g in gaps]
        self._starts = np.asarray(self._start_list, dtype=float)
        self._ends = np.asarray(self._end_list, dtype=float)

    def keep(self, times: np.ndarray) -> np.ndarray:
        """The sorted ``times`` that fall in no gap.

        A time is tested against the last gap starting at or before it.
        Only the gaps from the last one starting at or before
        ``times[0]`` to the last one starting at or before ``times[-1]``
        can decide a time of the block, so the mask runs over those
        alone, and not at all when none of them ends after ``times[0]``.
        """
        if times.size == 0:
            return times
        first, last = float(times[0]), float(times[-1])
        lo = max(bisect_right(self._start_list, first) - 1, 0)
        hi = bisect_right(self._start_list, last)
        if not any(gap_end > first for gap_end in self._end_list[lo:hi]):
            return times
        index = np.searchsorted(self._starts[lo:hi], times, side="right") - 1
        inside = np.zeros(times.shape, dtype=bool)
        valid = index >= 0
        inside[valid] = times[valid] < self._ends[lo:hi][index[valid]]
        return times[~inside]


class _WindowRows:
    """One window's packets, as drawn, in the order they are appended.

    Each session appends a block of client updates, then a block of
    snapshots towards the client: per block its timestamps, its raw
    truncated-normal payload draws, and one entry of the fields shared
    by every row of the block (count, direction, addresses, ports).
    Scalar rows (handshakes, download chunks and acks) go to ``scalars``
    and follow every block, in the order they were emitted.  Columns are
    assembled from these once per window.
    """

    __slots__ = ("times", "draws", "blocks", "scalars")

    def __init__(self) -> None:
        self.times: List[np.ndarray] = []
        self.draws: List[np.ndarray] = []
        self.blocks: List[Tuple[int, int, int, int, int, int]] = []
        self.scalars: List[Tuple[float, int, int, int, int, int, int]] = []

    def add_block(
        self,
        times: np.ndarray,
        draws: np.ndarray,
        direction: Direction,
        src: int,
        dst: int,
        src_port: int,
        dst_port: int,
    ) -> None:
        self.times.append(times)
        self.draws.append(draws)
        self.blocks.append((times.size, int(direction), src, dst, src_port, dst_port))

    def add(
        self,
        when: float,
        direction: Direction,
        src: int,
        dst: int,
        src_port: int,
        dst_port: int,
        payload: int,
    ) -> None:
        self.scalars.append((when, int(direction), src, dst, src_port, dst_port, payload))


class PacketLevelGenerator:
    """Generates a :class:`Trace` for a window of the server's lifetime.

    Parameters
    ----------
    profile:
        Calibrated server profile.
    population:
        A pre-computed session-level result; one is simulated (from
        ``seed``) when omitted, so the three fidelity levels can share a
        single population realisation.
    seed:
        Master seed for packet-level randomness.
    """

    def __init__(
        self,
        profile: ServerProfile,
        population: Optional[PopulationResult] = None,
        seed: int = 0,
    ) -> None:
        self.profile = profile
        self.population = (
            population
            if population is not None
            else simulate_population(profile, seed=seed)
        )
        self.protocol = ProtocolModel.from_profile(profile)
        self.rounds = RoundSchedule(profile, seed=seed)
        self.streams = RandomStreams(seed)
        self.server_value = profile.server_address.value
        self.client_base = profile.client_address_base.value

    # ------------------------------------------------------------------
    def generate(
        self,
        window_start: float = 0.0,
        window_end: Optional[float] = None,
        include_downloads: bool = True,
    ) -> Trace:
        """Materialise all packets with timestamps in ``[window_start, window_end)``.

        Timestamps in the returned trace are absolute (trace-relative to
        the simulated week), so figures can label them directly.
        """
        profile = self.profile
        if window_end is None:
            window_end = profile.duration
        if not 0.0 <= window_start < window_end <= profile.duration + 1e-9:
            raise ValueError(
                f"window [{window_start}, {window_end}) outside horizon "
                f"[0, {profile.duration}]"
            )
        gaps = _Gaps(self.population.gap_intervals())
        rows = _WindowRows()
        download_scheduler = DownloadScheduler(profile) if include_downloads else None
        for session in self.population.active_sessions(window_start, window_end):
            self._draw_session(
                rows, session, window_start, window_end, gaps, download_scheduler
            )
        return self._assemble(rows)

    # ------------------------------------------------------------------
    # per-session draws
    # ------------------------------------------------------------------
    def _session_rng(self, session: SessionRecord) -> np.random.Generator:
        return self.streams.spawn(f"session-{session.session_id}").get("packets")

    def _draw_session(
        self,
        rows: _WindowRows,
        session: SessionRecord,
        window_start: float,
        window_end: float,
        gaps: _Gaps,
        download_scheduler: Optional[DownloadScheduler],
    ) -> None:
        rng = self._session_rng(session)
        client_addr = (self.client_base + session.client_id) & 0xFFFFFFFF
        port = _session_port(session)
        start = max(session.start, window_start)
        end = min(session.end, window_end)
        if end <= start:
            return

        self._emit_handshake(rows, session, client_addr, port, window_start, window_end)
        self._draw_client_updates(rows, session, rng, client_addr, port, start, end, gaps)
        self._draw_snapshots(rows, session, rng, client_addr, port, start, end, gaps)
        if download_scheduler is not None and session.wants_download:
            self._emit_download(
                rows,
                session,
                rng,
                client_addr,
                port,
                window_start,
                window_end,
                download_scheduler,
            )

    def _emit_handshake(
        self,
        rows: _WindowRows,
        session: SessionRecord,
        client_addr: int,
        port: int,
        window_start: float,
        window_end: float,
    ) -> None:
        """Connect request/reply at session start, disconnect at end."""
        events = (
            (session.start, Direction.IN, CONTROL_PAYLOADS[MessageType.CONNECT_REQUEST]),
            (
                session.start + 0.04,
                Direction.OUT,
                CONTROL_PAYLOADS[MessageType.CONNECT_REPLY],
            ),
            (session.end, Direction.IN, CONTROL_PAYLOADS[MessageType.DISCONNECT]),
        )
        for when, direction, payload in events:
            if not window_start <= when < window_end:
                continue
            if direction is Direction.IN:
                rows.add(when, direction, client_addr, self.server_value, port,
                         self.profile.server_port, payload)
            else:
                rows.add(when, direction, self.server_value, client_addr,
                         self.profile.server_port, port, payload)

    def _draw_client_updates(
        self,
        rows: _WindowRows,
        session: SessionRecord,
        rng: np.random.Generator,
        client_addr: int,
        port: int,
        start: float,
        end: float,
        gaps: _Gaps,
    ) -> None:
        """The client's periodic movement/command stream (inbound)."""
        profile = self.profile
        interval = profile.client_update_interval / session.rate_multiplier
        duration = end - start
        count = int(duration / interval * 1.15) + 8
        spacings = np.maximum(
            0.004, rng.normal(interval, profile.client_update_jitter, size=count)
        )
        times = start + rng.uniform(0.0, interval) + np.cumsum(spacings)
        times = gaps.keep(times[times < end])
        if times.size == 0:
            return
        model = self.protocol.client_update
        draws = sample_truncated_normal(
            rng, model.mean, model.std, model.minimum, model.maximum, size=times.size
        )
        rows.add_block(times, draws, Direction.IN, client_addr, self.server_value,
                       port, profile.server_port)

    def _snapshot_probability(self, session: SessionRecord) -> float:
        """Per-tick send probability towards this client.

        High-rate clients configure larger cl_updaterate values, so their
        effective per-tick probability saturates at 1.0.
        """
        return float(
            min(1.0, self.profile.snapshot_send_probability * session.rate_multiplier)
        )

    def _draw_snapshots(
        self,
        rows: _WindowRows,
        session: SessionRecord,
        rng: np.random.Generator,
        client_addr: int,
        port: int,
        start: float,
        end: float,
        gaps: _Gaps,
    ) -> None:
        """The server's tick-synchronised state flood (outbound)."""
        profile = self.profile
        tick = profile.tick_interval
        first_tick = np.ceil(start / tick) * tick
        if first_tick >= end:
            return
        ticks = np.arange(first_tick, end, tick)
        sent = rng.uniform(size=ticks.size) < self._snapshot_probability(session)
        ticks = gaps.keep(ticks[sent])
        if ticks.size == 0:
            return
        # Stable per-client serialisation offset within the tick burst plus
        # sub-millisecond scheduling noise.
        offset = rng.uniform(0.0, TICK_SERIALIZATION_WINDOW)
        times = ticks + offset + rng.normal(0.0, 0.0004, size=ticks.size)
        np.maximum(times, ticks, out=times)  # never before the tick itself
        model = self.protocol.server_snapshot
        draws = sample_truncated_normal(
            rng, model.mean, model.std, model.minimum, model.maximum, size=times.size
        )
        rows.add_block(times, draws, Direction.OUT, self.server_value, client_addr,
                       profile.server_port, port)

    def _emit_download(
        self,
        rows: _WindowRows,
        session: SessionRecord,
        rng: np.random.Generator,
        client_addr: int,
        port: int,
        window_start: float,
        window_end: float,
        scheduler: DownloadScheduler,
    ) -> None:
        """Rate-limited logo/decal transfer shortly after joining."""
        transfer = scheduler.plan_transfer(rng, session.start + 0.5)
        profile = self.profile
        for when, size in zip(transfer.chunk_times, transfer.chunk_sizes):
            if when >= session.end or not window_start <= when < window_end:
                continue
            rows.add(when, Direction.OUT, self.server_value, client_addr,
                     profile.server_port, port, int(size))
        for when in transfer.ack_times:
            if when >= session.end or not window_start <= when < window_end:
                continue
            rows.add(when, Direction.IN, client_addr, self.server_value,
                     port, profile.server_port, transfer.ack_size)

    # ------------------------------------------------------------------
    # per-window assembly
    # ------------------------------------------------------------------
    def _assemble(self, rows: _WindowRows) -> Trace:
        """Freeze the window's rows into a time-sorted :class:`Trace`.

        One stable argsort over every timestamp in append order, then one
        gather per column, so rows with equal timestamps keep their append
        order: blocks session by session, then the scalar rows.  The draw
        lists are released as soon as they are concatenated, so only a
        few full-size columns are alive at once.
        """
        profile = self.profile
        if not rows.blocks and not rows.scalars:
            return Trace.empty(profile.server_address)
        # one row per block: count, direction, src, dst, src port, dst port
        blocks = np.asarray(rows.blocks, dtype=np.int64).reshape(-1, 6)
        counts = blocks[:, 0]
        n_blocks = int(counts.sum())
        # one sequence per field: time, direction, src, dst, ports, payload
        scalars = list(zip(*rows.scalars)) or [()] * 7

        def column(field: int, dtype: type) -> np.ndarray:
            return np.concatenate((
                np.repeat(blocks[:, field].astype(dtype), counts),
                np.asarray(scalars[field], dtype=dtype),
            ))

        timestamps = np.concatenate(
            rows.times + [np.asarray(scalars[0], dtype=np.float64)]
        )
        rows.times.clear()

        # payloads: PayloadModel.sample's rounding for every block, then
        # round-intensity scaling and the outbound clip for snapshots
        base = np.rint(np.concatenate(rows.draws + [np.empty(0)])).astype(np.int64)
        rows.draws.clear()
        payloads = np.concatenate(
            (base.astype(np.uint32), np.asarray(scalars[6], dtype=np.uint32))
        )
        snapshot = np.repeat(blocks[:, 1] == int(Direction.OUT), counts)
        intensity = self.rounds.intensity(timestamps[:n_blocks][snapshot])
        payloads[:n_blocks][snapshot] = np.clip(
            np.rint(base[snapshot] * intensity),
            profile.outbound_payload_min,
            profile.outbound_payload_max,
        ).astype(np.uint32)
        del base, snapshot, intensity

        order = np.argsort(timestamps, kind="stable")
        return Trace(
            timestamps=timestamps[order],
            directions=column(1, np.int8)[order],
            src_addrs=column(2, np.uint32)[order],
            dst_addrs=column(3, np.uint32)[order],
            src_ports=column(4, np.uint16)[order],
            dst_ports=column(5, np.uint16)[order],
            payload_sizes=payloads[order],
            server_address=profile.server_address,
            check_sorted=False,
        )
