"""Packet direction, the one per-packet enum a trace column stores."""

from __future__ import annotations

import enum


class Direction(enum.IntEnum):
    """Packet direction relative to the traced server.

    ``IN`` — sent by a client towards the server.
    ``OUT`` — sent by the server towards a client.
    """

    IN = 0
    OUT = 1
