"""Small shared helpers for the unit tests.

``tests/`` is not a package: test modules import this file by name (the
test directory is on ``sys.path`` under pytest).
"""

from repro.fleet.execution import shard_map_fold
from repro.gameserver.config import ServerProfile


def quick_test_profile(duration: float = 600.0) -> ServerProfile:
    """A small, fast profile for unit tests (10 minutes, 8 slots)."""
    return ServerProfile(
        max_players=8,
        attempt_rate=0.05,
        duration=duration,
        outages=(),
        map_duration=150.0,
        map_change_downtime=3.0,
    )


def shard_results(fn, tasks, workers=None, cache=None) -> list:
    """Every :func:`shard_map_fold` result, in task order."""
    return shard_map_fold(
        fn, tasks, lambda acc, result: acc.append(result) or acc, [], workers, cache=cache
    )
