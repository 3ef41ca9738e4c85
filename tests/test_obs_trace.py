"""Tests for the span tracer (repro.obs.trace)."""

import pytest

from repro.obs.trace import (
    NULL_SPAN,
    Tracer,
    current_tracer,
    install_tracer,
    peak_rss_kb,
    span,
)


@pytest.fixture(autouse=True)
def _no_leaked_tracer():
    """Every test starts and ends with tracing disabled."""
    install_tracer(None)
    yield
    install_tracer(None)


class TestDisabledDefault:
    def test_span_is_the_shared_noop(self):
        assert current_tracer() is None
        assert span("anything", attr=1) is NULL_SPAN
        # same object every time: no allocation on the disabled path
        assert span("other") is NULL_SPAN

    def test_null_span_is_inert(self):
        with span("region") as sp:
            assert sp is NULL_SPAN


class TestTracer:
    def test_nesting_builds_a_forest(self):
        tracer = Tracer()
        install_tracer(tracer)
        with span("outer", kind="a"):
            with span("inner"):
                pass
        with span("second_root"):
            pass
        records = tracer.records()
        assert [r["name"] for r in records] == [
            "outer",
            "inner",
            "second_root",
        ]
        outer, inner, second = records
        assert outer["depth"] == 0 and inner["depth"] == 1
        assert inner["path"] == "outer/inner"
        assert outer["attrs"] == {"kind": "a"}
        assert second["path"] == "second_root"

    def test_records_exclude_open_spans(self):
        tracer = Tracer()
        install_tracer(tracer)
        with span("closed"):
            pass
        open_span = span("open")
        open_span.__enter__()
        assert [r["name"] for r in tracer.records()] == ["closed"]
        open_span.__exit__(None, None, None)
        assert [r["name"] for r in tracer.records()] == ["closed", "open"]

    def test_timings_are_nonnegative_and_ordered(self):
        tracer = Tracer()
        install_tracer(tracer)
        with span("a"):
            pass
        with span("b"):
            pass
        a, b = tracer.records()
        assert a["wall_s"] >= 0 and b["wall_s"] >= 0
        assert b["start_s"] >= a["start_s"] >= 0

    def test_exceptions_propagate_and_close_the_span(self):
        tracer = Tracer()
        install_tracer(tracer)
        with pytest.raises(RuntimeError):
            with span("failing"):
                raise RuntimeError("boom")
        assert [r["name"] for r in tracer.records()] == ["failing"]

    def test_records_are_json_safe(self):
        import json

        tracer = Tracer()
        install_tracer(tracer)
        with span("region", server=3, label="x"):
            pass
        json.dumps(tracer.records())  # must not raise


class TestPeakRss:
    def test_monotone_nonnegative(self):
        first = peak_rss_kb()
        assert first >= 0
        assert peak_rss_kb() >= first

    def test_platform_normalisation(self, monkeypatch):
        """ru_maxrss is KiB on Linux but bytes on macOS; peak_rss_kb
        must normalise so both platforms report KiB."""
        import sys

        linux = peak_rss_kb()
        monkeypatch.setattr(sys, "platform", "darwin")
        darwin = peak_rss_kb()
        # same underlying ru_maxrss, divided by 1024 under darwin
        assert darwin == pytest.approx(linux / 1024.0, rel=0.01)
        monkeypatch.setattr(sys, "platform", "linux")
        assert peak_rss_kb() == pytest.approx(linux, rel=0.01)


class TestOpenPath:
    def test_open_path_tracks_the_stack(self):
        tracer = Tracer()
        install_tracer(tracer)
        assert tracer.open_path() == ""
        with span("outer"):
            assert tracer.open_path() == "outer"
            with span("inner"):
                assert tracer.open_path() == "outer/inner"
            assert tracer.open_path() == "outer"
        assert tracer.open_path() == ""
