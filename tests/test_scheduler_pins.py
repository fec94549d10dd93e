"""Calendar loop ↔ frozen task-per-session outputs, one pin per test.

The server used to carry two schedulers — the event calendar and a
legacy asyncio task per session — and this suite ran every serving
configuration under both and compared bytes. The legacy path is gone;
its outputs live on in ``tests/golden/scheduler_pins.txt``, one
``name sha256`` line per configuration, generated *by the tasks
scheduler* at the last commit that had it. Each test here rebuilds one
configuration with the one remaining loop and checks it against that
line, so a drift names the configuration that moved
(``tests/test_golden_reports.py`` checks the file as a whole).

Also here: the trace ring's bounded/opt-in behavior.
"""

import pytest

from test_golden_reports import GOLDEN_DIR, regen

from repro.server import SessionManager

PINS = dict(
    line.split()
    for line in (GOLDEN_DIR / "scheduler_pins.txt").read_text().splitlines()
)


def _assert_pinned(server_ctx, name):
    assert regen.scheduler_pin(server_ctx, name) == f"{name} {PINS[name]}\n"


def test_every_pin_has_a_builder():
    assert list(PINS) == list(regen.SCHEDULER_PIN_CASES)


class TestClosedSystemEquivalence:
    @pytest.mark.parametrize("share_engine", [False, True])
    def test_scripted_bytes_identical(self, server_ctx, share_engine):
        mode = "shared" if share_engine else "isolated"
        _assert_pinned(server_ctx, f"closed_scripted_{mode}")

    @pytest.mark.parametrize("policy", ["markov", "uncertainty"])
    def test_adaptive_bytes_identical(self, server_ctx, policy):
        _assert_pinned(server_ctx, f"closed_{policy}_monetdb_shared")

    def test_traces_identical(self, server_ctx):
        _assert_pinned(server_ctx, "closed_isolated_trace")

    @pytest.mark.parametrize("sessions", [1, 10, 100])
    def test_bytes_identical_across_orders_of_magnitude(
        self, server_ctx, sessions
    ):
        """1 → 10² sessions: equivalence must not be a small-N accident."""
        _assert_pinned(server_ctx, f"closed_isolated_{sessions}")


class TestOpenSystemEquivalence:
    @pytest.mark.parametrize("share_engine", [False, True])
    def test_churn_bytes_and_traces_identical(self, server_ctx, share_engine):
        """CSVs, ``departed_at`` and the step + ``"arrival"`` trace marks."""
        mode = "shared" if share_engine else "isolated"
        _assert_pinned(server_ctx, f"open_markov_churn_{mode}")

    @pytest.mark.parametrize("seed_offset", [0, 1, 2, 3])
    def test_seeded_churn_fuzz(self, server_ctx, seed_offset):
        """The four ``random.Random(1000 + offset)`` arrival-process draws."""
        _assert_pinned(server_ctx, f"churn_fuzz_{1000 + seed_offset}")


class TestTraceRing:
    def test_trace_off_by_default(self, server_ctx):
        manager = SessionManager.for_engine(
            server_ctx, "idea-sim", 3, per_session=1
        )
        manager.run()
        assert manager.trace == []

    def test_trace_ring_is_bounded(self, server_ctx):
        manager = SessionManager.for_engine(
            server_ctx, "idea-sim", 3, per_session=1, trace_capture=8
        )
        manager.run()
        trace = manager.trace
        assert len(trace) == 8
        assert manager._trace_ring.dropped > 0
        times = [t for t, _ in trace]
        assert times == sorted(times)  # the *latest* marks survive

    def test_trace_capture_true_keeps_everything(self, server_ctx):
        manager = SessionManager.for_engine(
            server_ctx, "idea-sim", 3, per_session=1, trace_capture=True
        )
        manager.run()
        assert manager._trace_ring.dropped == 0
        assert len(manager.trace) > 0
