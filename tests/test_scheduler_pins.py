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

Also here: the manager's step marks (``manager.turn`` trace events) are
opt-in and, under a bounded tracer, keep only the newest entries.
"""

import pytest

from test_golden_reports import GOLDEN_DIR, regen

from repro.obs import observed
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
        """CSVs, ``departed_at`` and the grant + ``"arrival"`` trace marks."""
        mode = "shared" if share_engine else "isolated"
        _assert_pinned(server_ctx, f"open_markov_churn_{mode}")

    @pytest.mark.parametrize("seed_offset", [0, 1, 2, 3])
    def test_seeded_churn_fuzz(self, server_ctx, seed_offset):
        """The four ``random.Random(1000 + offset)`` arrival-process draws."""
        _assert_pinned(server_ctx, f"churn_fuzz_{1000 + seed_offset}")



class TestTraceRing:
    def _run(self, server_ctx, **observe):
        with observed(**observe) as tracer:
            SessionManager.for_engine(
                server_ctx, "idea-sim", 3, per_session=1
            ).run()
        return tracer

    def test_trace_off_by_default(self, server_ctx):
        tracer = self._run(server_ctx)
        assert list(tracer.entries()) == []

    def test_trace_ring_is_bounded(self, server_ctx):
        tracer = self._run(server_ctx, enabled=True, capacity=8)
        full = list(self._run(server_ctx, enabled=True).entries())
        entries = list(tracer.entries())
        assert len(entries) == 8
        assert tracer.dropped == len(full) - 8 > 0
        # The *latest* entries survive, in recording order.
        key = [(e["name"], e["seq"], e["vt"]) for e in entries]
        assert key == [(e["name"], e["seq"], e["vt"]) for e in full[-8:]]
        times = [e["vt"] for e in entries if e["name"] == "manager.turn"]
        assert times == sorted(times)

    def test_trace_capture_true_keeps_everything(self, server_ctx):
        tracer = self._run(server_ctx, enabled=True)
        assert tracer.dropped == 0
        turns = [e for e in tracer.entries() if e["name"] == "manager.turn"]
        assert len(turns) > 0
        assert sorted(e["seq"] for e in tracer.entries()) == list(
            range(len(tracer))
        )
