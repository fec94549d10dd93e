"""Golden-report determinism harness.

Every scenario in ``tools/regen_golden.py``'s corpus — serial run,
shared-engine server run, adaptive (markov) run, open-system churn run —
is re-executed in-process and compared **byte for byte** against the
checked-in file under ``tests/golden/``. Any engine/driver/server/policy
change that shifts output fails here with a diff, before it can silently
alter published results.

Intentional changes are a one-command refresh::

    PYTHONPATH=src python tools/regen_golden.py

The builders run on the session-scoped ``server_ctx`` fixture (same
settings the regenerator uses), so this module adds no extra dataset
construction to the suite.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def _load_regen():
    spec = importlib.util.spec_from_file_location(
        "regen_golden", REPO_ROOT / "tools" / "regen_golden.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("regen_golden", module)
    spec.loader.exec_module(module)
    return module


regen = _load_regen()


def test_corpus_and_builders_agree():
    """Every checked-in file has a builder and vice versa."""
    on_disk = {path.name for path in GOLDEN_DIR.iterdir() if path.is_file()}
    assert on_disk == set(regen.GOLDEN_CASES)


def test_regen_settings_match_test_settings(server_ctx):
    """The regenerator must run the exact configuration the tests run."""
    assert regen.build_context().settings == server_ctx.settings


@pytest.mark.parametrize("name", sorted(regen.GOLDEN_CASES))
def test_replay_is_byte_identical(server_ctx, name):
    golden = (GOLDEN_DIR / name).read_bytes()
    rebuilt = regen.GOLDEN_CASES[name](server_ctx).encode("utf-8")
    assert rebuilt == golden, (
        f"{name} drifted from the golden corpus; if the change is "
        f"intentional, refresh with: PYTHONPATH=src python "
        f"tools/regen_golden.py"
    )


@pytest.mark.parametrize(
    "name", sorted(set(regen.GOLDEN_CASES) - regen.KERNEL_FREE_CASES)
)
def test_replay_is_byte_identical_through_fallback_kernels(
    server_ctx, name, fallback_kernels
):
    """The A/B side: the same bytes, unmasked, when every kernel runs the
    uncompiled reference (the series' kernel-cache counters included —
    fallback kernels pass through the cache like any other)."""
    with fallback_kernels():
        rebuilt = regen.GOLDEN_CASES[name](server_ctx).encode("utf-8")
    assert rebuilt == (GOLDEN_DIR / name).read_bytes()


def test_adaptive_differs_from_scripted():
    """Sanity: the adaptive golden file is not a copy of the scripted one."""
    markov = (GOLDEN_DIR / "adaptive_markov.txt").read_bytes()
    shared = (GOLDEN_DIR / "server_shared.txt").read_bytes()
    assert markov != shared


def test_churn_corpus_records_departures():
    churn = (GOLDEN_DIR / "open_churn.txt").read_bytes()
    assert b"departed_at=" in churn
