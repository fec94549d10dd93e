"""Pytest plugin: run the tests under a profile hook that does nothing.

An installed profiler, tracer, debugger or ``coverage`` changes how
CPython evaluates bytecode: 3.11 stops using its specialized
instructions, and those can return a different NaN than the generic
ones when two NaNs meet. Bytes that reach an artifact must not depend on
that, so CI reruns the goldens and the scoring tests with this hook::

    PYTHONPATH=src:tests python -m pytest -p noop_profiler \\
        tests/test_golden_reports.py tests/test_bench_metrics.py
"""

import sys
import threading


def _ignore(frame, event, arg):
    return None


def pytest_configure(config):
    sys.setprofile(_ignore)
    threading.setprofile(_ignore)


def pytest_unconfigure(config):
    sys.setprofile(None)
    threading.setprofile(None)
