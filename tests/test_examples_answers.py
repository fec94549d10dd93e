"""The two examples that handle answers by hand still run as written.

``custom_adapter.py`` unpacks ``values, margins = srs_estimate(...)`` and
builds a ``QueryResult`` from the dict pair — the adapter boundary the
dict-taking constructor exists for; ``hospital_exploration.py`` reads
``result.values`` of ground-truth answers. Neither was edited when
answers became columns.
"""

import runpy
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


@pytest.mark.parametrize(
    "script, expected",
    [
        ("custom_adapter.py", "the system answered every query"),
        ("hospital_exploration.py", "Jean's conclusion"),
    ],
)
def test_example_runs_unchanged(script, expected, capsys):
    runpy.run_path(str(EXAMPLES / script), run_name="__main__")
    assert expected in capsys.readouterr().out
