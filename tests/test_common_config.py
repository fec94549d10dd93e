"""Tests for benchmark settings (§4.6) and their serialization."""

import pytest

from repro.common.config import (
    BenchmarkSettings,
    DataSize,
    DEFAULT_TIME_REQUIREMENTS,
)
from repro.common.errors import ConfigurationError


class TestDataSize:
    def test_paper_sizes(self):
        assert DataSize.S.virtual_rows == 100_000_000
        assert DataSize.M.virtual_rows == 500_000_000
        assert DataSize.L.virtual_rows == 1_000_000_000

    @pytest.mark.parametrize("text,expected", [
        ("S", DataSize.S),
        ("m", DataSize.M),
        ("L", DataSize.L),
        ("500m", DataSize.M),
        ("100M", DataSize.S),
        ("1b", DataSize.L),
        (500_000_000, DataSize.M),
        (DataSize.L, DataSize.L),
    ])
    def test_parse(self, text, expected):
        assert DataSize.parse(text) is expected

    @pytest.mark.parametrize("bad", ["XXL", "12q", "", 123])
    def test_parse_rejects_garbage(self, bad):
        with pytest.raises(ConfigurationError):
            DataSize.parse(bad)


class TestBenchmarkSettings:
    def test_defaults_match_paper(self):
        settings = BenchmarkSettings()
        assert settings.data_size is DataSize.M
        assert settings.confidence_level == 0.95
        assert settings.workflows_per_type == 10
        assert DEFAULT_TIME_REQUIREMENTS == (0.5, 1.0, 3.0, 5.0, 10.0)

    def test_actual_rows_divides_by_scale(self):
        settings = BenchmarkSettings(data_size=DataSize.M, scale=1000)
        assert settings.actual_rows == 500_000
        assert settings.virtual_rows == 500_000_000

    def test_with_creates_modified_copy(self):
        base = BenchmarkSettings()
        derived = base.with_(time_requirement=0.5)
        assert derived.time_requirement == 0.5
        assert base.time_requirement == 3.0

    @pytest.mark.parametrize("field,value", [
        ("time_requirement", 0.0),
        ("time_requirement", -1.0),
        ("time_requirement", float("nan")),
        ("time_requirement", float("inf")),
        ("think_time", -0.1),
        ("think_time", float("nan")),
        ("think_time", float("inf")),
        ("confidence_level", 0.2),
        ("confidence_level", 1.0),
        ("scale", 0),
        ("report_interval", 0.0),
        ("report_interval", float("nan")),
        ("report_interval", float("inf")),
        ("workflows_per_type", 0),
    ])
    def test_validation(self, field, value):
        with pytest.raises(ConfigurationError):
            BenchmarkSettings(**{field: value})

    def test_dict_round_trip(self):
        settings = BenchmarkSettings(
            time_requirement=1.0, data_size=DataSize.L, use_joins=True, seed=7
        )
        assert BenchmarkSettings.from_dict(settings.to_dict()) == settings

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigurationError):
            BenchmarkSettings.from_dict({"time_requirement": 1.0, "bogus": 2})

    def test_json_round_trip(self, tmp_path):
        settings = BenchmarkSettings(think_time=5.0, scale=250)
        path = tmp_path / "settings.json"
        settings.to_json(path)
        assert BenchmarkSettings.from_json(path) == settings
