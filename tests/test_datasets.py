import json
import math
from pathlib import Path

import numpy as np
import pytest

from gridsched.datasets import (
    FIXTURES,
    GeneratorSpec,
    MalformedDocumentError,
    SchemaError,
    fixture_suite,
    generate_instance,
    load_instance,
    save_instance,
    write_fixtures,
)
from gridsched.model import ConfigurationError

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"


class TestGeneratorSpec:
    def test_rejects_zero_counts(self):
        with pytest.raises(ConfigurationError):
            GeneratorSpec(0, 5)
        with pytest.raises(ConfigurationError):
            GeneratorSpec(5, 0)

    def test_rejects_inverted_or_non_positive_ranges(self):
        with pytest.raises(ConfigurationError):
            GeneratorSpec(2, 2, speed_range=(5.0, 1.0))
        with pytest.raises(ConfigurationError):
            GeneratorSpec(2, 2, length_range=(-1.0, 4.0))

    def test_rejects_overlapping_window_ranges(self):
        with pytest.raises(ConfigurationError):
            GeneratorSpec(2, 2, window=((0.0, 5.0), (5.0, 9.0)))


class TestGenerateInstance:
    def test_counts_match_spec(self):
        inst = generate_instance(GeneratorSpec(3, 13, seed=7))
        assert inst.resource_count == 3
        assert inst.job_count == 13

    def test_deterministic_per_seed(self):
        a = generate_instance(GeneratorSpec(4, 9, seed=11))
        b = generate_instance(GeneratorSpec(4, 9, seed=11))
        assert a == b

    def test_degenerate_speed_range(self):
        inst = generate_instance(GeneratorSpec(3, 4, speed_range=(2.0, 2.0), seed=0))
        assert all(r.speed == 2.0 for r in inst.resources)

    def test_speeds_two_decimals_lengths_integral(self):
        inst = generate_instance(GeneratorSpec(5, 20, seed=3))
        for r in inst.resources:
            assert round(r.speed, 2) == r.speed
        for j in inst.jobs:
            assert j.length == int(j.length)

    def test_window_draws_respect_bounds(self):
        spec = GeneratorSpec(4, 3, window=((0.0, 2.0), (50.0, 80.0)), seed=9)
        inst = generate_instance(spec)
        for r in inst.resources:
            assert 0.0 <= r.start_time <= 2.0
            assert 50.0 <= r.end_time <= 80.0
            assert r.end_time > r.start_time

    def test_default_window_is_unbounded(self):
        inst = generate_instance(GeneratorSpec(2, 2, seed=1))
        assert all(r.start_time == 0.0 and math.isinf(r.end_time) for r in inst.resources)


class TestFixtureSuite:
    def test_contains_the_four_pairs(self):
        suite = fixture_suite()
        shapes = {name: (inst.resource_count, inst.job_count) for name, inst in suite.items()}
        assert shapes == {
            "r3_j13": (3, 13),
            "r5_j100": (5, 100),
            "r8_j60": (8, 60),
            "r10_j50": (10, 50),
        }

    def test_regeneration_is_stable(self):
        assert fixture_suite() == fixture_suite()

    def test_committed_files_match_regeneration(self, tmp_path):
        write_fixtures(tmp_path)
        for fixture in FIXTURES:
            name = f"{fixture.name}.json"
            assert (tmp_path / name).read_bytes() == (FIXTURE_DIR / name).read_bytes()
        assert (tmp_path / "manifest.json").read_bytes() == (
            FIXTURE_DIR / "manifest.json"
        ).read_bytes()


class TestPersistence:
    def test_round_trip_identity_for_fixtures(self, tmp_path):
        for name, inst in fixture_suite().items():
            path = tmp_path / f"{name}.json"
            save_instance(inst, path)
            assert load_instance(path) == inst

    def test_round_trip_preserves_windows(self, tmp_path):
        inst = generate_instance(GeneratorSpec(3, 4, window=((0.0, 1.0), (90.0, 99.0)), seed=2))
        path = tmp_path / "windowed.json"
        save_instance(inst, path)
        assert load_instance(path) == inst

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_instance(tmp_path / "nope.json")

    def test_truncated_file_is_malformed(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"resources": [{"id": 0, "spee')
        with pytest.raises(MalformedDocumentError):
            load_instance(path)

    def test_non_utf8_file_is_malformed(self, tmp_path):
        path = tmp_path / "utf16.json"
        path.write_bytes(b'\xff\xfe{\x00}\x00')
        with pytest.raises(MalformedDocumentError):
            load_instance(path)

    def test_negative_speed_is_schema_violation(self, tmp_path):
        doc = {
            "resources": [
                {"id": 0, "speed": "-1.0", "start_time": "0.0", "end_time": "inf"}
            ],
            "jobs": [{"id": 0, "length": "5.0"}],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError):
            load_instance(path)

    def test_missing_field_is_schema_violation(self, tmp_path):
        doc = {
            "resources": [{"id": 0, "start_time": "0.0", "end_time": "inf"}],
            "jobs": [{"id": 0, "length": "5.0"}],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError):
            load_instance(path)

    def test_numeric_speed_rejected_as_schema_violation(self, tmp_path):
        doc = {
            "resources": [{"id": 0, "speed": 2.5, "start_time": "0.0", "end_time": "inf"}],
            "jobs": [{"id": 0, "length": "5.0"}],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError):
            load_instance(path)

    def test_out_of_order_ids_are_sorted(self, tmp_path):
        doc = {
            "resources": [
                {"id": 1, "speed": "2.0", "start_time": "0.0", "end_time": "inf"},
                {"id": 0, "speed": "1.0", "start_time": "0.0", "end_time": "inf"},
            ],
            "jobs": [
                {"id": 1, "length": "4.0"},
                {"id": 0, "length": "3.0"},
            ],
        }
        path = tmp_path / "shuffled.json"
        path.write_text(json.dumps(doc))
        inst = load_instance(path)
        assert [r.speed for r in inst.resources] == [1.0, 2.0]
        assert [j.length for j in inst.jobs] == [3.0, 4.0]

    def test_duplicate_ids_are_schema_violation(self, tmp_path):
        doc = {
            "resources": [
                {"id": 0, "speed": "2.0", "start_time": "0.0", "end_time": "inf"},
                {"id": 0, "speed": "1.0", "start_time": "0.0", "end_time": "inf"},
            ],
            "jobs": [{"id": 0, "length": "4.0"}],
        }
        path = tmp_path / "dupes.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError):
            load_instance(path)

    def test_generated_instances_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        for k in range(5):
            spec = GeneratorSpec(
                int(rng.integers(1, 8)), int(rng.integers(1, 40)), seed=int(rng.integers(2**32))
            )
            inst = generate_instance(spec)
            path = tmp_path / f"inst{k}.json"
            save_instance(inst, path)
            assert load_instance(path) == inst
