"""Seeded synthetic benchmark instances and JSON persistence.

The four canonical resource/job pairs used throughout the benchmark tables,
(3,13), (5,100), (8,60) and (10,50), are regenerated from fixed seeds so the
committed fixture files are reproducible byte for byte.

Instance files store speeds, lengths and window bounds as decimal strings
(shortest round-trip form), which keeps save/load an exact identity.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from gridsched.model import (
    ConfigurationError, GridInstance, Job, Resource, check_count, check_real, check_seed,
)

DEFAULT_SPEED_RANGE = (1.0, 10.0)
DEFAULT_LENGTH_RANGE = (10.0, 100.0)


class MalformedDocumentError(ValueError):
    """The file is not a parseable instance document."""


class SchemaError(ValueError):
    """The document parsed but violates the instance schema."""


@dataclass(frozen=True)
class GeneratorSpec:
    """Parameters for one synthetic instance draw."""

    resource_count: int
    job_count: int
    speed_range: tuple[float, float] = DEFAULT_SPEED_RANGE
    length_range: tuple[float, float] = DEFAULT_LENGTH_RANGE
    window: tuple[tuple[float, float], tuple[float, float]] | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        check_count("resource_count", self.resource_count, 1)
        check_count("job_count", self.job_count, 1)
        for name in ("speed_range", "length_range"):
            lo, hi = getattr(self, name)
            check_real(f"{name} low", lo, 0, math.inf, True, True)
            check_real(f"{name} high", hi, lo, math.inf, open_high=True)
        if self.window is not None:
            (start_lo, start_hi), (end_lo, end_hi) = self.window
            check_real("window start low", start_lo, 0, math.inf, open_high=True)
            check_real("window start high", start_hi, start_lo, math.inf, open_high=True)
            # Strict gap so every drawn window satisfies end > start.
            check_real("window end low", end_lo, start_hi, math.inf, True, True)
            check_real("window end high", end_hi, end_lo, math.inf, open_high=True)
        check_seed(self.seed)


def generate_instance(spec: GeneratorSpec) -> GridInstance:
    """Draw one instance: uniform speeds (2 decimals) and integer job lengths.

    Draw order is fixed (speeds, lengths, then window bounds) so a seed pins
    the instance exactly.
    """
    rng = np.random.default_rng(spec.seed)
    speeds = np.round(rng.uniform(*spec.speed_range, size=spec.resource_count), 2)
    lengths = np.round(rng.uniform(*spec.length_range, size=spec.job_count))
    if (speeds <= 0).any():
        raise ConfigurationError(f"speed_range {spec.speed_range} rounds to zero at 2 decimals")
    if (lengths <= 0).any():
        raise ConfigurationError(f"length_range {spec.length_range} rounds to zero")
    if spec.window is None:
        starts = np.zeros(spec.resource_count)
        ends = np.full(spec.resource_count, math.inf)
    else:
        starts = np.round(rng.uniform(*spec.window[0], size=spec.resource_count), 2)
        ends = np.round(rng.uniform(*spec.window[1], size=spec.resource_count), 2)
    resources = tuple(
        Resource(id=i, speed=float(speeds[i]), start_time=float(starts[i]), end_time=float(ends[i]))
        for i in range(spec.resource_count)
    )
    jobs = tuple(Job(id=j, length=float(lengths[j])) for j in range(spec.job_count))
    return GridInstance(resources=resources, jobs=jobs)


@dataclass(frozen=True)
class FixtureSpec:
    name: str
    display: str
    generator: GeneratorSpec


FIXTURES: tuple[FixtureSpec, ...] = (
    FixtureSpec("r3_j13", "(3,13)", GeneratorSpec(3, 13, seed=101)),
    FixtureSpec("r5_j100", "(5,100)", GeneratorSpec(5, 100, seed=102)),
    FixtureSpec("r8_j60", "(8,60)", GeneratorSpec(8, 60, seed=103)),
    FixtureSpec("r10_j50", "(10,50)", GeneratorSpec(10, 50, seed=104)),
)

FIXTURE_DISPLAY = {f.name: f.display for f in FIXTURES}


def fixture_suite() -> dict[str, GridInstance]:
    """The four named benchmark instances, regenerated from their fixed seeds."""
    return {f.name: generate_instance(f.generator) for f in FIXTURES}


def _decimal(value: float) -> str:
    return str(float(value))


def instance_to_document(instance: GridInstance) -> dict:
    return {
        "resources": [
            {
                "id": r.id,
                "speed": _decimal(r.speed),
                "start_time": _decimal(r.start_time),
                "end_time": "inf" if math.isinf(r.end_time) else _decimal(r.end_time),
            }
            for r in instance.resources
        ],
        "jobs": [{"id": j.id, "length": _decimal(j.length)} for j in instance.jobs],
    }


def save_instance(instance: GridInstance, path: str | Path) -> None:
    """Write an instance as a JSON document; save/load round-trips exactly."""
    text = json.dumps(instance_to_document(instance), indent=2) + "\n"
    Path(path).write_text(text, encoding="utf-8")


def _parse_decimal(entry: dict, key: str, where: str) -> float:
    value = entry.get(key)
    if not isinstance(value, str):
        raise SchemaError(f"{where}: field '{key}' must be a decimal string, got {value!r}")
    try:
        return float(value)
    except ValueError as exc:
        raise SchemaError(f"{where}: field '{key}' is not a decimal: {value!r}") from exc


def _parse_id(entry: dict, where: str) -> int:
    value = entry.get("id")
    if not isinstance(value, int) or isinstance(value, bool):
        raise SchemaError(f"{where}: field 'id' must be an integer, got {value!r}")
    return value


def document_to_instance(doc: object) -> GridInstance:
    if not isinstance(doc, dict):
        raise SchemaError("instance document must be a JSON object")
    for key in ("resources", "jobs"):
        if not isinstance(doc.get(key), list):
            raise SchemaError(f"instance document needs a '{key}' list")
    resources = []
    for pos, entry in enumerate(doc["resources"]):
        where = f"resources[{pos}]"
        if not isinstance(entry, dict):
            raise SchemaError(f"{where}: must be an object")
        end_raw = entry.get("end_time")
        end = math.inf if end_raw == "inf" else _parse_decimal(entry, "end_time", where)
        try:
            resources.append(
                Resource(
                    id=_parse_id(entry, where),
                    speed=_parse_decimal(entry, "speed", where),
                    start_time=_parse_decimal(entry, "start_time", where),
                    end_time=end,
                )
            )
        except SchemaError:
            raise
        except ValueError as exc:
            raise SchemaError(f"{where}: {exc}") from exc
    jobs = []
    for pos, entry in enumerate(doc["jobs"]):
        where = f"jobs[{pos}]"
        if not isinstance(entry, dict):
            raise SchemaError(f"{where}: must be an object")
        try:
            jobs.append(Job(id=_parse_id(entry, where), length=_parse_decimal(entry, "length", where)))
        except SchemaError:
            raise
        except ValueError as exc:
            raise SchemaError(f"{where}: {exc}") from exc
    # File order is free; ids must still be contiguous from 0.
    resources.sort(key=lambda r: r.id)
    jobs.sort(key=lambda j: j.id)
    try:
        return GridInstance(resources=tuple(resources), jobs=tuple(jobs))
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def load_instance(path: str | Path) -> GridInstance:
    """Read an instance document; raises on missing, malformed or invalid files."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise MalformedDocumentError(f"{path}: not valid UTF-8 JSON ({exc})") from exc
    return document_to_instance(doc)


def fixture_manifest() -> dict:
    """Seeds and ranges behind the committed fixtures, for in-repo documentation."""
    return {
        "fixtures": [
            {
                "name": f.name,
                "display": f.display,
                "resource_count": f.generator.resource_count,
                "job_count": f.generator.job_count,
                "seed": f.generator.seed,
                "speed_range": list(f.generator.speed_range),
                "length_range": list(f.generator.length_range),
            }
            for f in FIXTURES
        ]
    }


def write_fixtures(out_dir: str | Path) -> list[Path]:
    """Regenerate the fixture files plus their seed manifest into out_dir."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for fixture in FIXTURES:
        path = out / f"{fixture.name}.json"
        save_instance(generate_instance(fixture.generator), path)
        written.append(path)
    manifest_path = out / "manifest.json"
    manifest_path.write_text(json.dumps(fixture_manifest(), indent=2) + "\n", encoding="utf-8")
    written.append(manifest_path)
    return written
