"""Declarative sweep specifications.

A :class:`SweepSpec` describes a design-space exploration: a *grid*
(cartesian product over named axes) or an explicit *list of points*,
each point a set of overrides applied on top of a base preset.  Specs
are pure data — JSON/dict-loadable, validated eagerly, and expanded
into a deterministic point sequence — so the same spec always
enumerates the same points in the same order, which is what makes
parallel execution (:mod:`repro.sweep.executor`) and content-addressed
caching (:mod:`repro.sweep.cache`) reproducible.

Axis / override keys:

* ``processor.<field>`` / ``network.<field>`` / ``barrier.<field>`` —
  any field of the corresponding :mod:`repro.core.parameters` group;
* ``faults.<field>`` — any field of
  :class:`repro.faults.plan.FaultPlan` (merged into the plan);
* ``faults`` — a whole fault-plan dict (or ``null`` for none);
* ``preset`` — swap the base preset for this point;
* ``n_threads`` — thread/processor count (benchmark mode only: it
  re-measures the program, so it is rejected when sweeping a fixed
  trace).

A spec may also carry a top-level ``"sample"`` object (a
:class:`repro.sampling.SamplingConfig`): every point is then answered
with a SimPoint-style sampled estimate instead of a full simulation,
and cache keys include the sampling config so sampled and full results
never collide.

Example spec (JSON)::

    {
      "name": "hop-vs-bandwidth",
      "preset": "distributed_memory",
      "grid": {
        "network.hop_time": [0.1, 0.5, 2.0],
        "network.byte_transfer_time": [0.05, 0.118]
      }
    }
"""

from __future__ import annotations

import difflib
import itertools
import json
from dataclasses import dataclass, fields as dataclass_fields
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core import presets
from repro.core.parameters import (
    BarrierParams,
    NetworkParams,
    ProcessorParams,
    SimulationParameters,
)
from repro.faults.plan import FaultPlan

#: Parameter groups a ``group.field`` key may name, with their field sets.
_GROUP_FIELDS: Dict[str, frozenset] = {
    "processor": frozenset(f.name for f in dataclass_fields(ProcessorParams)),
    "network": frozenset(f.name for f in dataclass_fields(NetworkParams)),
    "barrier": frozenset(f.name for f in dataclass_fields(BarrierParams)),
    "faults": frozenset(f.name for f in dataclass_fields(FaultPlan)),
}

#: Keys with special (non-``group.field``) meaning.
SPECIAL_KEYS = ("preset", "n_threads", "faults")


def suggest(bad: str, candidates: Sequence[str]) -> str:
    """A ``; did you mean ...?`` suffix for an unrecognised name.

    Shared by sweep-spec validation, CLI ``--set`` parsing and the serve
    API so every layer gives the same spelling help.  Empty when nothing
    is close.
    """
    close = difflib.get_close_matches(bad, list(candidates), n=3, cutoff=0.5)
    return f"; did you mean {', '.join(repr(c) for c in close)}?" if close else ""



def validate_param_key(key: str, *, what: str = "parameter key") -> None:
    """Raise :class:`ValueError` unless ``key`` is a valid ``group.field``.

    The strict form used by CLI ``--set`` overrides and serve-API
    ``overrides`` objects, where the sweep-only special keys (``preset``,
    ``n_threads``, bare ``faults``) are not meaningful.
    """
    group, _, field_ = key.partition(".")
    if not field_:
        raise ValueError(
            f"bad {what} {key!r}: expected group.field "
            f"(e.g. processor.mips_ratio)"
            f"{suggest(key, list(_GROUP_FIELDS))}"
        )
    if group not in _GROUP_FIELDS:
        raise ValueError(
            f"bad {what} {key!r}: unknown parameter group {group!r}"
            f"{suggest(group, list(_GROUP_FIELDS))}"
        )
    if field_ not in _GROUP_FIELDS[group]:
        raise ValueError(
            f"bad {what} {key!r}: {group!r} has no field {field_!r}"
            f"{suggest(field_, sorted(_GROUP_FIELDS[group]))}"
        )


def apply_param_overrides(
    params: SimulationParameters, overrides: Mapping[str, Any]
) -> SimulationParameters:
    """Apply flat ``{"group.field": value}`` overrides to ``params``.

    Keys are validated with did-you-mean suggestions; value errors from
    the parameter model surface as :class:`ValueError`.
    """
    groups: Dict[str, Dict[str, Any]] = {}
    for key, value in overrides.items():
        validate_param_key(key)
        group, field_ = key.split(".", 1)
        groups.setdefault(group, {})[field_] = value
    if not groups:
        return params
    try:
        return params.with_(**groups)
    except TypeError as exc:
        raise ValueError(f"bad parameter override: {exc}") from None


def _validate_key(key: str) -> None:
    """Raise :class:`ValueError` for a key no point may use."""
    if key in ("preset", "n_threads", "faults"):
        return
    group, _, field_ = key.partition(".")
    if not field_:
        valid = list(SPECIAL_KEYS) + [f"{g}.<field>" for g in _GROUP_FIELDS]
        raise ValueError(
            f"bad sweep key {key!r}: expected group.field or one of "
            f"{valid}{suggest(key, list(_GROUP_FIELDS) + list(SPECIAL_KEYS))}"
        )
    validate_param_key(key, what="sweep key")


def _validate_value(key: str, value: Any) -> None:
    if key == "preset":
        if value not in presets.PRESETS:
            raise ValueError(
                f"unknown preset {value!r} in sweep"
                f"{suggest(str(value), sorted(presets.PRESETS))}; "
                f"available: {sorted(presets.PRESETS)}"
            )
    elif key == "n_threads":
        if not isinstance(value, int) or isinstance(value, bool) or value < 1:
            raise ValueError(f"n_threads values must be ints >= 1, got {value!r}")
    elif key == "faults":
        if value is None:
            return
        if not isinstance(value, Mapping):
            raise ValueError(
                f"'faults' values must be fault-plan objects or null, "
                f"got {type(value).__name__}"
            )
        FaultPlan.from_dict(value)  # raises ValueError on bad fields


@dataclass(frozen=True)
class SweepPoint:
    """One configuration of the sweep: an index plus flat overrides.

    ``overrides`` is an ordered tuple of ``(key, value)`` pairs; the
    order follows the spec's axis order, which keeps labels and cache
    keys deterministic.
    """

    index: int
    overrides: Tuple[Tuple[str, Any], ...]

    def label(self) -> str:
        """Human-readable point identity, e.g. ``network.hop_time=0.5``."""
        if not self.overrides:
            return "baseline"
        return " ".join(f"{k}={_fmt_value(v)}" for k, v in self.overrides)

    def as_dict(self) -> Dict[str, Any]:
        return {k: v for k, v in self.overrides}

    @property
    def n_threads(self) -> Optional[int]:
        """The point's ``n_threads`` override, if any."""
        for k, v in self.overrides:
            if k == "n_threads":
                return v
        return None

    def params(self, base_preset: str) -> SimulationParameters:
        """Resolve this point to concrete simulation parameters."""
        preset_name = base_preset
        groups: Dict[str, Dict[str, Any]] = {}
        fault_plan: Any = _UNSET
        for key, value in self.overrides:
            if key == "preset":
                preset_name = value
            elif key == "n_threads":
                continue
            elif key == "faults":
                fault_plan = None if value is None else FaultPlan.from_dict(value)
            else:
                group, field_ = key.split(".", 1)
                groups.setdefault(group, {})[field_] = value
        params = presets.by_name(preset_name)
        fault_fields = groups.pop("faults", None)
        if groups:
            params = params.with_(**groups)
        if fault_plan is not _UNSET:
            params = params.with_faults(fault_plan)
        if fault_fields:
            params = params.with_(faults=fault_fields)
        return params


_UNSET = object()


def _fmt_value(v: Any) -> str:
    if isinstance(v, Mapping):
        return json.dumps(v, sort_keys=True, separators=(",", ":"))
    return f"{v}"


class SweepSpec:
    """A validated, expandable sweep description.

    Exactly one of ``grid`` (``{key: [values...]}``) and ``points``
    (``[{key: value, ...}, ...]``) must be given.  ``benchmark`` /
    ``n_threads`` / ``size_mode`` describe the program to measure when
    the sweep is not driven by a pre-recorded trace.
    """

    def __init__(
        self,
        *,
        name: str = "sweep",
        preset: str = "distributed_memory",
        grid: Optional[Mapping[str, Sequence[Any]]] = None,
        points: Optional[Sequence[Mapping[str, Any]]] = None,
        benchmark: Optional[str] = None,
        n_threads: int = 8,
        size_mode: str = "compiler",
        sample: Optional[Mapping[str, Any]] = None,
    ):
        if (grid is None) == (points is None):
            raise ValueError("a sweep spec needs exactly one of 'grid' or 'points'")
        if preset not in presets.PRESETS:
            raise ValueError(
                f"unknown base preset {preset!r}"
                f"{suggest(preset, sorted(presets.PRESETS))}; "
                f"available: {sorted(presets.PRESETS)}"
            )
        if n_threads < 1:
            raise ValueError(f"n_threads must be >= 1, got {n_threads}")
        if size_mode not in ("compiler", "actual"):
            raise ValueError(
                f"size_mode must be 'compiler' or 'actual', got {size_mode!r}"
            )
        self.name = str(name)
        self.preset = preset
        self.benchmark = benchmark
        self.n_threads = int(n_threads)
        self.size_mode = size_mode
        self.sample = None
        if sample is not None:
            from repro.sampling import SamplingConfig

            if isinstance(sample, SamplingConfig):
                self.sample = sample
            else:
                try:
                    self.sample = SamplingConfig.from_dict(sample)
                except ValueError as exc:
                    raise ValueError(f"bad 'sample' config: {exc}") from None
        self.grid: Optional[Dict[str, List[Any]]] = None
        self.points_raw: Optional[List[Dict[str, Any]]] = None
        if grid is not None:
            if not isinstance(grid, Mapping) or not grid:
                raise ValueError("'grid' must be a non-empty object of key -> values")
            self.grid = {}
            for key, values in grid.items():
                _validate_key(key)
                if not isinstance(values, (list, tuple)) or not values:
                    raise ValueError(
                        f"grid axis {key!r} must be a non-empty list of values"
                    )
                for v in values:
                    _validate_value(key, v)
                self.grid[key] = list(values)
        else:
            if not isinstance(points, Sequence) or not points:
                raise ValueError("'points' must be a non-empty list of objects")
            self.points_raw = []
            for i, pt in enumerate(points):
                if not isinstance(pt, Mapping):
                    raise ValueError(
                        f"point #{i} must be an object, got {type(pt).__name__}"
                    )
                for key, value in pt.items():
                    _validate_key(key)
                    _validate_value(key, value)
                self.points_raw.append(dict(pt))
        # Eagerly resolve every point once so a bad field value (e.g. a
        # negative time) fails at load time, not mid-sweep in a worker.
        for point in self.expand():
            point.params(self.preset)

    # -- expansion -----------------------------------------------------------

    def expand(self) -> List[SweepPoint]:
        """Deterministic point enumeration.

        Grid mode walks the cartesian product with the *last* axis
        fastest (``itertools.product`` order), axes in spec order;
        points mode preserves the listed order.
        """
        out: List[SweepPoint] = []
        if self.grid is not None:
            keys = list(self.grid)
            for index, combo in enumerate(
                itertools.product(*(self.grid[k] for k in keys))
            ):
                out.append(SweepPoint(index, tuple(zip(keys, combo))))
        else:
            for index, pt in enumerate(self.points_raw or []):
                out.append(SweepPoint(index, tuple(pt.items())))
        return out

    def __len__(self) -> int:
        if self.grid is not None:
            n = 1
            for values in self.grid.values():
                n *= len(values)
            return n
        return len(self.points_raw or [])

    # -- (de)serialisation ---------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        d: Dict[str, Any] = {"name": self.name, "preset": self.preset}
        if self.grid is not None:
            d["grid"] = {k: list(v) for k, v in self.grid.items()}
        else:
            d["points"] = [dict(p) for p in self.points_raw or []]
        if self.benchmark is not None:
            d["benchmark"] = self.benchmark
        d["n_threads"] = self.n_threads
        d["size_mode"] = self.size_mode
        if self.sample is not None:
            d["sample"] = self.sample.canonical_dict()
        return d

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SweepSpec":
        if not isinstance(data, Mapping):
            raise ValueError(
                f"sweep spec must be a JSON object, got {type(data).__name__}"
            )
        known = {
            "name",
            "preset",
            "grid",
            "points",
            "benchmark",
            "n_threads",
            "size_mode",
            "sample",
        }
        unknown = set(data) - known
        if unknown:
            first = sorted(unknown)[0]
            raise ValueError(
                f"unknown sweep spec fields: {sorted(unknown)}"
                f"{suggest(first, sorted(known))}; "
                f"expected a subset of {sorted(known)}"
            )
        return cls(
            name=data.get("name", "sweep"),
            preset=data.get("preset", "distributed_memory"),
            grid=data.get("grid"),
            points=data.get("points"),
            benchmark=data.get("benchmark"),
            n_threads=data.get("n_threads", 8),
            size_mode=data.get("size_mode", "compiler"),
            sample=data.get("sample"),
        )

    @classmethod
    def from_file(cls, path: "str | Path") -> "SweepSpec":
        """Load a spec from a JSON file; errors always name the file."""
        path = Path(path)
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON ({exc})") from None
        try:
            return cls.from_dict(data)
        except ValueError as exc:
            raise ValueError(f"{path}: bad sweep spec: {exc}") from None


def params_canonical_dict(params: SimulationParameters) -> Dict[str, Any]:
    """Canonical JSON-safe dict of resolved simulation parameters.

    The cache key material: every model field, enums by value, the fault
    plan expanded, and the cosmetic ``name`` excluded — two presets that
    resolve to identical physics share cache entries.
    """
    return {
        "processor": {
            f.name: _jsonify(getattr(params.processor, f.name))
            for f in dataclass_fields(ProcessorParams)
        },
        "network": {
            f.name: _jsonify(getattr(params.network, f.name))
            for f in dataclass_fields(NetworkParams)
        },
        "barrier": {
            f.name: _jsonify(getattr(params.barrier, f.name))
            for f in dataclass_fields(BarrierParams)
        },
        "faults": None if params.faults is None else params.faults.to_dict(),
    }


def _jsonify(value: Any) -> Any:
    if hasattr(value, "value") and not isinstance(value, (int, float, str, bool)):
        return value.value  # enum members
    if isinstance(value, tuple):
        return list(value)
    return value
