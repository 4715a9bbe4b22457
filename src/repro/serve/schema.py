"""Request validation for the serve API.

Every request body is validated here before any work happens, with the
same did-you-mean spelling help the sweep spec gives
(:func:`repro.sweep.spec.suggest`): a malformed request becomes an
:class:`ApiError` carrying an HTTP status and a one-line message —
never a traceback over the wire.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Sequence

from repro.sweep.spec import suggest

#: Hard ceiling on inline trace size; larger traces should live on the
#: server's ``--trace-root`` and be referenced by ``trace_path``.
MAX_INLINE_EVENTS = 1_000_000

#: Hard ceiling on inline trace thread counts (matches nothing physical;
#: it exists so a hostile request cannot allocate per-thread state
#: unboundedly).
MAX_INLINE_THREADS = 65_536


class ApiError(Exception):
    """A client-visible request failure: HTTP status + one-line message.

    ``retry_after`` (integral seconds) is set on admission failures —
    429 rate limiting and 503 load shedding — and becomes both the
    ``Retry-After`` response header and a ``retry_after`` field in the
    error body, so well-behaved clients can back off precisely.
    """

    def __init__(self, status: int, message: str, *, retry_after: Optional[int] = None):
        super().__init__(message)
        self.status = int(status)
        self.message = str(message)
        self.retry_after = None if retry_after is None else int(retry_after)


def bad_request(message: str) -> ApiError:
    return ApiError(400, message)


def expect_object(body: Any, what: str) -> Mapping[str, Any]:
    """``body`` as a JSON object, or a 400."""
    if not isinstance(body, Mapping):
        raise bad_request(
            f"{what} must be a JSON object, got "
            f"{type(body).__name__ if body is not None else 'null'}"
        )
    return body


def reject_unknown_keys(
    obj: Mapping[str, Any], known: Sequence[str], what: str
) -> None:
    """400 for any key outside ``known``, with a spelling suggestion."""
    unknown = sorted(set(obj) - set(known))
    if unknown:
        raise bad_request(
            f"unknown {what} field {unknown[0]!r}"
            f"{suggest(str(unknown[0]), list(known))}; "
            f"expected a subset of {sorted(known)}"
        )


def _number(obj: Mapping[str, Any], key: str, what: str, *, minimum=None):
    value = obj.get(key)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise bad_request(f"{what} {key!r} must be a number, got {value!r}")
    if minimum is not None and value < minimum:
        raise bad_request(f"{what} {key!r} must be >= {minimum}, got {value!r}")
    return value


def _int(obj: Mapping[str, Any], key: str, what: str, *, minimum=None):
    value = obj.get(key)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise bad_request(f"{what} {key!r} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise bad_request(f"{what} {key!r} must be >= {minimum}, got {value!r}")
    return value


def _trace_fields(body: Mapping[str, Any], what: str):
    """The mutually-exclusive ``trace`` / ``trace_path`` pair."""
    inline = body.get("trace")
    path = body.get("trace_path")
    if inline is not None and path is not None:
        raise bad_request(f"{what} takes 'trace' or 'trace_path', not both")
    if inline is not None:
        inline = expect_object(inline, "'trace'")
        reject_unknown_keys(inline, ("meta", "events"), "trace")
        meta = expect_object(inline.get("meta"), "'trace.meta'")
        events = inline.get("events")
        if not isinstance(events, list) or not events:
            raise bad_request("'trace.events' must be a non-empty list")
        if len(events) > MAX_INLINE_EVENTS:
            raise ApiError(
                413,
                f"inline trace too large ({len(events)} events, limit "
                f"{MAX_INLINE_EVENTS}); store it under the server's trace "
                "root and send 'trace_path' instead",
            )
        n_threads = meta.get("n_threads")
        if isinstance(n_threads, int) and n_threads > MAX_INLINE_THREADS:
            raise bad_request(
                f"'trace.meta.n_threads' {n_threads} exceeds the limit "
                f"{MAX_INLINE_THREADS}"
            )
    if path is not None and (not isinstance(path, str) or not path):
        raise bad_request("'trace_path' must be a non-empty string")
    return inline, path


@dataclass
class PredictRequest:
    """A validated ``POST /v1/predict`` body."""

    preset: str = "distributed_memory"
    overrides: Dict[str, Any] = field(default_factory=dict)
    trace_inline: Optional[Mapping[str, Any]] = None
    trace_path: Optional[str] = None
    wall_budget: Optional[float] = None
    diagnose: bool = False
    #: validated ``repro.sampling.SamplingConfig``, or None for a full
    #: simulation
    sample: Optional[Any] = None


#: keys a predict request may carry
PREDICT_KEYS = (
    "trace",
    "trace_path",
    "preset",
    "overrides",
    "wall_budget",
    "diagnose",
    "sample",
)


def validate_predict_request(body: Any) -> PredictRequest:
    body = expect_object(body, "predict request")
    reject_unknown_keys(body, PREDICT_KEYS, "predict request")
    inline, path = _trace_fields(body, "a predict request")
    if inline is None and path is None:
        raise bad_request(
            "predict request needs a trace: inline events under 'trace' or "
            "a server-side file under 'trace_path'"
        )
    preset = body.get("preset", "distributed_memory")
    if not isinstance(preset, str):
        raise bad_request(f"'preset' must be a string, got {preset!r}")
    overrides = body.get("overrides") or {}
    overrides = dict(expect_object(overrides, "'overrides'"))
    for key in overrides:
        if not isinstance(key, str):
            raise bad_request(f"override keys must be strings, got {key!r}")
    wall_budget = _number(body, "wall_budget", "predict request")
    if wall_budget is not None and wall_budget <= 0:
        raise bad_request(f"'wall_budget' must be > 0, got {wall_budget!r}")
    diagnose = body.get("diagnose", False)
    if not isinstance(diagnose, bool):
        raise bad_request(f"'diagnose' must be a boolean, got {diagnose!r}")
    sample = None
    if body.get("sample") is not None:
        from repro.sampling import SamplingConfig

        raw = expect_object(body["sample"], "'sample'")
        try:
            sample = SamplingConfig.from_dict(raw)
        except ValueError as exc:
            raise bad_request(f"bad 'sample' config: {exc}") from None
    return PredictRequest(
        preset=preset,
        overrides=overrides,
        trace_inline=inline,
        trace_path=path,
        wall_budget=wall_budget,
        diagnose=diagnose,
        sample=sample,
    )


@dataclass
class SweepRequest:
    """A validated ``POST /v1/sweeps`` body (spec still un-expanded)."""

    spec: Mapping[str, Any] = field(default_factory=dict)
    trace_path: Optional[str] = None
    trace_inline: Optional[Mapping[str, Any]] = None
    jobs: Optional[int] = None
    retries: Optional[int] = None
    wall_budget: Optional[float] = None


#: keys a sweep submission may carry
SWEEP_KEYS = ("spec", "trace", "trace_path", "jobs", "retries", "wall_budget")


def validate_sweep_request(body: Any) -> SweepRequest:
    body = expect_object(body, "sweep request")
    reject_unknown_keys(body, SWEEP_KEYS, "sweep request")
    spec = expect_object(body.get("spec"), "'spec'")
    inline, path = _trace_fields(body, "a sweep request")
    jobs = _int(body, "jobs", "sweep request", minimum=1)
    retries = _int(body, "retries", "sweep request", minimum=0)
    wall_budget = _number(body, "wall_budget", "sweep request")
    if wall_budget is not None and wall_budget <= 0:
        raise bad_request(f"'wall_budget' must be > 0, got {wall_budget!r}")
    return SweepRequest(
        spec=spec,
        trace_path=path,
        trace_inline=inline,
        jobs=jobs,
        retries=retries,
        wall_budget=wall_budget,
    )
