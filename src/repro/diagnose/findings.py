"""Findings and the diagnosis report: the *output* side of
:mod:`repro.diagnose`.

A :class:`Finding` is one typed anomaly with a severity score in
``[0, 1]`` and machine-readable evidence; a :class:`DiagnosisReport`
is the ranked, deterministic collection of findings one diagnosis run
produced, together with enough timeline metadata to interpret them.

Determinism contract: every severity is rounded to
:data:`SEVERITY_DECIMALS` decimals, evidence is kept as sorted
``(key, value)`` pairs, findings are ranked by
``(-severity, kind, proc, summary)``, and :meth:`DiagnosisReport.to_json`
serialises with sorted keys and fixed separators — so the same timeline
always yields byte-identical report output.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

#: bumped when the report JSON changes incompatibly
SCHEMA_VERSION = 1

#: severity rounding, decimals (floats must not leak platform noise
#: into the byte-deterministic JSON output)
SEVERITY_DECIMALS = 6

#: the finding kinds the built-in detectors emit, in catalog order
KINDS = (
    "straggler",
    "barrier_imbalance",
    "comm_hotspot",
    "idle_tail",
)


def _round6(value: float) -> float:
    """Round evidence floats so reports stay byte-deterministic."""
    return round(float(value), SEVERITY_DECIMALS)


def clamp_severity(value: float) -> float:
    """Severity clamped into [0, 1] and rounded for determinism."""
    return _round6(min(1.0, max(0.0, value)))


@dataclass(frozen=True)
class Finding:
    """One detected anomaly.

    Attributes
    ----------
    kind:
        The detector's type tag (one of :data:`KINDS` for the built-in
        detectors).
    severity:
        Ranking score in ``[0, 1]`` — 1.0 means "dominates the run".
    summary:
        One human-readable line stating what was found and where.
    proc:
        The primary simulated processor implicated, or ``None`` for
        findings that are not attributable to one processor.
    evidence:
        Sorted ``(key, value)`` pairs of the numbers behind the call —
        enough to recompute the severity by hand.
    """

    kind: str
    severity: float
    summary: str
    proc: Optional[int] = None
    evidence: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "severity", clamp_severity(self.severity))
        object.__setattr__(
            self,
            "evidence",
            tuple(
                sorted(
                    (k, _round6(v) if isinstance(v, float) else v)
                    for k, v in self.evidence
                )
            ),
        )

    def evidence_dict(self) -> Dict[str, Any]:
        return dict(self.evidence)

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "kind": self.kind,
            "severity": self.severity,
            "summary": self.summary,
            "evidence": self.evidence_dict(),
        }
        if self.proc is not None:
            out["proc"] = self.proc
        return out

    def sort_key(self) -> Tuple:
        """Most severe first; ties broken by kind, processor, text."""
        return (
            -self.severity,
            self.kind,
            self.proc if self.proc is not None else -1,
            self.summary,
        )


def make_finding(
    kind: str,
    severity: float,
    summary: str,
    *,
    proc: Optional[int] = None,
    **evidence: Any,
) -> Finding:
    """Build a :class:`Finding` from keyword evidence."""
    return Finding(
        kind=kind,
        severity=severity,
        summary=summary,
        proc=proc,
        evidence=tuple(evidence.items()),
    )


@dataclass
class DiagnosisReport:
    """The ranked outcome of one diagnosis run over one timeline."""

    n_procs: int
    end_time: float
    program: str = ""
    params_name: str = ""
    findings: List[Finding] = field(default_factory=list)
    #: the threshold values the detectors ran with (documentation of
    #: why each finding did or did not fire)
    thresholds: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        self.findings = sorted(self.findings, key=Finding.sort_key)

    # -- queries -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.findings)

    def by_kind(self, kind: str) -> List[Finding]:
        return [f for f in self.findings if f.kind == kind]

    def kinds(self) -> List[str]:
        """Distinct finding kinds present, in catalog order then name."""
        present = {f.kind for f in self.findings}
        ordered = [k for k in KINDS if k in present]
        ordered += sorted(present - set(KINDS))
        return ordered

    # -- serialisation -------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": SCHEMA_VERSION,
            "program": self.program,
            "params": self.params_name,
            "n_procs": self.n_procs,
            "end_time_us": self.end_time,
            "findings": [f.to_dict() for f in self.findings],
            "thresholds": dict(sorted(self.thresholds.items())),
        }

    def to_json(self) -> str:
        """Byte-deterministic JSON document (sorted keys, fixed separators)."""
        return (
            json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
            + "\n"
        )

    # -- human rendering -----------------------------------------------------

    def format(self) -> str:
        """The human report ``extrap timeline --diagnose`` prints."""
        head = (
            f"diagnosis: {self.program or 'program'} on {self.n_procs} "
            f"processors ({self.params_name or 'unknown params'}), "
            f"0 .. {self.end_time:.1f} us"
        )
        if not self.findings:
            return head + "\n  no anomalies detected"
        counts = ", ".join(
            f"{len(self.by_kind(k))} {k}" for k in self.kinds()
        )
        lines = [head, f"  {len(self.findings)} findings ({counts})"]
        for f in self.findings:
            where = f"proc {f.proc}" if f.proc is not None else "global"
            lines.append(
                f"  [{f.severity:.2f}] {f.kind:18s} {where}: {f.summary}"
            )
            ev = " ".join(
                f"{k}={v:g}" if isinstance(v, float) else f"{k}={v}"
                for k, v in f.evidence
            )
            if ev:
                lines.append(f"         {ev}")
        return "\n".join(lines)
