"""The ``Finding`` model: what a lint rule reports.

On real Nautilus, admission control rejects a malformed manifest with a
machine-readable reason; community linters annotate the offending line.
A :class:`Finding` is this reproduction's version of both: a rule code,
a severity, a :class:`Location` (file/line for source findings, object
kind/name for spec findings), a human message, and a suggestion saying
what to change.  Findings are plain data — they serialize to JSON for
``repro lint --format json`` and fingerprint stably for baseline
suppression (:mod:`repro.analysis.baseline`).
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib

__all__ = ["Severity", "Location", "Finding", "normalize_snippet"]


class Severity(enum.Enum):
    """How bad a finding is — drives the lint exit code.

    ``ERROR`` findings always fail ``repro lint``; ``WARNING`` findings
    fail only under ``--strict``; ``INFO`` never fails the run.
    """

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    @property
    def rank(self) -> int:
        return {"error": 0, "warning": 1, "info": 2}[self.value]


@dataclasses.dataclass(frozen=True)
class Location:
    """Where a finding points.

    Source findings (determinism pack) set ``path``/``line``; spec and
    DAG findings set ``kind``/``name`` (e.g. ``Pod``/``train-worker`` or
    ``Workflow``/``connect``), optionally with a namespace.
    """

    path: str = ""
    line: int = 0
    kind: str = ""
    name: str = ""
    namespace: str = ""

    def __str__(self) -> str:
        if self.path:
            where = self.path if not self.line else f"{self.path}:{self.line}"
        elif self.kind:
            obj = f"{self.namespace}/{self.name}" if self.namespace else self.name
            where = f"{self.kind}/{obj}"
        else:
            where = "<unknown>"
        return where


def normalize_snippet(snippet: str) -> str:
    """Collapse a source snippet to its whitespace-normalized form so
    reformatting (indentation, line wrapping) does not change it."""
    return " ".join(snippet.split())


@dataclasses.dataclass(frozen=True)
class Finding:
    """One rule violation."""

    code: str
    severity: Severity
    message: str
    location: Location = dataclasses.field(default_factory=Location)
    suggestion: str = ""
    #: dotted name of the enclosing function/method ("Cls.method"), when
    #: the finding points into source code; anchors the fingerprint
    qualname: str = ""
    #: the offending source line(s), used for fingerprints
    snippet: str = ""

    @property
    def fingerprint(self) -> str:
        """Stable identity used by baseline suppression.

        Source findings hash the rule code, the file's *basename*, the
        enclosing qualname and the whitespace-normalized snippet — never
        the absolute line number or the directory — so moving a file
        between directories or shifting code up and down the file keeps
        a baselined suppression valid.  Spec, DAG and deploy findings
        hash the rule code plus the object coordinates
        (kind/namespace/name) and the message.
        """
        h = hashlib.blake2b(digest_size=8)
        if self.location.path and (self.snippet or self.qualname):
            basename = self.location.path.replace("\\", "/").rsplit("/", 1)[-1]
            parts = (
                self.code,
                basename,
                self.qualname,
                normalize_snippet(self.snippet) or self.message,
            )
        elif self.location.kind:
            parts = (
                self.code,
                self.location.kind,
                self.location.namespace,
                self.location.name,
                self.message,
            )
        else:
            basename = self.location.path.replace("\\", "/").rsplit("/", 1)[-1]
            parts = (self.code, basename, self.message)
        for part in parts:
            h.update(part.encode())
            h.update(b"\x00")
        return h.hexdigest()

    def to_dict(self) -> dict:
        return {
            "code": self.code,
            "severity": self.severity.value,
            "message": self.message,
            "location": {
                "path": self.location.path,
                "line": self.location.line,
                "kind": self.location.kind,
                "name": self.location.name,
                "namespace": self.location.namespace,
            },
            "suggestion": self.suggestion,
            "qualname": self.qualname,
            "snippet": self.snippet,
            "fingerprint": self.fingerprint,
        }

    def format(self) -> str:
        """One-line (plus optional suggestion) text rendering."""
        text = f"{self.location}: {self.code} {self.severity.value}: {self.message}"
        if self.suggestion:
            text += f"\n    suggestion: {self.suggestion}"
        return text

    def __str__(self) -> str:
        return self.format()


def sort_findings(findings: "list[Finding]") -> "list[Finding]":
    """Deterministic presentation order: severity, then location, then code."""
    return sorted(
        findings,
        key=lambda f: (
            f.severity.rank,
            f.location.path,
            f.location.line,
            f.location.kind,
            f.location.namespace,
            f.location.name,
            f.code,
            f.message,
        ),
    )
