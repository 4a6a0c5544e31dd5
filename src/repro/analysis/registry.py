"""The rule registry: every lint rule, discoverable and switchable.

Rules are small functions registered under a stable code (``SPEC001``,
``DAG003``, ``DET010``...) and grouped into packs:

- ``spec`` — cluster-spec admission lint (pods, jobs, namespaces,
  services vs. the testbed's nodes).
- ``dag`` — workflow DAG lint (cycles, orphans, retry/timeout hygiene,
  checkpoint coverage, GPU oversubscription).
- ``det`` — determinism lint (unseeded generators, plus call-graph
  taint over Python sources).
- ``conc`` — concurrency hazards in simulation processes.
- ``deploy`` — cross-layer deployment lint (gateway + cluster +
  workflows + client retries).

The registry is the single source of truth for ``repro lint
--list-rules`` and the rule-code tables in README/API docs; a rule that
isn't registered can't fire, and a registered rule is automatically
documented.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.analysis.findings import Finding, Severity

__all__ = ["Rule", "RuleRegistry", "registry", "rule"]


@dataclasses.dataclass(frozen=True)
class Rule:
    """Metadata + check function for one lint rule.

    ``check`` receives a pack-specific subject (a spec view, a workflow
    view, or a parsed source file) and yields :class:`Finding`s; the
    engine owns iteration and enable/disable filtering.
    """

    code: str
    name: str
    pack: str
    severity: Severity
    description: str
    check: _t.Callable[..., _t.Iterable[Finding]]


class RuleRegistry:
    """Keyed store of rules with per-run enable/disable resolution."""

    def __init__(self) -> None:
        self._rules: dict[str, Rule] = {}

    def register(self, rule: Rule) -> None:
        if rule.code in self._rules:
            raise ValueError(f"duplicate rule code {rule.code!r}")
        self._rules[rule.code] = rule

    def get(self, code: str) -> Rule:
        try:
            return self._rules[code]
        except KeyError:
            raise KeyError(f"unknown rule code {code!r}") from None

    def codes(self, pack: str | None = None) -> list[str]:
        return sorted(
            c for c, r in self._rules.items() if pack is None or r.pack == pack
        )

    def rules(self, pack: str | None = None) -> list[Rule]:
        """Every rule of ``pack`` (all packs when None), in code order.
        Selection is the engine's job (``LintEngine(select, disable)``)."""
        return [self._rules[code] for code in self.codes(pack)]

    def render_table(self) -> str:
        """The ``--list-rules`` view: code, pack, severity, description."""
        lines = [f"{'CODE':<9} {'PACK':<5} {'SEVERITY':<8} DESCRIPTION"]
        for code in self.codes():
            r = self._rules[code]
            lines.append(
                f"{r.code:<9} {r.pack:<5} {r.severity.value:<8} {r.description}"
            )
        return "\n".join(lines)


#: The process-wide registry every pack registers into on import.
registry = RuleRegistry()


def rule(
    code: str,
    name: str,
    pack: str,
    severity: Severity,
    description: str,
) -> _t.Callable:
    """Decorator: register ``fn`` as the check behind ``code``."""

    def decorate(fn: _t.Callable) -> _t.Callable:
        registry.register(
            Rule(
                code=code,
                name=name,
                pack=pack,
                severity=severity,
                description=description,
                check=fn,
            )
        )
        return fn

    return decorate
