"""Kubernetes-style resource quantities.

Kubernetes expresses CPU as cores with a milli-suffix (``"500m"`` = half a
core) and memory as bytes with binary or decimal suffixes (``"96Gi"``,
``"1.5G"``).  This module parses and formats those forms so node specs and
pod requests read exactly like the manifests the paper's workflow used.
"""

from __future__ import annotations

import re

from repro.errors import InvalidQuantityError

__all__ = [
    "parse_cpu",
    "parse_memory",
    "format_cpu",
    "format_memory",
    "Quantity",
    "GiB",
    "MiB",
    "KiB",
    "TiB",
]

KiB = 1024
MiB = 1024**2
GiB = 1024**3
TiB = 1024**4

_BINARY_SUFFIXES = {
    "Ki": 1024,
    "Mi": 1024**2,
    "Gi": 1024**3,
    "Ti": 1024**4,
    "Pi": 1024**5,
}
_DECIMAL_SUFFIXES = {
    "k": 10**3,
    "K": 10**3,
    "M": 10**6,
    "G": 10**9,
    "T": 10**12,
    "P": 10**15,
}

_QTY_RE = re.compile(r"^\s*([0-9]*\.?[0-9]+)\s*([A-Za-z]{0,2})\s*$")


def parse_cpu(value: "float | int | str") -> float:
    """Parse a CPU quantity into cores.

    >>> parse_cpu("500m")
    0.5
    >>> parse_cpu(2)
    2.0
    >>> parse_cpu("1.5")
    1.5
    """
    if isinstance(value, (int, float)):
        cores = float(value)
    else:
        match = _QTY_RE.match(value)
        if not match:
            raise InvalidQuantityError(f"bad CPU quantity: {value!r}")
        number, suffix = match.groups()
        if suffix == "m":
            cores = float(number) / 1000.0
        elif suffix == "":
            cores = float(number)
        else:
            raise InvalidQuantityError(f"bad CPU suffix in {value!r}")
    if cores < 0:
        raise InvalidQuantityError(f"negative CPU quantity: {value!r}")
    return cores


def parse_memory(value: "float | int | str") -> int:
    """Parse a memory quantity into bytes.

    >>> parse_memory("96Gi") == 96 * 1024**3
    True
    >>> parse_memory("1.5G")
    1500000000
    >>> parse_memory(1024)
    1024
    >>> parse_memory(2**53 + 1) == 2**53 + 1  # ints stay exact
    True
    """
    if isinstance(value, (int, float)):
        nbytes = value
    else:
        match = _QTY_RE.match(value)
        if not match:
            raise InvalidQuantityError(f"bad memory quantity: {value!r}")
        number, suffix = match.groups()
        if suffix == "":
            nbytes = float(number)
        elif suffix in _BINARY_SUFFIXES:
            nbytes = float(number) * _BINARY_SUFFIXES[suffix]
        elif suffix in _DECIMAL_SUFFIXES:
            nbytes = float(number) * _DECIMAL_SUFFIXES[suffix]
        else:
            raise InvalidQuantityError(f"bad memory suffix in {value!r}")
    if nbytes < 0:
        raise InvalidQuantityError(f"negative memory quantity: {value!r}")
    return int(nbytes)


def format_cpu(cores: float) -> str:
    """Render cores in the compact Kubernetes form.

    >>> format_cpu(0.5)
    '500m'
    >>> format_cpu(4.0)
    '4'
    """
    if cores == int(cores):
        return str(int(cores))
    return f"{int(round(cores * 1000))}m"


def format_memory(nbytes: "int | float") -> str:
    """Render bytes with the largest exact-enough binary suffix.

    >>> format_memory(96 * 1024**3)
    '96.0Gi'
    """
    nbytes = float(nbytes)
    for suffix in ("Pi", "Ti", "Gi", "Mi", "Ki"):
        unit = _BINARY_SUFFIXES[suffix]
        if nbytes >= unit:
            return f"{nbytes / unit:.1f}{suffix}"
    return f"{int(nbytes)}"


class Quantity:
    """A typed (cpu | memory | count) resource amount.

    Mostly a convenience for tests and pretty-printing; the hot paths use
    plain floats/ints produced by :func:`parse_cpu` / :func:`parse_memory`.
    """

    __slots__ = ("kind", "amount")

    def __init__(self, kind: str, amount: float):
        if kind not in ("cpu", "memory", "count"):
            raise InvalidQuantityError(f"unknown quantity kind {kind!r}")
        self.kind = kind
        self.amount = float(amount)

    @classmethod
    def cpu(cls, value: "float | str") -> "Quantity":
        return cls("cpu", parse_cpu(value))

    @classmethod
    def memory(cls, value: "float | str") -> "Quantity":
        return cls("memory", parse_memory(value))

    @classmethod
    def count(cls, value: int) -> "Quantity":
        if value < 0 or value != int(value):
            raise InvalidQuantityError(f"bad count: {value!r}")
        return cls("count", int(value))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Quantity)
            and self.kind == other.kind
            and self.amount == other.amount
        )

    def __hash__(self) -> int:
        return hash((self.kind, self.amount))

    def __add__(self, other: "Quantity") -> "Quantity":
        if not isinstance(other, Quantity) or other.kind != self.kind:
            raise InvalidQuantityError("cannot add quantities of mixed kinds")
        return Quantity(self.kind, self.amount + other.amount)

    def __repr__(self) -> str:
        if self.kind == "cpu":
            return f"Quantity(cpu={format_cpu(self.amount)})"
        if self.kind == "memory":
            return f"Quantity(memory={format_memory(self.amount)})"
        return f"Quantity(count={int(self.amount)})"
