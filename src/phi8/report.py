"""One check/report model: every check, the identity battery's and the
lattice's, returns IdentityReport values.  A report either holds or
carries a witness naming the first mismatching entry; an informational
report documents instead of asserting.  This module imports no other
phi8 module.
"""
from __future__ import annotations

from typing import Iterable, NamedTuple


class Witness(NamedTuple):
    row: int
    col: int
    expected: str
    actual: str


class IdentityReport:
    """One named check: whether it holds, its first mismatch and its details."""

    __slots__ = ("name", "holds", "witness", "informational", "details")

    def __init__(self, name: str, holds: bool, witness: Witness | None = None,
                 informational: bool = False, details: dict[str, object] | None = None) -> None:
        values = (name, holds, witness, informational, {} if details is None else details)
        for slot, value in zip(self.__slots__, values):
            object.__setattr__(self, slot, value)

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def _fields(self) -> tuple:
        return tuple(getattr(self, slot) for slot in self.__slots__)

    def __reduce__(self):
        return type(self), self._fields()

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        fields = ", ".join(f"{slot}={value!r}" for slot, value in zip(self.__slots__, self._fields()))
        return f"{type(self).__qualname__}({fields})"

    def to_dict(self) -> dict[str, object]:
        return {
            "name": self.name,
            "holds": self.holds,
            "informational": self.informational,
            "witness": self.witness._asdict() if self.witness else None,
            "details": dict(self.details),
        }

    def line(self) -> str:
        """The report as one line of text: INFO, PASS or FAIL and its name."""
        if self.informational:
            residual = self.details.get("max_abs_residual")
            extra = "" if self.holds or residual is None else f" (max residual {residual:.6f})"
            return f"INFO {self.name}: {'holds' if self.holds else 'deviates'}{extra}"
        if self.holds:
            return f"PASS {self.name}"
        w = self.witness
        where = f" at ({w.row},{w.col}) expected {w.expected} got {w.actual}" if w else ""
        return f"FAIL {self.name}{where}"


def exit_code(reports: Iterable[IdentityReport]) -> int:
    """1 iff a non-informational check fails."""
    return 0 if all(r.holds or r.informational for r in reports) else 1
