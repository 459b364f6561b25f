"""Exact arithmetic in Q(sqrt 2).

A scalar is a + b*sqrt(2) with rational a, b kept as ``Fraction``
values, which stores them in lowest terms with positive denominator.
The sign is decidable exactly: when a and b agree in sign it is
immediate, and for opposite signs it reduces to comparing a^2 with
2 b^2 (they can never tie, since sqrt 2 is irrational).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import UsageError


def _fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise UsageError(f"bad rational literal {value!r}") from exc
    raise UsageError(f"cannot coerce {value!r} to a rational")


def sqrt2_sign(a, b) -> int:
    """Exact sign of a + b*sqrt(2) for rational or integer a, b."""
    sa = (a > 0) - (a < 0)
    sb = (b > 0) - (b < 0)
    if sa == sb or sb == 0:
        return sa
    if sa == 0:
        return sb
    # Opposite signs: a + b*sqrt2 > 0 iff a^2 > 2 b^2 when a > 0,
    # and iff a^2 < 2 b^2 when b > 0.
    return sa if a * a > 2 * b * b else sb


@dataclass(frozen=True)
class QuadScalar:
    """The exact number a + b*sqrt(2); ``QuadScalar(a)`` is rational."""

    a: Fraction = Fraction(0)
    b: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", _fraction(self.a))
        object.__setattr__(self, "b", _fraction(self.b))

    def sign(self) -> int:
        return sqrt2_sign(self.a, self.b)

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def __add__(self, other: "QuadScalar") -> "QuadScalar":
        return QuadScalar(self.a + other.a, self.b + other.b)

    def __neg__(self) -> "QuadScalar":
        return QuadScalar(-self.a, -self.b)

    def __mul__(self, other) -> "QuadScalar":
        if isinstance(other, QuadScalar):
            return QuadScalar(self.a * other.a + 2 * self.b * other.b,
                              self.a * other.b + self.b * other.a)
        return QuadScalar(self.a * other, self.b * other)

    __rmul__ = __mul__

    def to_json(self) -> dict:
        return {"a": str(self.a), "b": str(self.b)}

    @classmethod
    def from_json(cls, data: dict) -> "QuadScalar":
        if not isinstance(data, dict) or set(data) - {"a", "b"}:
            raise UsageError(f"bad scalar payload {data!r}")
        return cls(_fraction(data.get("a", 0)), _fraction(data.get("b", 0)))

    def __repr__(self) -> str:
        if self.b == 0:
            return f"{self.a}"
        return f"{self.a}+{self.b}r2" if self.b > 0 else f"{self.a}{self.b}r2"
