"""Resource budgets.

Every potentially expensive search carries an explicit budget and fails
loudly when it runs out; silent truncation is forbidden everywhere.
Every search reads its limits from ``current_budget()``: the budget
installed by the innermost ``budget_scope(b)``, or else the defaults.
One scope therefore reaches balls, census, BFS and handle reduction
alike; the CLI runs each command in the scope of its ``--budget``
overrides, a JSON object of fields such as ``{"handle_steps": 2000000,
"braid_ball": {"3": 6}}``.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field, fields, replace

from .errors import UsageError

#: Default Cayley-ball radius limits for braid groups, keyed by strand count.
_DEFAULT_BRAID_BALL = {2: 8, 3: 4, 4: 3}
#: The radius limit for strand counts absent from ``braid_ball``.
_OTHER_BRAID_BALL = 2


@dataclass(frozen=True)
class Budget:
    """Limits for the search-shaped operations.

    handle_steps      max handle rewrites per reduction
    bfs_frontier      max nodes explored by semigroup breadth-first search
    braid_ball        per-strand-count cap on braid Cayley-ball radius,
                      keyed by int strand counts; strand counts absent
                      from it are capped at 2
    census_braid_radius / census_other_radius  census radius caps

    A ``braid_ball`` given to the constructor is the whole table, without
    the defaults; ``with_overrides`` merges into the current table.
    """

    handle_steps: int = 1_000_000
    bfs_frontier: int = 1_000_000
    braid_ball: dict[int, int] = field(default_factory=lambda: dict(_DEFAULT_BRAID_BALL))
    census_braid_radius: int = 3
    census_other_radius: int = 6

    def __post_init__(self) -> None:
        for n in self.braid_ball:
            if type(n) is not int:
                raise UsageError(f"budget field braid_ball has key {n!r}, "
                                 "not an integer strand count")
        limits = [(f.name, getattr(self, f.name)) for f in fields(self)
                  if f.name != "braid_ball"]
        limits += [(f"braid_ball[{n}]", v) for n, v in self.braid_ball.items()]
        for name, value in limits:
            if type(value) is not int or value <= 0:
                raise UsageError(
                    f"budget field {name} must be a positive integer")

    def braid_ball_limit(self, n: int) -> int:
        return self.braid_ball.get(n, _OTHER_BRAID_BALL)

    def with_overrides(self, overrides: dict) -> "Budget":
        """Return a copy with the given field overrides applied."""
        if not isinstance(overrides, dict):
            raise UsageError(
                f"budget overrides must be a JSON object, not {overrides!r}")
        changes = dict(overrides)
        try:
            if "braid_ball" in changes:
                merged = dict(self.braid_ball)
                merged.update({int(k): v
                               for k, v in changes["braid_ball"].items()})
                changes["braid_ball"] = merged
            return replace(self, **changes)
        except (AttributeError, TypeError, ValueError) as exc:
            raise UsageError(f"bad budget overrides {overrides!r}: {exc}") from exc


# The budget installed by the innermost ``budget_scope``.
_scoped: ContextVar[Budget] = ContextVar("ordercone_budget", default=Budget())


@contextmanager
def budget_scope(budget: Budget):
    """Make ``current_budget()`` return ``budget`` in this context
    (thread or task) until the block exits."""
    token = _scoped.set(budget)
    try:
        yield
    finally:
        _scoped.reset(token)


def current_budget() -> Budget:
    """The innermost scoped budget, or the defaults outside every scope."""
    return _scoped.get()
