"""Resource budgets.

Every potentially expensive search carries an explicit budget and fails
loudly when it runs out; silent truncation is forbidden everywhere.
Every search reads its limits from ``current_budget()``: the budget
installed by the innermost ``budget_scope(b)``, or else the defaults with
the ``ORDERCONE_BUDGET`` environment variable applied, which holds a JSON
object of field overrides, e.g. ``{"handle_steps": 2000000, "braid_ball":
{"3": 6}}``.  One scope therefore reaches balls, census, BFS and handle
reduction alike; the CLI runs each command in the scope of its resolved
``--budget``.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field, fields, replace

from .errors import UsageError

_ENV_VAR = "ORDERCONE_BUDGET"

# The budget installed by ``budget_scope``; None means defaults plus env.
_scoped: ContextVar["Budget | None"] = ContextVar("ordercone_budget",
                                                  default=None)

#: Default Cayley-ball radius limits for braid groups, keyed by strand count.
_DEFAULT_BRAID_BALL = {2: 8, 3: 4, 4: 3}


@dataclass(frozen=True)
class Budget:
    """Limits for the search-shaped operations.

    handle_steps      max handle rewrites per reduction
    bfs_frontier      max nodes explored by semigroup breadth-first search
    braid_ball        per-strand-count cap on braid Cayley-ball radius
    braid_ball_default  cap for strand counts absent from ``braid_ball``
    census_braid_radius / census_other_radius  census radius caps
    lattice_check_radius  ball radius used by lattice cross-checks
    """

    handle_steps: int = 1_000_000
    bfs_frontier: int = 1_000_000
    braid_ball: dict[int, int] = field(default_factory=lambda: dict(_DEFAULT_BRAID_BALL))
    braid_ball_default: int = 2
    census_braid_radius: int = 3
    census_other_radius: int = 6
    lattice_check_radius: int = 12

    def __post_init__(self) -> None:
        limits = [(f.name, getattr(self, f.name)) for f in fields(self)
                  if f.name != "braid_ball"]
        limits += [(f"braid_ball[{n}]", v) for n, v in self.braid_ball.items()]
        for name, value in limits:
            if type(value) is not int or value <= 0:
                raise UsageError(
                    f"budget field {name} must be a positive integer")

    def braid_ball_limit(self, n: int) -> int:
        return self.braid_ball.get(n, self.braid_ball_default)

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
    """The scoped budget if one is set, otherwise defaults then env var."""
    budget = _scoped.get()
    if budget is not None:
        return budget
    budget = Budget()
    raw = os.environ.get(_ENV_VAR)
    if raw:
        try:
            env_fields = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise UsageError(f"{_ENV_VAR} is not valid JSON: {exc}") from exc
        budget = budget.with_overrides(env_fields)
    return budget
