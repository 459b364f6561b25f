"""Budget resolution: the innermost ``budget_scope``, else the defaults."""

import json

import pytest

from ordercone import Budget, budget_scope, current_budget


def test_outside_every_scope_the_budget_is_the_defaults(monkeypatch):
    # The environment is not read, not even a malformed value.
    assert current_budget() == Budget()
    for value in (json.dumps({"handle_steps": 7}), "not json"):
        monkeypatch.setenv("ORDERCONE_BUDGET", value)
        assert current_budget() == Budget()


def test_nested_scopes_restore_the_outer_budget():
    outer = Budget(handle_steps=5)
    inner = outer.with_overrides({"braid_ball": {"3": 2}})
    with budget_scope(outer):
        with budget_scope(inner):
            assert current_budget() is inner
        assert current_budget() is outer
        with pytest.raises(RuntimeError):
            with budget_scope(inner):
                assert current_budget() is inner
                raise RuntimeError("the block fails")
        assert current_budget() is outer
    assert current_budget() == Budget()
