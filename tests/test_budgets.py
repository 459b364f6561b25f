"""Budget resolution: the innermost ``budget_scope``, else the defaults."""

import json

import pytest

from ordercone import Budget, UsageError, budget_scope, current_budget


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


@pytest.mark.parametrize("key", ["3", True, 3.0], ids=["str", "bool", "float"])
def test_braid_ball_keys_are_integer_strand_counts(key):
    # Budget(braid_ball={"3": 6}) used to cap B_3 balls at 2, the limit
    # for strand counts missing from the table.
    with pytest.raises(UsageError, match=rf"braid_ball has key {key!r}"):
        Budget(braid_ball={key: 6})
    assert Budget().with_overrides(
        {"braid_ball": {"3": 6}}).braid_ball_limit(3) == 6
