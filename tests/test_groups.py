"""Element arithmetic and ball enumeration across the three families."""

import random
import re
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import ordercone
from ordercone import (BudgetExceededError, ContextMismatchError,
                       GroupContext, GroupElement, UsageError, ball,
                       budget_scope, current_budget, multiply)

from ordercone.groups import ball_payloads
from ordercone.lospace import dd_isolation_witnesses

from conftest import (burau_exact, dd_witness_oracle, element_ball_search,
                      product_triples_oracle)

small_ints = st.integers(min_value=-6, max_value=6)
klein_pairs = st.tuples(small_ints, small_ints)


def test_klein_multiplication_examples(klein):
    x, y = klein.generators()
    assert (x * y).payload == (1, 1)
    # y x rewrites through the relator to x y^-1.
    assert (y * x).payload == (1, -1)
    assert multiply(klein.element((1, 2)), klein.element((2, 3))).payload == (3, 5)


def test_klein_relator(klein):
    x, y = klein.generators()
    # x y x^-1 = y^-1 as elements.
    assert (x * y * x.inverse()) == y.inverse()


def test_klein_inverse(klein):
    g = klein.element((1, -1))
    assert g.inverse().payload == (-1, -1)
    assert (g * g.inverse()).is_identity()


@given(klein_pairs, klein_pairs, klein_pairs)
def test_klein_group_laws(p1, p2, p3):
    klein = GroupContext.klein_bottle()
    g, h, f = (klein.element(p) for p in (p1, p2, p3))
    assert (g * h) * f == g * (h * f)
    assert (g * g.inverse()).is_identity()
    assert g.inverse().inverse() == g


def test_free_abelian_examples(z2):
    assert (z2.element((1, 2)) * z2.element((-1, 3))).payload == (0, 5)
    assert z2.element((3, -1)).inverse().payload == (-3, 1)
    assert z2.element("3,-1") == z2.element((3, -1))
    for bad in ("3,x", "3", (True, 1)):
        with pytest.raises(UsageError):
            z2.element(bad)
    assert GroupContext.free_abelian(3).element((0, 0, 0)).is_identity()


@pytest.mark.parametrize("context, payload, error", [
    (GroupContext.free_abelian(2), (0.5, -3), UsageError),
    (GroupContext.free_abelian(2), (True, 1), UsageError),
    (GroupContext.free_abelian(2), [1, 2], UsageError),
    (GroupContext.free_abelian(2), (1, 2, 3), UsageError),
    (GroupContext.klein_bottle(), (1,), UsageError),
    (GroupContext.braid(3), (1, True), UsageError),
    (GroupContext.braid(3), (3,), UsageError),
], ids=["float", "bool", "list", "length", "klein-length", "braid-tuple",
        "braid-n"])
def test_element_payload_is_checked_at_construction(context, payload, error):
    # A float payload used to reach the trusted lattice sign, which
    # evaluated it in float arithmetic.
    with pytest.raises(error):
        GroupElement(context, payload)


def test_braid_elements(b3):
    g = b3.element("s1 s2")
    assert g.inverse().text() == "S2 S1"
    assert b3.element("s1 s2 s1 S2 S1 S2").is_identity()
    assert not b3.element("s2").is_identity()
    # Semantic equality across different words for the same braid.
    assert b3.element("s1 s2 s1") == b3.element("s2 s1 s2")
    assert hash(b3.element("s1 s2 s1")) == hash(b3.element("s2 s1 s2"))


def test_context_mismatch(b3, z2):
    with pytest.raises(ContextMismatchError):
        multiply(b3.element("s1"), GroupContext.braid(4).element("s1"))
    with pytest.raises(ContextMismatchError):
        multiply(z2.element((1, 0)), GroupContext.free_abelian(3).element(
            (1, 0, 0)))
    assert b3.element("s1") != z2.element((1, 0))
    # An equal context that is not the interned one still multiplies.
    twin = GroupElement(GroupContext("braid", n=3), (2,))
    product = multiply(b3.element("s1"), twin)
    assert product == b3.element("s1 s2") and product.context == b3


@pytest.mark.parametrize("family, params, name", [
    ("braid", {"k": 5, "n": 3}, "k"),
    ("free_abelian", {"k": 2, "n": 7}, "n"),
    ("klein_bottle", {"k": 1}, "k"),
    ("klein_bottle", {"n": 2}, "n"),
], ids=["braid-k", "free-abelian-n", "klein-k", "klein-n"])
def test_context_refuses_a_parameter_its_family_does_not_take(family, params,
                                                              name):
    # Such a context printed like B_3 or Z^2 yet compared unequal to it.
    with pytest.raises(UsageError, match=f"takes no parameter {name}"):
        GroupContext(family, **params)
    assert GroupContext("braid", n=3) == GroupContext.braid(3)
    assert GroupContext("free_abelian", k=2) == GroupContext.free_abelian(2)
    assert GroupContext("klein_bottle") == GroupContext.klein_bottle()


def test_contexts_are_interned():
    assert GroupContext.braid(3) is GroupContext.braid(3)
    assert GroupContext.free_abelian(2) is GroupContext.free_abelian(2)
    assert GroupContext.klein_bottle() is GroupContext.klein_bottle()
    # Contexts read from JSON are the interned ones.
    for context in (GroupContext.braid(3), GroupContext.free_abelian(2),
                    GroupContext.klein_bottle()):
        assert GroupContext.from_json(context.to_json()) is context
    # A bool parameter does not answer for the cached int one: it reaches
    # the check and is refused.
    assert type(GroupContext.free_abelian(1).k) is int
    with pytest.raises(UsageError, match="free abelian rank k"):
        GroupContext.free_abelian(True)


def test_ball_counts():
    assert len(ball(GroupContext.free_abelian(2), 1)) == 4
    assert len(ball(GroupContext.klein_bottle(), 1)) == 4
    assert len(ball(GroupContext.braid(3), 2)) == 16
    assert len(ball(GroupContext.free_abelian(2), 2)) == 12
    assert len(ball(GroupContext.klein_bottle(), 2)) == 12
    assert len(ball(GroupContext.free_abelian(3), 2)) == 24


def test_braid_ball_hashes_are_distinct(b3):
    # CPython hashes -1 like -2, so key entries are doubled before hashing.
    b = ball(b3, 4)
    assert len(b) == 114
    assert len({hash(e) for e in b}) == 114
    assert b3.identity().is_identity()


def test_braid_ball_against_burau_oracle(b3):
    # Independent count: dedupe all words of length <= 2 by exact Burau.
    words = set()
    letters = [1, -1, 2, -2]
    for l1 in letters:
        words.add((l1,))
        for l2 in letters:
            words.add((l1, l2))
    images = {burau_exact(3, w) for w in words}
    identity_image = burau_exact(3, ())
    images.discard(identity_image)
    assert len(images) == len(ball(b3, 2)) == 16


def test_ball_invariants():
    for ctx, radius in ((GroupContext.free_abelian(2), 4),
                        (GroupContext.klein_bottle(), 4),
                        (GroupContext.braid(3), 3)):
        b = ball(ctx, radius)
        smaller = ball(ctx, radius - 1)
        assert list(b.elements[:len(smaller)]) == list(smaller.elements)
        assert ctx.identity() not in b
        for i, e in enumerate(b.elements):
            assert b.elements[b.inverse_position[i]] == e.inverse()
            assert e.word_length() <= radius
        assert len(set(b.elements)) == len(b)


_ORDER_BALLS = [(GroupContext.free_abelian(1), 6),
                (GroupContext.free_abelian(2), 12),
                (GroupContext.free_abelian(3), 6),
                (GroupContext.klein_bottle(), 5),
                (GroupContext.braid(2), 6),
                (GroupContext.braid(3), 4),
                (GroupContext.braid(4), 3),
                (GroupContext.braid(5), 2)]


@pytest.mark.parametrize("ctx, radius", _ORDER_BALLS,
                         ids=[f"{c!r}-r{r}" for c, r in _ORDER_BALLS])
def test_payload_bfs_matches_element_ball_search(ctx, radius):
    for r in range(radius + 1):
        payloads, lengths, inverses = element_ball_search(ctx, r)
        members, positions = ball_payloads(ctx, r)
        assert members == payloads
        assert list(positions.values()) == list(range(len(payloads)))
        b = ball(ctx, r)
        assert [e.payload for e in b] == payloads
        assert list(b.lengths) == lengths
        assert list(b.inverse_position) == inverses


@pytest.mark.parametrize("ctx, radius", _ORDER_BALLS,
                         ids=[f"{c!r}-r{r}" for c, r in _ORDER_BALLS])
def test_cuts_factor_each_member_through_a_generator(ctx, radius):
    b = ball(ctx, radius)
    generators = set(ctx.generators_with_inverses())
    cuts = b.cuts()
    assert len(cuts) == len(b)
    for k, (e, length) in enumerate(zip(b.elements, b.lengths)):
        assert bool(cuts[k]) == (length >= 2)
        for i, j in cuts[k]:
            assert b.elements[i] * b.elements[j] == e
            lengths = sorted((b.lengths[i], b.lengths[j]))
            assert lengths == [1, length - 1]
            assert (b.elements[i] in generators if b.lengths[i] == 1
                    else b.elements[j] in generators)
    # Every factorization of that shape is listed, once.
    for k, e in enumerate(b.elements):
        expected = {(i, j) for i, f in enumerate(b.elements)
                    for g in [f.inverse() * e] if g in b
                    for j in [b.position(g)]
                    if 1 in (b.lengths[i], b.lengths[j])
                    and b.lengths[i] + b.lengths[j] == b.lengths[k]}
        assert sorted(cuts[k]) == sorted(expected)
        assert len(set(cuts[k])) == len(cuts[k])


@pytest.mark.parametrize("ctx, radius", _ORDER_BALLS,
                         ids=[f"{c!r}-r{r}" for c, r in _ORDER_BALLS])
def test_ball_members_have_distinct_hashes(ctx, radius):
    # CPython hashes -1 like -2, so raw coordinate tuples collide.
    b = ball(ctx, radius)
    assert len({hash(e) for e in b}) == len(b)
    # Braid members carry the key their BFS computed: it must be the
    # key a fresh element computes.
    fresh = [ctx.element(e.payload) for e in b]
    assert fresh == list(b) and [hash(e) for e in fresh] == [hash(e) for e in b]


_TRIPLE_BALLS = [(GroupContext.free_abelian(1), 6),
                 (GroupContext.free_abelian(2), 4),
                 (GroupContext.free_abelian(3), 3),
                 (GroupContext.klein_bottle(), 5),
                 (GroupContext.braid(2), 6),
                 (GroupContext.braid(3), 4),
                 (GroupContext.braid(4), 3),
                 (GroupContext.braid(5), 2)]


@pytest.mark.parametrize("ctx, radius", _TRIPLE_BALLS,
                         ids=[f"{c!r}-r{r}" for c, r in _TRIPLE_BALLS])
def test_product_triples_match_element_oracle(ctx, radius):
    """Keyed products give the triples of element products, in order."""
    b = ball(ctx, radius)
    assert b.product_triples() == product_triples_oracle(b)


def test_semigroup_bfs_matches_element_hashing_oracle():
    # The witness BFS keys each candidate from its parent's key; the
    # oracle multiplies and hashes GroupElement values.
    witnesses = dd_isolation_witnesses(4, 3, 16)
    assert ([(w.element, w.witness) for w in witnesses]
            == dd_witness_oracle(4, 3, 16))


def test_ball_word_lengths_are_geodesic(b3):
    # Re-derive shortest words by BFS over raw words with the Burau oracle.
    b = ball(b3, 3)
    shortest = {burau_exact(3, ()): 0}
    frontier = [()]
    for depth in range(1, 4):
        new = []
        for word in frontier:
            for letter in (1, -1, 2, -2):
                candidate = word + (letter,)
                image = burau_exact(3, candidate)
                if image not in shortest:
                    shortest[image] = depth
                    new.append(candidate)
        frontier = new
    for element in b:
        assert shortest[burau_exact(3, element.payload)] == element.word_length()


def test_ball_budget(b3):
    with pytest.raises(BudgetExceededError, match="ball budget exceeded"):
        ball(b3, 9)
    # Override lifts the cap.
    with budget_scope(current_budget().with_overrides({"braid_ball": {3: 6}})):
        assert len(ball(GroupContext.braid(3), 5)) > 0


def test_ball_deterministic_order(z2):
    b = ball(z2, 2)
    assert [e.payload for e in b.elements[:4]] == [
        (1, 0), (-1, 0), (0, 1), (0, -1)]
    again = ball(GroupContext.free_abelian(2), 2)
    assert [e.payload for e in again.elements] == [e.payload for e in b.elements]


def test_associativity_sampled(b3):
    rng = random.Random(13)
    elems = list(ball(b3, 2))
    for _ in range(60):
        g, h, f = (rng.choice(elems) for _ in range(3))
        assert (g * h) * f == g * (h * f)


def test_klein_ball_closure(klein):
    b = ball(klein, 3)
    for g, h in product(list(b)[:8], repeat=2):
        prod = g * h
        if prod.word_length() <= 3 and not prod.is_identity():
            assert prod in b


def test_only_groups_module_names_the_family():
    """Family dispatch lives in ``groups.py``; every other module asks a
    ``GroupContext`` or ``GroupElement`` method instead."""
    source = Path(ordercone.__file__).parent
    pattern = re.compile(r"\.family\b|FREE_ABELIAN|KLEIN_BOTTLE|\bBRAID\b")
    leaks = [f"{path.name}:{number}: {line.strip()}"
             for path in sorted(source.glob("*.py"))
             if path.name != "groups.py"
             for number, line in enumerate(path.read_text().splitlines(), 1)
             if pattern.search(line)]
    assert leaks == []
