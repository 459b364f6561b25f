"""Sign vectors, the ultrametric, census, and the experiment drivers."""

import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordercone import (BraidShiftPredicate, BudgetExceededError,
                       CensusQuery, CertificateError, ConeOracle,
                       ConjugateCone, ContextMismatchError,
                       CyclicBraidPredicate, DehornoyCone,
                       DubrovinaDubrovinCone, FlipCone, GroupContext,
                       KleinTararinCone, KleinYPredicate, LatticeCone,
                       LatticeSublatticePredicate, LexConeSpec,
                       LexExtensionCone, QuadScalar, ReplaceCone, UsageError,
                       WholePredicate,
                       accumulation_scan, ball, budget_scope, census,
                       certificate_from_json, compare, convexity_check,
                       current_budget, dd_isolation_witnesses,
                       discreteness_check, distance,
                       interval_closure, klein_tararin_cones,
                       order_property_scan, sign_vector, soul_estimate)
from ordercone.braids import clear_caches
from ordercone.certificates import (ConvexityCertificate,
                                    ConvexityCounterexample, DensityWitness,
                                    DiscretenessPass)
from ordercone.groups import clear_ball_cache
from ordercone.lospace import _conjugation_row

from conftest import (census_brute_force, census_search_oracle,
                      convexity_triple_scan, dd_witness_bfs,
                      order_property_scan_oracle)


def lat(k, *normals):
    return LatticeCone(LexConeSpec(
        k, tuple(tuple(QuadScalar(*e) if isinstance(e, tuple)
                       else QuadScalar(e) for e in normal)
                 for normal in normals)))


def certified(cone, predicate, radius):
    result = convexity_check(cone, predicate, radius)
    assert isinstance(result, ConvexityCertificate)
    return result


# -- sign vectors and distance ------------------------------------------------


def test_sign_vector_examples(klein, b3):
    kt = sign_vector(KleinTararinCone(1, 1), 1)
    signs = {e.payload: s for e, s in zip(kt.ball.elements, kt.signs)}
    assert signs == {(1, 0): 1, (-1, 0): -1, (0, 1): 1, (0, -1): -1}

    irr = sign_vector(lat(2, ((1, 0), (0, 1))), 1)
    signs = {e.payload: s for e, s in zip(irr.ball.elements, irr.signs)}
    assert signs == {(1, 0): 1, (-1, 0): -1, (0, 1): 1, (0, -1): -1}

    pd = sign_vector(DehornoyCone(3), 1)
    signs = {e.text(): s for e, s in zip(pd.ball.elements, pd.signs)}
    assert signs == {"s1": 1, "S1": -1, "s2": 1, "S2": -1}


def test_distance_examples(b3):
    pd = DehornoyCone(3)
    same = distance(pd, pd, 4)
    assert same.agree_radius == 4 and not same.exact
    assert str(same.distance) == "1/16"

    shift = BraidShiftPredicate(3, 1)
    flip = FlipCone(pd, shift, certified(pd, shift, 3))
    flipped = distance(pd, flip, 4)
    assert flipped.agree_radius == 0 and flipped.exact

    kt = distance(KleinTararinCone(1, 1), KleinTararinCone(1, -1), 4)
    assert kt.agree_radius == 0 and kt.exact


def test_ultrametric_inequality_sampled():
    rng = random.Random(1618)
    pool = klein_tararin_cones()
    checked = 0
    while checked < 120:
        p, q, r = (rng.choice(pool) for _ in range(3))
        dpr = distance(p, r, 4)
        dpq = distance(p, q, 4)
        dqr = distance(q, r, 4)
        if not (dpr.exact and dpq.exact and dqr.exact):
            continue
        assert dpr.distance <= max(dpq.distance, dqr.distance)
        checked += 1


# -- census -------------------------------------------------------------------


def test_census_z():
    for radius in range(1, 7):
        vectors = census(CensusQuery(GroupContext.free_abelian(1), radius))
        assert len(vectors) == 2


def test_census_klein_matches_constructed(klein):
    vectors = census(CensusQuery(klein, 2))
    assert len(vectors) == 4
    constructed = {sign_vector(c, 2) for c in klein_tararin_cones()}
    assert set(vectors) == constructed


def _query(context, radius, *pins):
    return CensusQuery(context, radius,
                       tuple(context.element(p) for p in pins))


_Z, _Z2, _Z3 = (GroupContext.free_abelian(k) for k in (1, 2, 3))
_KLEIN, _B3 = GroupContext.klein_bottle(), GroupContext.braid(3)


def test_census_z2_brute_force():
    """The census list equals the brute-force enumeration, as a set and
    in order, on small balls of every family, pinned ones included."""
    queries = [_query(_Z, r) for r in range(1, 7)]
    queries += [_query(_Z2, r) for r in range(1, 4)]
    queries += [_query(_Z3, r) for r in range(1, 3)]
    queries += [_query(_KLEIN, r) for r in range(1, 4)]
    queries += [_query(_B3, r) for r in range(1, 3)]
    queries += [_query(_Z, 4, "-1"), _query(_Z2, 3, "1,0"),
                _query(_Z2, 3, "1,-1", "0,1"), _query(_Z3, 2, "0,0,1"),
                _query(_KLEIN, 3, "0,1"), _query(_B3, 2, "s1 s2"),
                # Contradictory pins: (1,0) + (0,1) forces (-1,-1) negative.
                _query(_Z2, 3, "1,0", "0,1", "-1,-1"),
                _query(_B3, 2, "s1", "S1")]
    for query in queries:
        got = [v.signs for v in census(query)]
        assert got == census_brute_force(query), query


_B4 = GroupContext.braid(4)
_DD3 = tuple(DubrovinaDubrovinCone(3).generators())
_SEARCH_QUERIES = [
    _query(_Z3, 3), _query(_Z3, 4), _query(_KLEIN, 5),
    _query(_B3, 3), _query(_B3, 4), _query(_B4, 2),
    CensusQuery(_B3, 3, _DD3), _query(_B3, 3, "s1 s2"),
    # Contradictory pins: (1,0) + (0,1) forces (-1,-1) negative.
    _query(_Z2, 3, "1,0", "0,1", "-1,-1"), _query(_B3, 2, "s1", "S1")]


@pytest.mark.parametrize("query", _SEARCH_QUERIES, ids=[
    "z3-r3", "z3-r4", "klein-r5", "b3-r3", "b3-r4", "b4-r2", "b3-r3-dd",
    "b3-r3-s1s2", "z2-r3-contradictory", "b3-r2-contradictory"])
def test_census_matches_search_oracle(query):
    """The literal-per-pair propagation gives the whole list, in order,
    of the position search that scans product triples."""
    with _braid_census_scope(4):
        got = [v.signs for v in census(query)]
    assert got == census_search_oracle(query)


def test_census_pins(z2):
    e1 = z2.element((1, 0))
    e2 = z2.element((0, 1))
    pinned = census(CensusQuery(z2, 2, (e1, e2)))
    assert len(pinned) == 2
    for vector in pinned:
        b = vector.ball
        assert vector.signs[b.position(e1)] == vector.signs[b.position(e2)] == 1
    with pytest.raises(UsageError):
        census(CensusQuery(z2, 2, (z2.element((5, 5)),)))


def test_census_contains_constructed_lattice_cones(z2):
    vectors = set(census(CensusQuery(z2, 3)))
    for cone in (lat(2, (0, 1), (1, 0)), lat(2, ((1, 0), (0, 1))),
                 lat(2, (-1, 0), (0, 1))):
        assert sign_vector(cone, 3) in vectors


def test_census_budget():
    with pytest.raises(BudgetExceededError, match="census budget"):
        census(CensusQuery(GroupContext.free_abelian(2), 7))


def test_census_braid_small(b3):
    vectors = census(CensusQuery(b3, 1))
    assert len(vectors) == 4  # free choice on two generator pairs
    in_census = {v.signs for v in vectors}
    assert sign_vector(DehornoyCone(3), 1).signs in in_census
    assert sign_vector(DubrovinaDubrovinCone(3), 1).signs in in_census


def test_census_braid_radius_two_contains_constructed(b3):
    vectors = set(census(CensusQuery(b3, 2)))
    for cone in (DehornoyCone(3), DubrovinaDubrovinCone(3)):
        assert sign_vector(cone, 2) in vectors


def _braid_census_scope(radius):
    return budget_scope(current_budget().with_overrides(
        {"census_braid_radius": radius}))


@pytest.mark.parametrize("n, radius", [(3, 2), (3, 3), (3, 4), (4, 3)])
def test_pinned_census_isolates_the_dd_cone(n, radius):
    """The DD cone is finitely generated, so it is isolated: pinning its
    generators leaves one census vector.  Census propagation, the
    handle-reduction DD sign and the semigroup BFS agree on it."""
    dd = DubrovinaDubrovinCone(n)
    with _braid_census_scope(radius):
        vectors = census(CensusQuery(dd.context, radius,
                                     tuple(dd.generators())))
    assert vectors == [sign_vector(dd, radius)]
    witnesses = dd_isolation_witnesses(n, radius, 16)
    assert ([g.text() for g in vectors[0].positives()]
            == [w.element for w in witnesses])


@pytest.mark.parametrize("n, radius, count", [
    (3, 2, 4), (3, 3, 26), (3, 4, 118), (4, 3, 2084)])
def test_pinned_census_does_not_isolate_dehornoy(n, radius, count):
    """Pinning s_1 ... s_{n-1} positive leaves many census vectors, the
    Dehornoy ordering's among them: it is not isolated."""
    context = GroupContext.braid(n)
    pins = tuple(context.element(f"s{i}") for i in range(1, n))
    with _braid_census_scope(radius):
        vectors = census(CensusQuery(context, radius, pins))
    assert len(vectors) == count
    assert sign_vector(DehornoyCone(n), radius) in vectors


@pytest.mark.parametrize("radius", [2, 3, 4, 5])
def test_pinned_census_isolates_each_klein_order(klein, radius):
    """Each of the four Klein orders is the only census vector with its
    signs of x and y pinned."""
    for cone in klein_tararin_cones():
        pins = tuple(g for g in map(klein.element,
                                    ("1,0", "-1,0", "0,1", "0,-1"))
                     if cone.sign(g) == 1)
        vectors = census(CensusQuery(klein, radius, pins))
        assert vectors == [sign_vector(cone, radius)]


def test_dd_witness_max_len_failure_lists_elements():
    with pytest.raises(BudgetExceededError, match="no semigroup witness.*s1"):
        dd_isolation_witnesses(3, 2, 1)


# -- semigroup witnesses ------------------------------------------------------


def test_dd_witness_examples(b3):
    witnesses = {w.element: w.factors
                 for w in dd_isolation_witnesses(3, 3, 12)}
    assert witnesses["S2"] == ("y2",)
    assert witnesses["s1 s2"] == ("y1",)
    assert witnesses["s1"] == ("y1", "y2")


def test_dd_witnesses_cover_and_replay():
    witnesses = dd_isolation_witnesses(3, 2, 12)
    dd = DubrovinaDubrovinCone(3)
    positives = [g for g in ball(dd.context, 2) if dd.sign(g) == 1]
    assert len(witnesses) == len(positives)
    for witness in witnesses:
        assert witness.replay()


def test_dd_witness_budget():
    with budget_scope(current_budget().with_overrides({"bfs_frontier": 4})):
        with pytest.raises(BudgetExceededError, match="frontier budget"):
            dd_isolation_witnesses(3, 3, 12)


@pytest.mark.parametrize("n, radius, max_len", [(3, 3, 2), (4, 2, 3),
                                                (3, 2, 1)])
def test_dd_witness_max_len_refusal_lists_the_oracle_unresolved(
        n, radius, max_len):
    targets, paths = dd_witness_bfs(n, radius, 16)
    missing = [t.text() for t in targets if len(paths[t]) > max_len]
    assert missing
    with pytest.raises(BudgetExceededError) as info:
        dd_isolation_witnesses(n, radius, max_len)
    assert str(info.value) == (f"no semigroup witness of length <= {max_len}"
                               " for: " + ", ".join(missing))


def test_dd_witness_frontier_refusal_lists_the_oracle_unresolved():
    # The budget caps the nodes reached, the identity included: a search
    # that needs more names the targets outside the first ``cap`` nodes.
    targets, paths = dd_witness_bfs(3, 3, 12)
    reached = list(paths)
    for cap in range(1, len(reached) + 2):
        with budget_scope(current_budget().with_overrides(
                {"bfs_frontier": cap})):
            if cap >= len(reached):
                assert len(dd_isolation_witnesses(3, 3, 12)) == len(targets)
                continue
            with pytest.raises(BudgetExceededError) as info:
                dd_isolation_witnesses(3, 3, 12)
        missing = [t.text() for t in targets if t not in reached[:cap]]
        assert str(info.value) == ("semigroup BFS frontier budget exceeded; "
                                   "unresolved: " + ", ".join(missing))


@pytest.mark.parametrize("call", [
    lambda: sign_vector(DehornoyCone(3), 4),
    lambda: dd_isolation_witnesses(3, 4, 14),
    lambda: convexity_check(DehornoyCone(3), BraidShiftPredicate(3, 1), 3),
], ids=["sign-vector", "dd-witness", "convexity"])
def test_budget_scope_reaches_handle_reduction(call):
    # Cached reductions and balls would skip the handle-step limit.  Each
    # call reduces through a cone sign or a shift predicate; ball building
    # and equality use normal-form keys and reduce nothing.
    clear_caches()
    clear_ball_cache()
    with budget_scope(current_budget().with_overrides({"handle_steps": 1})):
        with pytest.raises(BudgetExceededError):
            call()
    clear_caches()
    clear_ball_cache()
    call()


# -- accumulation -------------------------------------------------------------


def test_accumulation_lattice_none(z2):
    cone = lat(2, (0, 1), (1, 0))
    assert accumulation_scan(cone, ball(z2, 3), 1, resolution=4) is None


def test_accumulation_klein_none(klein):
    cone = KleinTararinCone(1, 1)
    assert accumulation_scan(cone, ball(klein, 3), 2, resolution=4) is None


def test_accumulation_braid(b3):
    pd = DehornoyCone(3)
    conjugators = ball(b3, 3)
    witness = accumulation_scan(pd, conjugators, 1, resolution=3)
    assert witness is not None
    assert witness.conjugator == "s1"
    assert witness.agree_radius == 1
    assert witness.replay()
    # Deterministic: the same scan returns the same witness.
    again = accumulation_scan(pd, conjugators, 1, resolution=3)
    assert again == witness


class ZeroOnS2(ConeOracle):
    """The Dehornoy cone of B_3, except that it signs s2 as 0."""

    context = GroupContext.braid(3)

    def _sign(self, g):
        if g == self.context.element("s2"):
            return 0
        return DehornoyCone(3).sign(g)


def test_accumulation_refuses_a_zero_sign(b3):
    with pytest.raises(UsageError, match="assigned 0 to the nontrivial"):
        accumulation_scan(ZeroOnS2(), ball(b3, 1), 1, resolution=2)


# -- convexity ----------------------------------------------------------------


def test_convexity_braid_shift_passes(b3):
    assert isinstance(convexity_check(DehornoyCone(3),
                                      BraidShiftPredicate(3, 1), 3),
                      ConvexityCertificate)


def test_convexity_cyclic_fails(b3):
    result = convexity_check(DehornoyCone(3), CyclicBraidPredicate(3, "s1"), 2)
    assert isinstance(result, ConvexityCounterexample)
    assert result.replay()
    # The documented counterexample triple validates directly.
    pd = DehornoyCone(3)
    f, g, h = b3.element("S1"), b3.element("s2"), b3.element("s1")
    assert pd.sign(f.inverse() * g) == 1 and pd.sign(g.inverse() * h) == 1


def test_convexity_klein_passes(klein):
    assert isinstance(convexity_check(KleinTararinCone(1, 1),
                                      KleinYPredicate(), 4),
                      ConvexityCertificate)


def test_convexity_counterexample_is_least_gap_greatest(b3):
    result = convexity_check(DehornoyCone(3), CyclicBraidPredicate(3, "s1"), 3)
    assert isinstance(result, ConvexityCounterexample)
    assert (result.f, result.g, result.h) == ("S1 S1 S1", "S1 S1 S2",
                                              "s1 s1 s1")
    assert result.replay()


def _convexity_zoo():
    b3, b4 = GroupContext.braid(3), GroupContext.braid(4)
    klein, z2 = GroupContext.klein_bottle(), GroupContext.free_abelian(2)
    d3, dd3, d4, dd4 = (DehornoyCone(3), DubrovinaDubrovinCone(3),
                        DehornoyCone(4), DubrovinaDubrovinCone(4))
    cases = [
        ("dehornoy3-shift1", d3, BraidShiftPredicate(3, 1), 4),
        ("dehornoy3-s1", d3, CyclicBraidPredicate(3, "s1"), 3),
        ("dehornoy3-s2", d3, CyclicBraidPredicate(3, "s2"), 3),
        ("dehornoy3-s1s2", d3, CyclicBraidPredicate(3, "s1 s2"), 2),
        ("dehornoy3-whole", d3, WholePredicate(b3), 2),
        ("dd3-shift1", dd3, BraidShiftPredicate(3, 1), 3),
        ("dd3-s1", dd3, CyclicBraidPredicate(3, "s1"), 3),
        ("conj-dehornoy3-shift1",
         ConjugateCone(d3, b3.element("s1 s2")), BraidShiftPredicate(3, 1), 3),
        ("conj-dd3-shift1",
         ConjugateCone(dd3, b3.element("S2 s1")), BraidShiftPredicate(3, 1), 3),
        ("dehornoy4-shift1", d4, BraidShiftPredicate(4, 1), 2),
        ("dehornoy4-shift2", d4, BraidShiftPredicate(4, 2), 2),
        ("dehornoy4-s2", d4, CyclicBraidPredicate(4, "s2"), 2),
        ("dd4-shift1", dd4, BraidShiftPredicate(4, 1), 2),
        ("dd4-shift2", dd4, BraidShiftPredicate(4, 2), 2),
        ("conj-dd4-shift2",
         ConjugateCone(dd4, b4.element("s2 S1")), BraidShiftPredicate(4, 2), 2),
        ("lattice-lex-y", lat(2, (1, 0), (0, 1)),
         LatticeSublatticePredicate(2, ((0, 1),)), 3),
        ("lattice-lex-x", lat(2, (1, 0), (0, 1)),
         LatticeSublatticePredicate(2, ((1, 0),)), 3),
        ("lattice-irrational-x", lat(2, ((1, 0), (0, 1))),
         LatticeSublatticePredicate(2, ((1, 0),)), 3),
        ("lattice-z3-plane", lat(3, (1, 0, 0), (0, 1, 0), (0, 0, 1)),
         LatticeSublatticePredicate(3, ((0, 1, 0), (0, 0, 1))), 2),
        ("lattice-z3-diagonal", lat(3, (1, 0, 0), (0, 1, 0), (0, 0, 1)),
         LatticeSublatticePredicate(3, ((1, 1, 0),)), 2),
        ("lattice-whole", lat(2, (1, 0), (0, 1)), WholePredicate(z2), 3),
    ]
    cases += [(f"klein{c.sx:+d}{c.sy:+d}-y", c, KleinYPredicate(), 3)
              for c in klein_tararin_cones()]
    cases.append(("klein-whole", KleinTararinCone(1, -1),
                  WholePredicate(klein), 3))
    return cases


@pytest.mark.parametrize("case", _convexity_zoo(), ids=lambda c: c[0])
def test_sorted_convexity_matches_triple_scan(case):
    _, cone, predicate, radius = case
    result = convexity_check(cone, predicate, radius)
    reference = convexity_triple_scan(cone, predicate, radius)
    assert type(result) is type(reference)
    assert result.replay()
    assert reference.replay()


@settings(max_examples=50, deadline=None)
@given(data=st.data(), base_kind=st.sampled_from(["dehornoy", "dd"]),
       predicate_kind=st.sampled_from(["shift", "cyclic", "whole"]),
       radius=st.integers(min_value=2, max_value=3))
def test_sorted_convexity_matches_triple_scan_on_conjugates(
        data, base_kind, predicate_kind, radius):
    b3 = GroupContext.braid(3)
    words = ball(b3, 2).elements
    h = data.draw(st.sampled_from(words), label="conjugator")
    base = DehornoyCone(3) if base_kind == "dehornoy" else DubrovinaDubrovinCone(3)
    cone = ConjugateCone(base, h)
    if predicate_kind == "shift":
        predicate = BraidShiftPredicate(3, data.draw(st.sampled_from([0, 1]),
                                                     label="r"))
    elif predicate_kind == "cyclic":  # exponent sum 0 has no exact rule
        generators = [g for g in words
                      if sum(1 if l > 0 else -1 for l in g.word.letters)]
        g = data.draw(st.sampled_from(generators), label="generator")
        predicate = CyclicBraidPredicate(3, g.text())
    else:
        predicate = WholePredicate(b3)
    result = convexity_check(cone, predicate, radius)
    reference = convexity_triple_scan(cone, predicate, radius)
    assert type(result) is type(reference)
    assert result.replay()


# -- discreteness -------------------------------------------------------------


def test_discreteness_dehornoy(b3):
    result = discreteness_check(DehornoyCone(3), b3.element("s2"), 3)
    assert isinstance(result, DiscretenessPass)
    assert result.replay()


def test_discreteness_dense_lattice(z2):
    cone = lat(2, ((1, 0), (0, 1)))
    witness = discreteness_check(cone, z2.element((1, 1)), 8)
    assert isinstance(witness, DensityWitness)
    assert witness.replay()


def test_discreteness_lex_lattice(z2):
    cone = lat(2, (0, 1), (1, 0))
    result = discreteness_check(cone, z2.element((1, 0)), 8)
    assert isinstance(result, DiscretenessPass)


def test_discreteness_precondition(z2):
    cone = lat(2, (0, 1), (1, 0))
    with pytest.raises(UsageError):
        discreteness_check(cone, z2.element((-1, 0)), 4)


# -- interval closure ---------------------------------------------------------


def test_interval_closure_braid(b3):
    pd = DehornoyCone(3)
    report = interval_closure(pd, b3.element("s2"), 2, 4)
    members = {m for m, _ in report.members}
    assert {"s2", "S2", "s2 s2", "S2 S2"} <= members
    assert report.all_stabilize
    assert report.replay()


@pytest.mark.parametrize("cone, g, radius, k_max, size", [
    (DehornoyCone(3), "s2", 2, 4, 4),
    (DehornoyCone(3), "s1", 2, 1, 10),
    (DubrovinaDubrovinCone(3), "s1 s2", 3, 2, 40),
], ids=["dehornoy-s2", "dehornoy-s1", "dd-s1s2"])
def test_interval_closure_members_match_compare_oracle(cone, g, radius,
                                                       k_max, size):
    g = _B3.element(g)
    power = g ** k_max
    expected = [h.to_json() for h in ball(_B3, radius)
                if compare(cone, power.inverse(), h) in "<="
                and compare(cone, h, power) in "<="]
    report = interval_closure(cone, g, radius, k_max)
    assert [m for m, _ in report.members] == expected
    assert len(expected) == size


def test_interval_closure_lattice(z2):
    cone = lat(2, (0, 1), (1, 0))
    report = interval_closure(cone, z2.element((0, 1)), 2, 4)
    assert report.all_stabilize


def test_interval_closure_klein(klein):
    report = interval_closure(KleinTararinCone(1, 1), klein.element((0, 1)),
                              2, 4)
    members = {tuple(m) for m, _ in report.members}
    assert members == {(0, 1), (0, -1), (0, 2), (0, -2)}
    assert report.all_stabilize


# -- property scans -----------------------------------------------------------


def test_property_scan_lattice_clean(z2):
    report = order_property_scan(lat(2, (0, 1), (1, 0)), 3)
    assert not report.conradian_violations
    assert not report.biorder_violations
    assert len(report.stabilizer_elements) == len(ball(z2, 3))


def test_property_scan_dehornoy(b3):
    pd = DehornoyCone(3)
    report = order_property_scan(pd, 3)
    assert report.biorder_violations
    # The documented pair validates directly: conjugating s1 S2 by the
    # half twist lands on s2 S1, which is 1-negative.
    g, h = b3.element("s1 s2 s1"), b3.element("s1 S2")
    assert pd.sign(h) == 1
    assert pd.sign(g * h * g.inverse()) == -1
    assert (["s1 s2 s1", "s1 S2"] in [list(p) for p in
                                      report.biorder_violations])
    # Conradian failure: S2 s1 times powers of s1 never climbs above s1.
    assert report.conradian_violations
    assert ["s1", "S2 s1"] in [list(p) for p in report.conradian_violations]
    # The shifted strand subgroup stabilizes the cone.
    assert "s2" in report.stabilizer_elements
    assert "s1" not in report.stabilizer_elements


def test_property_scan_klein(klein):
    # The relator makes x y x^-1 = y^-1: a bi-order violation at radius 2.
    report = order_property_scan(KleinTararinCone(1, 1), 2)
    assert [[1, 0], [0, 1]] in [list(map(list, p))
                                for p in report.biorder_violations]


def stabilizers_oracle(cone, radius, restrict_to=None):
    """Ball elements whose full conjugate sign vector equals the cone's:
    the reference for the early-exit stabilizer pass."""
    base = sign_vector(cone, radius)
    return tuple(g.to_json() for g in ball(cone.context, radius)
                 if (restrict_to is None or restrict_to.contains(g))
                 and sign_vector(ConjugateCone(cone, g), radius) == base)


_B3 = GroupContext.braid(3)


@pytest.mark.parametrize("cone, restrict_to", [
    (DehornoyCone(3), None),
    (DehornoyCone(3), BraidShiftPredicate(3, 1)),
    (DubrovinaDubrovinCone(3), None),
    (DubrovinaDubrovinCone(3), BraidShiftPredicate(3, 1)),
    (DubrovinaDubrovinCone(4), None),
    (DubrovinaDubrovinCone(4), BraidShiftPredicate(4, 1)),
    (KleinTararinCone(1, 1), None),
    (KleinTararinCone(1, 1), KleinYPredicate()),
    (ConjugateCone(DehornoyCone(3), _B3.element("s1 S2")), None),
    (ConjugateCone(DehornoyCone(3), _B3.element("s1 S2")),
     CyclicBraidPredicate(3, "s1")),
], ids=["dehornoy3", "dehornoy3-shift", "dd3", "dd3-shift", "dd4",
        "dd4-shift", "klein", "klein-y", "conjugate", "conjugate-s1"])
def test_stabilizer_scan_matches_full_vectors(cone, restrict_to):
    report = order_property_scan(cone, 3, n_max=1, restrict_to=restrict_to)
    expected = stabilizers_oracle(cone, 3, restrict_to)
    assert report.stabilizer_elements == expected


_B4 = GroupContext.braid(4)


def _on_shift(base, predicate, radius, inner=None):
    """A flip, or with ``inner`` a replacement, on a subgroup (a shifted
    strand subgroup, say), certified convex at the radius."""
    cert = certified(base, predicate, radius)
    return (FlipCone(base, predicate, cert) if inner is None
            else ReplaceCone(base, predicate, inner, cert))


_FLIP_SHIFT = _on_shift(DehornoyCone(3), BraidShiftPredicate(3, 1), 3)
_REPLACE_SHIFT = _on_shift(DehornoyCone(4), BraidShiftPredicate(4, 1), 3,
                           DubrovinaDubrovinCone(3))


@pytest.mark.parametrize("n_max", [1, 2, 4])
@pytest.mark.parametrize("cone, radius, restrict_to", [
    (DehornoyCone(3), 3, None),
    (DubrovinaDubrovinCone(3), 3, None),
    (ConjugateCone(DehornoyCone(3), _B3.element("s1 S2")), 2, None),
    (ConjugateCone(DubrovinaDubrovinCone(4), _B4.element("s2 S1 s3")), 2,
     None),
    (KleinTararinCone(1, -1), 4, None),
    (KleinTararinCone(1, 1), 4, KleinYPredicate()),
    (DehornoyCone(3), 3, BraidShiftPredicate(3, 1)),
    (DehornoyCone(3), 3, CyclicBraidPredicate(3, "s1 s2")),
    (_FLIP_SHIFT, 3, None),
    (_REPLACE_SHIFT, 2, None),
], ids=["dehornoy3", "dd3", "conjugate-dehornoy3", "conjugate-dd4",
        "klein+-", "klein-y", "dehornoy3-shift", "dehornoy3-cyclic",
        "flip-shift", "replace-shift"])
def test_property_scan_matches_three_loop_oracle(cone, radius, restrict_to,
                                                 n_max):
    report = order_property_scan(cone, radius, n_max, restrict_to)
    expected = order_property_scan_oracle(cone, radius, n_max, restrict_to)
    assert report == expected
    assert report.to_json() == expected.to_json()


def test_property_scan_oracle_cases_hit_every_branch():
    # The oracle comparison above is only evidence if its cases contain
    # violations of each kind, Conradian pairs decided at m >= 2, and both
    # stabilizing and moving elements.
    pd = DehornoyCone(3)
    for n_max in (1, 4):
        report = order_property_scan(pd, 3, n_max)
        assert report.conradian_violations and report.biorder_violations
        assert 0 < len(report.stabilizer_elements) < len(ball(_B3, 3))
    assert (len(order_property_scan(pd, 3, 1).conradian_violations)
            > len(order_property_scan(pd, 3, 2).conradian_violations))


_LOW = _on_shift(DehornoyCone(3), BraidShiftPredicate(3, 1), 2)
_Z_LOW = _on_shift(lat(1, (1,)), LatticeSublatticePredicate(1, ((1,),)), 2)


@pytest.mark.parametrize("cone", [
    _LOW,
    ConjugateCone(_LOW, _B3.element("s1 S2")),
    ReplaceCone(_REPLACE_SHIFT.base, _REPLACE_SHIFT.predicate, _LOW,
                _REPLACE_SHIFT.certificate),
    LexExtensionCone(KleinYPredicate(), lat(1, (1,)), _Z_LOW),
], ids=["flip", "conjugate-of-flip", "replace-with-flip-inside",
        "lex-extension-over-flip"])
def test_property_scan_refuses_certificates_below_its_radius(cone):
    with pytest.raises(CertificateError, match="only to radius 2"):
        order_property_scan(cone, 3)
    with pytest.raises(CertificateError, match="only to radius 2"):
        soul_estimate(cone, [WholePredicate(cone.context)], 3)
    assert order_property_scan(cone, 2).radius == 2


@pytest.mark.parametrize("cone, radius", [
    (DehornoyCone(3), 4),
    (DubrovinaDubrovinCone(4), 3),
    (ConjugateCone(DehornoyCone(3), _B3.element("s1 S2")), 3),
    (KleinTararinCone(1, -1), 4),
    (_FLIP_SHIFT, 3),
    (_REPLACE_SHIFT, 3),
], ids=["dehornoy3", "dd4", "conjugate", "klein+-", "flip-shift",
        "replace-shift"])
def test_conjugation_row_matches_direct_signs(cone, radius):
    b = ball(cone.context, radius)
    for g in b:
        g_inverse = g.inverse()
        assert _conjugation_row(cone, b, g) == [
            cone.sign(g * h * g_inverse) for h in b]


class CountingCone(ConeOracle):
    """A base cone that counts its sign calls."""

    def __init__(self, base):
        self.base, self.context, self.calls = base, base.context, 0

    def _sign(self, g):
        self.calls += 1
        return self.base.sign(g)


def test_conjugation_table_infers_most_entries():
    # 130 conjugators times 65 inverse pairs is 8,450 direct signs; the
    # cuts decide all but 2,448 of them.
    cone = CountingCone(DubrovinaDubrovinCone(4))
    b = ball(cone.context, 3)
    for g in b:
        _conjugation_row(cone, b, g)
    assert cone.calls <= 3000


def test_property_scan_refuses_a_predicate_on_another_group():
    for predicate in (KleinYPredicate(), BraidShiftPredicate(4, 1)):
        with pytest.raises(ContextMismatchError, match="incompatible groups"):
            order_property_scan(DehornoyCone(3), 3, restrict_to=predicate)


@pytest.mark.parametrize("n_max", [0, -3])
def test_property_scans_refuse_n_max_below_one(b3, n_max):
    with pytest.raises(UsageError, match="n_max must be at least 1"):
        order_property_scan(DehornoyCone(3), 2, n_max)
    with pytest.raises(UsageError, match="n_max must be at least 1"):
        soul_estimate(DehornoyCone(3), [WholePredicate(b3)], 2, n_max)


@pytest.mark.parametrize("cone", [
    DehornoyCone(3), DubrovinaDubrovinCone(3),
    ConjugateCone(DehornoyCone(3), _B3.element("s1 S2")),
], ids=["dehornoy3", "dd3", "conjugate"])
def test_interval_closure_flags_match_full_vectors(cone):
    g = _B3.element("s1")
    report = interval_closure(cone, g if cone.sign(g) == 1 else g.inverse(),
                              3, 2)
    stabilizers = stabilizers_oracle(cone, 3)
    flags = [flag for _, flag in report.members]
    assert True in flags and False in flags
    assert flags == [m in stabilizers for m, _ in report.members]


def test_cylinder_monotonicity(b3):
    # For 1 < h < g, positivity of g survives conjugation by h.
    pd = DehornoyCone(3)
    elems = list(ball(b3, 2))
    for h in elems:
        if pd.sign(h) != 1:
            continue
        for g in elems:
            if pd.sign(g) != 1 or pd.sign(h.inverse() * g) != 1:
                continue
            assert ConjugateCone(pd, h).sign(g) == 1


# -- soul estimate ------------------------------------------------------------


def test_soul_dehornoy(b3):
    chain = [BraidShiftPredicate(3, 1), WholePredicate(b3)]
    estimate = soul_estimate(DehornoyCone(3), chain, 3)
    assert estimate.levels[0].biorder_ok and estimate.levels[0].conradian_ok
    assert not estimate.levels[1].biorder_ok
    assert estimate.best_biorder_level == 0


def test_soul_klein(klein):
    chain = [KleinYPredicate(), WholePredicate(klein)]
    estimate = soul_estimate(KleinTararinCone(1, 1), chain, 2)
    assert estimate.levels[0].biorder_ok
    assert not estimate.levels[1].biorder_ok


def test_soul_lattice(z2):
    estimate = soul_estimate(lat(2, (0, 1), (1, 0)), [WholePredicate(z2)], 3)
    assert estimate.best_biorder_level == 0
    assert estimate.best_conradian_level == 0


# -- certificates -------------------------------------------------------------


def test_certificate_json_round_trip(b3, z2):
    # Every kind certificate_from_json parses, each made by its own scan,
    # with one changed field that must stop the copy from replaying.
    witnesses = dd_isolation_witnesses(3, 2, 12)[:3]
    density = discreteness_check(lat(2, ((1, 0), (0, 1))), z2.element((1, 1)),
                                 8)
    report = interval_closure(DehornoyCone(3), b3.element("s2"), 2, 4)
    cases = [
        (convexity_check(DehornoyCone(3), BraidShiftPredicate(3, 1), 2),
         "predicate", CyclicBraidPredicate(3, "s1").to_json()),
        (convexity_check(DehornoyCone(3), CyclicBraidPredicate(3, "s1"), 2),
         "g", "s1"),
        *((w, "witness", [*w.factors, "y1"]) for w in witnesses),
        (accumulation_scan(DehornoyCone(3), ball(b3, 3), 1, resolution=3),
         "agree_radius", 2),
        (density, "smaller_positive", density.eps),
        (discreteness_check(DehornoyCone(3), b3.element("s2"), 3),
         "eps", "s1"),
        (report, "all_stabilize", not report.all_stabilize),
    ]
    assert {c.to_json()["kind"] for c, _, _ in cases} == {
        "convexity_pass", "convexity_counterexample", "semigroup_witness",
        "accumulation_witness", "density_witness", "discreteness_pass",
        "interval_closure"}
    for certificate, key, value in cases:
        data = certificate.to_json()
        again = certificate_from_json(data)
        assert again == certificate
        assert again.replay()
        assert again.to_json() == data
        assert data[key] != value
        assert not certificate_from_json({**data, key: value}).replay()


_CLOSURE = {"kind": "interval_closure"}


@pytest.mark.parametrize("change", [
    {"radius": 2.9}, {"kind": "semigroup_witness", "n": "3"},
    {"kind": "semigroup_witness", "witness": "y1"}, {"cone": None},
    {**_CLOSURE, "all_stabilize": "false"},
    {**_CLOSURE, "members": [{"element": "s1", "stabilizes": "no"}]},
    {**_CLOSURE, "members": 5},
], ids=["radius-float", "n-string", "witness-string", "no-cone",
        "all-stabilize-string", "stabilizes-string", "members-int"])
def test_certificate_from_json_refuses_malformed_fields(change):
    data = {"kind": "convexity_pass", "cone": {"type": "dehornoy", "n": 3},
            "predicate": {"type": "braid_shift", "n": 3, "r": 1},
            "radius": 2, "n": 3, "element": "s1", "witness": ["y1"],
            "k_max": 4, "members": [{"element": "s1", "stabilizes": True}],
            "all_stabilize": True}
    data.update(change)
    data = {k: v for k, v in data.items() if v is not None}  # None drops
    with pytest.raises(UsageError):
        certificate_from_json(data)


def test_threads_from_cold_caches_agree(b3):
    """Threads sharing the reduction and ball caches, started with both
    empty, build the same sign vector and census-ball product triples."""

    def build():
        vector = sign_vector(DehornoyCone(3), 4)
        return ([e.text() for e in vector.ball], vector.signs,
                ball(b3, 4).product_triples())

    results = {}

    def worker(slot):
        results[slot] = build()

    clear_caches()
    clear_ball_cache()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        threads = [threading.Thread(target=worker, args=(slot,))
                   for slot in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    clear_caches()
    clear_ball_cache()
    reference = build()
    assert [results.get(slot) for slot in range(4)] == [reference] * 4
