"""Lex cone specs: signs, density, perturbation, saturation, extension."""

import random
from fractions import Fraction
from itertools import product
from math import lcm

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from ordercone import (GroupContext, LatticeCone, LexConeSpec,
                       PerturbationError, QuadScalar, UsageError, ball,
                       budget_scope, classify_density, convexity_check,
                       current_budget, extend_by_quotient,
                       least_positive_in_ball, perturb_dense,
                       restrict_to_sublattice, saturate, sign_vector)
from ordercone.certificates import ConvexityCertificate
from ordercone.cones import LatticeSublatticePredicate
from ordercone.groups import iter_lattice_shell
from ordercone.quadratic import sqrt2_sign

from conftest import (ball_search_density, compare_vectors, element_ball_search,
                      rational_rank_oracle, window_minimum_oracle)


def spec_of(k, *normals):
    return LexConeSpec(k, tuple(tuple(QuadScalar(*e) if isinstance(e, tuple)
                                      else QuadScalar(e) for e in normal)
                                for normal in normals))


STD2 = spec_of(2, (0, 1), (1, 0))          # y first, then x
IRR2 = spec_of(2, ((1, 0), (0, 1)))        # single normal (1, sqrt2)


def test_lex_sign_examples():
    assert STD2.sign((5, 0)) == 1
    assert IRR2.sign((1, -1)) == -1       # 1 - sqrt2 < 0
    assert IRR2.sign((-3, 2)) == -1       # -3 + 2 sqrt2 < 0 since 8 < 9
    assert STD2.sign((0, 0)) == 0
    with pytest.raises(UsageError):
        STD2.sign((1, 2, 3))
    # Entries are never truncated: (0.5, -3) is positive, (0, -3) negative.
    with pytest.raises(UsageError):
        spec_of(2, (1, 0), (0, 1)).sign((0.5, -3))


_LINE = spec_of(1, (1,))
VECTOR_ARGUMENTS = {
    "sign": lambda v: STD2.sign(v),
    "compare-u": lambda v: compare_vectors(STD2, v, (0, 1)),
    "compare-v": lambda v: compare_vectors(STD2, (0, 1), v),
    "perturb-pin": lambda v: perturb_dense(STD2, [v]),
    "saturate": lambda v: saturate(2, [v]),
    "restrict": lambda v: restrict_to_sublattice(STD2, [v]),
    "extend": lambda v: extend_by_quotient(_LINE, [v], _LINE),
}


@pytest.mark.parametrize("entry", [0.5, "2", True],
                         ids=["float", "str", "bool"])
@pytest.mark.parametrize("call", sorted(VECTOR_ARGUMENTS))
def test_lattice_vectors_take_int_entries_only(call, entry):
    # (entry, 1) is positive, saturated and valid once coerced to int,
    # so only the entry type can refuse it.
    with pytest.raises(UsageError, match="not a list of integers"):
        VECTOR_ARGUMENTS[call]((entry, 1))


# Small parts make ties on the leading normals common in the unit box.
_quad_parts = st.one_of(st.integers(min_value=-1, max_value=1),
                        st.fractions(min_value=-3, max_value=3,
                                     max_denominator=3))
_quad_entries = st.builds(QuadScalar, _quad_parts, _quad_parts)


@st.composite
def lex_normals(draw):
    k = draw(st.integers(min_value=1, max_value=4))
    return k, tuple(draw(st.lists(st.tuples(*[_quad_entries] * k),
                                  min_size=1, max_size=k)))


@st.composite
def lex_specs(draw):
    try:
        return LexConeSpec(*draw(lex_normals()))
    except UsageError:
        assume(False)


@given(lex_normals())
def test_spec_is_valid_exactly_at_full_rational_rank(drawn):
    # Oracle: Fraction Gauss on the unscaled rational and sqrt-2 rows.
    k, normals = drawn
    rows = [[getattr(e, part) for e in normal]
            for normal in normals for part in "ab"]
    if rational_rank_oracle(rows) < k:
        with pytest.raises(UsageError, match="orthogonal to every normal"):
            LexConeSpec(k, normals)
    else:
        assert LexConeSpec(k, normals).k == k


@given(lex_specs())
def test_trusted_sign_matches_first_nonzero_exact_dot(spec):
    # Slow oracle: exact Q(sqrt 2) dots against the unscaled normals,
    # over every vector of the box [-1, 1]^k.
    for v in product((-1, 0, 1), repeat=spec.k):
        dots = (spec.dot(i, v) for i in range(len(spec.normals)))
        expected = next((d.sign() for d in dots if not d.is_zero()), 0)
        assert spec._sign(v) == expected, v


def test_spec_validation():
    with pytest.raises(UsageError):
        spec_of(2, (1, 1))  # (1,-1) is orthogonal to the only normal
    with pytest.raises(UsageError):
        LexConeSpec(2, ())


def test_lattice_shell_is_the_box_shell():
    for k in range(1, 5):
        for m in range(7):
            shell = list(iter_lattice_shell(k, m))
            assert len(shell) == len(set(shell))
            assert set(shell) == {v for v in product(range(-m, m + 1), repeat=k)
                                  if sum(map(abs, v)) == m}


def test_lattice_shells_list_the_ball_search_order():
    # Shell after shell, the order of the element BFS over e1, -e1, ...
    for k, radius in ((1, 8), (2, 7), (3, 5), (4, 4)):
        shells = [v for m in range(1, radius + 1)
                  for v in iter_lattice_shell(k, m)]
        assert shells == element_ball_search(
            GroupContext.free_abelian(k), radius)[0]


def test_cone_axioms_on_ball():
    rng = random.Random(101)
    for _ in range(25):
        spec = random_spec(rng, 2)
        cone = LatticeCone(spec)
        sign_vector(cone, 6).validate()


def test_classify_examples():
    report = classify_density(STD2)
    assert report.verdict == "discrete" and report.least_positive == (1, 0)
    report = classify_density(IRR2)
    assert report.verdict == "dense" and report.least_positive is None
    z = spec_of(1, (1,))
    report = classify_density(z)
    assert report.verdict == "discrete" and report.least_positive == (1,)


def test_classify_against_ball_search_examples():
    # Brute-force order minimum over the radius-8 ball agrees.
    assert least_positive_in_ball(STD2, 8) == (1, 0)
    report = ball_search_density(STD2, 8)
    assert report.verdict == "discrete" and report.least_positive == (1, 0)
    assert ball_search_density(IRR2, 8).verdict == "dense"


_SQRT2 = (0, 1)


# The first normals (1, 0, 0) and (1, sqrt 2, 0) vanish on a plane and on
# a line of the window: a vector or a difference with the zero first
# pair is signed by the later normals, which point both ways.
@given(lex_specs(), st.integers(min_value=0, max_value=5))
@example(spec_of(3, (1, 0, 0), (0, 1, 0), (0, 0, 1)), 3)
@example(spec_of(3, (1, 0, 0), (0, -1, 1), (0, 0, -1)), 4)
@example(spec_of(3, (1, _SQRT2, 0), (0, 0, -1)), 4)
@example(spec_of(3, (-1, _SQRT2, 0), (1, 0, 1)), 5)
@example(spec_of(4, (0, 0, 1, 0), (1, 0, 0, _SQRT2), (0, -1, 0, 0)), 3)
def test_window_minimum_matches_oracle(spec, radius):
    assert (least_positive_in_ball(spec, radius)
            == window_minimum_oracle(spec, radius))


def test_window_refuses_a_negative_radius():
    with pytest.raises(UsageError, match="ball radius must be nonnegative"):
        least_positive_in_ball(STD2, -1)
    assert least_positive_in_ball(STD2, 0) is None


# 1/3 + (1/5) sqrt 2, and -1/3 + (1/4) sqrt 2 > 0 (its rational part is
# negative): the rational and sqrt-2 parts have different denominators,
# so each normal's integer rows share one rescaling.
_MIXED = QuadScalar(Fraction(1, 3), Fraction(1, 5))
_TIPPED = QuadScalar(Fraction(-1, 3), Fraction(1, 4))


@pytest.mark.parametrize("normals, least", [
    (((_MIXED, 0), (0, _TIPPED)), (0, 1)),
    (((_MIXED, 2 * _MIXED, 0), (_MIXED, 0, 0), (0, 0, _TIPPED)), (0, 0, 1)),
    (((_MIXED, 2 * _MIXED, 0), (1, 0, _MIXED)), None),
], ids=["z2-discrete", "z3-discrete", "z3-dense"])
def test_classify_mixed_denominators(normals, least):
    # Each peel restricts integer rows through a kernel basis; the final
    # sign and the dense verdict must match plain ball search.
    spec = LexConeSpec(len(normals[0]), normals)
    exact = classify_density(spec)
    assert exact.least_positive == least
    assert_brute_force_agreement(spec, exact)


def random_spec(rng, k, irrational_share=0.4):
    while True:
        count = rng.randint(1, k)
        normals = []
        for _ in range(count):
            normal = []
            for _ in range(k):
                a = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                b = (Fraction(rng.randint(-2, 2), rng.randint(1, 2))
                     if rng.random() < irrational_share else Fraction(0))
                normal.append(QuadScalar(a, b))
            normals.append(tuple(normal))
        try:
            return LexConeSpec(k, tuple(normals))
        except UsageError:
            continue


def assert_brute_force_agreement(spec, exact, window=8):
    """Check an exact verdict against pure ball search.

    Dense verdicts must be confirmed by a decreasing-chain witness; for
    a discrete verdict whose least element is longer than the window,
    the window is extended just enough to cover the claim (still plain
    ball search, never the recursion).
    """
    if exact.verdict == "dense":
        brute = ball_search_density(spec, window, refutation_radius=160)
        assert brute.verdict == "dense", spec.to_json()
        return
    least = exact.least_positive
    norm = sum(abs(c) for c in least)
    if norm <= window:
        brute = ball_search_density(spec, window, refutation_radius=24)
        assert brute.verdict == "discrete", spec.to_json()
        assert brute.least_positive == least
    else:
        assert window_minimum_oracle(spec, norm) == least, spec.to_json()


def test_classify_agrees_with_ball_search_seeded():
    rng = random.Random(20260810)
    verdicts = {"dense": 0, "discrete": 0}
    for trial in range(30):
        k = 2 if trial % 2 == 0 else 3
        spec = random_spec(rng, k)
        exact = classify_density(spec)
        assert_brute_force_agreement(spec, exact)
        verdicts[exact.verdict] += 1
    assert verdicts["dense"] > 0 and verdicts["discrete"] > 0


def test_perturb_example():
    result = perturb_dense(STD2, [(0, 1), (3, 1)])
    # Deterministic schedule picks coordinate 1 with delta 1/8.
    assert result.coordinate == 1 and result.delta == Fraction(1, 8)
    normal = result.spec.normals[0]
    assert (normal[0].a, normal[0].b) == (0, Fraction(1, 8))
    assert (normal[1].a, normal[1].b) == (1, 0)
    assert result.spec.sign((0, 1)) == 1
    assert result.spec.sign((3, 1)) == 1
    assert classify_density(result.spec).verdict == "dense"
    # The documented difference point flips sign between input and output.
    assert STD2.sign((-6, 1)) == 1
    assert result.spec.sign((-6, 1)) == -1
    # The returned witness replays.
    assert STD2.sign(result.witness) != result.spec.sign(result.witness)


def test_perturb_empty_requirements():
    result = perturb_dense(STD2, [])
    assert classify_density(result.spec).verdict == "dense"


def test_perturb_precondition():
    with pytest.raises(UsageError):
        perturb_dense(STD2, [(0, -1)])


def test_perturb_fails_beyond_rank_two():
    # A single normal over Q(sqrt 2) cannot totally order Z^3, so the
    # schedule must run out rather than return an unverified spec.
    spec3 = spec_of(3, (0, 0, 1), ((1, 0), (0, 1), 0))
    with pytest.raises(PerturbationError):
        perturb_dense(spec3, [])


def test_perturb_seeded_specs():
    rng = random.Random(99)
    done = 0
    while done < 12:
        spec = random_spec(rng, 2, irrational_share=0.2)
        first = spec.normals[0]
        if sum(1 for e in first if e.b != 0) > 1:
            continue
        required = []
        for _ in range(2):
            g = (rng.randint(-2, 2), rng.randint(-2, 2))
            if spec.sign(g) == 1:
                required.append(g)
        try:
            result = perturb_dense(spec, required)
        except PerturbationError:
            continue
        assert all(result.spec.sign(g) == 1 for g in required)
        assert classify_density(result.spec).verdict == "dense"
        assert spec.sign(result.witness) != result.spec.sign(result.witness)
        done += 1


def test_disagreement_sets_nest_as_delta_halves():
    # The lemma behind perturb_dense's early exit: for fixed j, the probe
    # vectors on which n1 + delta*sqrt(2)*e_j disagrees with the spec
    # only shrink as delta = 2^-t halves.  Scaled by c * 2^t, with c
    # clearing the denominators of alpha = n1 . v, the candidate's dot
    # is a*2^t + (b*2^t + c*v_j)*sqrt(2) for integers a, b.
    probe = [e.payload for e in ball(GroupContext.free_abelian(2), 12)]
    rng = random.Random(14)
    shrank = 0
    for _ in range(30):
        spec = random_spec(rng, 2)
        rows = []
        for v in probe:
            alpha = spec.dot(0, v)
            c = lcm(alpha.a.denominator, alpha.b.denominator)
            rows.append((v, int(alpha.a * c), int(alpha.b * c), c, spec.sign(v)))
        for j in range(2):
            previous = None
            for t in range(3, 40):
                disagree = {v for v, a, b, c, s in rows
                            if sqrt2_sign(a << t, (b << t) + c * v[j]) != s}
                if previous is not None:
                    assert disagree <= previous
                    shrank += disagree < previous
                previous = disagree
    assert shrank > 0


def test_saturate_examples():
    result = saturate(2, [(2, 0), (0, 3)])
    assert sorted(map(tuple, result.basis)) == [(0, 1), (1, 0)]
    result = saturate(2, [(2, 4)])
    assert [tuple(b) for b in result.basis] in ([(1, 2)], [(-1, -2)])
    assert saturate(2, []).basis == ()


def test_extend_by_quotient_convex_line():
    inner = spec_of(1, (1,))
    outer = spec_of(1, (1,))
    spec = extend_by_quotient(inner, [(1, 2)], outer)
    cone = LatticeCone(spec)
    predicate = LatticeSublatticePredicate(2, ((1, 2),))
    assert isinstance(convexity_check(cone, predicate, 6),
                      ConvexityCertificate)
    # Inside the line the inner order decides.
    assert spec.sign((1, 2)) == 1 and spec.sign((-1, -2)) == -1


def test_extend_by_quotient_trivial_inner():
    outer = STD2
    assert extend_by_quotient(None, [], outer) is outer


def test_extend_by_quotient_dense_plane_in_z3():
    inner = IRR2  # dense on the sublattice spanned by e1, e2
    outer = spec_of(1, (1,))
    basis = [(1, 0, 0), (0, 1, 0)]
    spec = extend_by_quotient(inner, basis, outer)
    # The restriction back to the plane is the inner order pointwise.
    restricted = restrict_to_sublattice(spec, basis)
    for v in ((1, 0), (0, 1), (1, -1), (-3, 2), (2, -1)):
        assert restricted.sign(v) == inner.sign(v)
    assert classify_density(restricted).verdict == "dense"
    assert classify_density(spec).verdict == "dense"
    # Quotient dominates: anything with positive last coordinate is positive.
    assert spec.sign((5, -7, 1)) == 1


def test_extend_by_quotient_rejects_torsion():
    inner = spec_of(1, (1,))
    outer = spec_of(1, (1,))
    with pytest.raises(UsageError, match="torsion"):
        extend_by_quotient(inner, [(2, 0)], outer)
    # Dependent rows are named as such, not as torsion.
    with pytest.raises(UsageError, match="linearly dependent"):
        extend_by_quotient(spec_of(2, (1, 0), (0, 1)), [(0, 0, 1), (0, 0, 2)],
                           outer)


def test_lexicographic_behavior():
    # Z^2 over the sublattice <(0,1)> with natural orders: x decides first.
    inner = spec_of(1, (1,))
    outer = spec_of(1, (1,))
    spec = extend_by_quotient(inner, [(0, 1)], outer)
    assert spec.sign((1, -100)) == 1
    assert spec.sign((0, 3)) == 1
    assert spec.sign((-1, 100)) == -1


def test_abelian_conradian_triviality():
    rng = random.Random(55)
    spec = random_spec(rng, 2)
    b = ball(GroupContext.free_abelian(2), 4)
    positives = [e.payload for e in b if spec.sign(e.payload) == 1]
    for u in positives[:6]:
        for v in positives[:6]:
            shifted = tuple(-a + c + a for a, c in zip(u, v))
            assert spec.sign(shifted) == 1
            # u < v * u with a single step: sign(u^-1 v u) = sign(v).
            assert compare_vectors(spec, u, tuple(
                a + c for a, c in zip(u, v))) == 1


def test_spec_json_round_trip():
    for spec in (STD2, IRR2, spec_of(3, (0, 0, 1), ((1, 0), (0, 1), 0))):
        data = spec.to_json()
        again = LexConeSpec.from_json(data)
        assert again == spec
        # Rationals serialize decimal free.
        flat = str(data)
        assert "." not in flat


def test_cross_check_radius_cap():
    # A least positive element beyond the check radius still verifies
    # partially (no smaller positive in the window).
    spec = spec_of(2, (0, 1), (1, 0))
    with budget_scope(current_budget().with_overrides(
            {"lattice_check_radius": 4})):
        report = classify_density(spec)
    assert report.least_positive == (1, 0)
