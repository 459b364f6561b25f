"""Cone oracles: base families, derived constructions, serialization."""

import itertools
import random
import re
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ordercone import (BraidShiftPredicate, CertificateError,
                       ConeOracle, ConjugateCone, ContextMismatchError,
                       ConvexPredicate, CyclicBraidPredicate, DehornoyCone,
                       DubrovinaDubrovinCone, FlipCone, GroupContext,
                       KleinTararinCone, KleinYPredicate, LatticeCone,
                       LatticeSublatticePredicate, LexConeSpec,
                       LexExtensionCone, OrderconeError, QuadScalar,
                       ReplaceCone, UsageError,
                       WholePredicate, ball, compare, cone_from_json,
                       predicate_from_json, sign_vector)
from ordercone import intlinalg, lospace
from ordercone.braids import free_reduce

from conftest import (handle_reduce_oracle, random_positive_word, random_word,
                      rational_rank_oracle)


def lat(k, *normals):
    return LatticeCone(LexConeSpec(
        k, tuple(tuple(QuadScalar(*e) if isinstance(e, tuple)
                       else QuadScalar(e) for e in normal)
                 for normal in normals)))


Z_POS = lat(1, (1,))
Z_NEG = lat(1, (-1,))


def test_cone_sign_examples(b3, klein):
    assert DehornoyCone(3).sign(b3.element("s1 S2")) == 1
    assert DubrovinaDubrovinCone(3).sign(b3.element("s2")) == -1
    assert KleinTararinCone(1, 1).sign(klein.element((0, -4))) == -1


def test_dd_generators_positive():
    for n in (3, 4):
        dd = DubrovinaDubrovinCone(n)
        for g in dd.generators():
            assert dd.sign(g) == 1


def test_compare_examples(b3):
    pd = DehornoyCone(3)
    assert compare(pd, b3.element("S1"), b3.element("s2")) == "<"
    assert compare(pd, b3.element("s1 s2"), b3.element("s1 s2")) == "="
    std = lat(2, (0, 1), (1, 0))
    z2 = GroupContext.free_abelian(2)
    assert compare(std, z2.element((1, 0)), z2.element((-1000, 1))) == "<"


def test_conjugate_cone(b3, z2=GroupContext.free_abelian(2)):
    pd = DehornoyCone(3)
    identity = ConjugateCone(pd, b3.identity())
    assert sign_vector(identity, 3) == sign_vector(pd, 3)
    # Abelian conjugation is trivial.
    std = lat(2, (0, 1), (1, 0))
    moved = ConjugateCone(std, z2.element((5, -3)))
    assert sign_vector(moved, 6) == sign_vector(std, 6)
    # Conjugating the Dehornoy cone by s1 evaluates at s1^-1 g s1.
    conj = ConjugateCone(pd, b3.element("s1"))
    assert conj.sign(b3.element("s2")) == pd.sign(b3.element("S1 s2 s1")) == 1


def test_conjugation_coherence(b3):
    rng = random.Random(321)
    pd = DehornoyCone(3)
    elems = list(ball(b3, 2))
    for _ in range(40):
        f = rng.choice(elems)
        g = rng.choice(elems)
        moved = ConjugateCone(pd, f)
        assert moved.sign(f * g * f.inverse()) == pd.sign(g)


def test_flip_on_braid_shift(b3):
    pd = DehornoyCone(3)
    shift = BraidShiftPredicate(3, 1)
    flip = FlipCone(pd, shift, 3)
    assert flip.sign(b3.element("s2")) == -1
    assert flip.sign(b3.element("s1")) == 1
    sign_vector(flip, 3).validate()


def test_flip_requires_certificate():
    # The constructor certifies the subgroup itself: <s1 s2> is not convex
    # in the Dehornoy order at radius 3, so neither a flip nor a
    # replacement over it is built, whatever the caller holds.
    pd = DehornoyCone(3)
    cyclic = CyclicBraidPredicate(3, "s1 s2")
    message = "<s1 s2><=B_3 is not convex in dehornoy:3 at radius 3"
    with pytest.raises(CertificateError, match=re.escape(message)):
        FlipCone(pd, cyclic, 3)
    with pytest.raises(CertificateError, match=re.escape(message)):
        ReplaceCone(pd, cyclic, Z_NEG, 3)
    assert FlipCone(pd, BraidShiftPredicate(3, 1), 3).radius == 3


@pytest.mark.parametrize("value", [None, 2.5, True],
                         ids=["none", "float", "bool"])
@pytest.mark.parametrize("build, name", [
    (GroupContext.braid, "braid group n"),
    (GroupContext.free_abelian, "free abelian rank k"),
    (lambda v: BraidShiftPredicate(3, v), "shift amount"),
    (lambda v: BraidShiftPredicate(v, 0), "braid group n"),
    (lambda v: CyclicBraidPredicate(v, "s1"), "braid group n"),
    (lambda v: LexConeSpec(v, ((1,),)), "lattice dimension k"),
    (lambda v: LatticeSublatticePredicate(v, ((1,),)), "lattice dimension k"),
    (DehornoyCone, "braid group n"),
    (DubrovinaDubrovinCone, "braid group n"),
], ids=["braid", "free-abelian", "braid-shift-r", "braid-shift-n",
        "cyclic-braid", "lex-spec", "sublattice", "dehornoy", "dd"])
def test_value_types_refuse_integer_parameters_of_other_types(build, name,
                                                              value):
    # Before, 2.5 and True were stored and serialized ("n": 2.5,
    # "r": true), and None raised a bare TypeError.  The message says
    # that the value is not an integer, even for 2.5 above the bound.
    with pytest.raises(UsageError,
                       match=rf"{name} must be (a nonnegative|an) integer"):
        build(value)


@pytest.mark.parametrize("build", [
    DehornoyCone, DubrovinaDubrovinCone,
    lambda n: cone_from_json({"type": "dehornoy", "n": n}),
    lambda n: cone_from_json({"type": "dd", "n": n})],
    ids=["dehornoy", "dd", "dehornoy-json", "dd-json"])
@pytest.mark.parametrize("n", [1, -3])
def test_braid_cones_refuse_fewer_than_two_strands(build, n):
    # Both used to build a cone with no group; DehornoyCone(2.5) wrote a
    # descriptor that cone_from_json then refused.
    with pytest.raises(UsageError, match="braid group n must be at least 2"):
        build(n)


@pytest.mark.parametrize("radius", [True, 2.5, None, -1])
def test_flip_refuses_a_radius_that_is_not_a_nonnegative_int(radius):
    # A radius of True used to build a flip whose descriptor, with
    # "radius": true, then failed to load; 2.5 and None raised TypeError.
    with pytest.raises(UsageError, match="nonnegative integer"):
        FlipCone(DehornoyCone(3), BraidShiftPredicate(3, 1), radius)
    with pytest.raises(UsageError, match="nonnegative integer"):
        ball(GroupContext.free_abelian(2), radius)


def _derived(args):
    """A flip (three arguments) or replacement (four) built by its
    constructor and from its descriptor: each a cone or the error."""
    def build(make):
        try:
            return make()
        except OrderconeError as error:
            return type(error), str(error)

    data = {"type": "flip_on_convex", "base": args[0].to_json(),
            "predicate": args[1].to_json(), "radius": args[-1]}
    cls = FlipCone
    if len(args) == 4:
        data.update(type="replace_on_convex", inner=args[2].to_json())
        cls = ReplaceCone
    return build(lambda: cls(*args)), build(lambda: cone_from_json(data))


_B3_CYCLIC = CyclicBraidPredicate(3, "s1 s2")


@pytest.mark.parametrize("args, refused", [
    ((DehornoyCone(3), _B3_CYCLIC, 3), CertificateError),
    ((DehornoyCone(3), _B3_CYCLIC, Z_POS, 3), CertificateError),
    ((DehornoyCone(3), _B3_CYCLIC, 1), None),
    ((DehornoyCone(3), _B3_CYCLIC, Z_NEG, 1), None),
    ((DehornoyCone(3), BraidShiftPredicate(3, 1), 3), None),
    ((DehornoyCone(4), BraidShiftPredicate(4, 1), DubrovinaDubrovinCone(3),
      2), None),
    ((KleinTararinCone(1, 1), KleinYPredicate(), 4), None),
    ((KleinTararinCone(1, 1), KleinYPredicate(), Z_POS, -1), UsageError),
    ((KleinTararinCone(1, 1), KleinYPredicate(), DehornoyCone(3), 4),
     ContextMismatchError),
], ids=["flip-cyclic-3", "replace-cyclic-3", "flip-cyclic-1",
        "replace-cyclic-1", "flip-shift", "replace-shift", "flip-klein",
        "replace-negative-radius", "replace-wrong-inner"])
def test_constructor_and_descriptor_certify_alike(args, refused):
    built, loaded = _derived(args)
    if refused is not None:
        assert built == loaded and built[0] is refused
        return
    assert loaded.to_json() == built.to_json()
    radius = min(args[-1], 2)
    assert sign_vector(loaded, radius) == sign_vector(built, radius)


def test_flip_klein_matches_orientation(klein):
    base = KleinTararinCone(1, 1)
    pred = KleinYPredicate()
    flip = FlipCone(base, pred, 4)
    assert sign_vector(flip, 4) == sign_vector(KleinTararinCone(1, -1), 4)


def test_flip_lattice_matches_spec(z2):
    base = lat(2, (0, 1), (1, 0))
    pred = LatticeSublatticePredicate(2, ((1, 0),))
    flip = FlipCone(base, pred, 6)
    direct = lat(2, (0, 1), (-1, 0))
    assert sign_vector(flip, 6) == sign_vector(direct, 6)


def test_replace_on_convex(b3):
    pd = DehornoyCone(3)
    shift = BraidShiftPredicate(3, 1)
    # Replacing with the restriction itself changes nothing: <s2> carries
    # the shifted Dehornoy order of B_2.
    same = ReplaceCone(pd, shift, DehornoyCone(2), 3)
    assert sign_vector(same, 3) == sign_vector(pd, 3)
    # The nonstandard order of <s2> makes s2 negative but keeps the
    # 1-positive elements positive.
    whole2 = WholePredicate(GroupContext.braid(2))
    reversed_inner = FlipCone(DehornoyCone(2), whole2, 2)
    swapped = ReplaceCone(pd, shift, reversed_inner, 3)
    assert swapped.sign(b3.element("s2")) == -1
    for k in range(-3, 4):
        word = "s1 " + " ".join(["s2"] * k) if k >= 0 else \
            "s1 " + " ".join(["S2"] * -k)
        assert swapped.sign(b3.element(word)) == 1
    sign_vector(swapped, 3).validate()


def test_replace_equals_flip(klein):
    base = KleinTararinCone(1, 1)
    pred = KleinYPredicate()
    flipped = FlipCone(base, pred, 4)
    replaced = ReplaceCone(base, pred, Z_NEG, 4)
    assert sign_vector(flipped, 4) == sign_vector(replaced, 4)


def test_lex_extension_klein_all_four(klein):
    pred = KleinYPredicate()
    for sx, qc in ((1, Z_POS), (-1, Z_NEG)):
        for sy, ic in ((1, Z_POS), (-1, Z_NEG)):
            ext = LexExtensionCone(pred, ic, qc)
            assert sign_vector(ext, 4) == sign_vector(KleinTararinCone(sx, sy), 4)


def test_lex_extension_lattice(z2):
    pred = LatticeSublatticePredicate(2, ((0, 1),))
    ext = LexExtensionCone(pred, Z_POS, Z_POS)
    # x decides first, then y.
    assert ext.sign(z2.element((1, -50))) == 1
    assert ext.sign(z2.element((0, 3))) == 1
    assert ext.sign(z2.element((-1, 50))) == -1
    sign_vector(ext, 6).validate()


def test_lex_extension_rejects_torsion():
    pred = LatticeSublatticePredicate(2, ((2, 0),))
    with pytest.raises(UsageError, match="torsion|saturated"):
        LexExtensionCone(pred, Z_POS, Z_POS)


_Z2_LEX = lat(2, (1, 0), (0, 1))


@pytest.mark.parametrize("convex, inner, quotient, error, message", [
    (BraidShiftPredicate(3, 1), _Z2_LEX, _Z2_LEX, UsageError,
     "lex extension is not implemented over sh^1(B_2)<=B_3"),
    (CyclicBraidPredicate(3, "s1"), _Z2_LEX, _Z2_LEX, UsageError,
     "lex extension is not implemented over <s1><=B_3"),
    (WholePredicate(GroupContext.free_abelian(1)), _Z2_LEX, _Z2_LEX,
     UsageError, "lex extension is not implemented over all of Z^1"),
    # Full rank and torsion: the trivial quotient is refused first.
    (LatticeSublatticePredicate(2, ((2, 0), (0, 1))), _Z2_LEX, _Z2_LEX,
     UsageError, "quotient is trivial; nothing to extend by"),
    # Torsion is refused before the inner cone is checked.
    (LatticeSublatticePredicate(2, ((2, 0),)), _Z2_LEX, _Z2_LEX, UsageError,
     "basis is not saturated (quotient has torsion: divisors [2])"),
    (LatticeSublatticePredicate(2, ()), _Z2_LEX, _Z2_LEX, UsageError,
     "the trivial sublattice (empty basis) carries no order to replace "
     "or extend"),
    # The inner cone is checked before the quotient cone.
    (KleinYPredicate(), _Z2_LEX, _Z2_LEX, ContextMismatchError,
     "inner cone lives on the wrong group for this subgroup"),
    (KleinYPredicate(), Z_POS, _Z2_LEX, ContextMismatchError,
     "quotient cone must live on Z^1"),
    (LatticeSublatticePredicate(3, ((0, 0, 1),)), Z_POS, Z_POS,
     ContextMismatchError, "quotient cone must live on Z^2"),
], ids=["braid-shift", "cyclic-braid", "whole", "full-rank", "torsion",
        "empty-basis", "klein-inner", "klein-quotient", "lattice-quotient"])
def test_lex_extension_refusals(convex, inner, quotient, error, message):
    with pytest.raises(error) as info:
        LexExtensionCone(convex, inner, quotient)
    assert str(info.value) == message


def test_subword_property_cone(b3):
    rng = random.Random(808)
    pd = DehornoyCone(3)
    for _ in range(60):
        beta = random_word(rng, 3, 6)
        alpha = random_positive_word(rng, 3, 5)
        conjugated = b3.element(beta) * b3.element(alpha) * b3.element(beta).inverse()
        assert pd.sign(conjugated) == 1


def test_axiom_suite_over_the_zoo(b3, klein):
    pd = DehornoyCone(3)
    shift = BraidShiftPredicate(3, 1)
    zoo = [
        (DehornoyCone(3), 3),
        (DubrovinaDubrovinCone(3), 3),
        (DubrovinaDubrovinCone(4), 2),
        (KleinTararinCone(1, -1), 5),
        (lat(2, ((1, 0), (0, 1))), 6),
        (lat(2, (0, 1), (1, 0)), 6),
        (ConjugateCone(pd, b3.element("s1 S2")), 3),
        (FlipCone(pd, shift, 3), 3),
        (ReplaceCone(DehornoyCone(4), BraidShiftPredicate(4, 1),
                     DubrovinaDubrovinCone(3), 2), 2),
        (ReplaceCone(KleinTararinCone(1, 1), KleinYPredicate(), Z_NEG, 4), 4),
        (LexExtensionCone(KleinYPredicate(), Z_NEG, Z_POS), 5),
    ]
    for cone, radius in zoo:
        sign_vector(cone, radius).validate()


def test_predicate_closure(b3, klein):
    predicates = [
        (BraidShiftPredicate(3, 1), ball(b3, 2)),
        (KleinYPredicate(), ball(klein, 3)),
        (LatticeSublatticePredicate(2, ((1, 2),)),
         ball(GroupContext.free_abelian(2), 4)),
        (CyclicBraidPredicate(3, "s1"), ball(b3, 2)),
    ]
    for predicate, b in predicates:
        members = [g for g in b if predicate.contains(g)]
        for g in members:
            assert predicate.contains(g.inverse())
            for h in members:
                product = g * h
                if product.word_length() <= b.radius:
                    assert predicate.contains(product) or product.is_identity()


def test_serialization_round_trip(b3, klein):
    # One instance of every class the readers know: each reads back equal,
    # with the same descriptor and, for cones, the same signs.
    pd = DehornoyCone(3)
    shift = BraidShiftPredicate(3, 1)
    cones = [
        DehornoyCone(3),
        DubrovinaDubrovinCone(4),
        KleinTararinCone(-1, 1),
        lat(2, ((1, 0), (0, 1))),
        ConjugateCone(pd, b3.element("s1 s2")),
        FlipCone(pd, shift, 3),
        ReplaceCone(pd, shift, DehornoyCone(2), 3),
        LexExtensionCone(KleinYPredicate(), Z_POS, Z_NEG),
    ]
    predicates = [shift, KleinYPredicate(),
                  LatticeSublatticePredicate(2, ((1, 2),)),
                  CyclicBraidPredicate(3, "s1"), WholePredicate(klein)]
    assert {type(c) for c in cones} == set(ConeOracle.classes.values())
    assert ({type(p) for p in predicates}
            == set(ConvexPredicate.classes.values()))
    for value, read in [(c, cone_from_json) for c in cones] + [
            (p, predicate_from_json) for p in predicates]:
        data = value.to_json()
        again = read(data)
        assert again == value
        assert again.to_json() == data
        if read is cone_from_json:
            radius = 3 if value.context.family == "braid" else 4
            assert sign_vector(again, radius) == sign_vector(value, radius)


def test_lattice_sublattice_descriptor_needs_k():
    # k was once inferred from the first basis row; the writer always
    # writes it, so a descriptor without it is malformed.
    with pytest.raises(UsageError, match="has no 'k' field"):
        predicate_from_json({"type": "lattice_sublattice",
                             "basis": [[1, 2]]})


@pytest.mark.parametrize("predicate, radius", [
    (BraidShiftPredicate(3, 1), 3), (KleinYPredicate(), 3),
    (LatticeSublatticePredicate(3, ((1, 0, 0), (0, 2, 2))), 3),
    (CyclicBraidPredicate(3, "s1 s2"), 3),
    (WholePredicate(GroupContext.klein_bottle()), 2)],
    ids=["braid-shift", "klein-y", "lattice-sublattice", "cyclic-braid",
         "whole"])
def test_contains_exactly_when_project_succeeds(predicate, radius):
    members = 0
    for g in ball(predicate.context, radius):
        if predicate.contains(g):
            members += 1
            assert predicate.project(g).context == predicate.subgroup_context()
        else:
            with pytest.raises(UsageError):
                predicate.project(g)
    assert members > 1


def test_project_refusal_names_the_subgroup(b3, klein, z2):
    for predicate, g in ((BraidShiftPredicate(3, 1), b3.element("s1")),
                         (KleinYPredicate(), klein.element((1, 0))),
                         (LatticeSublatticePredicate(2, ((1, 2),)),
                          z2.element((1, 1))),
                         (CyclicBraidPredicate(3, "s1"), b3.element("s2"))):
        with pytest.raises(UsageError) as info:
            predicate.project(g)
        assert str(info.value) == f"{g!r} is not in {predicate.describe()}"


def test_replace_solves_once_per_sign(monkeypatch, z2):
    base = lat(2, (0, 1), (1, 0))
    line = LatticeSublatticePredicate(2, ((1, 0),))
    replaced = ReplaceCone(base, line, Z_NEG, 4)
    calls = []
    solve = intlinalg.solve_in_row_span
    monkeypatch.setattr(intlinalg, "solve_in_row_span",
                        lambda *args: calls.append(args) or solve(*args))
    assert replaced.sign(z2.element((2, 0))) == -1
    assert replaced.sign(z2.element((-5, 1))) == 1
    assert len(calls) == 2


def test_klein_y_and_whole_project(klein):
    assert KleinYPredicate().project(klein.element((0, -3))).payload == (-3,)
    g = klein.element((2, -1))
    assert WholePredicate(klein).project(g) == g


@pytest.mark.parametrize("basis", [(), ((1, 2),)], ids=["empty", "rank-1"])
def test_lattice_sublattice_round_trip_keeps_k(basis):
    predicate = LatticeSublatticePredicate(2, basis)
    data = predicate.to_json()
    assert data["k"] == 2
    assert predicate_from_json(data) == predicate


@st.composite
def shift_cases(draw):
    """(r, g, inner): a braid g of B_n, n in [2, 8], r in [0, n - 2], and
    a letter tuple of B_{n-r} whose shift by r is g, or None when g is a
    random word.  Members come as shifted words, as delta^r u delta^-r
    with delta = s1 ... s(n-1) (only letters up to n - 1 - r, so the
    membership is hidden by conjugation), and as trivial words."""
    n = draw(st.integers(2, 8))
    r = draw(st.integers(0, n - 2))

    def letters(top, size):
        letter = st.integers(1, top).flatmap(
            lambda i: st.sampled_from((i, -i)))
        return tuple(draw(st.lists(letter, max_size=size)))

    context = GroupContext.braid(n)
    kind = draw(st.sampled_from(("random", "shifted", "hidden", "trivial")))
    if kind == "random":
        return r, context.element(letters(n - 1, 16)), None
    inner = free_reduce(n - r, letters(n - 1 - r, 10))
    shifted = tuple(l + r if l > 0 else l - r for l in inner)
    delta = tuple(range(1, n))
    hidden = context.element(delta) ** r * context.element(inner) \
        * context.element(delta) ** -r
    if kind == "shifted":
        return r, context.element(shifted), inner
    if kind == "hidden":
        assert hidden == context.element(shifted)
        return r, hidden, inner
    return r, hidden * context.element(shifted).inverse(), ()


@given(shift_cases())
@settings(max_examples=300, deadline=None)
def test_shift_membership_reads_the_key(case):
    # Oracle: the lowest index of the full-rescan handle reduction.
    r, g, inner = case
    n = g.context.n
    predicate = BraidShiftPredicate(n, r)
    reduced, _ = handle_reduce_oracle(n, g.payload)
    member = not reduced or min(abs(l) for l in reduced) > r
    assert predicate.contains(g) == member
    if inner is not None:
        assert member
        assert predicate.project(g) == GroupContext.braid(n - r).element(inner)
    elif not member:
        with pytest.raises(UsageError):
            predicate.project(g)


def _rational_coefficients(basis, target):
    """The c with c . basis = target over Q for independent rows, or None
    when target is outside their rational span: Gauss-Jordan on the
    columns of the augmented system."""
    r = len(basis)
    rows = [[Fraction(b[j]) for b in basis] + [Fraction(target[j])]
            for j in range(len(target))]
    pivot_row = 0
    for col in range(r):
        p = next(i for i in range(pivot_row, len(rows)) if rows[i][col])
        rows[pivot_row], rows[p] = rows[p], rows[pivot_row]
        rows[pivot_row] = [x / rows[pivot_row][col] for x in rows[pivot_row]]
        for i in range(len(rows)):
            if i != pivot_row and rows[i][col]:
                rows[i] = [x - rows[i][col] * y
                           for x, y in zip(rows[i], rows[pivot_row])]
        pivot_row += 1
    if any(row[r] for row in rows[r:]):
        return None
    return [rows[i][r] for i in range(r)]


@st.composite
def sublattice_cases(draw):
    """(k, basis, targets): 0 to k independent rows of Z^k, k in [1, 3],
    with entries in [-3, 3], and up to 20 vectors of [-6, 6]^k."""
    k = draw(st.integers(1, 3))
    size = draw(st.integers(0, k))
    vector = lambda bound: st.lists(st.integers(-bound, bound),
                                    min_size=k, max_size=k).map(tuple)
    basis = tuple(draw(st.lists(vector(3), min_size=size, max_size=size)))
    assume(rational_rank_oracle(basis) == size)
    return k, basis, draw(st.lists(vector(6), max_size=20))


@given(sublattice_cases())
@example((2, ((1, 2),), [(1, 2), (2, 4), (1, 1)]))  # saturated
@example((2, ((2, 4),), [(1, 2), (2, 4), (-4, -8)]))  # not saturated
@example((3, ((1, 0, 0), (0, 2, 2)), [(3, 1, 1), (3, 2, 2), (0, 0, 2)]))
@example((2, (), [(0, 0), (0, 1)]))  # empty
@settings(max_examples=150, deadline=None)
def test_sublattice_membership_against_oracles(case):
    k, basis, targets = case
    predicate = LatticeSublatticePredicate(k, basis)
    context = GroupContext.free_abelian(k)
    combine = lambda c: tuple(sum(ci * b[j] for ci, b in zip(c, basis))
                              for j in range(k))
    # Every combination from a coefficient box is a member, and its
    # coefficients are the unique ones.
    for c in itertools.product(range(-2, 3), repeat=len(basis)):
        g = context.element(combine(c))
        assert predicate.contains(g)
        if basis:
            assert predicate.project(g).payload == c
        else:  # the trivial sublattice has no coordinates to project to
            with pytest.raises(UsageError, match="trivial sublattice"):
                predicate.project(g)
    # Other vectors: a member exactly when the rational solution is
    # integral, and then project(g) . B == g.
    for target in targets:
        g = context.element(target)
        c = _rational_coefficients(basis, target)
        member = c is not None and all(x.denominator == 1 for x in c)
        assert predicate.contains(g) == member
        if member and basis:
            assert combine(predicate.project(g).payload) == target
        elif not member:
            with pytest.raises(UsageError):
                predicate.project(g)


@pytest.mark.parametrize("k, basis", [
    (2, ((0, 1), (0, 2))), (3, ((0, 0, 1), (0, 0, 2))), (2, ((1, 0), (0, 0))),
    (2, ((1, 0), (0, 1), (1, 1)))],
    ids=["plane-repeat", "line-in-z3", "zero-row", "too-many-rows"])
def test_sublattice_refuses_dependent_rows(k, basis):
    with pytest.raises(UsageError, match="linearly dependent"):
        LatticeSublatticePredicate(k, basis)
    data = {"type": "lattice_sublattice", "k": k,
            "basis": [list(b) for b in basis]}
    with pytest.raises(UsageError, match="linearly dependent"):
        predicate_from_json(data)
    with pytest.raises(UsageError, match="linearly dependent"):
        cone_from_json({"type": "lex_extension", "convex": data,
                        "inner": Z_POS.to_json(), "quotient": Z_POS.to_json()})


def test_lex_extension_decomposes_the_basis_once(monkeypatch):
    calls = []
    smith = intlinalg.smith_with_transforms
    monkeypatch.setattr(intlinalg, "smith_with_transforms",
                        lambda m: calls.append(m) or smith(m))
    pred = LatticeSublatticePredicate(2, ((0, 1),))
    vector = sign_vector(LexExtensionCone(pred, Z_POS, Z_POS), 6)
    vector.validate()
    assert len(vector.signs) == 84
    assert calls == [[[0, 1]]]


@pytest.mark.parametrize("basis, inner, error", [
    ([[1, 0]], lat(3, (1, 0, 0), (0, 1, 0), (0, 0, 1)), ContextMismatchError),
    ([], Z_POS, UsageError)], ids=["z3-inner-over-line", "trivial-sublattice"])
def test_replace_refuses_its_inner_cone_before_certifying(monkeypatch, basis,
                                                          inner, error):
    # A stored replacement whose inner cone cannot live on the subgroup
    # is refused without paying for the radius-30 convexity check.
    def fail(*args):
        raise AssertionError("convexity_check ran")

    monkeypatch.setattr(lospace, "convexity_check", fail)
    with pytest.raises(error):
        cone_from_json({
            "type": "replace_on_convex", "base": lat(2, (0, 1), (1, 0)).to_json(),
            "predicate": {"type": "lattice_sublattice", "k": 2, "basis": basis},
            "inner": inner.to_json(), "radius": 30})


def test_cyclic_generator_is_parsed_on_construction():
    with pytest.raises(UsageError):
        predicate_from_json({"type": "cyclic_braid", "n": 3, "word": "s5"})
    with pytest.raises(UsageError):
        CyclicBraidPredicate(3, "x1")
    for word in ("", "s1 S2", "s2 s1 S2 S1"):  # exponent sum 0
        with pytest.raises(UsageError, match="exponent sum 0"):
            CyclicBraidPredicate(3, word)
        with pytest.raises(UsageError, match="exponent sum 0"):
            predicate_from_json({"type": "cyclic_braid", "n": 3,
                                 "word": word})


@st.composite
def cyclic_cases(draw):
    """(w, g): an element w of B_n, n in [2, 5], with nonzero exponent
    sum, and g as w^m, as w^m times one letter, or as a random word."""
    n = draw(st.integers(2, 5))
    letter = st.integers(1, n - 1).flatmap(lambda i: st.sampled_from((i, -i)))
    context = GroupContext.braid(n)
    w = context.element(draw(st.lists(letter, min_size=1, max_size=6)))
    assume(sum(1 if l > 0 else -1 for l in w.payload))
    kind = draw(st.sampled_from(("power", "power-letter", "random")))
    if kind == "random":
        return w, context.element(draw(st.lists(letter, max_size=12)))
    g = w ** draw(st.integers(-3, 3))
    if kind == "power-letter":
        g = g * context.element([draw(letter)])
    return w, g


@given(cyclic_cases())
@example((GroupContext.braid(3).element("s1"),
          GroupContext.braid(3).element("s2 s1 S2")))
@example((GroupContext.braid(3).element("s1 s2"),
          GroupContext.braid(3).element("s2 s1")))
@example((GroupContext.braid(3).element("s1 s1 S2"),
          GroupContext.braid(3).identity()))
@settings(max_examples=200, deadline=None)
def test_cyclic_membership_against_power_oracle(case):
    # Oracle: some |j| <= len(g) has g == w^j.  Exact, as g = w^m forces
    # exp(g) = m exp(w) with exp(w) != 0, and |exp(g)| <= len(g).
    w, g = case
    predicate = CyclicBraidPredicate(w.context.n, w.text())
    bound = g.word_length()
    powers = [j for j in range(-bound, bound + 1) if g == w ** j]
    assert len(powers) <= 1
    assert predicate.contains(g) == bool(powers)
    if powers:
        assert predicate.project(g).payload == (powers[0],)
    else:
        with pytest.raises(UsageError):
            predicate.project(g)
