"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
lines and timings.  Tolerances (counts, bounds, radii, witness lengths)
are pinned here; the stated runtime limits are asserted too.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

from ordercone import (BraidShiftPredicate, ConjugateCone,
                       CyclicBraidPredicate, DehornoyCone,
                       DubrovinaDubrovinCone, FlipCone, GroupContext,
                       KleinTararinCone, LatticeCone, LexConeSpec, QuadScalar,
                       UsageError, accumulation_scan, ball, budget_scope,
                       census, classify_density, current_budget,
                       convexity_check, dd_isolation_witnesses,
                       discreteness_check, distance, order_property_scan,
                       perturb_dense, sign_vector)
from ordercone.certificates import (ConvexityCertificate,
                                    ConvexityCounterexample, DiscretenessPass)
from ordercone.errors import PerturbationError

from conftest import (ball_search_density, full_schedule_perturbation,
                      inverse_letters, klein_tararin_cones, positives,
                      random_positive_word, random_word, restrict,
                      window_minimum_oracle)


@contextmanager
def criterion(number: int, description: str, limit_seconds: float):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    elapsed = time.time() - start
    assert elapsed < limit_seconds, (
        f"criterion {number} took {elapsed:.1f}s, limit {limit_seconds}s")
    print(f"ACCEPTANCE {number}: PASS ({elapsed:.2f}s) - {description}")


def test_criterion_01_z_census():
    with criterion(1, "LO(Z) census has exactly 2 vectors for r = 1..6", 1.0):
        z = GroupContext.free_abelian(1)
        for radius in range(1, 7):
            assert len(census(z, radius)) == 2


def test_criterion_02_klein_census():
    with criterion(2, "Klein census has exactly the 4 constructed orders "
                      "for r = 2..5", 10.0):
        klein = GroupContext.klein_bottle()
        cones = klein_tararin_cones()
        for radius in range(2, 6):
            vectors = census(klein, radius)
            assert len(vectors) == 4
            assert set(vectors) == {sign_vector(c, radius) for c in cones}


def test_criterion_03_z2_census_extensions():
    with criterion(3, "Z^2 census: 8 vectors at r = 2, each with >= 2 "
                      "extensions at r = 4", 30.0):
        z2 = GroupContext.free_abelian(2)
        base = census(z2, 2)
        assert len(base) == 8
        for vector in base:
            pins = tuple(positives(vector))
            extensions = census(z2, 4, pins)
            assert len(extensions) >= 2
            for extension in extensions:
                assert restrict(extension, 2) == vector.signs


def test_criterion_04_braid_axiom_suite():
    with criterion(4, "braid suite: 10,000 words per group, trichotomy + "
                      "antisymmetry + 1,000 closures, zero violations",
                   120.0):
        rng = random.Random(0xACCE9701)
        from ordercone.braids import concat, main_sign
        for n in (3, 4):
            for _ in range(10_000):
                word = random_word(rng, n, 12)
                report = main_sign(n, word)
                mirror = main_sign(n, inverse_letters(word))
                assert (report.sign == 0) == (report.index is None)
                assert report.sign in (-1, 0, 1)
                assert mirror.sign == -report.sign
                assert mirror.index == report.index
            closures = 0
            while closures < 1_000:
                u = random_word(rng, n, 12, min_len=1)
                v = random_word(rng, n, 12, min_len=1)
                ru, rv = main_sign(n, u), main_sign(n, v)
                if ru.sign == rv.sign == 1 and ru.index == rv.index:
                    product = main_sign(n, concat(u, v))
                    assert product.sign == 1 and product.index == ru.index
                    closures += 1


def test_criterion_05_subword_property():
    with criterion(5, "subword property: 1,000 conjugated positive words "
                      "per group all positive", 120.0):
        rng = random.Random(0xACCE9705)
        from ordercone.braids import concat, main_sign
        for n in (3, 4):
            for _ in range(1_000):
                beta = random_word(rng, n, 8)
                alpha = random_positive_word(rng, n, 6)
                conjugated = concat(concat(beta, alpha), inverse_letters(beta))
                assert main_sign(n, conjugated).sign == 1


def test_criterion_06_dehornoy_discreteness():
    with criterion(6, "Dehornoy cone discreteness: least element s_(n-1) "
                      "at r = 4 (B_3) and r = 3 (B_4)", 60.0):
        for n, radius in ((3, 4), (4, 3)):
            cone = DehornoyCone(n)
            eps = cone.context.element(f"s{n - 1}")
            result = discreteness_check(cone, eps, radius)
            assert isinstance(result, DiscretenessPass)


def test_criterion_07_accumulation():
    with criterion(7, "accumulation: conjugates of the Dehornoy cone of B_3 "
                      "within 2^-r for r = 1, 2, 3", 600.0):
        cone = DehornoyCone(3)
        with budget_scope(current_budget().with_overrides(
                {"braid_ball": {3: 6}})):
            for target in (1, 2, 3):
                witness = accumulation_scan(cone, 6, target, resolution=4)
                assert witness is not None, f"no witness at target {target}"
                assert witness.agree_radius >= target
                assert Fraction(1, 2 ** witness.agree_radius) <= Fraction(
                    1, 2 ** target)
                assert witness.replay()


def test_criterion_08_dd_isolation_witnesses():
    with criterion(8, "DD isolation: semigroup witnesses for every "
                      "DD-positive element (B_3 r=3 len<=12, B_4 r=2 "
                      "len<=16)", 600.0):
        for n, radius, max_len in ((3, 3, 12), (4, 2, 16)):
            witnesses = dd_isolation_witnesses(n, radius, max_len)
            cone = DubrovinaDubrovinCone(n)
            positives = [g for g in ball(cone.context, radius)
                         if cone.sign(g) == 1]
            assert len(witnesses) == len(positives)
            covered = {w.element for w in witnesses}
            assert covered == {g.text() for g in positives}
            for witness in witnesses:
                assert len(witness.witness) <= max_len
                assert witness.replay()


def test_criterion_09_convexity():
    with criterion(9, "convexity: shifted strand subgroup passes at r = 3, "
                      "the cyclic subgroup <s1> fails with a replaying "
                      "counterexample", 300.0):
        cone = DehornoyCone(3)
        assert isinstance(convexity_check(cone, BraidShiftPredicate(3, 1), 3),
                          ConvexityCertificate)
        result = convexity_check(cone, CyclicBraidPredicate(3, "s1"), 3)
        assert isinstance(result, ConvexityCounterexample)
        assert result.replay()


def test_criterion_10_biorder_failures():
    with criterion(10, "bi-order failures: Dehornoy cone at r = 3 and the "
                       "Klein order at r = 2, with the documented pairs",
                   300.0):
        cone = DehornoyCone(3)
        report = order_property_scan(cone, 3)
        assert report.biorder_violations
        b3 = cone.context
        g, h = b3.element("s1 s2 s1"), b3.element("s1 S2")
        assert cone.sign(h) == 1
        assert cone.sign(g * h * g.inverse()) == -1
        assert ["s1 s2 s1", "s1 S2"] in [list(p)
                                         for p in report.biorder_violations]

        klein_cone = KleinTararinCone(1, 1)
        klein_report = order_property_scan(klein_cone, 2)
        assert klein_report.biorder_violations
        assert [[1, 0], [0, 1]] in [list(map(list, p))
                                    for p in klein_report.biorder_violations]


def _seeded_spec(rng, k, irrational_share=0.4):
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


def _criterion_11_inputs():
    """Criterion 11's seeded inputs: 50 specs to classify (Z^2 and Z^3
    alternating), then an endless stream of (spec, pins) to perturb."""
    rng = random.Random(0xACCE9711)
    specs = [_seeded_spec(rng, 2 if trial % 2 == 0 else 3)
             for trial in range(50)]

    def perturbation_inputs():
        while True:
            spec = _seeded_spec(rng, 2, irrational_share=0.2)
            if sum(1 for e in spec.normals[0] if e.b != 0) > 1:
                continue
            yield spec, [g for g in ((rng.randint(-2, 2), rng.randint(-2, 2))
                                     for _ in range(3)) if spec.sign(g) == 1]

    return specs, perturbation_inputs()


def test_criterion_11_lattice_pipeline():
    with criterion(11, "lattice pipeline: 50 seeded specs agree with ball "
                       "search; perturbations keep pins, go dense, and "
                       "carry witnesses", 120.0):
        specs, perturbation_inputs = _criterion_11_inputs()
        verdicts = {"dense": 0, "discrete": 0}
        for spec in specs:
            exact = classify_density(spec)
            verdicts[exact.verdict] += 1
            if exact.verdict == "dense":
                # Sound confirmation: exhibit a positive below the window
                # minimum (a decreasing chain).
                brute = ball_search_density(spec, 8, refutation_radius=160)
                assert brute.verdict == "dense"
            else:
                least = exact.least_positive
                norm = sum(abs(c) for c in least)
                if norm <= 8:
                    brute = ball_search_density(spec, 8, refutation_radius=24)
                    assert brute.verdict == "discrete"
                    assert brute.least_positive == least
                else:
                    # Extend the window just enough to cover the claim.
                    assert window_minimum_oracle(spec, norm) == least
        assert verdicts["dense"] > 0 and verdicts["discrete"] > 0

        perturbed = 0
        while perturbed < 50:
            spec, required = next(perturbation_inputs)
            try:
                result = perturb_dense(spec, required)
            except PerturbationError:
                continue
            assert all(result.spec.sign(g) == 1 for g in required)
            assert classify_density(result.spec).verdict == "dense"
            assert spec.sign(result.witness) != result.spec.sign(result.witness)
            perturbed += 1


def test_perturbation_witness_is_first_ball_disagreement():
    # Slow oracle for the perturbation witness: the first vector of the
    # radius-12 Z^2 ball, in ball order, on which the public signs of
    # the input and the result disagree.
    z2_ball = ball(GroupContext.free_abelian(2), 12)
    _, perturbation_inputs = _criterion_11_inputs()
    checked = 0
    while checked < 20:
        spec, required = next(perturbation_inputs)
        try:
            result = perturb_dense(spec, required)
        except PerturbationError:
            continue
        assert result.witness == next(
            e.payload for e in z2_ball
            if spec.sign(e.payload) != result.spec.sign(e.payload))
        checked += 1


def _perturbation_outcome(perturb, spec, required):
    try:
        return perturb(spec, required).to_json()
    except (PerturbationError, UsageError) as exc:
        return type(exc)


def test_perturb_dense_matches_full_schedule_oracle():
    # The early exit and the refusal of k != 2 change no result and no
    # error class: the first 200 criterion-11 inputs, then seeded Z^3
    # specs, seeded Z^2 specs whose longer pins force tilts below the
    # first delta, and seeded Z^1 specs.
    _, perturbation_inputs = _criterion_11_inputs()
    inputs = [next(perturbation_inputs) for _ in range(200)]
    rng = random.Random(0x3D)
    for k, count, reach in ((3, 30, 2), (2, 150, 6), (1, 20, 4)):
        for _ in range(count):
            spec = _seeded_spec(rng, k, irrational_share=0.2)
            pins = [tuple(rng.randint(-reach, reach) for _ in range(k))
                    for _ in range(2)]
            inputs.append((spec, [g for g in pins if spec.sign(g) == 1]))
    outcomes = set()
    for spec, required in inputs:
        outcome = _perturbation_outcome(perturb_dense, spec, required)
        assert outcome == _perturbation_outcome(full_schedule_perturbation,
                                                spec, required)
        outcomes.add(outcome if isinstance(outcome, type)
                     else outcome["delta"] == "1/8")
    assert outcomes == {True, False, PerturbationError}


def _cone_pools(rng):
    klein_pool = klein_tararin_cones()

    lattice_pool = []
    while len(lattice_pool) < 10:
        lattice_pool.append(LatticeCone(_seeded_spec(rng, 2)))

    b3 = GroupContext.braid(3)
    dehornoy = DehornoyCone(3)
    braid_pool = [dehornoy, DubrovinaDubrovinCone(3)]
    for text in ("s1", "s2 S1", "s1 s2", "S2 s1 S2"):
        braid_pool.append(ConjugateCone(dehornoy, b3.element(text)))
    braid_pool.append(FlipCone(dehornoy, BraidShiftPredicate(3, 1), 3))
    return [klein_pool, lattice_pool, braid_pool]


def test_criterion_12_ultrametric():
    with criterion(12, "ultrametric inequality on 1,000 seeded exact "
                       "triples at resolution 4", 60.0):
        rng = random.Random(0xACCE9712)
        pools = _cone_pools(rng)
        checked = 0
        while checked < 1_000:
            pool = pools[checked % len(pools)]
            p, q, r = (rng.choice(pool) for _ in range(3))
            dpq = distance(p, q, 4)
            dqr = distance(q, r, 4)
            dpr = distance(p, r, 4)
            if not (dpq.exact and dqr.exact and dpr.exact):
                continue
            assert dpr.distance <= max(dpq.distance, dqr.distance)
            checked += 1
