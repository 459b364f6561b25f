"""The three benchmark workloads and their correctness checks.

A workload is built once from its seed (the set-up the benchmark times
as ``setup_s``) and then yields one list of operations per pass.  An
operation is either one ``ordercone`` CLI invocation, run in-process
through ``cli.main`` with its output captured, or one library query.
Every operation carries a check whose expected answer comes from a fact
fixed in advance (an acceptance-suite count, a certificate replay, an
answer known by construction, or an exact computation written here
independently of the library), never from a stored copy of an earlier
run's output.

The library is imported lazily inside ``build`` so that the set-up
probe times the import of ``ordercone`` itself.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction
from math import gcd


class CheckFailed(Exception):
    """An operation's output contradicts the fact its check encodes."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


class Op:
    """One timed operation of a pass.

    ``run`` is the timed call.  ``emit`` renders its output as the bytes
    that go into the pass digest.  ``check`` raises CheckFailed, and may
    look at the outputs of earlier operations of the same pass, which
    ``results`` holds by index.  ``declined`` marks a documented refusal
    (exit code 3 from ``perturb``) that is not a failure.  A ``fresh``
    operation models a new process: the runner collects garbage before
    timing it.
    """

    kind = "op"
    fresh = False

    def run(self):
        raise NotImplementedError

    def emit(self, output) -> bytes:
        raise NotImplementedError

    def check(self, output, results) -> None:
        raise NotImplementedError

    def declined(self, output) -> bool:
        return False


# ---------------------------------------------------------------------------
# CLI jobs


class CliJob(Op):
    """``ordercone <argv>`` through ``cli.main`` with stdout captured.

    ``codes`` lists the exit codes the README documents for this job;
    anything else, or a raised exception, is a failure.  ``fresh``
    clears the reduction and ball caches first, as a separate CLI
    process per job would start without them.
    """

    kind = "cli"

    def __init__(self, lib, argv, checker, codes=(0,), fresh=True,
                 decline_code=None):
        self.lib = lib
        self.argv = list(argv)
        self.checker = checker
        self.codes = tuple(codes)
        self.fresh = fresh
        self.decline_code = decline_code

    def run(self):
        lib = self.lib
        if self.fresh:
            lib.braids.clear_caches()
            lib.groups.clear_ball_cache()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = lib.cli.main(self.argv)
        return code, out.getvalue(), err.getvalue()

    def emit(self, output) -> bytes:
        code, out, _ = output
        return f"{code}\n{out}".encode("utf-8")

    def declined(self, output) -> bool:
        return (self.decline_code is not None
                and output[0] == self.decline_code
                and "perturbation failed" in output[2])

    def check(self, output, results) -> None:
        code, out, err = output
        if self.declined(output):
            return
        expect(code in self.codes,
               f"exit code {code} not in {self.codes}: {err.strip()}")
        report = json.loads(out) if out.startswith("{") else out
        self.checker(code, report, results)


class Compound(Op):
    """A pipeline step whose later jobs take their inputs from the first
    job's report, e.g. pinned census extensions of a smaller census."""

    kind = "cli"

    fresh = True

    def __init__(self, first: CliJob, follow, checker):
        self.first = first
        self.follow = follow
        self.checker = checker

    def run(self):
        head = self.first.run()
        tail = [job.run() for job in self.follow(head)]
        return head, tail

    def emit(self, output) -> bytes:
        head, tail = output
        return b"".join([self.first.emit(head)]
                        + [self.first.emit(t) for t in tail])

    def check(self, output, results) -> None:
        head, tail = output
        self.first.check(head, results)
        for code, _, err in tail:
            expect(code == 0, f"follow-up exit code {code}: {err.strip()}")
        self.checker(json.loads(head[1]), [json.loads(t[1]) for t in tail])


# ---------------------------------------------------------------------------
# Exact arithmetic kept independent of the library, for the lattice checks


def quad_sign(a: Fraction, b: Fraction) -> int:
    """Sign of a + b*sqrt(2) for rationals a, b."""
    sa = (a > 0) - (a < 0)
    sb = (b > 0) - (b < 0)
    if sa == sb or sb == 0:
        return sa
    if sa == 0:
        return sb
    return sa if a * a > 2 * b * b else sb


def parse_normals(spec: dict) -> list[list[tuple[Fraction, Fraction]]]:
    return [[(Fraction(e["a"]), Fraction(e["b"])) for e in normal]
            for normal in spec["normals"]]


def lex_sign(normals, v) -> int:
    for normal in normals:
        a = sum(x * c for (x, _), c in zip(normal, v))
        b = sum(y * c for (_, y), c in zip(normal, v))
        s = quad_sign(a, b)
        if s:
            return s
    return 0


def rref(rows: list[list[Fraction]], width: int):
    """Reduced row echelon form over Q: (rows, pivot columns)."""
    work = [list(r) for r in rows if any(r)]
    pivots = []
    rank = 0
    for col in range(width):
        pivot = next((r for r in range(rank, len(work)) if work[r][col]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        head = work[rank][col]
        work[rank] = [x / head for x in work[rank]]
        for r in range(len(work)):
            if r != rank and work[r][col]:
                factor = work[r][col]
                work[r] = [x - factor * y for x, y in zip(work[r], work[rank])]
        pivots.append(col)
        rank += 1
    return work[:rank], pivots


def functional_rows(normals) -> list[list[Fraction]]:
    rows = []
    for normal in normals:
        rows.append([a for a, _ in normal])
        rows.append([b for _, b in normal])
    return rows


def expected_density(k: int, normals):
    """Exact verdict by rank counting, independent of the library.

    Let rho_i be the rational rank of the functionals of the first i
    normals; the integer kernel after i normals has rank k - rho_i.  At
    the first i with rho_i = k, normal i embeds a lattice of rank
    k - rho_(i-1) in the reals: rank >= 2 makes the order dense, rank 1
    makes it discrete with least positive element the primitive kernel
    vector that normal i makes positive.  Returns ("dense", None),
    ("discrete", vector) or None for an invalid spec.
    """
    previous = 0
    for i in range(1, len(normals) + 1):
        rows, _ = rref(functional_rows(normals[:i]), k)
        rho = len(rows)
        if rho < k:
            previous = rho
            continue
        if k - previous >= 2:
            return "dense", None
        kernel, pivots = rref(functional_rows(normals[:i - 1]), k)
        free = next(c for c in range(k) if c not in pivots)
        vec = [Fraction(0)] * k
        vec[free] = Fraction(1)
        for row, col in zip(kernel, pivots):
            vec[col] = -row[free]
        denom = 1
        for x in vec:
            denom = denom * x.denominator // gcd(denom, x.denominator)
        ints = [int(x * denom) for x in vec]
        g = 0
        for x in ints:
            g = gcd(g, x)
        ints = [x // g for x in ints]
        if lex_sign(normals[i - 1:i], ints) < 0:
            ints = [-x for x in ints]
        return "discrete", tuple(ints)
    return None


def lattice_shell(k: int, norm: int):
    """Integer vectors of L1 norm exactly ``norm``."""
    if k == 1:
        return [(norm,), (-norm,)] if norm else [(0,)]
    out = []
    for first in range(-norm, norm + 1):
        for rest in lattice_shell(k - 1, norm - abs(first)):
            out.append((first,) + rest)
    return out


def spec_json(k: int, normals) -> dict:
    return {"k": k, "normals": [[{"a": str(a), "b": str(b)}
                                 for a, b in normal] for normal in normals]}


def seeded_normals(rng: random.Random, k: int, irrational_share: float):
    """A valid random normal chain, drawn as the acceptance suite draws
    its seeded lattice specs (criterion 11)."""
    while True:
        count = rng.randint(1, k)
        normals = []
        for _ in range(count):
            normal = []
            for _ in range(k):
                a = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                b = (Fraction(rng.randint(-2, 2), rng.randint(1, 2))
                     if rng.random() < irrational_share else Fraction(0))
                normal.append((a, b))
            normals.append(normal)
        if len(rref(functional_rows(normals), k)[0]) == k:
            return normals


# ---------------------------------------------------------------------------
# Workload: braid-experiments


_SHIFT = '{"type":"braid_shift","n":3,"r":1}'
_CYCLIC = '{"type":"cyclic_braid","n":3,"word":"s1"}'
_CHAIN = ('[{"type":"braid_shift","n":3,"r":1},'
          '{"type":"whole","group":{"family":"braid","n":3}}]')


class BraidExperiments:
    """README-scale braid CLI experiments, cold caches per job.

    The job list is fixed; the seed is ignored.
    """

    name = "braid-experiments"

    def __init__(self, lib, seed: int):
        self.lib = lib
        self.jobs = self._jobs()

    def reset(self) -> None:
        self.lib.braids.clear_caches()
        self.lib.groups.clear_ball_cache()

    def ops(self) -> list[Op]:
        return self.jobs

    def _jobs(self) -> list[Op]:
        lib = self.lib
        job = lambda argv, check, codes=(0,): CliJob(lib, argv, check, codes)
        return [
            job(["sign", "--cone", "dehornoy:3", "--word", "s1 S2"],
                self._check_sign),
            job(["ball", "--group", "braid:3", "--radius", "2"],
                self._check_ball),
            job(["census", "--group", "braid:3", "--radius", "4",
                 "--budget", '{"census_braid_radius": 4}'],
                self._check_braid_census),
            job(["convexity", "--cone", "dehornoy:3", "--predicate", _SHIFT,
                 "--radius", "4"], self._check_convex_pass),
            job(["convexity", "--cone", "dehornoy:3", "--predicate", _CYCLIC,
                 "--radius", "3"], self._check_convex_fail, codes=(1,)),
            job(["props", "--cone", "dd:4", "--radius", "3"],
                self._check_props, codes=(0, 1)),
            job(["props", "--cone", "dehornoy:3", "--radius", "4"],
                self._check_props_dehornoy, codes=(1,)),
            job(["orbit-scan", "--cone", "dehornoy:3",
                 "--conjugator-radius", "6", "--target-radius", "3",
                 "--resolution", "4", "--budget", '{"braid_ball": {"3": 6}}'],
                self._check_orbit),
            job(["dd-witness", "--n", "4", "--radius", "3", "--max-len", "16"],
                self._check_dd_witness),
            job(["soul", "--cone", "dehornoy:3", "--radius", "3",
                 "--chain", _CHAIN], self._check_soul),
        ]

    # -- checks ------------------------------------------------------------

    def _check_sign(self, code, report, results) -> None:
        # s1 S2 is handle free with main generator s1 occurring positively.
        expect(report["sign"] == "+", "sign of s1 S2 must be +")

    def _check_ball(self, code, report, results) -> None:
        # The shortest braid relation has length 6, so the 16 freely
        # reduced words of length <= 2 in B_3 are pairwise distinct.
        expect(report["count"] == 16 == len(report["elements"]),
               "B_3 radius-2 ball must hold 16 elements")

    def _check_braid_census(self, code, report, results) -> None:
        vectors = report["vectors"]
        expect(report["count"] == len(vectors), "census count mismatch")
        found = census_sign_sets(vectors)
        lib = self.lib
        b3 = lib.groups.GroupContext.braid(3)
        dehornoy = lib.cones.DehornoyCone(3)
        cones = [dehornoy, lib.cones.DubrovinaDubrovinCone(3)] + [
            lib.cones.ConjugateCone(dehornoy, h)
            for h in b3.generators_with_inverses()]
        words = [w for w, _ in vectors[0]["signs"]]
        for cone in cones:
            # Genuine orders restrict to consistent vectors, and the
            # census is complete.
            signs = tuple(lib.cones.sign_text(cone.sign(b3.element(w)))
                          for w in words)
            expect(signs in found, f"census misses {cone.describe()}")

    def _replay(self, report) -> bool:
        return self.lib.certificates.certificate_from_json(report).replay()

    def _check_convex_pass(self, code, report, results) -> None:
        # Acceptance criterion 9: the shifted strand subgroup is convex.
        expect(report["kind"] == "convexity_pass", "shift must pass")
        expect(self._replay(report), "convexity certificate must replay")

    def _check_convex_fail(self, code, report, results) -> None:
        # Acceptance criterion 9: <s1> fails with a replaying triple.
        expect(report["kind"] == "convexity_counterexample", "<s1> must fail")
        expect(report["replays"] is True, "reported replay must be true")
        expect(self._replay(report), "counterexample must replay")

    def _check_violations(self, report, cone_text: str, n: int) -> None:
        """Replay reported pairs: h > 1 with g h g^-1 < 1 for bi-order
        violations, g, h > 1 with g^-1 h g^m <= 1 for m <= n_max for
        Conradian ones."""
        lib = self.lib
        cone = lib.cli.parse_cone(cone_text)
        ctx = lib.groups.GroupContext.braid(n)
        for g_text, h_text in report["biorder_violations"][:40]:
            g, h = ctx.element(g_text), ctx.element(h_text)
            expect(cone.sign(h) == 1 and cone.sign(g * h * g.inverse()) == -1,
                   f"bi-order pair ({g_text}, {h_text}) does not replay")
        for g_text, h_text in report["conradian_violations"][:40]:
            g, h = ctx.element(g_text), ctx.element(h_text)
            power = g.inverse() * h
            ok = cone.sign(g) == 1 and cone.sign(h) == 1
            for _ in range(report["n_max"]):
                power = power * g
                ok = ok and cone.sign(power) != 1
            expect(ok, f"Conradian pair ({g_text}, {h_text}) does not replay")

    def _check_props(self, code, report, results) -> None:
        violated = bool(report["conradian_violations"]
                        or report["biorder_violations"])
        expect(code == (1 if violated else 0), "props exit code rule")
        self._check_violations(report, "dd:4", 4)

    def _check_props_dehornoy(self, code, report, results) -> None:
        # Acceptance criterion 10's documented pair lies in the r=3 ball.
        expect(["s1 s2 s1", "s1 S2"] in report["biorder_violations"],
               "documented bi-order pair missing")
        self._check_violations(report, "dehornoy:3", 3)

    def _check_orbit(self, code, report, results) -> None:
        # Acceptance criterion 7: a witness within 2^-3 exists in the
        # radius-6 conjugator ball and replays.
        expect(report["found"] is True and report["replays"] is True,
               "orbit scan must find a replaying witness")
        expect(report["agree_radius"] >= 3, "agree_radius below target")
        expect(self._replay(report), "accumulation witness must replay")

    def _check_dd_witness(self, code, report, results) -> None:
        lib = self.lib
        witnesses = report["witnesses"]
        expect(report["count"] == len(witnesses), "witness count mismatch")
        cone = lib.cones.DubrovinaDubrovinCone(4)
        ball = lib.groups.ball(cone.context, 3)
        positives = {g.text() for g in ball if cone.sign(g) == 1}
        # Criterion 8: every DD-positive element gets exactly one witness.
        expect({w["element"] for w in witnesses} == positives,
               "witnesses do not cover the DD-positive elements")
        expect(2 * len(positives) == len(ball), "ball is not split in half")
        for w in witnesses:
            expect(len(w["witness"]) <= 16, "witness longer than max-len")
            expect(self._replay(w), f"witness for {w['element']} fails")

    def _check_soul(self, code, report, results) -> None:
        levels = report["levels"]
        expect(len(levels) == 2, "two chain levels expected")
        # sh^1(B_2) is convex (criterion 9) and infinite cyclic, so the
        # restricted order is Conradian and bi-invariant; the whole of
        # B_3 holds the documented bi-order pair.
        expect(levels[0]["convex"] and levels[0]["conradian_ok"]
               and levels[0]["biorder_ok"], "shift level must pass")
        expect(levels[1]["convex"] and not levels[1]["biorder_ok"],
               "whole group is convex and not bi-ordered")
        expect(report["best_biorder_level"] == 0, "best bi-order level")


# ---------------------------------------------------------------------------
# Workload: word-stream


class Query(Op):
    """One library call on braid elements built before the pass.

    ``expected`` is the answer, or ANY_SIGN when the braid may be
    trivial, or None when it is nontrivial with unknown sign.
    ``relation`` = (index, factor) ties the answer to an earlier
    query's: the same word repeats it, the inverse word negates it.
    """

    kind = "query"

    def __init__(self, run, expected, relation=None):
        self._run = run
        self.expected = expected
        self.relation = relation

    def run(self):
        return self._run()

    def emit(self, output) -> bytes:
        return f"{output!r}\n".encode("utf-8")

    def check(self, output, results) -> None:
        expected = self.expected
        if self.relation is not None:
            earlier, factor = self.relation
            expect(results[earlier][0] is not None, "earlier query failed")
            expected = factor * results[earlier][0]
        if expected is ANY_SIGN:
            expect(output in (-1, 0, 1), f"sign {output!r} out of range")
        elif expected is None:
            expect(output in (-1, 1), f"sign {output!r} of a nontrivial braid")
        else:
            expect(output == expected, f"got {output!r}, expected {expected!r}")


ANY_SIGN = "any"


class WordStream:
    """A seeded stream of library queries on B_3..B_5 words of length
    20..120, caches warm for the whole pass.

    Mix: 60% cone sign, 20% compare, 20% element equality.  Half the
    words repeat earlier ones.  Answers are known by construction:
    conjugates of positive words are Dehornoy positive (property S),
    products of the Dubrovina-Dubrovin generators are DD positive, a
    relator inserted into a word keeps the braid, one appended letter
    changes the exponent sum, and a repeated sign query on the inverse
    word must negate the earlier answer.  The only sign answers not
    fixed in advance are those of fresh random words with nonzero
    exponent sum, which must be nonzero.
    """

    name = "word-stream"
    queries = 5000

    def __init__(self, lib, seed: int):
        self.lib = lib
        self.contexts = {n: lib.groups.GroupContext.braid(n) for n in (3, 4, 5)}
        self.cones = {(kind, n): cls(n) for n in (3, 4, 5)
                      for kind, cls in (("dehornoy", lib.cones.DehornoyCone),
                                        ("dd", lib.cones.DubrovinaDubrovinCone))}
        self.plan = self._plan(random.Random(seed))

    def reset(self) -> None:
        self.lib.braids.clear_caches()
        self.lib.groups.clear_ball_cache()

    # -- word construction --------------------------------------------------

    @staticmethod
    def _random_word(rng, n, length):
        letters = []
        while len(letters) < length:
            letter = rng.randint(1, n - 1) * rng.choice((1, -1))
            if letters and letters[-1] == -letter:
                continue
            letters.append(letter)
        return tuple(letters)

    @staticmethod
    def _inverse(word):
        return tuple(-l for l in reversed(word))

    def _positive_word(self, rng, kind, n, length):
        """A word positive under the cone by construction."""
        if kind == "dehornoy":
            outer = self._random_word(rng, n, length // 3)
            inner = tuple(rng.randint(1, n - 1)
                          for _ in range(max(1, length - 2 * len(outer))))
            return outer + inner + self._inverse(outer)
        letters: tuple = ()
        while len(letters) < length:
            i = rng.randint(1, n - 1)
            y = tuple(range(i, n))
            letters += y if i % 2 == 1 else self._inverse(y)
        return letters

    @staticmethod
    def _relator(rng, n):
        if n >= 4 and rng.random() < 0.5:
            i, j = rng.choice([(a, b) for a in range(1, n) for b in range(1, n)
                               if abs(a - b) >= 2])
            rel = (i, j, -i, -j)
        else:
            i = rng.randint(1, n - 2)
            rel = (i, i + 1, i, -(i + 1), -i, -(i + 1))
        shift = rng.randrange(len(rel))
        rel = rel[shift:] + rel[:shift]
        return rel if rng.random() < 0.5 else tuple(-l for l in reversed(rel))

    def _plan(self, rng):
        """The query stream as plain data: (kind, payload, expectation)."""
        plan = []
        pool: list[tuple[int, tuple]] = []
        signs: list[tuple[int, str, int, tuple]] = []  # (index, cone, n, word)

        def base_word(lo, hi):
            if pool and rng.random() < 0.5:
                return rng.choice(pool)
            n = rng.choice((3, 4, 5))
            word = self._random_word(rng, n, rng.randint(lo, hi))
            pool.append((n, word))
            return n, word

        for index in range(self.queries):
            slot = index % 5
            if slot < 3:
                if signs and (index // 5 + slot) % 2:
                    earlier, kind, n, word = rng.choice(signs)
                    factor = 1 if rng.random() < 0.75 else -1
                    if factor < 0:
                        word = self._inverse(word)
                    plan.append(("sign", (kind, n, word), None,
                                 (earlier, factor)))
                    continue
                kind = rng.choice(("dehornoy", "dd"))
                n = rng.choice((3, 4, 5))
                length = rng.randint(20, 120)
                if rng.random() < 0.5:
                    word = self._positive_word(rng, kind, n, length)
                    expected = 1
                    if rng.random() < 0.5:
                        word, expected = self._inverse(word), -1
                else:
                    word = self._random_word(rng, n, length)
                    expected = None if sum(1 if l > 0 else -1
                                           for l in word) else ANY_SIGN
                    pool.append((n, word))
                signs.append((index, kind, n, word))
                plan.append(("sign", (kind, n, word), expected, None))
            elif slot == 3:
                n, g = base_word(10, 60)
                kind = rng.choice(("dehornoy", "dd"))
                p = self._positive_word(rng, kind, n, rng.randint(10, 60))
                if rng.random() < 0.5:
                    plan.append(("compare", (kind, n, g, g + p), "<", None))
                else:
                    plan.append(("compare", (kind, n, g + p, g), ">", None))
            else:
                n, g = base_word(20, 120)
                if rng.random() < 0.5:
                    at = rng.randint(0, len(g))
                    h = g[:at] + self._relator(rng, n) + g[at:]
                    plan.append(("equal", (n, g, h), True, None))
                else:
                    letter = rng.randint(1, n - 1) * rng.choice((1, -1))
                    plan.append(("equal", (n, g, g + (letter,)), False, None))
        return plan

    def ops(self) -> list[Op]:
        """Fresh element objects per pass, so no per-object cache carries
        over from an earlier pass."""
        lib = self.lib
        compare = lambda cone, g, h: lib.cones.compare(cone, g, h)
        out = []
        for kind, payload, expected, relation in self.plan:
            if kind == "sign":
                cone_kind, n, word = payload
                cone = self.cones[(cone_kind, n)]
                g = self.contexts[n].element(word)
                out.append(Query(lambda c=cone, g=g: c.sign(g), expected,
                                 relation))
            elif kind == "compare":
                cone_kind, n, g, h = payload
                cone = self.cones[(cone_kind, n)]
                ctx = self.contexts[n]
                g, h = ctx.element(g), ctx.element(h)
                out.append(Query(lambda c=cone, g=g, h=h: compare(c, g, h),
                                 expected))
            else:
                n, g, h = payload
                ctx = self.contexts[n]
                g, h = ctx.element(g), ctx.element(h)
                out.append(Query(lambda g=g, h=h: g == h, expected))
        return out


# ---------------------------------------------------------------------------
# Workload: lattice-pipeline


class LatticePipeline:
    """Seeded Z^2 / Z^3 lex specs and the small-group censuses through
    the CLI: classify, perturb, census, pinned extensions, distance."""

    name = "lattice-pipeline"
    classify_jobs = 200
    perturb_jobs = 100
    distance_jobs = 20

    def __init__(self, lib, seed: int):
        self.lib = lib
        self.jobs = self._jobs(random.Random(seed))

    def reset(self) -> None:
        self.lib.braids.clear_caches()
        self.lib.groups.clear_ball_cache()

    def ops(self) -> list[Op]:
        return self.jobs

    def _jobs(self, rng) -> list[Op]:
        lib = self.lib
        jobs: list[Op] = []
        for trial in range(self.classify_jobs):
            k = 2 if trial % 2 == 0 else 3
            normals = seeded_normals(rng, k, 0.4)
            jobs.append(CliJob(lib, ["classify", "--spec",
                                     json.dumps(spec_json(k, normals))],
                               _classify_check(k, normals)))
        for normals, pins in criterion_11_perturbations(self.perturb_jobs):
            argv = ["perturb", "--spec", json.dumps(spec_json(2, normals))]
            for g in pins:
                argv.append(f"--require={g[0]},{g[1]}")
            jobs.append(CliJob(lib, argv, _perturb_check(normals, pins),
                               decline_code=3))
        for _ in range(self.distance_jobs):
            a = seeded_normals(rng, 2, 0.4)
            if rng.random() < 0.5:
                b = seeded_normals(rng, 2, 0.4)
            else:
                # A nearby spec: the same chain with one entry nudged.
                b = [list(normal) for normal in a]
                x, y = b[0][0]
                b[0][0] = (x + Fraction(1, rng.choice((16, 32, 64))), y)
                if len(rref(functional_rows(b), 2)[0]) < 2:
                    b = a
            argv = ["distance",
                    "--cone-a", "lattice:" + json.dumps(spec_json(2, a)),
                    "--cone-b", "lattice:" + json.dumps(spec_json(2, b)),
                    "--resolution", "8"]
            jobs.append(CliJob(lib, argv, _distance_check(a, b, 8)))
        jobs += [
            CliJob(lib, ["census", "--group", "z", "--radii", "1..6",
                         "--format", "csv"], _z_census_check),
            CliJob(lib, ["census", "--group", "klein", "--radius", "5"],
                   _klein_census_check),
            CliJob(lib, ["census", "--group", "z3", "--radius", "4"],
                   _z3_census_check),
            Compound(CliJob(lib, ["census", "--group", "z2", "--radius", "2"],
                            _z2_census_check),
                     lambda head: _z2_extension_jobs(lib, head),
                     _z2_extensions_check),
            CliJob(lib, ["compare", "--cone", "klein:++", "--left=0,-1",
                         "--right=1,0"], _klein_compare_check),
            CliJob(lib, ["distance", "--cone-a", "klein:++", "--cone-b",
                         "klein:+-", "--resolution", "4"],
                   _klein_distance_check),
        ]
        return jobs


def criterion_11_perturbations(count: int):
    """The first ``count`` perturbation inputs of acceptance criterion
    11's fixed stream: after its 50 classify specs, rank-2 specs with at
    most one irrational entry in the first normal, pinned at the drawn
    vectors that are positive.

    The stream ignores the benchmark seed on purpose.  A perturbation
    either stops at its first tilt or walks the whole delta schedule,
    a 10x difference no feature of the input predicts, so a seeded set
    of 100 made the pass time differ by up to 20% between seeds.
    """
    rng = random.Random(0xACCE9711)
    for trial in range(50):
        seeded_normals(rng, 2 if trial % 2 == 0 else 3, 0.4)
    out = []
    while len(out) < count:
        normals = seeded_normals(rng, 2, 0.2)
        if sum(1 for _, b in normals[0] if b) > 1:
            continue
        pins = [g for g in ((rng.randint(-2, 2), rng.randint(-2, 2))
                            for _ in range(3)) if lex_sign(normals, g) == 1]
        out.append((normals, pins))
    return out


def _classify_check(k, normals):
    def check(code, report, results) -> None:
        verdict, least = expected_density(k, normals)
        expect(report["verdict"] == verdict,
               f"verdict {report['verdict']}, expected {verdict}")
        if least is not None:
            expect(tuple(report["least_positive"]) == least,
                   f"least {report['least_positive']}, expected {list(least)}")
    return check


def _perturb_check(old, pins):
    def check(code, report, results) -> None:
        # Criterion 11: pins stay positive, the result is dense, and the
        # witness is signed differently by the two specs.
        new = parse_normals(report["spec"])
        expect(all(lex_sign(new, g) == 1 for g in pins), "pin lost")
        result = expected_density(report["spec"]["k"], new)
        expect(result is not None and result[0] == "dense",
               "perturbed spec is not dense")
        w = tuple(report["witness"])
        expect(lex_sign(old, w) != lex_sign(new, w), "witness does not differ")
    return check


def _distance_check(a, b, resolution):
    def check(code, report, results) -> None:
        first = next((norm for norm in range(1, resolution + 1)
                      if any(lex_sign(a, v) != lex_sign(b, v)
                             for v in lattice_shell(2, norm))), None)
        agree = resolution if first is None else first - 1
        expect(report["agree_radius"] == agree,
               f"agree_radius {report['agree_radius']}, expected {agree}")
        expect(report["exact"] == (first is not None), "exact flag")
    return check


def _z_census_check(code, report, results) -> None:
    rows = report.strip().splitlines()[1:]
    # Criterion 1: LO(Z) has exactly two sign vectors at every radius.
    expect(rows == [f"{r},2" for r in range(1, 7)], "Z census counts")


def _klein_census_check(code, report, results) -> None:
    # Criterion 2: exactly the four Tararin orders.
    expect(report["count"] == 4 == len(report["vectors"]), "Klein count")
    found = {tuple(s for _, s in v["signs"]) for v in report["vectors"]}
    elements = [e for e, _ in report["vectors"][0]["signs"]]

    def tararin(sx, sy, a, b):
        return sx * ((a > 0) - (a < 0)) if a else sy * ((b > 0) - (b < 0))

    text = {1: "+", -1: "-"}
    expected = {tuple(text[tararin(sx, sy, a, b)] for a, b in elements)
                for sx in (1, -1) for sy in (1, -1)}
    expect(found == expected, "Klein vectors differ from the Tararin orders")


def census_sign_sets(vectors) -> set:
    """The census vectors as sign tuples, checked to be closed under
    negation: the opposite of a consistent vector is consistent (the
    inverse of a positive cone is one), so a complete census holds both."""
    found = {tuple(s for _, s in v["signs"]) for v in vectors}
    flip = {"+": "-", "-": "+"}
    expect(all(tuple(flip[s] for s in v) in found for v in found),
           "census is not closed under negation")
    return found


def _z3_census_check(code, report, results) -> None:
    vectors = report["vectors"]
    expect(report["count"] == len(vectors), "census count mismatch")
    found = census_sign_sets(vectors)
    elements = [tuple(e) for e, _ in vectors[0]["signs"]]
    # The 48 coordinate lex orders (axis order times axis signs) are
    # genuine orders, so a complete census holds all of them.
    import itertools
    for perm in itertools.permutations(range(3)):
        for flips in itertools.product((1, -1), repeat=3):
            signs = []
            for v in elements:
                s = next(flips[i] * ((v[i] > 0) - (v[i] < 0))
                         for i in perm if v[i])
                signs.append("+" if s > 0 else "-")
            expect(tuple(signs) in found, "coordinate lex order missing")


def _z2_census_check(code, report, results) -> None:
    # Criterion 3: eight vectors on the radius-2 ball of Z^2.
    expect(report["count"] == 8 == len(report["vectors"]), "Z^2 r=2 count")


def _z2_extension_jobs(lib, head):
    code, out, _ = head
    if code != 0:
        return []
    jobs = []
    for vector in json.loads(out)["vectors"]:
        argv = ["census", "--group", "z2", "--radius", "4"]
        for element, sign in vector["signs"]:
            if sign == "+":
                argv.append("--pin=" + ",".join(str(c) for c in element))
        jobs.append(CliJob(lib, argv, None, fresh=False))
    return jobs


def _z2_extensions_check(head, tails) -> None:
    # Criterion 3: each radius-2 vector has >= 2 radius-4 extensions,
    # and every extension restricts to it.
    expect(len(tails) == len(head["vectors"]), "one extension job per vector")
    for base, ext in zip(head["vectors"], tails):
        base_signs = {tuple(e): s for e, s in base["signs"]}
        expect(ext["count"] >= 2, "fewer than two extensions")
        for vector in ext["vectors"]:
            restricted = {tuple(e): s for e, s in vector["signs"]
                          if tuple(e) in base_signs}
            expect(restricted == base_signs, "extension does not restrict")


def _klein_compare_check(code, report, results) -> None:
    # (0,-1)^-1 (1,0) = (1,-1), positive under klein:++ .
    expect(report["relation"] == "<", "klein compare")


def _klein_distance_check(code, report, results) -> None:
    # The two orders already differ on y, of length 1.
    expect(report["agree_radius"] == 0 and report["exact"] is True,
           "klein distance")


WORKLOADS = {w.name: w for w in (BraidExperiments, WordStream, LatticePipeline)}
