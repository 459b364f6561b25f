"""Batch command-line front end.

One experiment per invocation, its report written to stdout;
composition and redirection happen in the shell.  All reports are
canonical JSON (sorted keys, no floats, distances rendered as "2^-r"
strings), so identical command lines produce byte-identical output.
CSV is available only for tabular results.

Exit codes: 0 success / property holds, 1 property violation found
(the report carries the certificate), 2 usage error, 3 budget
exhaustion or a declined perturbation, 4 internal error (an exact
verdict and its independent cross-check disagreed).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys

from . import lospace
from .budgets import budget_scope, current_budget
from .certificates import ConvexityCertificate
from .cones import (ConeOracle, compare, cone_from_json, predicate_from_json,
                    sign_text)
from .errors import (BudgetExceededError, CrossCheckError, OrderconeError,
                     PerturbationError, UsageError)
from .groups import GroupContext, ball
from .lattices import (LexConeSpec, classify_density, perturb_dense)
from .lospace import census, distance


def parse_group(text: str) -> GroupContext:
    """``z``, ``zK``, ``z^K``, ``klein`` or ``braid:N``, K and N integers."""
    text = text.strip().lower()
    if text == "z":
        return GroupContext.free_abelian(1)
    if text == "klein":
        return GroupContext.klein_bottle()
    for prefix, family in (("z^", GroupContext.free_abelian),
                           ("z", GroupContext.free_abelian),
                           ("braid:", GroupContext.braid)):
        param = text.removeprefix(prefix)
        if param != text and param.removeprefix("-").isdecimal():
            return family(int(param))
    raise UsageError(f"unknown group {text!r} (try z, z2, klein, braid:3)")


def parse_cone(text: str) -> ConeOracle:
    """A cone from a JSON descriptor, ``@file``, or a short form such as
    ``dd:4`` turned into one: ``cone_from_json`` builds every cone."""
    text = text.strip()
    kind, _, arg = text.partition(":")
    if text.startswith(("{", "@")):
        data = _read_json(text)
    elif kind in ("dehornoy", "dd"):
        if not arg.removeprefix("-").isdecimal():
            raise UsageError(f"{kind} cone wants an integer n")
        data = {"type": kind, "n": int(arg)}
    elif kind == "klein" and len(arg) == 2:
        data = {"type": "klein_tararin", "sx": arg[0], "sy": arg[1]}
    elif kind == "klein":
        raise UsageError("klein cone wants two signs, e.g. klein:+-")
    elif kind == "lattice":
        data = {"type": "lattice", "spec": json.loads(arg)}
    else:
        raise UsageError(f"unknown cone descriptor {text!r}")
    return cone_from_json(data)


def parse_spec(text: str) -> LexConeSpec:
    return LexConeSpec.from_json(_read_json(text.strip()))


def _read_json(text: str):
    """JSON given inline, or read from the file named after a leading
    ``@``."""
    if text.startswith("@"):
        with open(text[1:], encoding="utf-8") as handle:
            return json.load(handle)
    return json.loads(text)


def report_emit(result, fmt: str) -> bytes:
    """Render a report: canonical JSON, or CSV for tabular results."""
    if fmt == "json":
        # Reports are trees the library builds: no cycle to look for.
        return (json.dumps(result, sort_keys=True, separators=(",", ":"),
                           check_circular=False) + "\n").encode("utf-8")
    if fmt == "csv":
        rows = result.get("rows") if isinstance(result, dict) else None
        if rows is None:
            raise UsageError("CSV output is only available for tabular results")
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(result["columns"])
        writer.writerows(rows)
        return buffer.getvalue().encode("utf-8")
    raise UsageError(f"unknown output format {fmt!r}")


# Each flag's argparse options, default included, stated once: a flag means
# the same in every command that takes it.  Argparse copies a list default
# before it appends, so no run sees another's --pin or --require.
_FLAGS = {
    "cone": {},
    "word": {},
    "left": {},
    "right": {},
    "group": {},
    "radius": {"type": int},
    "radii": {"help": "range a..b for a CSV count table"},
    "pin": {"action": "append", "default": [],
            "help": "element required positive (repeatable)"},
    "cone_a": {},
    "cone_b": {},
    "resolution": {"type": int},
    "conjugator_radius": {"type": int},
    "target_radius": {"type": int},
    "n": {"type": int},
    "max_len": {"type": int},
    "predicate": {"help": "predicate JSON"},
    "spec": {"help": "spec JSON or @file"},
    "require": {"action": "append", "default": [],
                "help": "vector that must stay positive (repeatable)"},
    "chain": {"help": "JSON list of predicate descriptors"},
    "format": {"choices": ("json", "csv"), "default": "json"},
    "seed": {"type": int, "default": 0,
             "help": "seed recorded in the report"},
    "budget": {"help": "JSON budget overrides"},
}

_COMMON = ("format", "seed", "budget")

# command: (help, required flags, optional flags); every command also takes
# the _COMMON flags.
_COMMANDS = {
    "sign": ("sign of one element under a cone", ("cone", "word"), ()),
    "compare": ("compare two elements under a cone",
                ("cone", "left", "right"), ()),
    "ball": ("enumerate a Cayley ball", ("group", "radius"), ()),
    "census": ("consistent sign vectors on a ball", ("group",),
               ("radius", "radii", "pin")),
    "distance": ("ultrametric distance of two cones",
                 ("cone_a", "cone_b", "resolution"), ()),
    "orbit-scan": ("search conjugates accumulating at a cone",
                   ("cone", "conjugator_radius", "target_radius"),
                   ("resolution",)),
    "dd-witness": ("semigroup witnesses for DD-positive ball elements",
                   ("n", "radius", "max_len"), ()),
    "convexity": ("sorted-ball convexity check of a candidate subgroup",
                  ("cone", "predicate", "radius"), ()),
    "classify": ("dense/discrete verdict for a lex spec", ("spec",), ()),
    "perturb": ("dense perturbation of a lex spec", ("spec",), ("require",)),
    "soul": ("soul estimate along a convex chain",
             ("cone", "chain", "radius"), ()),
    "props": ("Conradian/bi-order violation scan", ("cone", "radius"), ()),
}


def _flag_string(name: str) -> str:
    return "--" + name.replace("_", "-")


def _attach_negative_values(argv: list[str]) -> list[str]:
    """Join ``--flag -1,0`` into ``--flag=-1,0`` for every flag of _FLAGS:
    a value that starts with ``-`` and a digit is never an option here,
    but argparse's own test for negative numbers differs across Python
    versions and refuses ``-1,0``."""
    flags = {_flag_string(name) for name in _FLAGS}
    out: list[str] = []
    for token in argv:
        if (out and out[-1] in flags and token[:1] == "-"
                and token[1:2].isdecimal()):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser for every command, built once per process; it applies
    every default and required flag, and parsing does not mutate it."""
    parser = argparse.ArgumentParser(
        prog="ordercone",
        description="finite-resolution experiments on spaces of left orderings")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, required, optional) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for name in required + optional + _COMMON:
            p.add_argument(_flag_string(name), **_FLAGS[name],
                           required=name in required)
    return parser


def _run(args: argparse.Namespace) -> tuple[dict, int]:
    if args.command == "sign":
        cone = parse_cone(args.cone)
        element = cone.context.element(args.word)
        return {"sign": sign_text(cone.sign(element))}, 0

    if args.command == "compare":
        cone = parse_cone(args.cone)
        left = cone.context.element(args.left)
        right = cone.context.element(args.right)
        return {"relation": compare(cone, left, right)}, 0

    if args.command == "ball":
        context = parse_group(args.group)
        b = ball(context, args.radius)
        return {"count": len(b),
                "elements": [e.text() for e in b.elements]}, 0

    if args.command == "census":
        if (args.radius is None) == (args.radii is None):
            raise UsageError("census takes one of --radius and --radii")
        context = parse_group(args.group)
        pins = tuple(context.element(p) for p in args.pin)
        if args.radii is not None:
            lo, dots, hi = args.radii.partition("..")
            if not (dots and lo.isdecimal() and hi.isdecimal()
                    and int(lo) <= int(hi)):
                raise UsageError("--radii must be a range a..b of radii "
                                 f"with a <= b, not {args.radii!r}")
            rows = [[r, len(census(context, r, pins))]
                    for r in range(int(lo), int(hi) + 1)]
            return {"columns": ["radius", "count"], "rows": rows}, 0
        vectors = census(context, args.radius, pins)
        return {"count": len(vectors),
                "vectors": [v.to_json() for v in vectors]}, 0

    if args.command == "distance":
        cone_a = parse_cone(args.cone_a)
        cone_b = parse_cone(args.cone_b)
        return distance(cone_a, cone_b, args.resolution).to_json(), 0

    if args.command == "orbit-scan":
        witness = lospace.accumulation_scan(parse_cone(args.cone),
                                            args.conjugator_radius,
                                            args.target_radius,
                                            args.resolution)
        if witness is None:
            return {"found": False}, 0
        report = witness.to_json()
        report.update({"found": True, "replays": witness.replay()})
        return report, 0

    if args.command == "dd-witness":
        witnesses = lospace.dd_isolation_witnesses(args.n, args.radius,
                                                   args.max_len)
        return {"count": len(witnesses),
                "witnesses": [w.to_json() for w in witnesses]}, 0

    if args.command == "convexity":
        cone = parse_cone(args.cone)
        predicate = predicate_from_json(json.loads(args.predicate))
        result = lospace.convexity_check(cone, predicate, args.radius)
        report = result.to_json()
        if isinstance(result, ConvexityCertificate):
            return report, 0
        report["replays"] = result.replay()
        return report, 1

    if args.command == "classify":
        spec = parse_spec(args.spec)
        return classify_density(spec).to_json(), 0

    if args.command == "perturb":
        spec = parse_spec(args.spec)
        required = [[int(c) for c in r.split(",")] for r in args.require]
        return perturb_dense(spec, required).to_json(), 0

    if args.command == "soul":
        cone = parse_cone(args.cone)
        chain = json.loads(args.chain)
        if not isinstance(chain, list):
            raise UsageError("--chain must hold a JSON list of predicates")
        estimate = lospace.soul_estimate(
            cone, [predicate_from_json(d) for d in chain], args.radius)
        return estimate.to_json(), 0

    if args.command == "props":
        cone = parse_cone(args.cone)
        scan = lospace.order_property_scan(cone, args.radius)
        violated = scan.conradian_violations or scan.biorder_violations
        return scan.to_json(), 1 if violated else 0


def main(argv: list[str] | None = None) -> int:
    try:
        try:
            args = build_parser().parse_args(_attach_negative_values(
                sys.argv[1:] if argv is None else argv))
        except SystemExit as exc:
            return int(exc.code or 0)
        with budget_scope(current_budget().with_overrides(
                json.loads(args.budget) if args.budget else {})):
            report, code = _run(args)
        report["seed"] = args.seed
        sys.stdout.write(report_emit(report, args.format).decode("utf-8"))
        return code
    except PerturbationError as exc:  # a fixed search limit, no budget
        print(exc, file=sys.stderr)
        return 3
    except BudgetExceededError as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return 3
    except CrossCheckError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except (UsageError, OrderconeError, OSError, json.JSONDecodeError,
            ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
