"""Batch command-line front end.

One experiment per invocation; composition happens in the shell.  All
reports are canonical JSON (sorted keys, no floats, distances rendered
as "2^-r" strings), so identical configurations produce byte-identical
output.  CSV is available only for tabular results.

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
from .lospace import CensusQuery, census, distance


def parse_group(text: str) -> GroupContext:
    text = text.strip().lower()
    if text in ("z", "z1", "z^1"):
        return GroupContext.free_abelian(1)
    if text.startswith("z^"):
        return GroupContext.free_abelian(int(text[2:]))
    if text.startswith("z") and text[1:].isdigit():
        return GroupContext.free_abelian(int(text[1:]))
    if text == "klein":
        return GroupContext.klein_bottle()
    if text.startswith("braid:"):
        return GroupContext.braid(int(text.split(":", 1)[1]))
    raise UsageError(f"unknown group {text!r} (try z, z2, klein, braid:3)")


def parse_cone(text: str) -> ConeOracle:
    """A cone from a JSON descriptor, ``@file``, or a short form such as
    ``dd:4`` turned into one: ``cone_from_json`` builds every cone."""
    text = text.strip()
    kind, _, arg = text.partition(":")
    if text.startswith("{"):
        data = json.loads(text)
    elif text.startswith("@"):
        with open(text[1:], encoding="utf-8") as handle:
            data = json.load(handle)
    elif kind in ("dehornoy", "dd"):
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
    text = text.strip()
    if text.startswith("@"):
        with open(text[1:], encoding="utf-8") as handle:
            return LexConeSpec.from_json(json.load(handle))
    return LexConeSpec.from_json(json.loads(text))


def emit(report, fmt: str, out_path: str | None) -> None:
    payload = report_emit(report, fmt)
    if out_path:
        with open(out_path, "wb") as handle:
            handle.write(payload)
    else:
        sys.stdout.write(payload.decode("utf-8"))


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


# Each flag's argparse options, stated once: a flag means the same in every
# command that takes it.  Defaults live in _DEFAULTS, applied after --config.
_FLAGS = {
    "cone": {},
    "word": {"aliases": ("--element",)},
    "left": {},
    "right": {},
    "group": {},
    "radius": {"type": int},
    "radii": {"help": "range a..b for a CSV count table"},
    "pin": {"action": "append",
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
    "require": {"action": "append",
                "help": "vector that must stay positive (repeatable)"},
    "chain": {"help": "JSON list of predicate descriptors"},
    "n_max": {"type": int},
    "out": {"help": "output path (default stdout)"},
    "format": {"choices": ("json", "csv")},
    "seed": {"type": int, "help": "seed recorded in the report"},
    "budget": {"help": "JSON budget overrides"},
    "config": {"help": "JSON file with argument defaults"},
}

_DEFAULTS = {"pin": (), "require": (), "n_max": 4, "format": "json",
             "seed": 0}

_COMMON = ("out", "format", "seed", "budget", "config")

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
             ("cone", "chain", "radius"), ("n_max",)),
    "props": ("Conradian/bi-order violation scan", ("cone", "radius"),
              ("n_max",)),
}


def _flag_strings(name: str) -> tuple[str, ...]:
    return ("--" + name.replace("_", "-"), *_FLAGS[name].get("aliases", ()))


def _attach_negative_values(argv: list[str]) -> list[str]:
    """Join ``--flag -1,0`` into ``--flag=-1,0`` for every flag of _FLAGS:
    a value that starts with ``-`` and a digit is never an option here,
    but argparse's own test for negative numbers differs across Python
    versions and refuses ``-1,0``."""
    flags = {s for name in _FLAGS for s in _flag_strings(name)}
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
    """The parser for every command, built once per process; parsing does
    not mutate it, and every flag it fills defaults to None."""
    parser = argparse.ArgumentParser(
        prog="ordercone",
        description="finite-resolution experiments on spaces of left orderings")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, required, optional) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for name in required + optional + _COMMON:
            options = dict(_FLAGS[name])
            options.pop("aliases", None)
            p.add_argument(*_flag_strings(name), **options)
    return parser


def _config_value_ok(name: str, value) -> bool:
    """Whether a config value has the JSON type its flag would produce."""
    if _FLAGS[name].get("action") == "append":
        return type(value) is list and all(type(v) is str for v in value)
    return type(value) is _FLAGS[name].get("type", str)


def _apply_config(args: argparse.Namespace) -> None:
    """Fill unset flags from the ``--config`` object, then from _DEFAULTS;
    config values bypass argparse, so each must already have its flag's
    type.  Config keys may spell a flag with ``-`` or ``_``."""
    config = {}
    if args.config:
        with open(args.config, encoding="utf-8") as handle:
            config = json.load(handle)
        if not isinstance(config, dict):
            raise UsageError("--config must hold a JSON object")
        config = {key.replace("-", "_"): (key, value)
                  for key, value in config.items()}
    _, required, optional = _COMMANDS[args.command]
    for name in required + optional + _COMMON:
        if getattr(args, name) is not None:
            continue
        if name in config:
            key, value = config[name]
            if not _config_value_ok(name, value):
                raise UsageError(f"--config value for {key!r} has the "
                                 f"wrong type: {value!r}")
            setattr(args, name, value)
        else:
            setattr(args, name, _DEFAULTS.get(name))
    missing = [name for name in required if getattr(args, name) is None]
    if missing:
        raise UsageError(f"{args.command} is missing: "
                         + ", ".join("--" + m.replace("_", "-")
                                     for m in missing))


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
            rows = [[r, len(census(CensusQuery(context, r, pins)))]
                    for r in range(int(lo), int(hi) + 1)]
            return {"columns": ["radius", "count"], "rows": rows}, 0
        vectors = census(CensusQuery(context, args.radius, pins))
        return {"count": len(vectors),
                "vectors": [v.to_json() for v in vectors]}, 0

    if args.command == "distance":
        cone_a = parse_cone(args.cone_a)
        cone_b = parse_cone(args.cone_b)
        return distance(cone_a, cone_b, args.resolution).to_json(), 0

    if args.command == "orbit-scan":
        cone = parse_cone(args.cone)
        conjugators = ball(cone.context, args.conjugator_radius)
        witness = lospace.accumulation_scan(cone, conjugators,
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
            cone, [predicate_from_json(d) for d in chain], args.radius,
            args.n_max)
        return estimate.to_json(), 0

    if args.command == "props":
        cone = parse_cone(args.cone)
        scan = lospace.order_property_scan(cone, args.radius, args.n_max)
        violated = scan.conradian_violations or scan.biorder_violations
        return scan.to_json(), 1 if violated else 0


def main(argv: list[str] | None = None) -> int:
    try:
        try:
            args = build_parser().parse_args(_attach_negative_values(
                sys.argv[1:] if argv is None else argv))
        except SystemExit as exc:
            return int(exc.code or 0)
        _apply_config(args)
        with budget_scope(current_budget().with_overrides(
                json.loads(args.budget) if args.budget else {})):
            report, code = _run(args)
        report["seed"] = args.seed
        emit(report, args.format, args.out)
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
