"""Command-line interface: verify, construct, classify, enumerate, check-lemmas.

Exit codes: 0 success (verify: valid or valid-up-to-window), 1 invalid
presentation or unclassifiable input, 2 malformed input (argparse exits 2 on a
bad command line), 3 window too small for a construction.  Only :func:`run`
maps exceptions to them, printing ``{"error": ...}`` or ``<label>: <message>``
on stdout.  JSON input is read strictly: a count, exponent or window must be a
JSON integer.  With ``--json`` every stdout line is a JSON document; otherwise
output is a small human-readable table.

Each call loads only what its command runs: ``verify`` loads ``groups`` and
``schur`` alone, and ``automorphisms``, ``lemmas``, ``constructions``,
``classify`` and ``enumeration`` are imported inside the commands that use
them.  A setting comes from its flag alone: ``construct --window`` (default
12) and ``enumerate --finite-bound`` (default 16).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from math import gcd
from pathlib import Path

from .errors import BoundExceeded, MalformedPartition, SchurError, Unclassifiable, WindowTooSmall
from .groups import GroupDescriptor, json_field, json_value
from .schur import Z_CROSS_Z3, SchurPresentation, verify_axioms, verify_wielandt

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_MALFORMED = 2
EXIT_WINDOW = 3

# exception type -> (exit code, label of the human error line); first match wins
_MAPPED = (SchurError, ValueError, KeyError, OSError)
_FAILURES = (
    (WindowTooSmall, EXIT_WINDOW, "window too small"),
    (Unclassifiable, EXIT_INVALID, "unclassifiable"),
    (_MAPPED, EXIT_MALFORMED, "malformed"),
)

# The most group elements one construct call may emit; a larger group or
# window exits 2 before anything is built.
MAX_CONSTRUCT_ELEMENTS = 10**6

# The window construct uses when none is set; classify is most certain from it on.
RECOMMENDED_WINDOW = 12


_GROUP_RE = re.compile(r"^Z(?:(\d+))?(?:xZ(\d+))?$", re.IGNORECASE)


def parse_group(text: str) -> GroupDescriptor:
    """Parse "Z", "Zn", "ZxZm", or "ZnxZm"."""
    match = _GROUP_RE.match(text.strip())
    if not match:
        raise ValueError(f"cannot parse group {text!r} (expected Zn, ZxZm or ZnxZm)")
    first, second = match.group(1), match.group(2)
    if second is None:  # "Z" is Z x Z_1, and "Zn" is Z_1 x Z_n
        first, second = (None, "1") if first is None else ("1", first)
    if first is not None and int(first) == 0:  # free order 0 encodes Z; it is written "Z"
        raise ValueError(f"free order must be positive in {text!r} (write ZxZm for Z x Z_m)")
    if int(second) == 0:
        raise ValueError(f"cyclic order must be positive in {text!r}")
    return GroupDescriptor(0 if first is None else int(first), int(second))


def _load_json(text: str):
    try:
        return json.loads(text)
    except RecursionError:  # json.loads recurses once per level of nesting
        raise ValueError("JSON input is nested too deeply") from None


def _read_presentation(source: str) -> SchurPresentation:
    raw = sys.stdin.read() if source == "-" else Path(source).read_text(encoding="utf-8")
    return SchurPresentation.from_json(_load_json(raw))


def _emit(data: dict, as_json: bool, human: str) -> None:
    if as_json:
        print(json.dumps(data, sort_keys=True))
    else:
        print(human)


# -- subcommands ---------------------------------------------------------------


def _cmd_verify(args: argparse.Namespace) -> int:
    report = verify_axioms(_read_presentation(args.presentation))
    human = f"verdict: {report.verdict} (checked {report.checked_pairs} class pairs)"
    if report.witness:
        human += f"\nwitness [{report.witness.kind}]: {report.witness.detail}"
    _emit(report.to_json(), args.json, human)
    return EXIT_OK if report.ok else EXIT_INVALID


def _require_size(count: int) -> None:
    if count > MAX_CONSTRUCT_ELEMENTS:
        raise BoundExceeded(
            f"the construction would emit {count} elements, "
            f"more than the limit of {MAX_CONSTRUCT_ELEMENTS}"
        )


def _cmd_construct(args: argparse.Namespace) -> int:
    from .automorphisms import automorphism_from_json
    from .constructions import discrete, orbit_ring, standard_wedge, tensor, trivial

    params = json_value(_load_json(args.params or "{}"), dict, "--params")
    group = parse_group(json_field(params, "group", str, "ZxZ3"))
    if args.kind != "tensor":
        _require_size(
            (2 * args.window + 1) * group.torsion_order if group.is_infinite else group.order
        )
    if args.kind == "discrete":
        P = discrete(group, args.window)
    elif args.kind == "trivial":
        P = trivial(group)
    elif args.kind == "orbit":
        gens = [automorphism_from_json(g, group) for g in json_field(params, "gens", list, [])]
        P = orbit_ring(group, gens, args.window)
    elif args.kind == "tensor":
        left, right = (SchurPresentation.from_json(json_field(params, side, dict))
                       for side in ("left", "right"))
        reports = verify_axioms(left), verify_axioms(right)  # a malformed factor exits 2 here
        for side, report in zip(("left", "right"), reports):
            if report.witness is not None:
                error = f"the {side} factor is not a Schur ring: {report.witness.detail}"
                _emit({"error": error}, args.json, f"invalid: {error}")
                return EXIT_INVALID
        _require_size(sum(map(len, left.classes)) * sum(map(len, right.classes)))
        P = tensor(left, right)
    else:  # wedge; argparse restricts the choices
        P = standard_wedge(
            group,
            json_field(params, "step", int, 0),
            json_field(params, "inner", str, "discrete"),
            json_field(params, "outer", str, "discrete"),
            args.window,
        )
    print(json.dumps(P.to_json(), sort_keys=True))
    return EXIT_OK


def _cmd_classify(args: argparse.Namespace) -> int:
    from .classify import classify, describe_recipe, recipe_to_json, resynthesize

    P = _read_presentation(args.presentation)
    try:
        recipe = classify(P)
    except MalformedPartition:
        raise
    except (SchurError, ValueError) as ex:  # a partition that fits no family
        raise Unclassifiable(str(ex)) from ex
    if args.resynthesize:
        rebuilt = resynthesize(recipe, P.window)
        print(json.dumps(rebuilt.to_json(), sort_keys=True))
    else:
        _emit(recipe_to_json(recipe, P.window), args.json, describe_recipe(recipe))
    return EXIT_OK


def _cmd_enumerate(args: argparse.Namespace) -> int:
    from .enumeration import (
        DEFAULT_FINITE_BOUND,
        enumerate_finite,
        enumerate_windowed,
        is_traditional,
    )

    if args.windowed is not None:
        if args.finite_bound is not None:
            raise ValueError("--finite-bound applies only with --group")
        presentations = enumerate_windowed(args.windowed, projection=args.projection)
        label = f"ZxZ3 window {args.windowed}"
        histogram: dict[str, int] = {}
    else:
        if args.projection is not None:
            raise ValueError("--projection applies only with --windowed")
        group = parse_group(args.group)
        bound = DEFAULT_FINITE_BOUND if args.finite_bound is None else args.finite_bound
        presentations = enumerate_finite(group, bound=bound)
        label = args.group
        histogram = {}
        for P in presentations:
            kind = is_traditional(P).kind
            histogram[kind] = histogram.get(kind, 0) + 1
    for P in presentations:
        print(json.dumps(P.to_json(), sort_keys=True))
    summary = {"group": label, "count": len(presentations), "traditionality": histogram}
    if args.json:
        print(json.dumps(summary, sort_keys=True))
    else:
        print(f"-- {label}: {len(presentations)} presentations", file=sys.stderr)
        for kind, count in sorted(histogram.items()):
            print(f"   {kind:<8} {count}", file=sys.stderr)
    return EXIT_OK


def _cmd_check_lemmas(args: argparse.Namespace) -> int:
    from .lemmas import (
        MIN_FIND_H_WINDOW,
        class_shape_holds,
        find_H,
        frobenius_closure_holds,
        multiplier_sets_hold,
        power_in_subgroup_holds,
        torsion_subgroup_holds,
    )

    P = _read_presentation(args.presentation)
    G = P.group
    report = verify_axioms(P)
    rows: list[tuple[str, bool, str]] = []
    rows.append(("axioms", report.ok, f"verdict {report.verdict}"))
    wielandt = verify_wielandt(P)
    rows.append(
        ("wielandt-agreement", wielandt.verdict == report.verdict, f"verdict {wielandt.verdict}")
    )
    # a lemma row runs only where it is a theorem: every row on Z x Z_3 (small-class powers
    # from window 3), and on a finite group the power maps for k coprime to its order
    for k in (2, 4, 5, 7):
        if G == Z_CROSS_Z3 or not G.is_infinite and gcd(k, G.order) == 1:
            ok, msg = frobenius_closure_holds(P, k)
            rows.append((f"frobenius-closure k={k}", ok, msg))
    if G == Z_CROSS_Z3:
        ok, msg = torsion_subgroup_holds(P)
        rows.append(("torsion-s-subgroup", ok, msg))
        ok, msg = multiplier_sets_hold(P, 3)
        rows.append(("multiplier-sets p=3", ok, msg))
        ok, msg = class_shape_holds(P)
        rows.append(("class-shape", ok, msg))
        if P.window >= MIN_FIND_H_WINDOW:
            try:
                ok, msg = power_in_subgroup_holds(P, find_H(P))
            except SchurError as ex:  # find_H: pure-z levels that form no subgroup
                ok, msg = False, str(ex)
            rows.append(("small-class-powers", ok, msg))
    if args.json:
        print(
            json.dumps(
                {"checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in rows]},
                sort_keys=True,
            )
        )
    else:
        width = max(len(n) for n, _, _ in rows)
        for name, ok, detail in rows:
            print(f"{name:<{width}}  {'pass' if ok else 'FAIL'}  {detail}")
    return EXIT_OK if all(ok for _, ok, _ in rows) else EXIT_INVALID


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sring",
        description="Exact-arithmetic toolkit for Schur rings over Z x Z_3 and finite analogues.",
    )
    parser.add_argument("--json", action="store_true", help="emit JSON on stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="verify the Schur-ring axioms of a presentation")
    p_verify.add_argument("presentation", help="presentation JSON file, or - for stdin")
    p_verify.set_defaults(func=_cmd_verify)

    p_construct = sub.add_parser("construct", help="build a presentation from a construction")
    p_construct.add_argument(
        "--kind",
        required=True,
        choices=["discrete", "trivial", "orbit", "tensor", "wedge"],
    )
    p_construct.add_argument("--params", default="{}", help="construction parameters as JSON")
    p_construct.add_argument("--window", type=int, default=RECOMMENDED_WINDOW)
    p_construct.set_defaults(func=_cmd_construct)

    p_classify = sub.add_parser("classify", help="identify the family of a presentation")
    p_classify.add_argument("presentation", help="presentation JSON file, or - for stdin")
    p_classify.add_argument(
        "--resynthesize",
        action="store_true",
        help="emit the re-synthesized presentation instead of the descriptor",
    )
    p_classify.set_defaults(func=_cmd_classify)

    p_enum = sub.add_parser("enumerate", help="exhaustively enumerate Schur rings")
    target = p_enum.add_mutually_exclusive_group(required=True)
    target.add_argument("--group", help="finite group, e.g. Z6 or Z4xZ3")
    target.add_argument("--windowed", type=int, help="window over ZxZ3")
    p_enum.add_argument("--projection", choices=["discrete", "symmetric"], default=None,
                        help="with --windowed only")
    p_enum.add_argument("--finite-bound", dest="finite_bound", type=int, default=None,
                        help="with --group only")
    p_enum.set_defaults(func=_cmd_enumerate)

    p_lemmas = sub.add_parser("check-lemmas", help="run the closure-law checks on a presentation")
    p_lemmas.add_argument("presentation", help="presentation JSON file, or - for stdin")
    p_lemmas.set_defaults(func=_cmd_check_lemmas)
    return parser


def run(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # stdout was closed early (say by `| head`): send what is left to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_MALFORMED
    except _MAPPED as ex:
        code, label = next(row[1:] for row in _FAILURES if isinstance(ex, row[0]))
        _emit({"error": str(ex)}, args.json, f"{label}: {ex}")
        return code


def main() -> None:  # console entry point
    sys.exit(run())


if __name__ == "__main__":
    main()
