"""Fuzz the CLI's input boundary over argv, stdin, presentation JSON and --params.

Every call must end in a documented exit code (0/1/2/3) without a traceback,
and with --json every line the CLI prints is JSON.  Draws stay small so that
each call is quick: finite groups of order <= 12, windowed censuses <= 3,
windows <= 6.
"""

import contextlib
import copy
import io
import json
import sys
from datetime import timedelta

from hypothesis import given, settings, strategies as st

from sring import (
    GroupDescriptor,
    SchurPresentation,
    discrete,
    named_automorphism,
    orbit_ring,
    standard_wedge,
    trivial,
)
from sring.cli import run
from sring.schur import check_partition

G = GroupDescriptor(0, 3)
ALIASES = ("psi", "delta", "xi", "rho", "sigma", "zeta", "tau")
BASES = [
    P.to_json()
    for P in (
        discrete(G, 3),
        orbit_ring(G, [named_automorphism("psi", G)], 4),
        orbit_ring(G, [named_automorphism("xi", G)], 6),
        standard_wedge(G, 2, "discrete", "discrete", 4),
        discrete(GroupDescriptor(0, 1), 2),
        trivial(GroupDescriptor(1, 3)),
        discrete(GroupDescriptor(2, 3)),
    )
]
FINITE_GROUPS = [
    "Z1", "Z2", "Z5", "Z6", "Z8", "Z11", "Z12", "Z2xZ2", "Z2xZ4", "Z2xZ6", "Z3xZ3", "Z4xZ3",
]
GROUPS = FINITE_GROUPS + ["Z", "ZxZ1", "ZxZ2", "ZxZ3", "ZxZ4", "Z0", "Z3xZ0", "D4", ""]
KINDS = ["discrete", "trivial", "orbit", "tensor", "wedge"]

scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 7),
    st.floats(-3, 7, allow_nan=False), st.text(max_size=3),
)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def presentations(draw):
    """A small valid presentation, possibly broken in one place."""
    data = copy.deepcopy(draw(st.sampled_from(BASES)))
    classes = data["classes"]
    how = draw(st.sampled_from(
        ["keep", "keep", "field", "drop-field", "exponent", "merge", "drop-class", "extra",
         "group"]
    ))
    if how == "field":
        data[draw(st.sampled_from(["group", "window", "classes", "tag"]))] = draw(json_values)
    elif how == "drop-field":
        del data[draw(st.sampled_from(["group", "window", "classes"]))]
    elif how == "exponent":
        element = draw(st.sampled_from(draw(st.sampled_from(classes))))
        element[draw(st.integers(0, 1))] = draw(scalars)
    elif how == "merge":
        i, j = draw(st.lists(st.integers(0, len(classes) - 1), min_size=2, max_size=2, unique=True))
        classes[i] = classes[i] + classes[j]
        del classes[j]
    elif how == "drop-class":
        classes.pop(draw(st.integers(0, len(classes) - 1)))
    elif how == "extra":
        classes.append([[draw(st.integers(-9, 9)), draw(st.integers(0, 3))]])
    elif how == "group":
        data["group"][draw(st.sampled_from(["free", "torsion"]))] = draw(scalars)
    return data


def as_text(values):
    """JSON text of ``values`` about half of the time, else any JSON value or any text."""
    text = values.map(json.dumps)
    return st.one_of(text, text, json_values.map(json.dumps), st.text(max_size=12))


automorphisms = st.one_of(
    st.sampled_from(ALIASES),
    st.fixed_dictionaries({"z": st.lists(st.integers(-2, 3), min_size=2, max_size=2),
                           "a": st.integers(-1, 3)}),
    json_values,
)
params = st.fixed_dictionaries({}, optional={
    "group": st.sampled_from(GROUPS) | scalars,
    "gens": st.lists(automorphisms, max_size=2) | scalars,
    "step": st.integers(-1, 4) | scalars,
    "inner": st.sampled_from(["discrete", "trivial", "symmetric"]) | scalars,
    "outer": st.sampled_from(["discrete", "symmetric"]) | scalars,
    "left": presentations(),
    "right": presentations(),
})


@st.composite
def invocations(draw):
    """(argv, stdin) of one CLI call."""
    argv = ["--json"] if draw(st.booleans()) else []
    command = draw(st.sampled_from(
        ["verify", "classify", "classify --resynthesize", "check-lemmas", "construct",
         "enumerate", "garbage"]
    ))
    option = lambda flag, values: [flag, str(draw(values))] if draw(st.booleans()) else []
    stdin = ""
    if command == "construct":
        argv += ["construct", "--kind", draw(st.sampled_from(KINDS))]
        argv += option("--params", as_text(params))
        argv += option("--window", st.integers(-1, 6))
    elif command == "enumerate":
        if draw(st.booleans()):
            argv += ["enumerate", "--group", draw(st.sampled_from(GROUPS))]
        else:
            argv += ["enumerate", "--windowed", str(draw(st.integers(-2, 3)))]
            argv += option("--projection", st.sampled_from(["discrete", "symmetric"]))
        argv += option("--finite-bound", st.integers(0, 16))
    elif command == "garbage":
        argv += draw(st.lists(st.text(max_size=6), max_size=4))
    else:
        argv += [*command.split(), "-"]
        stdin = draw(as_text(presentations()))
    return argv, stdin


def call(argv, stdin):
    out, err = io.StringIO(), io.StringIO()
    saved, sys.stdin = sys.stdin, io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                return run(argv), False, out.getvalue(), err.getvalue()
            except SystemExit as ex:  # argparse: bad command line or --help
                return ex.code, True, out.getvalue(), err.getvalue()
    finally:
        sys.stdin = saved


@given(invocations())
@settings(max_examples=150, deadline=timedelta(seconds=5), derandomize=True)
def test_every_input_ends_in_a_documented_exit_code(invocation):
    argv, stdin = invocation
    code, by_argparse, out, err = call(argv, stdin)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in out + err
    if "--json" in argv and not by_argparse:
        for line in out.splitlines():
            json.loads(line)


@st.composite
def partitions(draw):
    """Any partition of Z x Z_m at a window of 1-4 (m <= 4), or of a finite group of order <= 16."""
    if draw(st.booleans()):
        group, window = GroupDescriptor(0, draw(st.integers(1, 4))), draw(st.integers(1, 4))
    else:
        n = draw(st.integers(1, 16))
        group, window = GroupDescriptor(n, draw(st.integers(1, 16 // n))), 0
    universe = list(group.window_elements(window))
    labels = st.integers(0, draw(st.integers(0, len(universe) - 1)))
    classes: dict = {}
    for g, label in zip(universe, draw(st.lists(labels, min_size=len(universe),
                                                max_size=len(universe)))):
        classes.setdefault(label, []).append(g)
    return SchurPresentation(group, classes.values(), window=window)


@given(partitions())
@settings(max_examples=100, deadline=timedelta(seconds=5), derandomize=True)
def test_check_lemmas_gives_a_verdict_on_every_partition(P):
    check_partition(P)  # well formed, so the rows decide: 0 or 1, never 2
    code, _, out, err = call(["--json", "check-lemmas", "-"], json.dumps(P.to_json()))
    assert code in (0, 1), out + err
    assert all(isinstance(check["ok"], bool) for check in json.loads(out)["checks"])


@given(partitions(), st.booleans())
@settings(max_examples=100, deadline=timedelta(seconds=5), derandomize=True)
def test_classify_gives_a_verdict_on_every_partition(P, resynthesize):
    # a well-formed partition at any window is classified (0) or not (1)
    argv = ["--json", "classify", *(["--resynthesize"] if resynthesize else []), "-"]
    code, _, out, err = call(argv, json.dumps(P.to_json()))
    assert code in (0, 1), out + err
