import io
import json
from pathlib import Path

import pytest

from sring import (
    Automorphism,
    BadTower,
    GroupDescriptor,
    GroupElement,
    IncompatibleWedge,
    MalformedPartition,
    Recipe,
    SchurError,
    Subgroup,
    Unclassifiable,
    UnrecognizedQuotient,
    WindowTooSmall,
    build,
    classify,
    describe_recipe,
    discrete,
    find_H,
    named_automorphism,
    orbit_ring,
    projection_type,
    recipe_to_json,
    resynthesize,
    standard_wedge,
    symmetric,
    tensor,
    trivial,
    wedge,
    SchurPresentation,
)
from sring.cli import run
from sring.constructions import torsion_tower
from sring.enumeration import enumerate_windowed
from sring.lemmas import quotient, torsion_is_ssubgroup

from readers import recipe_from_json

# [human line, --json line] of `sring classify` for each ring of
# enumerate_windowed(12), in its order
CLASSIFY_GOLDEN = json.loads((Path(__file__).parent / "classify_golden.json").read_text())


class TestFindH:
    def test_psi_ring_gives_cube_subgroup(self, G, autos):
        P = orbit_ring(G, [autos["psi"]], 12)
        assert find_H(P).z_index == 3

    def test_discrete_gives_full_free_part(self, G):
        assert find_H(discrete(G, 12)).z_index == 1

    def test_coset_wedge_gives_trivial(self, G):
        P = standard_wedge(G, 0, "discrete", "discrete", 12)
        assert find_H(P).is_trivial

    def test_window_too_small(self, G):
        with pytest.raises(WindowTooSmall):
            find_H(discrete(G, 2))


class TestProjectionType:
    def test_discrete_cases(self, G, autos):
        for name in ("psi", "delta", "tau"):
            assert projection_type(orbit_ring(G, [autos[name]], 6)) == "discrete"
        assert projection_type(discrete(G, 6)) == "discrete"

    def test_symmetric_cases(self, G, autos):
        for name in ("xi", "rho", "sigma", "zeta"):
            assert projection_type(orbit_ring(G, [autos[name]], 6)) == "symmetric"

    def test_unrecognized_for_torsion_breaker(self, G):
        # partition splitting the torsion pair across levels is not a ring
        classes = [[(0, 0)], [(0, 1), (1, 0)], [(0, 2), (-1, 0)]]
        for k in range(1, 7):
            if k == 1:
                classes.append([(1, 1), (1, 2)])
                classes.append([(-1, 1), (-1, 2)])
            else:
                classes.append([(k, 0), (k, 1), (k, 2)])
                classes.append([(-k, 0), (-k, 1), (-k, 2)])
        P = SchurPresentation(G, classes, window=6)
        with pytest.raises(UnrecognizedQuotient):
            projection_type(P)


def _quotient_projection_type(P: SchurPresentation) -> str:
    """The projection read off the quotient presentation modulo torsion: the
    reference that projection_type, which reads class shadows, must match."""
    if not torsion_is_ssubgroup(P):
        raise UnrecognizedQuotient("the torsion subgroup is not an S-subgroup")
    q = quotient(P, Subgroup.torsion(P.group))
    classes = set(q.classes)
    n = q.window
    if all(frozenset({GroupElement(k, 0)}) in classes for k in range(-n, n + 1)):
        if len(classes) == 2 * n + 1:
            return "discrete"
    sym = {frozenset({GroupElement(0, 0)})}
    sym |= {frozenset({GroupElement(k, 0), GroupElement(-k, 0)}) for k in range(1, n + 1)}
    if classes == sym:
        return "symmetric"
    raise UnrecognizedQuotient("quotient modulo torsion is neither discrete nor symmetric")


def _projection_outcome(function, P):
    try:
        return function(P)
    except Exception as ex:  # noqa: BLE001 - the exception type is the outcome
        return type(ex)


def _discrete_classes(window, skip=()):
    return [[(k, i)] for k in range(-window, window + 1) for i in range(3) if (k, i) not in skip]


def _projection_corpus():
    G = GroupDescriptor(0, 3)
    for window in range(1, 7):
        for P in enumerate_windowed(window):
            yield f"windowed-{window}-{P.describe()}", P
    for window in (6, 12):
        for step in (0, 2, 3, 4, 5, 6):
            inners = ("discrete", "trivial") if step == 0 else ("discrete", "symmetric")
            for inner in inners:
                for outer in ("discrete", "symmetric"):
                    if step and inner != outer:
                        continue  # these inner and outer rings disagree on H/K
                    yield (f"wedge-{window}-{step}-{inner}-{outer}",
                           standard_wedge(G, step, inner, outer, window))
    # a class {a, z} that splits the torsion subgroup
    split = [[(0, 0)], [(0, 1), (1, 0)], [(0, 2), (-1, 0)]]
    split += [[(k, i)] for k in (-1, 1) for i in (1, 2)]
    yield "torsion-split", SchurPresentation(G, split, window=1)
    # one {k, -k} class inside an otherwise discrete ring
    mixed = _discrete_classes(3, skip={(2, 0), (-2, 0)}) + [[(2, 0), (-2, 0)]]
    yield "one-symmetric-class", SchurPresentation(G, mixed, window=3)
    # level 2 is not covered
    gap = _discrete_classes(3, skip={(k, i) for k in (2, -2) for i in range(3)})
    yield "uncovered-level", SchurPresentation(G, gap, window=3)
    # a discrete ring whose window claims one level more than it covers
    yield "short-window", SchurPresentation(G, _discrete_classes(3), window=4)


class TestProjectionReference:
    CORPUS = list(_projection_corpus())

    def test_corpus_reaches_every_outcome(self):
        outcomes = {_projection_outcome(projection_type, P) for _, P in self.CORPUS}
        assert outcomes == {"discrete", "symmetric", UnrecognizedQuotient}

    @pytest.mark.parametrize("name,P", CORPUS, ids=[name for name, _ in CORPUS])
    def test_matches_the_quotient(self, name, P):
        assert _projection_outcome(projection_type, P) == _projection_outcome(
            _quotient_projection_type, P
        )


class TestClassifyNamedFamilies:
    @pytest.mark.parametrize("name", ["psi", "delta", "rho", "sigma", "zeta", "tau"])
    def test_single_generator_orbits(self, G, autos, name):
        P = orbit_ring(G, [autos[name]], 12)
        d = classify(P)
        assert d.kind == "orbit"
        assert tuple(phi.name() for phi in d.generators) == (name,)
        assert describe_recipe(d) == f"orbit ring <{name}>"

    def test_xi_reports_as_symmetric_full_ring(self, G, autos):
        d = classify(orbit_ring(G, [autos["xi"]], 12))
        assert d == Recipe("orbit", (Automorphism.inversion(G),))
        assert describe_recipe(d) == "full group ring (symmetric)"

    def test_discrete_reports_as_full_ring(self, G):
        d = classify(discrete(G, 12))
        assert d == Recipe("orbit")
        assert describe_recipe(d) == "full group ring"

    def test_klein_four_generators(self, G, autos):
        d1 = classify(orbit_ring(G, [autos["psi"], autos["xi"]], 12))
        assert tuple(p.name() for p in d1.generators) == ("psi", "xi")
        d2 = classify(orbit_ring(G, [autos["delta"], autos["xi"]], 12))
        assert tuple(p.name() for p in d2.generators) == ("delta", "xi")

    def test_generator_recovery_canonicalizes(self, G, autos):
        # sigma = psi after xi, so <sigma, xi> == <psi, xi>
        d = classify(orbit_ring(G, [autos["sigma"], autos["xi"]], 12))
        assert tuple(p.name() for p in d.generators) == ("psi", "xi")

    def test_tensor_with_trivial_torsion(self, G, Z, Z3, autos):
        P = tensor(symmetric(Z, 12), trivial(Z3))
        d = classify(P)
        assert d.kind == "orbit"
        assert tuple(p.name() for p in d.generators) == ("xi", "zeta")


class TestClassifyWedges:
    @pytest.mark.parametrize("inner", ["discrete", "trivial"])
    @pytest.mark.parametrize("outer", ["discrete", "symmetric"])
    def test_torsion_tower(self, G, inner, outer):
        P = standard_wedge(G, 0, inner, outer, 12)
        d = classify(P)
        assert d.kind == "wedge" and d.subgroups == torsion_tower(G, 0)
        data = recipe_to_json(d, 12)
        assert data["inner"] == inner and data["outer"] == outer
        assert d.parts[0] == (Recipe("trivial") if inner == "trivial" else Recipe("orbit"))

    @pytest.mark.parametrize("step", [2, 3])
    def test_free_towers(self, G, Z, step):
        P = standard_wedge(G, step, "discrete", "discrete", 12)
        d = classify(P)
        assert d.subgroups == torsion_tower(G, step)
        assert d.parts == (Recipe("orbit"), Recipe("orbit"))
        Psym = standard_wedge(G, step, "symmetric", "symmetric", 12)
        dsym = classify(Psym)
        h_desc = d.subgroups[1].as_group()[0]
        assert dsym.parts == (Recipe("orbit", (Automorphism.inversion(h_desc),)),
                              Recipe("orbit", (Automorphism.inversion(Z),)))
        assert describe_recipe(dsym) == (
            f"wedge step {step}: [full group ring (symmetric)] over [symmetric]")

    def test_recursive_inner_orbit(self, G):
        H = Subgroup.free_power_with_torsion(G, 2)
        h_desc, _ = H.as_group()
        inner = orbit_ring(h_desc, [named_automorphism("psi", h_desc)], 6)
        P = wedge(H, Subgroup.torsion(G), inner, discrete(GroupDescriptor(0, 1), 12), 12)
        d = classify(P)
        assert d.kind == "wedge" and d.subgroups == torsion_tower(G, 2)
        assert d.parts[0].kind == "orbit"
        assert d.parts[0].generators[0].name() == "psi"

    def test_nested_tower_flattens(self, G):
        # a step-2 wedge whose inner is itself a step-2 torsion wedge has its
        # non-coset levels at multiples of 4, so the canonical tower is step 4
        H = Subgroup.free_power_with_torsion(G, 2)
        h_desc, _ = H.as_group()
        inner = standard_wedge(h_desc, 2, "discrete", "discrete", 6)
        P = wedge(H, Subgroup.torsion(G), inner, discrete(GroupDescriptor(0, 1), 12), 12)
        d = classify(P)
        assert d.subgroups == torsion_tower(G, 4) and d.parts[0] == Recipe("orbit")
        assert resynthesize(d, 12).classes == P.classes


class TestRoundTrip:
    def test_orbit_roundtrips(self, G, autos):
        for name, phi in autos.items():
            P = orbit_ring(G, [phi], 12)
            assert resynthesize(classify(P), 12).classes == P.classes, name

    def test_wedge_roundtrips(self, G):
        for step in (0, 2, 3):
            inners = ("discrete", "trivial") if step == 0 else ("discrete", "symmetric")
            for inner in inners:
                for outer in ("discrete", "symmetric"):
                    if step and inner != outer and "trivial" not in (inner,):
                        expected_incompatible = (
                            (inner == "symmetric") != (outer == "symmetric")
                        )
                        if expected_incompatible:
                            continue
                    P = standard_wedge(G, step, inner, outer, 12)
                    assert resynthesize(classify(P), 12).classes == P.classes

    def test_dispatch_examples(self, G, autos):
        assert (
            resynthesize(Recipe("orbit", (autos["psi"],)), 6).classes
            == orbit_ring(G, [autos["psi"]], 6).classes
        )
        assert (
            resynthesize(recipe_from_json({"variant": "full", "symmetric": True}), 6).classes
            == orbit_ring(G, [autos["xi"]], 6).classes
        )


class TestGuards:
    @pytest.mark.parametrize("window", [1, 2])
    def test_every_ring_below_window_3_classifies(self, window):
        # no window floor: re-synthesis alone certifies each answer
        for P in enumerate_windowed(window):
            assert resynthesize(classify(P), window).classes == P.classes

    def test_unclassifiable_mixed_pattern(self, G):
        # singleton levels 1..2 with a full coset at level 3 cannot happen in
        # any family; the product guard inside classify must reject it
        classes = [[(0, 0)], [(0, 1)], [(0, 2)]]
        for k in (1, 2):
            for i in range(3):
                classes.append([(k, i)])
                classes.append([(-k, i)])
        classes.append([(3, 0), (3, 1), (3, 2)])
        classes.append([(-3, 0), (-3, 1), (-3, 2)])
        P = SchurPresentation(G, classes, window=3)
        with pytest.raises(Unclassifiable):
            classify(P)

    def test_wrong_group_rejected(self, Z3):
        with pytest.raises(ValueError):
            classify(discrete(Z3))

    def test_missing_level_is_malformed(self, G):
        classes = [c for c in discrete(G, 12).classes if GroupElement(2, 0) not in c]
        with pytest.raises(MalformedPartition, match="not covered"):
            classify(SchurPresentation(G, classes, window=12))

    def test_overlap_is_malformed(self, G):
        classes = list(discrete(G, 12).classes) + [[(1, 0), (-1, 0)]]
        with pytest.raises(MalformedPartition, match="overlap"):
            classify(SchurPresentation(G, classes, window=12))


class TestResynthesizeDescriptors:
    def test_kind_inner_at_a_free_step(self, G):
        # a hand-written descriptor may name the inner ring by kind
        d = recipe_from_json(
            {"variant": "wedge", "tower": {"K": 0, "H": 2}, "inner": "discrete",
             "outer": "discrete"}
        )
        assert resynthesize(d, 12) == standard_wedge(G, 2, "discrete", "discrete", 12)

    @pytest.mark.parametrize("inner", [
        {"variant": "full"},
        {"variant": "full", "symmetric": True},
        {"variant": "orbit", "generators": ["psi"]},
        {"variant": "wedge", "tower": {"K": 0, "H": 2}, "inner": "discrete", "outer": "discrete"},
    ], ids=["full", "symmetric", "orbit", "wedge"])
    @pytest.mark.parametrize("step,error,message", [
        (-2, BadTower, "step must be 0 or at least 2, got -2"),
        (0, IncompatibleWedge, None),
        (1, BadTower, "step 1 makes the middle subgroup the whole group"),
    ], ids=["-2", "0", "1"])
    def test_nested_inner_below_step_two_is_refused(self, inner, step, error, message):
        # a ring over Z x Z_3 fits no middle subgroup of step 0, and steps
        # 1 and -2 are no towers
        data = {"variant": "wedge", "tower": {"K": 0, "H": step}, "inner": inner,
                "outer": "discrete"}
        with pytest.raises(SchurError) as info:
            resynthesize(recipe_from_json(data), 12)
        assert type(info.value) is error
        assert message is None or str(info.value) == message


class TestDescriptorJson:
    def test_orbit_json(self, G, autos):
        d = classify(orbit_ring(G, [autos["psi"], autos["xi"]], 12))
        data = recipe_to_json(d, 12)
        assert data["variant"] == "orbit" and data["generators"] == ["psi", "xi"]
        assert recipe_from_json(data) == d

    def test_wedge_json_nested(self, G):
        P = standard_wedge(G, 2, "discrete", "discrete", 12)
        d = classify(P)
        data = recipe_to_json(d, 12)
        assert data["tower"] == {"K": 0, "H": 2}
        assert data["inner"] == {"variant": "full", "symmetric": False, "window": 0}
        assert recipe_from_json(data) == d

    def test_full_json(self, G):
        d = classify(discrete(G, 12))
        data = recipe_to_json(d, 12)
        assert data == {"variant": "full", "symmetric": False, "window": 12}
        assert recipe_from_json(data) == d

    def test_only_families_over_z_x_z3_are_written(self, G):
        orbit_outer = Recipe("orbit", (named_automorphism("psi", G),))
        K, H = torsion_tower(G, 2)
        Z2xZ2 = GroupDescriptor(2, 2)
        a = Subgroup.torsion(Z2xZ2)
        no_families = [
            Recipe("trivial"),
            Recipe("no"),
            Recipe("tensor", subgroups=(a, a), parts=(Recipe("trivial"), Recipe("trivial"))),
            Recipe("wedge", subgroups=(a, a), parts=(Recipe("trivial"), Recipe("orbit"))),
            Recipe("wedge", subgroups=(H, H), parts=(Recipe("orbit"), Recipe("orbit"))),
            Recipe("wedge", subgroups=(K, H), parts=(Recipe("orbit"), orbit_outer)),
        ]
        for recipe in no_families:
            with pytest.raises(ValueError):
                recipe_to_json(recipe, 12)
            with pytest.raises(ValueError):
                describe_recipe(recipe)

    @pytest.mark.parametrize(
        "data",
        [
            {"variant": "full", "window": True},
            {"variant": "full", "window": 1.9},
            {"variant": "full", "window": "12"},
            {"variant": "full", "symmetric": "no", "window": 1},
            {"variant": "full", "symmetric": 0},
            {"variant": "wedge", "tower": 2, "inner": "discrete", "outer": "discrete"},
            {"variant": "wedge", "tower": {"K": 0, "H": 2.0}, "inner": "discrete"},
            {"variant": "wedge", "tower": {"K": 7, "H": 2}, "inner": "discrete",
             "outer": "discrete"},
            {"variant": "wedge", "tower": {"K": -1, "H": 0}, "inner": "discrete"},
            {"variant": "wedge", "tower": {"K": "0", "H": 2}, "inner": "discrete"},
            {"variant": "wedge", "tower": {"K": False, "H": 2}, "inner": "discrete"},
            {"window": 12},
            {"variant": 1},
            ["full"],
        ],
        ids=["window-bool", "window-float", "window-string", "symmetric-string",
             "symmetric-int", "tower-int", "tower-step-float", "tower-K-nonzero",
             "tower-K-negative", "tower-K-string", "tower-K-bool", "no-variant", "variant-int",
             "array"],
    )
    def test_malformed_json_rejected(self, data):
        with pytest.raises(ValueError):
            recipe_from_json(data)


class TestGolden:
    def test_cli_lines_match_the_golden_file(self, capsys, monkeypatch):
        # the human and --json lines of `sring classify` stay byte for byte
        rings = enumerate_windowed(12)
        assert len(rings) == len(CLASSIFY_GOLDEN) == 136
        for P, expected in zip(rings, CLASSIFY_GOLDEN):
            text = json.dumps(P.to_json())
            lines = []
            for flags in ([], ["--json"]):
                monkeypatch.setattr("sys.stdin", io.StringIO(text))
                assert run([*flags, "classify", "-"]) == 0
                lines.append(capsys.readouterr().out.rstrip("\n"))
            assert lines == expected, P.describe()


@pytest.mark.parametrize("window", range(3, 13))
def test_every_windowed_ring_rebuilds_from_its_recipe(window):
    G = GroupDescriptor(0, 3)
    for P in enumerate_windowed(window):
        recipe = classify(P)
        assert build(G, recipe, P.window) == P, P.describe()
        assert recipe_from_json(recipe_to_json(recipe, P.window)) == recipe, P.describe()
