import pytest
from hypothesis import given, strategies as st

from sring import (
    Automorphism,
    GroupDescriptor,
    GroupElement,
    InvalidAutomorphism,
    QuotientMap,
    Subgroup,
    all_automorphisms,
    all_subgroups,
    format_element,
    orbit,
    parse_element,
)

exponents = st.integers(min_value=-50, max_value=50)
torsion = st.integers(min_value=0, max_value=2)


class TestArithmetic:
    def test_identity_case(self, G):
        assert G.mul(G.element(0, 0), G.element(5, 2)) == (5, 2)

    def test_componentwise_with_torsion_wrap(self, G):
        assert G.mul(G.element(2, 1), G.element(3, 2)) == (5, 0)

    def test_inverse_pair(self, G):
        assert G.mul(G.element(-1, 2), G.element(1, 1)) == (0, 0)

    def test_inverse_and_pow(self, G):
        assert G.inverse(G.element(1, 1)) == (-1, 2)
        assert G.pow(G.element(1, 1), 3) == (3, 0)
        assert G.pow(G.element(-2, 2), 0) == (0, 0)

    def test_finite_free_reduction(self):
        F = GroupDescriptor(4, 3)
        assert F.mul(F.element(3, 2), F.element(2, 2)) == (1, 1)

    @given(exponents, torsion, exponents, torsion, exponents, torsion)
    def test_associative_commutative(self, a, i, b, j, c, k):
        G = GroupDescriptor(0, 3)
        x, y, z = G.element(a, i), G.element(b, j), G.element(c, k)
        assert G.mul(x, y) == G.mul(y, x)
        assert G.mul(G.mul(x, y), z) == G.mul(x, G.mul(y, z))

    @given(exponents, torsion, st.integers(min_value=-6, max_value=6))
    def test_pow_inverse_cancellation(self, a, i, k):
        G = GroupDescriptor(0, 3)
        g = G.element(a, i)
        assert G.inverse(G.inverse(g)) == g
        assert G.mul(G.pow(g, k), G.pow(g, -k)) == G.identity


class TestTextForm:
    @pytest.mark.parametrize(
        "element,text",
        [((0, 0), "1"), ((1, 0), "z"), ((0, 1), "a"), ((5, 0), "z^5"), ((-1, 2), "z^-1*a^2"), ((3, 1), "z^3*a")],
    )
    def test_format(self, element, text):
        assert format_element(GroupElement(*element)) == text

    @pytest.mark.parametrize("text", ["1", "z", "a", "z^5", "z^-1*a^2", "z^3*a"])
    def test_roundtrip(self, text):
        assert format_element(parse_element(text)) == text

    def test_parse_without_separator(self):
        assert parse_element("z^5a^2") == (5, 2)

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_element("w^2")
        with pytest.raises(ValueError):
            parse_element("")


class TestAutomorphisms:
    def test_psi_action(self, G, autos):
        # z -> az
        assert autos["psi"].apply(G.element(1, 0)) == (1, 1)

    def test_xi_action(self, G, autos):
        # az -> a^2 z^-1
        assert autos["xi"].apply(G.element(1, 1)) == (-1, 2)

    def test_rho_action(self, G, autos):
        # z -> az^-1
        assert autos["rho"].apply(G.element(1, 0)) == (-1, 1)

    def test_named_maps_are_involutions(self, autos):
        for name in ("psi", "delta", "xi", "rho", "sigma"):
            phi = autos[name]
            assert phi.compose(phi).is_identity(), name

    def test_composition_identities(self, autos):
        assert autos["psi"].compose(autos["xi"]) == autos["sigma"]
        assert autos["delta"].compose(autos["xi"]) == autos["rho"]
        assert autos["zeta"].compose(autos["tau"]) == autos["xi"]

    @pytest.mark.parametrize(
        "G",
        [GroupDescriptor(0, 3), GroupDescriptor(0, 1), GroupDescriptor(1, 5),
         GroupDescriptor(5, 1), GroupDescriptor(4, 6)],
        ids=["ZxZ3", "ZxZ1", "Z1xZ5", "Z5xZ1", "Z4xZ6"],
    )
    def test_inverse_composes_to_identity(self, G):
        # factors of order 1 included: there every exponent reduces to 0
        identity, inversion = Automorphism.identity(G), Automorphism.inversion(G)
        assert identity.is_identity() and inversion.compose(inversion) == identity
        for g in G.window_elements(2):
            assert identity.apply(g) == g and inversion.apply(g) == G.inverse(g)
        for phi in all_automorphisms(G):
            assert phi.compose(phi.inverse()).is_identity()
            assert phi.inverse().compose(phi).is_identity()

    def test_bijective_on_window(self, G):
        window = list(G.window_elements(4))
        for phi in all_automorphisms(G):
            assert sorted(phi.apply(g) for g in window) == sorted(window)

    def test_automorphism_count(self, G):
        assert len(all_automorphisms(G)) == 12

    def test_validator_rejects_bad_parameters(self, G):
        with pytest.raises(InvalidAutomorphism):
            Automorphism(G, 0, 2, 1)  # z -> z^2 is not onto
        with pytest.raises(InvalidAutomorphism):
            Automorphism(G, 0, 1, 0)  # a -> 1 is not injective

    def test_finite_group_torsion_twist_constraint(self):
        F = GroupDescriptor(4, 3)
        with pytest.raises(InvalidAutomorphism):
            Automorphism(F, 1, 1, 1)  # a*z would break z^4 = 1
        assert len(all_automorphisms(F)) == 4

    # the 12 maps of Z x Z_3 as (twist, unit, torsion_unit): 7 carry an alias, 5 do not
    @pytest.mark.parametrize("params,alias", [
        ((1, 1, 2), "psi"), ((2, 1, 2), "delta"), ((0, -1, 2), "xi"), ((1, -1, 1), "rho"),
        ((2, -1, 1), "sigma"), ((0, -1, 1), "zeta"), ((0, 1, 2), "tau"), ((0, 1, 1), None),
        ((1, -1, 2), None), ((1, 1, 1), None), ((2, -1, 2), None), ((2, 1, 1), None),
    ], ids=lambda v: str(v))
    def test_name_and_json_of_every_map(self, G, params, alias):
        phi = Automorphism(G, *params)
        assert phi in all_automorphisms(G)
        assert phi.name() == alias
        j, e, u = params
        assert phi.to_json() == (alias or {"z": [j, e], "a": u})

    def test_inversion_is_xi(self, G, autos):
        assert Automorphism.inversion(G) == autos["xi"]

    def test_json_roundtrip(self, G, autos):
        from sring.groups import automorphism_from_json

        assert automorphism_from_json("rho", G) == autos["rho"]
        raw = {"z": [1, -1], "a": 1}
        assert automorphism_from_json(raw, G) == autos["rho"]

    @pytest.mark.parametrize(
        "raw",
        [5, [1, -1, 1], {"z": [1, -1]}, {"a": 1}, {"z": [1], "a": 1}, {"z": [1, -1.0], "a": 1},
         {"z": [True, -1], "a": 1}, {"z": [1, -1], "a": "1"}, {"z": "1,-1", "a": 1}],
    )
    def test_json_shape_rejected(self, G, raw):
        from sring.groups import automorphism_from_json

        with pytest.raises(ValueError):
            automorphism_from_json(raw, G)


class TestDescriptorJson:
    def test_roundtrip(self):
        for group in (GroupDescriptor(0, 3), GroupDescriptor(4, 3), GroupDescriptor(1, 1)):
            assert GroupDescriptor.from_json(group.to_json()) == group

    @pytest.mark.parametrize(
        "raw",
        [5, "ZxZ3", [0, 3], {"torsion": 3}, {"free": "Z"}, {"free": "Z", "torsion": True},
         {"free": "Z", "torsion": 3.0}, {"free": "Z", "torsion": "3"}, {"free": "4", "torsion": 3},
         {"free": "z", "torsion": 3}, {"free": None, "torsion": 3}, {"free": 0, "torsion": 3},
         {"free": -2, "torsion": 3}],
    )
    def test_json_shape_rejected(self, raw):
        with pytest.raises(ValueError):
            GroupDescriptor.from_json(raw)


class TestOrbits:
    def test_psi_orbit_of_z(self, G, autos):
        assert orbit([autos["psi"]], G.element(1, 0)) == {(1, 0), (1, 1)}

    def test_psi_orbit_of_a(self, G, autos):
        assert orbit([autos["psi"]], G.element(0, 1)) == {(0, 1), (0, 2)}

    def test_xi_orbit_of_z_cubed(self, G, autos):
        assert orbit([autos["xi"]], G.element(3, 0)) == {(3, 0), (-3, 0)}

    def test_orbit_stability(self, G, autos):
        gens = [autos["psi"], autos["xi"]]
        orb = orbit(gens, G.element(2, 0))
        for phi in gens:
            assert phi.apply_set(orb) == orb

    def test_a_long_orbit_is_a_whole_coset(self):
        # z -> az over Z x Z_100: the orbit of z is the coset z<a>
        G = GroupDescriptor(0, 100)
        assert orbit([Automorphism(G, 1, 1, 1)], G.element(1, 0)) == G.coset_of_torsion(1)

    @pytest.mark.parametrize("m", range(1, 9))
    def test_an_orbit_stays_in_its_levels(self, m):
        G = GroupDescriptor(0, m)
        for phi in all_automorphisms(G):
            for g in G.window_elements(3):
                assert {abs(h.z_exp) for h in orbit([phi], g)} == {abs(g.z_exp)}


def _coordinate_cases() -> list:
    """(G, H) for every subgroup H of every Z_n x Z_m with n*m <= 36, and for
    the subgroups <z^h a^c, a^d> with h <= 3 of Z x Z_m with m <= 6."""
    cases = []
    for n in range(1, 37):
        for m in range(1, 36 // n + 1):
            G = GroupDescriptor(n, m)
            cases += [(G, H) for H in all_subgroups(G)]
    for m in range(1, 7):
        G = GroupDescriptor(0, m)
        cases += [
            (G, Subgroup(G, h, c, d))
            for h in range(4)
            for d in range(1, m + 1)
            if m % d == 0
            for c in range(d if h else 1)
        ]
    return cases


COORDINATE_CASES = _coordinate_cases()
COORDINATE_IDS = [
    f"{'Z' if G.is_infinite else f'Z{G.free_order}'}xZ{G.torsion_order}:{H}"
    for G, H in COORDINATE_CASES
]
# Infinite groups are checked on the elements with |z| <= COORDINATE_WINDOW.
COORDINATE_WINDOW = 6
GENERATORS = (GroupElement(1, 0), GroupElement(0, 1))


class TestSubgroups:
    def test_twisted_cyclic(self, G):
        S = Subgroup.generated_by(G, [G.element(1, 1)])  # <az>
        assert S.contains((2, 2)) and S.contains((3, 0)) and S.contains((-1, 2))
        assert not S.contains((0, 1)) and not S.contains((1, 0))

    def test_torsion_subgroup(self, G):
        T = Subgroup.torsion(G)
        assert T.contains((0, 1)) and T.contains((0, 2)) and not T.contains((1, 0))
        assert T.order == 3 and T.torsion_included

    def test_free_power(self, G):
        H = Subgroup.free_power(G, 3)
        assert H.contains((-6, 0)) and not H.contains((3, 1)) and not H.contains((2, 0))
        assert H.z_index == 3 and not H.torsion_included

    def test_membership_matches_generated_closure(self, G):
        gens = [G.element(2, 1), G.element(0, 1)]
        S = Subgroup.generated_by(G, gens)
        # brute-force closure on a window
        closure = {G.identity}
        frontier = list(closure)
        universe = set(G.window_elements(8))
        while frontier:
            nxt = []
            for x in frontier:
                for g in gens + [G.inverse(h) for h in gens]:
                    y = G.mul(x, g)
                    if y in universe and y not in closure:
                        closure.add(y)
                        nxt.append(y)
            frontier = nxt
        in_window = {g for g in G.window_elements(6) if S.contains(g)}
        expected = {g for g in closure if abs(g.z_exp) <= 6}
        assert in_window == expected

    def test_twisted_subgroup_absorbing_torsion(self):
        F = GroupDescriptor(4, 3)
        S = Subgroup.generated_by(F, [F.element(2, 1)])  # wraps onto <z^2> x Z_3
        assert S.contains((0, 1)) and S.order == 6

    def test_all_subgroups_counts(self):
        # one subgroup per divisor for cyclic groups
        assert len(all_subgroups(GroupDescriptor(1, 6))) == 4
        assert len(all_subgroups(GroupDescriptor(1, 12))) == 6
        assert len(all_subgroups(GroupDescriptor(4, 3))) == 6

    @pytest.mark.parametrize("n", range(1, 49))
    def test_all_subgroups_matches_pairwise_generation(self, n):
        # the reference is the earlier search: the subgroups generated by
        # every element and every pair of elements
        for m in range(1, 48 // n + 1):
            group = GroupDescriptor(n, m)
            elems = list(group.elements())
            found = {Subgroup.trivial(group)}
            for i, g in enumerate(elems):
                found.add(Subgroup.generated_by(group, [g]))
                for h in elems[i:]:
                    found.add(Subgroup.generated_by(group, [g, h]))
            reference = sorted(found, key=lambda s: (s.order, s.free_step, s.torsion_step, s.twist))
            assert all_subgroups(group) == reference, (n, m)

    def test_subgroup_as_group_roundtrip(self, G):
        H = Subgroup.free_power_with_torsion(G, 2)
        desc, coords = H.as_group()
        assert desc == GroupDescriptor(0, 3)
        for g in H.window_elements(6):
            assert coords.from_sub(coords.to_sub(g)) == g

    def test_twisted_as_group_roundtrip(self, G):
        S = Subgroup.generated_by(G, [G.element(1, 1)])
        desc, coords = S.as_group()
        assert desc == GroupDescriptor(0, 1)
        for g in S.window_elements(5):
            assert coords.from_sub(coords.to_sub(g)) == g

    @pytest.mark.parametrize("G, H", COORDINATE_CASES, ids=COORDINATE_IDS)
    def test_as_group_is_a_bijective_homomorphism(self, G, H):
        desc, coords = H.as_group()
        sample = list(desc.window_elements(COORDINATE_WINDOW))
        for q in sample:
            assert coords.to_sub(coords.from_sub(q)) == q
        for g in H.window_elements(COORDINATE_WINDOW):
            assert coords.from_sub(coords.to_sub(g)) == g
        for x in GENERATORS:
            for q in sample:
                assert coords.from_sub(desc.mul(x, q)) == G.mul(coords.from_sub(x), coords.from_sub(q))

    def test_cyclic_subgroup_of_a_non_cyclic_group(self):
        G = GroupDescriptor(2, 4)
        H = Subgroup.generated_by(G, [G.element(1, 1), G.element(0, 2)])
        desc, _ = H.as_group()
        assert desc == GroupDescriptor(4, 1)  # <za> has order 4 and contains a^2


class TestQuotients:
    def test_quotient_by_torsion(self, G):
        qm = QuotientMap(G, Subgroup.torsion(G))
        assert qm.descriptor == GroupDescriptor(0, 1)
        assert qm.project(G.element(5, 2)) == (5, 0)
        assert qm.preimage(GroupElement(2, 0)) == G.coset_of_torsion(2)

    def test_quotient_by_free_power_with_torsion(self, G):
        K = Subgroup.free_power_with_torsion(G, 2)
        qm = QuotientMap(G, K)
        assert qm.descriptor == GroupDescriptor(2, 1)
        assert qm.project(G.element(5, 1)) == qm.project(G.element(3, 2))

    def test_twisted_quotient_is_group_homomorphism(self, G):
        K = Subgroup.generated_by(G, [G.element(1, 1)])
        qm = QuotientMap(G, K)
        Q = qm.descriptor
        assert Q.order == 3
        window = list(G.window_elements(4))
        for x in window[:10]:
            for y in window[:10]:
                assert qm.project(G.mul(x, y)) == Q.mul(qm.project(x), qm.project(y))
        assert qm.project(G.element(1, 1)) == Q.identity

    def test_section_is_right_inverse(self, G):
        for K in (Subgroup.torsion(G), Subgroup.generated_by(G, [G.element(2, 1)])):
            qm = QuotientMap(G, K)
            if qm.descriptor.is_infinite:
                sample = qm.descriptor.window_elements(3)
            else:
                sample = qm.descriptor.elements()
            for q in sample:
                assert qm.project(qm.section(q)) == q

    @pytest.mark.parametrize("G, K", COORDINATE_CASES, ids=COORDINATE_IDS)
    def test_quotient_map_is_a_homomorphism_with_kernel_K(self, G, K):
        qm = QuotientMap(G, K)
        Q = qm.descriptor
        if not G.is_infinite:
            assert Q.order * K.order == G.order
        sample = list(G.window_elements(COORDINATE_WINDOW))
        for g in sample:
            assert (qm.project(g) == Q.identity) == K.contains(g)
        for x in GENERATORS:
            for g in sample:
                assert qm.project(G.mul(x, g)) == Q.mul(qm.project(x), qm.project(g))
        for q in Q.window_elements(COORDINATE_WINDOW):
            assert qm.project(qm.section(q)) == q
