import pytest

from sring import (
    Automorphism,
    BadTower,
    GroupDescriptor,
    GroupElement,
    IncompatibleWedge,
    InfiniteGroup,
    Recipe,
    SchurPresentation,
    Subgroup,
    UnsupportedProduct,
    WindowTooSmall,
    build,
    discrete,
    enumerate_finite,
    is_traditional,
    named_automorphism,
    orbit_ring,
    quotient,
    restrict,
    standard_wedge,
    symmetric,
    tensor,
    trivial,
    verify_axioms,
    verify_wielandt,
    wedge,
)
from sring.constructions import torsion_tower


class TestDiscrete:
    def test_finite(self, Z3):
        P = discrete(Z3)
        assert set(P.classes) == {frozenset({(0, i)}) for i in range(3)}
        assert verify_axioms(P).ok

    def test_windowed_count(self, G):
        assert len(discrete(G, 2).classes) == 15  # 5 z-levels x 3

    def test_window_required(self, G):
        with pytest.raises(WindowTooSmall):
            discrete(G, 0)


class TestTrivial:
    def test_z3(self, Z3):
        P = trivial(Z3)
        assert set(P.classes) == {frozenset({(0, 0)}), frozenset({(0, 1), (0, 2)})}
        assert verify_axioms(P).ok

    def test_two_classes_generally(self):
        for desc in [(1, 6), (2, 3), (4, 3)]:
            P = trivial(GroupDescriptor(*desc))
            assert len(P.classes) == 2
            assert verify_axioms(P).ok

    def test_infinite_rejected(self, G):
        with pytest.raises(InfiniteGroup):
            trivial(G)


class TestOrbitRing:
    def test_psi_class_families(self, G, autos):
        # {1}; {z^k, a^k z^k} for 3 not dividing k; {a^(2k) z^k} likewise;
        # {a z^k, a^2 z^k} for 3 dividing k
        N = 6
        P = orbit_ring(G, [autos["psi"]], N)
        expected = {frozenset({(0, 0)})}
        for k in range(-N, N + 1):
            if k == 0:
                expected.add(frozenset({(0, 1), (0, 2)}))
            elif k % 3 == 0:
                expected.add(frozenset({(k, 1), (k, 2)}))
                expected.add(frozenset({(k, 0)}))
            else:
                expected.add(frozenset({(k, 0), (k, k % 3)}))
                expected.add(frozenset({(k, (2 * k) % 3)}))
        assert set(P.classes) == expected

    def test_xi_pairs(self, G, xi_ring):
        for k in range(1, xi_ring.window + 1):
            assert frozenset({(k, 1), (-k, 2)}) in set(xi_ring.classes)
            assert frozenset({(k, 0), (-k, 0)}) in set(xi_ring.classes)

    def test_empty_generators_is_discrete(self, G):
        assert orbit_ring(G, [], 3).classes == discrete(G, 3).classes

    def test_star_closure_of_partition(self, G, autos):
        for name in ("psi", "rho", "sigma"):
            P = orbit_ring(G, [autos[name]], 5)
            classes = set(P.classes)
            for c in classes:
                assert frozenset(G.inverse(g) for g in c) in classes

    def test_validity_small_sweep(self, G, autos):
        for name, phi in autos.items():
            P = orbit_ring(G, [phi], 6)
            assert verify_axioms(P).ok, name
            assert verify_wielandt(P).ok, name

    def test_long_orbits(self):
        # z -> az over Z x Z_100 has orbits of 100 elements on the odd levels
        G = GroupDescriptor(0, 100)
        P = orbit_ring(G, [Automorphism(G, 1, 1, 1)], 2)
        assert G.coset_of_torsion(1) in P.classes
        assert verify_axioms(P).ok


class TestTensor:
    def test_symmetric_times_discrete(self, G, Z, Z3):
        P = tensor(symmetric(Z, 6), discrete(Z3))
        assert P.group == G
        assert frozenset({(2, 1), (-2, 1)}) in set(P.classes)
        assert verify_axioms(P).ok

    def test_symmetric_times_trivial(self, Z, Z3):
        P = tensor(symmetric(Z, 6), trivial(Z3))
        assert frozenset({(2, 1), (-2, 1), (2, 2), (-2, 2)}) in set(P.classes)
        assert frozenset({(2, 0), (-2, 0)}) in set(P.classes)
        assert verify_axioms(P).ok

    def test_discrete_times_discrete(self, G, Z, Z3):
        assert tensor(discrete(Z, 4), discrete(Z3)).classes == discrete(G, 4).classes

    def test_factor_order_swapped(self, Z, Z3):
        P = tensor(trivial(Z3), symmetric(Z, 5))
        assert P.group == GroupDescriptor(0, 3)
        assert verify_axioms(P).ok

    def test_finite_factors(self):
        P = tensor(discrete(GroupDescriptor(2, 1)), trivial(GroupDescriptor(1, 3)))
        assert P.group == GroupDescriptor(2, 3)
        assert verify_axioms(P).ok

    def test_unsupported(self, G, Z3):
        with pytest.raises(UnsupportedProduct):
            tensor(discrete(G, 3), discrete(Z3))

    def test_unsupported_message_names_both_groups(self, G, Z, Z3):
        with pytest.raises(UnsupportedProduct) as info:
            tensor(discrete(G, 3), discrete(Z3))
        assert str(info.value) == "cannot realize ZxZ3 x Z3 as a free x torsion group"
        with pytest.raises(UnsupportedProduct) as info:
            tensor(discrete(Z, 2), symmetric(Z, 2))
        assert str(info.value) == "cannot realize Z x Z as a free x torsion group"

    def test_class_count_is_product_of_factor_counts(self, Z, Z3):
        for free_factor in (symmetric(Z, 6), discrete(Z, 6)):
            for torsion_factor in (discrete(Z3), trivial(Z3)):
                P = tensor(free_factor, torsion_factor)
                assert len(P.classes) == len(free_factor.classes) * len(torsion_factor.classes)


class TestWedge:
    def test_torsion_tower_discrete(self, G):
        P = standard_wedge(G, 0, "discrete", "discrete", 6)
        classes = set(P.classes)
        assert frozenset({(0, 1)}) in classes
        assert all(G.coset_of_torsion(k) in classes for k in range(1, 7))
        assert verify_axioms(P).ok and verify_wielandt(P).ok

    def test_torsion_tower_trivial_inner(self, G):
        P = standard_wedge(G, 0, "trivial", "symmetric", 6)
        classes = set(P.classes)
        assert frozenset({(0, 1), (0, 2)}) in classes
        assert frozenset(G.coset_of_torsion(1) | G.coset_of_torsion(-1)) in classes
        assert verify_axioms(P).ok

    def test_step_two_discrete(self, G):
        P = standard_wedge(G, 2, "discrete", "discrete", 6)
        classes = set(P.classes)
        assert G.coset_of_torsion(1) in classes
        assert frozenset({(2, 0)}) in classes and frozenset({(2, 1)}) in classes
        assert verify_axioms(P).ok

    def test_step_symmetric_variant(self, G):
        P = standard_wedge(G, 2, "symmetric", "symmetric", 6)
        classes = set(P.classes)
        assert frozenset({(2, 0), (-2, 0)}) in classes
        assert frozenset(G.coset_of_torsion(1) | G.coset_of_torsion(-1)) in classes
        assert verify_axioms(P).ok

    def test_restriction_recovers_inner(self, G):
        P = standard_wedge(G, 2, "discrete", "discrete", 6)
        H = Subgroup.free_power_with_torsion(G, 2)
        inner = restrict(P, H)
        assert inner.classes == discrete(GroupDescriptor(0, 3), 3).classes

    def test_quotient_recovers_outer(self, G):
        P = standard_wedge(G, 3, "discrete", "discrete", 6)
        out = quotient(P, Subgroup.torsion(G))
        assert out.classes == discrete(GroupDescriptor(0, 1), 6).classes
        Psym = standard_wedge(G, 3, "symmetric", "symmetric", 6)
        out_sym = quotient(Psym, Subgroup.torsion(G))
        assert out_sym.classes == symmetric(GroupDescriptor(0, 1), 6).classes

    def test_incompatible_mix(self, G):
        with pytest.raises(IncompatibleWedge):
            standard_wedge(G, 2, "symmetric", "discrete", 6)
        with pytest.raises(IncompatibleWedge):
            standard_wedge(G, 2, "discrete", "symmetric", 6)

    def test_bad_tower(self, G):
        with pytest.raises(BadTower):
            standard_wedge(G, 1, "discrete", "discrete", 6)
        K = Subgroup.torsion(G)
        inner = discrete(GroupDescriptor(1, 3))
        outer = discrete(GroupDescriptor(0, 1), 6)
        with pytest.raises(BadTower):
            wedge(K, Subgroup.trivial(G), inner, outer, 6)

    @pytest.mark.parametrize(
        "step,inner,outer,message",
        [
            (0, "symmetric", "discrete", "inner kind 'symmetric' needs step >= 2"),
            (0, "foo", "discrete", "inner kind 'foo' needs step >= 2"),
            (2, "trivial", "discrete", "unknown inner kind 'trivial'"),
            (3, "foo", "discrete", "unknown inner kind 'foo'"),
            (0, "discrete", "trivial", "unknown outer kind 'trivial'"),
            (2, "discrete", "foo", "unknown outer kind 'foo'"),
        ],
    )
    def test_unknown_kinds(self, G, step, inner, outer, message):
        with pytest.raises(ValueError) as info:
            standard_wedge(G, step, inner, outer, 6)
        assert str(info.value) == message

    @pytest.mark.parametrize("step,window", [(13, 12), (2, 1)])
    def test_step_above_the_window(self, G, step, window):
        with pytest.raises(WindowTooSmall) as info:
            standard_wedge(G, step, "discrete", "discrete", window)
        assert str(info.value) == f"step {step} needs a window of at least {step}, got {window}"

    def test_step_equal_to_the_window(self, G):
        P = standard_wedge(G, 12, "discrete", "discrete", 12)
        assert P.window == 12 and verify_axioms(P).ok

    @pytest.mark.parametrize("step,kind,outer", [(0, "trivial", "discrete"),
                                                 (2, "symmetric", "symmetric"),
                                                 (3, "discrete", "discrete")])
    def test_presentation_inner_matches_the_kind(self, G, step, kind, outer):
        # build realizes the recipe a kind names: the inner one over
        # H.as_group(), the outer one over G/K = Z, the inner window window // step
        P = standard_wedge(G, step, kind, outer, 6)
        K = Subgroup.torsion(G)
        H = Subgroup.free_power_with_torsion(G, step) if step else K
        Z = GroupDescriptor(0, 1)
        recipes = {
            "discrete": Recipe("orbit"),
            "trivial": Recipe("trivial"),
            "symmetric": Recipe("orbit", (Automorphism.inversion(H.as_group()[0]),)),
        }
        outer_recipe = Recipe("orbit", (Automorphism.inversion(Z),) if outer == "symmetric" else ())
        recipe = Recipe("wedge", subgroups=(K, H), parts=(recipes[kind], outer_recipe))
        assert build(G, recipe, 6) == P
        assert restrict(P, H) == build(H.as_group()[0], recipes[kind], 6 // step if step else 0)

    def test_infinite_kernel_rejected(self, G):
        H = Subgroup.free_power_with_torsion(G, 2)
        h_desc, _ = H.as_group()
        with pytest.raises(IncompatibleWedge):
            wedge(H, H, discrete(h_desc, 3), discrete(GroupDescriptor(2, 1)), 6)

    def test_recursive_inner(self, G):
        # inner ring on <z^2> x Z_3 is itself an orbit ring
        H = Subgroup.free_power_with_torsion(G, 2)
        h_desc, _ = H.as_group()
        inner = orbit_ring(h_desc, [named_automorphism("psi", h_desc)], 3)
        outer = discrete(GroupDescriptor(0, 1), 6)
        P = wedge(H, Subgroup.torsion(G), inner, outer, 6)
        classes = set(P.classes)
        assert frozenset({(2, 0), (2, 1)}) in classes  # embedded psi pair at z^2
        assert G.coset_of_torsion(1) in classes
        assert verify_axioms(P).ok


class TestBuild:
    def test_wedge_rebuilds_every_z4xz4_wedge_verdict(self):
        # P's own restriction and quotient give P back; on 14 of these towers
        # the overlap H/K was once compared in two coordinate systems that differ
        G = GroupDescriptor(4, 4)
        wedges = 0
        for P in enumerate_finite(G):
            result = is_traditional(P)
            if result.kind == "wedge":
                K, H = result.subgroups
                assert wedge(H, K, restrict(P, H), quotient(P, K)) == P
                wedges += 1
        assert wedges == 241

    def test_tensor_over_a_twisted_split(self):
        # Z2 x Z2 = <z> x <za>: the product of two trivial rings is discrete
        G = GroupDescriptor(2, 2)
        split = (Subgroup.generated_by(G, [GroupElement(1, 0)]),
                 Subgroup.generated_by(G, [GroupElement(1, 1)]))
        recipe = Recipe("tensor", subgroups=split, parts=(Recipe("trivial"), Recipe("trivial")))
        assert build(G, recipe) == discrete(G)

    def test_tensor_needs_a_split(self):
        G = GroupDescriptor(2, 2)
        a = Subgroup.torsion(G)
        trivial_part = Recipe("trivial")
        with pytest.raises(UnsupportedProduct):
            build(G, Recipe("tensor", subgroups=(a, a), parts=(trivial_part, trivial_part)))

    @pytest.mark.parametrize("free_first", [True, False])
    @pytest.mark.parametrize("free_gen", [(1, 0), (1, 1)], ids=["z", "za"])
    def test_tensor_over_an_infinite_factor(self, G, Z, Z3, free_gen, free_first):
        # the free part is built on the whole window and the finite part has
        # window 0, so the product takes the larger window whichever comes first
        free = Subgroup.generated_by(G, [GroupElement(*free_gen)])
        parts = {free: Recipe("orbit", (Automorphism.inversion(Z),)),
                 Subgroup.torsion(G): Recipe("trivial")}
        split = tuple(parts) if free_first else tuple(reversed(parts))
        P = build(G, Recipe("tensor", subgroups=split, parts=tuple(parts[S] for S in split)), 6)
        # <za> x <a> is <z> x <a> moved by z -> az, a -> a
        phi = Automorphism(G, free_gen[1], 1, 1)
        expected = tensor(symmetric(Z, 6), trivial(Z3))
        assert P == SchurPresentation(G, [phi.apply_set(c) for c in expected.classes], 6)
        assert P.window == 6 and verify_axioms(P).ok

    @pytest.mark.parametrize("group,first,text", [
        ((0, 3), (1, 0), "<z> x <z, a>"),  # no finite factor
        ((0, 3), (0, 1), "<a> x <z, a>"),  # a finite factor that meets the other
        ((2, 2), (1, 0), "<z> x <z, a>"),
    ], ids=["no-finite-factor", "meets-over-ZxZ3", "meets-over-Z2xZ2"])
    def test_tensor_refuses_what_is_not_a_split(self, group, first, text):
        G = GroupDescriptor(*group)
        split = (Subgroup.generated_by(G, [GroupElement(*first)]), Subgroup.full(G))
        parts = (Recipe("orbit"), Recipe("orbit"))
        with pytest.raises(UnsupportedProduct) as info:
            build(G, Recipe("tensor", subgroups=split, parts=parts), 6)
        assert str(info.value) == f"{text} is not a split of {G}"

    def test_split_refusal_names_the_group(self):
        for group, text in (((0, 3), "ZxZ3"), ((2, 2), "Z2xZ2"), ((1, 6), "Z6")):
            G = GroupDescriptor(*group)
            split = (Subgroup.full(G), Subgroup.full(G))
            with pytest.raises(UnsupportedProduct) as info:
                build(G, Recipe("tensor", subgroups=split, parts=(Recipe("orbit"),) * 2), 6)
            assert str(info.value).endswith(f" is not a split of {text}")

    def test_no_builds_nothing(self, Z3):
        with pytest.raises(ValueError):
            build(Z3, Recipe("no"))

    def test_orbit_recipe_takes_the_window(self, G, autos):
        assert build(G, Recipe("orbit"), 5) == discrete(G, 5)
        assert build(G, Recipe("orbit", (autos["psi"],)), 5) == orbit_ring(G, [autos["psi"]], 5)

    def test_wedge_recipe_over_a_free_tower(self, G):
        # level k of <z^3> x <a> is level 3k of G, so window 12 needs inner window 4
        K, H = torsion_tower(G, 3)
        h_desc = H.as_group()[0]
        inner = Recipe("orbit", (named_automorphism("psi", h_desc),))
        P = build(G, Recipe("wedge", subgroups=(K, H), parts=(inner, Recipe("orbit"))), 12)
        built_inner = orbit_ring(h_desc, [named_automorphism("psi", h_desc)], 4)
        outer = discrete(GroupDescriptor(0, 1), 12)
        assert P == wedge(H, K, built_inner, outer, 12)
        assert P.window == 12 and verify_axioms(P).ok

    @pytest.mark.parametrize("step,message", [
        (-2, "step must be 0 or at least 2, got -2"),
        (1, "step 1 makes the middle subgroup the whole group"),
    ])
    def test_torsion_tower_refuses_no_tower(self, G, step, message):
        with pytest.raises(BadTower) as info:
            torsion_tower(G, step)
        assert str(info.value) == message

    def test_torsion_tower(self, G):
        assert torsion_tower(G, 0) == (Subgroup.torsion(G), Subgroup.torsion(G))
        assert torsion_tower(G, 4) == (Subgroup.torsion(G),
                                       Subgroup.free_power_with_torsion(G, 4))


class TestSweep:
    def test_constructor_validity_sweep_small(self, G, Z, Z3, autos):
        presentations = [("discrete", discrete(G, 6)), ("trivial", trivial(Z3))]
        for name in ("psi", "delta", "xi", "rho", "sigma"):
            presentations.append((name, orbit_ring(G, [autos[name]], 6)))
        presentations.append(("symmetric x discrete", tensor(symmetric(Z, 6), discrete(Z3))))
        presentations.append(("symmetric x trivial", tensor(symmetric(Z, 6), trivial(Z3))))
        for step in (0, 2, 3):
            inners = ("discrete", "trivial") if step == 0 else ("discrete", "symmetric")
            for inner in inners:
                for outer in ("discrete", "symmetric"):
                    try:
                        P = standard_wedge(G, step, inner, outer, 6)
                    except IncompatibleWedge:
                        continue
                    presentations.append((f"wedge {step} {inner} {outer}", P))
        for label, P in presentations:
            assert verify_axioms(P).ok, label
