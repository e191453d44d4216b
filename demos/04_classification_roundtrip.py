"""Classifying presentations over Z x Z_3 and rebuilding them.

Every Schur ring over Z x Z_3 is an orbit ring or a wedge over the torsion
subgroup; the classifier recovers which one as a recipe, and validates it by
re-synthesis.
"""

from sring import (
    GroupDescriptor,
    Recipe,
    build,
    classify,
    describe_recipe,
    find_H,
    named_automorphism,
    orbit_ring,
    projection_type,
    recipe_to_json,
    resynthesize,
    standard_wedge,
)
from sring.constructions import torsion_tower

G = GroupDescriptor(0, 3)
N = 12

for name in ("psi", "delta", "xi", "rho", "sigma"):
    P = orbit_ring(G, [named_automorphism(name, G)], N)
    d = classify(P)
    print(f"orbit ring of {name:<5} -> {describe_recipe(d)}")

P = standard_wedge(G, 3, "symmetric", "symmetric", N)
d = classify(P)
print("symmetric wedge, step 3 ->", describe_recipe(d))
print("   projection:", projection_type(P), "| maximal free S-subgroup:", find_H(P))

# recipes re-synthesize the presentation exactly on the window
rebuilt = resynthesize(d, N)
print("   round-trip exact:", rebuilt.classes == P.classes)

# wedges found in the wild may carry a full orbit ring inside the tower
K, H = torsion_tower(G, 2)
h_desc, _ = H.as_group()
inner = Recipe("orbit", (named_automorphism("psi", h_desc),))
exotic = build(G, Recipe("wedge", subgroups=(K, H), parts=(inner, Recipe("orbit"))), N)
d = classify(exotic)
print("wedge with orbit inner ->", describe_recipe(d))
print("   JSON:", recipe_to_json(d, N))
