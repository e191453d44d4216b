"""Classifying presentations over Z x Z_3 and rebuilding them.

Every Schur ring over Z x Z_3 is an orbit ring or a wedge over the torsion
subgroup; the classifier recovers which one, with parameters, and validates
by re-synthesis.
"""

from sring import (
    GroupDescriptor,
    Subgroup,
    classify,
    find_H,
    named_automorphism,
    orbit_ring,
    projection_type,
    resynthesize,
    standard_wedge,
)

G = GroupDescriptor(0, 3)
N = 12

for name in ("psi", "delta", "xi", "rho", "sigma"):
    P = orbit_ring(G, [named_automorphism(name, G)], N)
    d = classify(P)
    print(f"orbit ring of {name:<5} -> {d.describe()}")

P = standard_wedge(G, 3, "symmetric", "symmetric", N)
d = classify(P)
print("symmetric wedge, step 3 ->", d.describe())
print("   projection:", projection_type(P), "| maximal free S-subgroup:", find_H(P))

# descriptors re-synthesize the presentation exactly on the window
rebuilt = resynthesize(d, N)
print("   round-trip exact:", rebuilt.classes == P.classes)

# wedges found in the wild may carry a full orbit ring inside the tower
H = Subgroup.free_power_with_torsion(G, 2)
h_desc, _ = H.as_group()
inner = orbit_ring(h_desc, [named_automorphism("psi", h_desc)], N // 2)
exotic = standard_wedge(G, 2, inner, "discrete", N)
d = classify(exotic)
print("wedge with orbit inner ->", d.describe())
print("   JSON:", d.to_json())
