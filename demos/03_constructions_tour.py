"""The five constructions: discrete, trivial, orbit, tensor, wedge."""

from sring import (
    GroupDescriptor,
    Subgroup,
    discrete,
    named_automorphism,
    orbit_ring,
    standard_wedge,
    symmetric,
    tensor,
    trivial,
    verify_axioms,
    wedge,
)

G = GroupDescriptor(0, 3)
Z = GroupDescriptor(0, 1)
Z3 = GroupDescriptor(1, 3)

print("discrete over Z_3:         ", discrete(Z3).describe())
print("trivial over Z_3:          ", trivial(Z3).describe())

# orbit rings: classes are orbits of a finite automorphism group
psi = named_automorphism("psi", G)  # z -> az, a -> a^2
P = orbit_ring(G, [psi], 4)
print("orbit ring of psi, window 4:")
print("   ", P.describe())

# tensor: symmetric classes on the free part, trivial on the torsion
T = tensor(symmetric(Z, 4), trivial(Z3))
print("symmetric (x) trivial, window 4:")
print("   ", T.describe())

# wedge: inside the middle subgroup the inner presentation rules; outside it,
# classes are unions of torsion cosets
W = standard_wedge(G, 2, "discrete", "discrete", 6)
print("wedge with middle subgroup <z^2> x <a>:")
print("   ", W.describe())

# the general constructor takes explicit subgroups and presentations
H = Subgroup.free_power_with_torsion(G, 2)
h_desc, _ = H.as_group()
inner = orbit_ring(h_desc, [named_automorphism("psi", h_desc)], 3)
outer = discrete(Z, 6)
custom = wedge(H, Subgroup.torsion(G), inner, outer, 6)
print("wedge with an orbit-ring inner:", verify_axioms(custom).verdict)
