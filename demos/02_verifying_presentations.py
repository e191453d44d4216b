"""Verifying Schur-ring presentations, finite and windowed.

A presentation is a partition: {1} must be a class, classes must be closed
under inversion, and products of class sums must stay in the span.  Two
independent verification routes must agree.
"""

from sring import (
    GroupDescriptor,
    SchurPresentation,
    named_automorphism,
    orbit_ring,
    verify_axioms,
    verify_wielandt,
)

# a valid finite presentation: the two-class ring over Z_3
Z3 = GroupDescriptor(1, 3)
valid = SchurPresentation(Z3, [[(0, 0)], [(0, 1), (0, 2)]])
print("two-class ring over Z_3:", verify_axioms(valid).verdict)

# a broken one over Z_4: {a, a^2} is not closed under inversion
Z4 = GroupDescriptor(1, 4)
broken = SchurPresentation(Z4, [[(0, 0)], [(0, 1), (0, 2)], [(0, 3)]])
report = verify_axioms(broken)
print("broken partition over Z_4:", report.verdict)
print("   witness:", report.witness.kind, "-", report.witness.detail)

# windowed verification over the infinite group: every product of two classes
# is checked on the window, where its coefficients are exact
G = GroupDescriptor(0, 3)
P = orbit_ring(G, [named_automorphism("psi", G)], 8)
report = verify_axioms(P)
print(f"orbit ring window 8: {report.verdict}, {report.checked_pairs} pairs checked")

# the Wielandt route (Hadamard/star closure of the span) agrees
print("wielandt route agrees:", verify_wielandt(P).verdict == report.verdict)
