"""Exact group-algebra arithmetic over Z x Z_3.

Elements of the group are written z^k * a^i; ring elements are finite sums
with rational coefficients, and every operation is exact.
"""

from sring import CoeffFn, GroupDescriptor, monomial, simple_quantity

G = GroupDescriptor(0, 3)  # infinite <z> times <a> of order 3

z = monomial(G, G.element(1, 0))
az_inv = monomial(G, G.element(-1, 1))

print("parsing and printing:", z + az_inv)

# the square picks up a coefficient 2 on the torsion generator
square = (z + az_inv) * (z + az_inv)
print("(z + az^-1)^2 =", square)

# the Schur-Wielandt extraction: keep only the coefficient-2 term
print("level set of 2:", square.apply_coeff(CoeffFn.level(2)))

# star transports to inverses; the n-th transport maps g to g^n
pair = monomial(G, G.element(-1, 1)) + monomial(G, G.element(1, 2))
print("pair       =", pair)
print("pair*      =", pair.star())
print("pair^(2)   =", pair.frobenius(2))
print("pair^(5)   =", pair.frobenius(5))

# stabilizers detect translation symmetry
coset_sum = simple_quantity(G, [(4, 0), (4, 1), (4, 2)])
print("stabilizer of a full coset sum:", coset_sum.stabilizer())
