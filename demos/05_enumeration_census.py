"""Brute-force censuses: finite groups and windows of Z x Z_3.

The enumerators work from the axioms alone, none of the paper's lemmas, so
their output independently cross-checks the classifier.
"""

from collections import Counter

from sring import (
    GroupDescriptor,
    classify,
    describe_recipe,
    enumerate_finite,
    enumerate_windowed,
    is_traditional,
    recipe_to_json,
)

print("census over small cyclic groups:")
for n in range(2, 9):
    rings = enumerate_finite(GroupDescriptor(1, n))
    histogram = Counter(is_traditional(P).kind for P in rings)
    print(f"   Z_{n}: {len(rings):>2} rings {dict(sorted(histogram.items()))}")

print()
print("window census over Z x Z_3:")
for window in (3, 4):
    out = enumerate_windowed(window)
    variants = Counter(recipe_to_json(classify(P), window)["variant"] for P in out)
    print(f"   window {window}: {len(out)} partitions, all classified: {dict(sorted(variants.items()))}")

print()
print("symmetric-projection slice at window 3:")
for P in enumerate_windowed(3, projection="symmetric")[:5]:
    print("   ", describe_recipe(classify(P)))
