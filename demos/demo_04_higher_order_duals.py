"""Order-m expansions: dual atoms from a Vandermonde inverse.

Every atom is an eigenvector of the annihilation operator, so sharp values of
ladder powers on midpoint atoms form a Vandermonde system in the complex node
labels.  Inverting it through elementary symmetric polynomials gives dual
atoms whose subtraction makes the theta-divided field m times smoother,
visible as a jump in the coefficient decay exponent.
"""

import numpy as np

from criticalgabor import (annihilate, default_sharp_nodes, dual_atoms,
                           hermite_signal, order_m_coefficients,
                           sharp_functional, vandermonde_inverse)

print("== Vandermonde inverse via symmetric polynomials ==")
nodes = np.array([0.5 + 0.5j, -0.5 + 0.5j, 0.5 - 0.5j])
V = vandermonde_inverse(nodes)
W = np.vander(nodes, increasing=True)
print(f"nodes {nodes}")
print(f"max |VW - I| = {np.max(np.abs(V @ W - np.eye(3))):.2e}")

print("\n== dual atoms and biorthogonality ==")
m = 2
duals = dual_atoms(default_sharp_nodes(m), 8.0, 1 / 64)
table = np.empty((m + 1, m + 1))
for j, d in enumerate(duals.atoms):
    g = d
    for k in range(m + 1):
        table[k, j] = abs(sharp_functional(g))
        g = annihilate(g)
print("|gamma#(a^k d_j)| table (should be the identity):")
for row in table:
    print("   " + "  ".join(f"{v:8.2e}" for v in row))

print("\n== decay improvement on an odd Hermite function ==")
f = hermite_signal(3, T=12.0, h=1 / 256)
for order in (0, 2):
    exp = order_m_coefficients(f, order, R=10)  # the Zak grid N = 1/(2h) = 128
    print(f"m={order}: fitted decay exponent {exp.decay_exponent:.3f}, "
          f"sharp block magnitudes {[f'{abs(b):.3f}' for b in exp.sharp_block]}")
