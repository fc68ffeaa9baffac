"""The relaxed expansion at critical density.

At cell area one the lattice atoms alone are complete but not a frame; adding
a single midpoint ("sharp") atom restores unique expansions.  The sharp
coefficient is an alternating half-integer sample sum, the lattice part
consists of Fourier coefficients of the theta-divided Zak field.  The slow
|lambda|^{-2} coefficient decay of even signals is visible directly.
"""

import numpy as np

from criticalgabor import (atom, hermite_signal, reconstruct,
                           relaxed_coefficients, sharp_functional, sharp_point)

print("== sharp functional ==")
print(f"gamma#(e_sharp)  = {sharp_functional(atom(sharp_point())):.8f}")
print(f"gamma#(e_(0,0))  = {abs(sharp_functional(atom((0, 0)))):.2e}")
print(f"gamma#(e_(1,1))  = {abs(sharp_functional(atom((1, 1)))):.2e}")

print("\n== purity on single atoms ==")
for lam in [(0, 0), (1, 0), (0, 1)]:
    exp = relaxed_coefficients(atom(lam), R=3)
    spurious = max(abs(v) for key, v in exp.coeffs.entries.items()
                   if key != (lam[0], lam[1], False))
    print(f"e_{lam}: coefficient {exp.coeffs.get(*lam):.6f}, worst spurious {spurious:.2e}")

print("\n== reconstruction of a Hermite function ==")
f = hermite_signal(2, T=12.0, h=1 / 64)
for R in (2, 4, 6, 8):
    _, residual = reconstruct(f, R)
    print(f"cutoff R={R}: relative residual {residual:.4f}")
print("the ~1/R stall reflects the |lambda|^{-2} decay of the canonical")
print("coefficients for even signals; the order-m expansion fixes this (demo 04)")

print("\n== shell profile of the coefficients ==")
exp = relaxed_coefficients(f, R=8)
shells = {}
for (k, j, s), v in exp.coeffs.entries.items():
    shells.setdefault(int(round(np.hypot(k, j))), []).append(abs(v) ** 2)
for r in sorted(shells)[:7]:
    print(f"  |lambda| ~ {r}: rms {np.sqrt(np.mean(shells[r])):.3e}")
