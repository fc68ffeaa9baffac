"""Coherent-state analysis at critical lattice density.

Sampled signals, Gaussian atoms and the Gabor transform, the Zak transform
and theta machinery, the relaxed expansion with a sharp midpoint atom and its
order-m refinements, metaplectic rotations, and the phase-space certainty
decomposition.  All operations are pure functions over immutable values with
deterministic reduction order; everything is safe for concurrent use.
"""

from .numerics import (DEFAULT_H, DEFAULT_T, THETA_TERMS, SampledSignal,
                       hermite_signal, inner, loc_integral,
                       signal_from_csv, spectral_derivative, theta)
from .phaseplane import (Disk, Neighborhood, PhaseDomain, PhasePoint,
                         Polygon, Rect, UnionDomain, as_point,
                         domain_from_json, lattice_points_in, sharp_point)
from .gabor import (MAX_ORDER, SIGMA0, CoefficientSet, GaborField, atom, atom_inner,
                    field_synthesis, gabor_transform, synthesize, tail_mass,
                    vandermonde_inverse)
from .zak import (ZakField, a_operator_zak, default_zak_size, wh_shift,
                  zak, zak_atom_field, zak_inverse, zak_translate_check)
from .expansion import (RelaxedExpansion, division_field, hdelta_norm,
                        reconstruct, relaxed_coefficients, seam_mismatch,
                        sharp_functional, sharp_functional_zak, sharp_series)
from .higher import (DualAtomSet, OrderMExpansion, annihilate, create,
                     decay_exponent, default_sharp_nodes, dual_atoms,
                     order_m_coefficients)
from .metaplectic import (CovarianceResult, Rotation, commutation_check,
                          covariance_check, metaplectic_apply)
from .certainty import (CertaintyDecomposition, NestedDomains, concentration,
                        decompose, default_order, degrees_of_freedom_report,
                        domain_area, nested_domains, nesting_satisfied)

__version__ = "0.1.0"
