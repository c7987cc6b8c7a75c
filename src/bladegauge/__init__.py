"""bladegauge: rotating-blade variables for U(n) gauge fields.

Gauge potentials are traded for frames V with V^dag dV = i A; the
gauge-invariant content lives in the rotating blade R = 2 V V^dag - I and its
shape operator S_mu = -(i/2) R dR.  S is a connection like A (both are
`OneForm`s), and its curvature Omega is a `TwoForm` like F.  The library
constructs these objects, verifies the matrix identities connecting them,
evaluates equation-of-motion residuals, and reproduces the electromagnetic
plane-wave and monopole scenarios plus the stacked-block frame construction
for abelian potentials.
"""

__version__ = "0.1.0"

from .tolerances import Tolerances, DEFAULT as TOLERANCES
from .fields import (Spacetime, MINKOWSKI4, SPHERICAL3, euclidean, FieldFn,
                     OneForm, TwoForm, Grid, constant, coordinate, linear,
                     two_form, exterior_d, form_rank, wedge_power_nonzero,
                     sphere_flux, lattice_integral)
from .gauge import (MatterField, GaugeMap, gauge_potential, gauge_map,
                    field_strength, covariant_derivative, covariant_derivative_matrix,
                    gauge_transform, gauge_transform_field_strength,
                    gauge_transform_matter, pure_gauge_potential)
from .blade import (Frame, RotatingBlade, frame, extract_potential,
                    blade_from_frame, shape_operator, blade_curvature,
                    four_way, check_four_way, lifted_covariant_derivative,
                    shape_identity_residual, complement_frame, complement_field,
                    shape_gauge_decompose, canonical_frame, direct_rotation,
                    random_smooth_frame, random_gauge_map, reference_frame)
from .em import (EmFrameParams, em_frame, em_complement, em_potential_residual,
                 em_faraday, plane_wave_params, plane_wave_potential,
                 monopole_potential, monopole_params, monopole_blade,
                 monopole_blade_glue, quantization_satisfied)
from .darboux import (DarbouxData, darboux_data, darboux_potential,
                      darboux_frame, verify_rank, expr_field)
from .dynamics import (ym_residual, ym_action, sigma_action,
                       modified_eom_residual, maxwell_mod_residual,
                       shape_gauge_ym_residual, sigma_eom_residual,
                       LatticeBlade, blade_lattice_from_field, sigma_flow,
                       sigma_lattice_energy, sigma_lattice_gradient)
from .embedded import (Embedding, plane, sphere, cylinder, torus,
                       induced_metric, embedded_blade, embedded_shape,
                       embedded_curvature, riemann_component, gauss_curvature,
                       christoffel_riemann)
