"""Exact-arithmetic toolkit for parametric geometry of numbers.

Builds and validates piecewise-linear approximation systems, computes
successive-minima profiles of parametrized convex bodies by certified
lattice enumeration, and cross-checks the improvability and exponent
criteria at desk scale.
"""

from .core import (DEFAULT_GAP_BITS, DomainError, GapFunction, PgnError,
                   PiecewiseLinearMap, StructureError, concatenate,
                   format_rational, parse_rational, sup_distance)
from .diagnostics import (ComparisonReport, DiagnosticsReport, analyze,
                          analyze_profile, compare_system_profile,
                          profile_interpolant, profile_kernel_locked)
from .minima import (BoundTooSmallError, GaugeBody, GridPoint, LINEAR_FORM,
                     MinimaProfile, MinimaResult, MinkowskiReport,
                     SIMULTANEOUS, gauge_at_scale, minima_profile,
                     minkowski_check, profile_from_csv, profile_to_csv,
                     proxy_horizon, successive_minima,
                     successive_minima_certified)
from .svg import PlotSpec, render_svg
from .template import (BETA_BOUNDED, BETA_LOG, BlockBreakpoints,
                       BlockFunctionals, BuiltSystem, TemplateOrderingError,
                       TemplateParams, block_functionals, build_block,
                       build_system, closure_step, default_rn,
                       derive_alpha_beta, derive_block_breakpoints,
                       printed_step, transfer_exponents)
from .validator import (AxiomReport, AxiomViolation, validate, validate_raw)

__version__ = "0.1.0"
