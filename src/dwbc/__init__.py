"""Domain-wall partition functions of the elliptic SOS, trigonometric SOS
and six-vertex models, computed by independent routes that cross-check one
another: a column sum over ice configurations memoized on (column,
right-edge signs), column-transfer-matrix contraction, permutation-sum
closed forms and the Izergin determinant."""

from .closedform import SUM_CAP, recursion_factor, weight_kernel, \
    z_6v_sum, z_izergin, z_sos_elliptic, z_trig_sos
from .ellpoly import Character, addition_formula_residual, interpolate, \
    membership_residual, qj_interpolation_residual, theta_product_poly, \
    vandermonde_ratio
from .enumeration import SIZE_CAP, asm_number, column_transfer_6v, \
    column_transfer_trig, column_transfer_z, count_configurations, \
    enumerate_6v, enumerate_sos, enumerate_trig_sos
from .errors import DegenerateNodes, DegenerateParameter, DwbcError, \
    InvalidParameter, SizeCap
from .rmatrix import EllipticParams, RMatrix4, TrigParams, dybe_residual, \
    dybe_residual_from_builder, dybe_residual_trig, gauge_rescale, \
    sixv_rmatrix, sos_rmatrix, trig_nondyn_rmatrix, trig_sos_rmatrix, \
    ybe_residual_nondyn
from .theta import ThetaContext, is_on_lattice, require_off_lattice, theta, \
    theta_deriv_at_zero

__version__ = "0.1.0"

__all__ = [
    "Character", "DegenerateNodes", "DegenerateParameter", "DwbcError",
    "EllipticParams", "InvalidParameter", "RMatrix4", "SIZE_CAP", "SUM_CAP",
    "SizeCap", "ThetaContext", "TrigParams",
    "addition_formula_residual", "asm_number", "column_transfer_6v",
    "column_transfer_trig", "column_transfer_z",
    "count_configurations", "dybe_residual",
    "dybe_residual_from_builder", "dybe_residual_trig", "enumerate_6v",
    "enumerate_sos", "enumerate_trig_sos", "gauge_rescale", "interpolate",
    "is_on_lattice", "membership_residual", "qj_interpolation_residual",
    "recursion_factor", "require_off_lattice", "sixv_rmatrix", "sos_rmatrix",
    "theta", "theta_deriv_at_zero", "theta_product_poly",
    "trig_nondyn_rmatrix", "trig_sos_rmatrix", "vandermonde_ratio",
    "weight_kernel", "ybe_residual_nondyn", "z_6v_sum", "z_izergin",
    "z_sos_elliptic", "z_trig_sos",
]
