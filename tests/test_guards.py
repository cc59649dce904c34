"""Degenerate and malformed inputs raise an error that names the guard."""

import re

import numpy as np
import pytest

from dwbc import Character, DegenerateNodes, DegenerateParameter, \
    EllipticParams, InvalidParameter, ThetaContext, TrigParams, \
    addition_formula_residual, gauge_rescale, interpolate, \
    membership_residual, qj_interpolation_residual, recursion_factor, \
    sixv_rmatrix, trig_nondyn_rmatrix, trig_sos_rmatrix, vandermonde_ratio, \
    weight_kernel, z_6v_sum, z_izergin

CTX = ThetaContext(1j)
Q = 1.3
LAM, HBAR = 0.31, 0.17


def _membership_with_no_samples():
    chi = Character(1, 0.2)
    return membership_residual(CTX, lambda u: u, chi, samples=0,
                               rng=np.random.default_rng(0))


CASES = {
    "recursion_factor n < 2": (
        lambda: recursion_factor(CTX, EllipticParams([0.1], [0.2], LAM, HBAR)),
        InvalidParameter, "need n >= 2"),
    "z_6v_sum w[2] = q^2 w[1]": (
        lambda: z_6v_sum(TrigParams([0.5, 0.7], [1.0, Q * Q], Q)),
        DegenerateParameter, "w[2]/q - q*w[1]"),
    "z_izergin w[1] = q^2 z[1]": (
        lambda: z_izergin(TrigParams([0.5, 0.7], [Q * Q * 0.5, 2.1], Q)),
        DegenerateParameter, "q*z[1] - w[1]/q"),
    "z_izergin z[1] = w[1]": (
        lambda: z_izergin(TrigParams([0.5, 0.7], [0.5, 2.1], Q)),
        DegenerateParameter, "z[1] - w[1]"),
    "weight_kernel vperm length": (
        lambda: weight_kernel(CTX, EllipticParams([0.1, 0.2], [0.3, 0.4],
                                                  LAM, HBAR), [0.3]),
        InvalidParameter, "vperm must list 2 row arguments, got 1"),
    "Character degree 0": (
        lambda: Character(0, 0.2),
        InvalidParameter, "degree must be >= 1, got 0"),
    "membership_residual samples=0": (
        _membership_with_no_samples,
        InvalidParameter, "samples must be >= 1"),
    "interpolate sum(nodes) - alpha on the lattice": (
        lambda: interpolate(CTX, [0.1, 0.2], [1.0, 2.0], 0.3 + 1j, 0.05),
        DegenerateNodes, "sum(nodes) - alpha"),
    "interpolate list lengths": (
        lambda: interpolate(CTX, [0.1, 0.2], [1.0], 0.4, 0.05),
        InvalidParameter, "need matching node/value lists"),
    "vandermonde_ratio list lengths": (
        lambda: vandermonde_ratio(CTX, [lambda u: u], [0.1, 0.2], 0.4),
        InvalidParameter, "need as many basis functions as nodes"),
    "addition_formula_residual list lengths": (
        lambda: addition_formula_residual(CTX, [0.1], [0.2, 0.3], 0.05),
        InvalidParameter, "need one lambda per u"),
    "qj_interpolation_residual n < 2": (
        lambda: qj_interpolation_residual(CTX, [0.1], LAM, HBAR, 2, 0.05),
        InvalidParameter, "need n >= 2 variables"),
    "qj_interpolation_residual j out of range": (
        lambda: qj_interpolation_residual(CTX, [0.1, 0.2, 0.3], LAM, HBAR, 4,
                                          0.05),
        InvalidParameter, "j must lie in [2, 3], got 4"),
    "sixv_rmatrix q = 0": (
        lambda: sixv_rmatrix(1.0, 2.0, 0),
        InvalidParameter, "q must be nonzero"),
    "trig_sos_rmatrix q = 0": (
        lambda: trig_sos_rmatrix(1.0, 2.0, 0.7, 0),
        InvalidParameter, "q must be nonzero"),
    "trig_nondyn_rmatrix q = 0": (
        lambda: trig_nondyn_rmatrix(1.0, 2.0, 0),
        InvalidParameter, "q must be nonzero"),
    "gauge_rescale rho = 0": (
        lambda: gauge_rescale(sixv_rmatrix(1.0, 2.0, Q), 0),
        InvalidParameter, "gauge factor rho must be nonzero"),
}


@pytest.mark.parametrize("call, error, message", CASES.values(), ids=CASES)
def test_guard_raises_naming_itself(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()
