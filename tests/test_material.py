"""Material parameters, degradation, and phase-field linearization."""

import numpy as np
import pytest

from phasefrac.material import (
    Assembler,
    MaterialParams,
    degradation,
    extrapolate_phase,
)
from phasefrac.fem import build_dof_map
from phasefrac.mesh import build_rectangle_mesh


def make_params(**kw):
    base = dict(mu=0.42, lam=0.28, gc=1.0, eps=0.1, kappa=1e-10)
    base.update(kw)
    return MaterialParams(**base)


def test_params_reject_nonpositive_required_constants():
    with pytest.raises(ValueError):
        make_params(mu=0.0)
    with pytest.raises(ValueError):
        make_params(eps=-1.0)
    with pytest.raises(ValueError):
        make_params(gc=0.0)


def test_params_reject_unknown_split():
    with pytest.raises(ValueError, match="split"):
        make_params(split="deviatoric")


def test_youngs_poisson_roundtrip():
    p = MaterialParams.from_youngs(
        210.0, 0.3, gc=1.0, eps=0.1, kappa=1e-10
    )
    assert p.youngs == pytest.approx(210.0, rel=1e-14)
    assert p.poisson == pytest.approx(0.3, rel=1e-14)


def test_lame_constants_from_youngs():
    # E = 210, nu = 0.3: mu = E / (2(1+nu)), lam = E nu / ((1+nu)(1-2nu))
    p = MaterialParams.from_youngs(210.0, 0.3, gc=1.0, eps=0.1, kappa=1e-10)
    assert p.mu == pytest.approx(210.0 / 2.6, rel=1e-14)
    assert p.lam == pytest.approx(210.0 * 0.3 / (1.3 * 0.4), rel=1e-14)


def test_degradation_endpoints_and_monotonicity():
    kappa = 1e-6
    phi = np.linspace(0.0, 1.0, 201)
    g = degradation(phi, kappa)
    assert g[0] == pytest.approx(kappa)
    assert g[-1] == pytest.approx(1.0)
    assert np.all(np.diff(g) > 0.0)
    assert np.all(g >= kappa) and np.all(g <= 1.0)


def test_degradation_quadratic_value():
    assert degradation(np.array([0.5]), 0.0)[0] == pytest.approx(0.25)


def test_extrapolation_uniform_steps():
    a = np.array([0.2, 0.8])
    b = np.array([0.1, 0.9])
    out = extrapolate_phase(b, a, t_now=3.0, t_prev=2.0, t_prev2=1.0)
    assert np.allclose(out, 2.0 * b - a, atol=1e-15)


def test_extrapolation_constant_history_is_reproduced():
    a = np.array([0.3, 0.6, 1.0])
    out = extrapolate_phase(a, a, t_now=5.0, t_prev=2.0, t_prev2=0.5)
    assert np.allclose(out, a, atol=1e-15)


def test_extrapolation_nonuniform_steps():
    # history at t = 0 (value a) and t = 1 (value b), target t = 3
    a, b = 0.4, 0.7
    out = extrapolate_phase(
        np.array([b]), np.array([a]), t_now=3.0, t_prev=1.0, t_prev2=0.0
    )
    assert out[0] == pytest.approx(-2.0 * a + 3.0 * b, rel=1e-14)


def test_extrapolation_rejects_coincident_times():
    a = np.zeros(2)
    with pytest.raises(ValueError):
        extrapolate_phase(a, a, t_now=2.0, t_prev=1.0, t_prev2=1.0)
