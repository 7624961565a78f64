"""Preset wiring that the driver relies on."""

import math

import pytest

from phasefrac.driver import RunConfig
from phasefrac.presets import build_problem


def test_sneddon_reference_uses_the_preset_material():
    problem, _ = build_problem(RunConfig(benchmark="sneddon2d", local_refines=0))
    p = problem.params
    half_length = 0.25
    expected = (
        2.0 * math.pi * p.pressure * half_length**2 * (1.0 - p.poisson**2) / p.youngs
    )
    assert problem.tcv_reference == pytest.approx(expected, rel=1e-14)
    # E = 1.008 and nu = 0.2 follow from the preset's Lame constants
    assert problem.tcv_reference == pytest.approx(3.740e-4, rel=1e-3)
