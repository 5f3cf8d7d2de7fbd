"""Structure and physics of the shipped equation sets.

The structural tests pin the variable census, the source wiring and the
sign/phase convention so that an accidental edit to a single coefficient
fails loudly; the physics tests check both blocks against the amplitude
factorization they must reproduce.
"""

from __future__ import annotations

import cmath
import dataclasses
import math

import numpy as np
import pytest

from delayheom import engine, models, oracle
from delayheom.constants import CONSTANTS
from delayheom.engine import Pattern
from tests.conftest import make_scaled, make_unequal


def pattern_census(eqs):
    counts: dict[Pattern, int] = {}
    for t in eqs.terms:
        counts[t.pattern] = counts.get(t.pattern, 0) + 1
    return counts


# ---------------------------------------------------------------------------
# one-excitation block
# ---------------------------------------------------------------------------


def test_single_excitation_census():
    m = models.build_single_excitation(make_scaled(2.0, 3.7))
    eqs = m.equations
    assert eqs.system_vars == ("pA", "pB", "cAB")
    assert eqs.band_vars == ("bB_0A", "bA_0B", "bB_0B", "bA_0A")
    assert len(eqs.terms) == 25
    assert pattern_census(eqs) == {
        Pattern.CURRENT: 3,
        Pattern.DIAGONAL: 6,
        Pattern.OWN: 4,
        Pattern.SECOND_ARG_DELAYED: 4,
        Pattern.FIRST_ARG_DELAYED: 4,
        Pattern.BIRTH: 4,
    }


def test_single_excitation_source_wiring():
    m = models.build_single_excitation(make_scaled(2.0, 3.7))
    births = [t for t in m.equations.terms if t.pattern is Pattern.BIRTH]
    wiring = {t.target: (t.var, t.conjugate) for t in births}
    assert wiring == {
        "bB_0A": ("cAB", True),
        "bA_0B": ("cAB", False),
        "bB_0B": ("pB", False),
        "bA_0A": ("pA", False),
    }
    assert all(t.coefficient == 1.0 for t in births)


def test_feedback_phase_convention():
    # the population feedback must rotate with +omega tau of the *other*
    # cavity; anything else breaks the amplitude factorization
    cav = make_scaled(2.0, 3.7)
    hbar = CONSTANTS.hbar_ev_fs
    v = cav.v_ab_ev / hbar
    phase_b = cmath.exp(1j * cav.omega_b_ev * cav.tau_fs / hbar)
    m = models.build_single_excitation(cav)
    (coeff,) = [
        t.coefficient
        for t in m.equations.terms
        if t.target == "pA"
        and t.pattern is Pattern.DIAGONAL
        and not t.conjugate
    ]
    assert coeff == pytest.approx(-2.0 * v * phase_b, rel=1e-15)


def test_single_excitation_defaults():
    m = models.build_single_excitation(make_scaled(2.0, 3.7))
    assert m.kind == "single_excitation"
    assert dict(m.default_init) == {"pA": 1.0 + 0j}


def test_single_excitation_matches_factorized_amplitudes():
    cav = make_scaled(1.0, 0.0)
    dde = oracle.run_wavefunction(cav, 100, 1000.0)
    want = models.pure_state_crosscheck(dde.amp_a, dde.amp_b)
    m = models.build_single_excitation(cav)
    r = engine.run(m.equations, m.default_init, steps_per_delay=100, t_end_fs=1000.0)
    for k in ("pA", "pB", "cAB"):
        assert np.abs(r.series[k] - want[k]).max() < 5e-5


def test_swapping_the_cavities_swaps_the_lines():
    # Swapping the cavities' (omega, gamma) and starting from pB maps pA <-> pB,
    # cAB <-> conj(cAB), bB_0A <-> bA_0B and bB_0B <-> bA_0A.  No system
    # value reads a line past one delay, so this is the check on the FAD
    # coefficients, which act only there (it cannot see an error made the
    # same way on both partners).
    cav = make_unequal(0.9, 0.4, 2.3, -1.1, 0.3)
    swapped = dataclasses.replace(cav, omega_a_ev=cav.omega_b_ev, gamma_a_ev=cav.gamma_b_ev,
                                  omega_b_ev=cav.omega_a_ev, gamma_b_ev=cav.gamma_a_ev)
    K, W, n = 20, 40, 200
    runs = []
    for c, init in ((cav, {"pA": 1.0}), (swapped, {"pB": 1.0})):
        integ = engine.HierarchyIntegrator(models.build_single_excitation(c).equations, init,
                                           steps_per_delay=K, band_width=W)
        for _ in range(n):
            integ.step()
        runs.append(integ)
    a, b = runs
    np.testing.assert_allclose(b.state, a.state[[1, 0, 2]].conj(), rtol=0, atol=1e-12)
    for x, y in (("bB_0A", "bA_0B"), ("bB_0B", "bA_0A")):
        for age in range(W + 1):
            for one, other in ((x, y), (y, x)):
                got, want = b.band_value(other, n, n - age), a.band_value(one, n, n - age)
                assert abs(got - want) <= 1e-12, (one, age)
    # the lines past one delay carry weight, so the check sees the FAD terms
    assert abs(a.band_value("bB_0A", n, n - W)) > 1e-3


# ---------------------------------------------------------------------------
# two-photon block
# ---------------------------------------------------------------------------


def test_two_photon_census():
    m = models.build_two_photon(make_scaled(2.0, 3.7))
    eqs = m.equations
    assert eqs.system_vars == ("g20", "g02", "g11")
    assert len(eqs.band_vars) == 6
    assert len(eqs.terms) == 27
    assert pattern_census(eqs) == {
        Pattern.CURRENT: 3,
        Pattern.DIAGONAL: 6,
        Pattern.OWN: 6,
        Pattern.SECOND_ARG_DELAYED: 6,
        Pattern.BIRTH: 6,
    }
    assert m.kind == "two_photon"
    assert dict(m.default_init) == {"g20": 1.0 + 0j}


def test_two_photon_silent_lines_have_zero_weight_sources():
    m = models.build_two_photon(make_scaled(2.0, 3.7))
    silent = {t.target for t in m.equations.terms
              if t.pattern is Pattern.BIRTH and t.coefficient == 0.0}
    assert silent == {"bB01_01", "bA01_10"}


def test_two_photon_matches_squared_amplitudes():
    cav = make_scaled(1.0, 0.0)
    dde = oracle.run_wavefunction(cav, 100, 1000.0)
    want = models.pure_state_crosscheck(dde.amp_a, dde.amp_b, "two_photon")
    m = models.build_two_photon(cav)
    r = engine.run(m.equations, m.default_init, steps_per_delay=100, t_end_fs=1000.0)
    for k in ("g20", "g02", "g11"):
        assert np.abs(r.series[k] - want[k]).max() < 5e-5


# ---------------------------------------------------------------------------
# crosscheck helper
# ---------------------------------------------------------------------------


def test_crosscheck_formulas():
    a = np.array([0.6 + 0.1j, 0.2 - 0.3j])
    b = np.array([0.1 - 0.2j, 0.4 + 0.5j])
    one = models.pure_state_crosscheck(a, b)
    np.testing.assert_allclose(one["pA"], np.abs(a) ** 2)
    np.testing.assert_allclose(one["cAB"], a * b.conj())
    two = models.pure_state_crosscheck(a, b, "two_photon")
    np.testing.assert_allclose(two["g20"], a * a)
    np.testing.assert_allclose(two["g11"], math.sqrt(2.0) * a * b)
    with pytest.raises(ValueError):
        models.pure_state_crosscheck(a, b, "three_photon")


def test_sqrt8_constant():
    assert models.SQRT8 == 2.0 * math.sqrt(2.0)
