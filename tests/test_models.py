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


#: per model: the start, the swapped run's start, whether the swap conjugates
#: the system, and the line pairs it exchanges
SWAPS = {
    "single_excitation": ("pA", "pB", True, (("bB_0A", "bA_0B"), ("bB_0B", "bA_0A"))),
    "two_photon": ("g20", "g02", False, (("bB01_10", "bA01_01"), ("bB12_01", "bA12_10"))),
}


@pytest.mark.parametrize("kind", sorted(SWAPS))
def test_swapping_the_cavities_swaps_the_lines(kind):
    # Swapping the cavities' (omega, gamma) and starting from the mirrored
    # state maps pA <-> pB, cAB <-> conj(cAB), bB_0A <-> bA_0B and
    # bB_0B <-> bA_0A, or g20 <-> g02, g11 <-> g11, bB01_10 <-> bA01_01 and
    # bB12_01 <-> bA12_10.  No system value reads a line past one delay, so
    # this is the check on the FAD coefficients, which act only there (it
    # cannot see an error made the same way on both partners); the
    # two-photon block has none, and its lines past one delay only decay.
    first, mirrored, conj, pairs = SWAPS[kind]
    build = getattr(models, f"build_{kind}")
    cav = make_unequal(0.9, 0.4, 2.3, -1.1, 0.3)
    swapped = dataclasses.replace(cav, omega_a_ev=cav.omega_b_ev, gamma_a_ev=cav.gamma_b_ev,
                                  omega_b_ev=cav.omega_a_ev, gamma_b_ev=cav.gamma_a_ev)
    K, W, n = 20, 40, 200
    runs = []
    for c, init in ((cav, {first: 1.0}), (swapped, {mirrored: 1.0})):
        integ = engine.HierarchyIntegrator(build(c).equations, init,
                                           steps_per_delay=K, band_width=W)
        for _ in range(n):
            integ.step()
        runs.append(integ)
    a, b = runs
    mirror = a.state[[1, 0, 2]]
    np.testing.assert_allclose(b.state, mirror.conj() if conj else mirror, rtol=0, atol=1e-12)
    for x, y in pairs:
        for age in range(W + 1):
            for one, other in ((x, y), (y, x)):
                got, want = b.band_value(other, n, n - age), a.band_value(one, n, n - age)
                assert abs(got - want) <= 1e-12, (one, age)
    # the lines past one delay carry weight, so the check sees the FAD terms
    assert abs(a.band_value(pairs[0][0], n, n - W)) > 1e-3


# ---------------------------------------------------------------------------
# two-photon block
# ---------------------------------------------------------------------------


def test_two_photon_census():
    m = models.build_two_photon(make_scaled(2.0, 3.7))
    eqs = m.equations
    assert eqs.system_vars == ("g20", "g02", "g11")
    assert eqs.band_vars == ("bB01_10", "bA01_01", "bA12_10", "bB12_01")
    assert len(eqs.terms) == 19
    assert pattern_census(eqs) == {
        Pattern.CURRENT: 3,
        Pattern.DIAGONAL: 4,
        Pattern.OWN: 4,
        Pattern.SECOND_ARG_DELAYED: 4,
        Pattern.BIRTH: 4,
    }
    assert m.kind == "two_photon"
    assert dict(m.default_init) == {"g20": 1.0 + 0j}


def test_two_photon_source_wiring():
    m = models.build_two_photon(make_scaled(2.0, 3.7))
    births = [t for t in m.equations.terms if t.pattern is Pattern.BIRTH]
    wiring = {t.target: (t.var, t.conjugate) for t in births}
    assert wiring == {
        "bB01_10": ("g11", False),
        "bA01_01": ("g11", False),
        "bA12_10": ("g20", False),
        "bB12_01": ("g02", False),
    }
    assert all(t.coefficient == 1.0 for t in births)


def test_two_photon_matches_squared_amplitudes():
    cav = make_scaled(1.0, 0.0)
    dde = oracle.run_wavefunction(cav, 100, 1000.0)
    want = models.pure_state_crosscheck(dde.amp_a, dde.amp_b, "two_photon")
    m = models.build_two_photon(cav)
    r = engine.run(m.equations, m.default_init, steps_per_delay=100, t_end_fs=1000.0)
    for k in ("g20", "g02", "g11"):
        assert np.abs(r.series[k] - want[k]).max() < 5e-5


@pytest.mark.parametrize("cav", [make_scaled(1.0, 3.7),
                                 make_unequal(1.0, 0.6, 3.7, 1.3, 0.35)],
                         ids=["equal", "unequal"])
def test_two_photon_lines_are_amplitude_products(cav):
    # Each line within one delay is a product of the amplitudes at its
    # position t and its label t1 (build_two_photon's table), with the
    # scheme's second-order error: doubling K cuts the worst miss of
    # every line by about 4 over the last delay of positions.
    def worst(K):
        wf = oracle.run_wavefunction(cav, K, 4 * cav.tau_fs)
        a, b, n = wf.amp_a, wf.amp_b, len(wf.amp_a) - 1
        m = models.build_two_photon(cav)
        it = engine.HierarchyIntegrator(m.equations, m.default_init,
                                        steps_per_delay=K, band_width=K)
        for _ in range(n):
            it.step()
        R = it.buffer.shape[0]
        t = np.arange(n - K + 1, n + 1)[:, None]  # positions still in the ring
        t1 = t - np.arange(K + 1)
        products = {"bB01_10": math.sqrt(2.0) * a[t] * b[t1],
                    "bA01_01": math.sqrt(2.0) * b[t] * a[t1],
                    "bA12_10": a[t] * a[t1],
                    "bB12_01": b[t] * b[t1]}
        lines = it.buffer[t[:, 0] % R, : K + 1]
        return np.array([np.abs(lines[..., v] - products[var]).max()
                         for v, var in enumerate(m.equations.band_vars)])

    coarse, fine = worst(20), worst(40)
    assert np.all(coarse / fine > 3.5), coarse / fine


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
