"""The hierarchy against an exact, grid-free solution of the amplitude equations.

``run_wavefunction`` integrates the delay equations

    a' = -l_a a + c_a b(t - tau),    b' = -l_b b + c_b a(t - tau)

(l = gamma / hbar, c_a = -2 v e^{i omega_b tau / hbar}, c_b likewise, the
feedback off before t = tau) with Heun on the hierarchy's grid, so it
carries an O(h^2) error of its own.  Their Laplace transform, expanded in
e^{-s tau}, is a finite sum over photon returns at each time, and each
term inverts through

    1 / ((s + x)^p (s + y)^q)  <->  t^{p+q-1} / (p+q-1)! e^{-x t} 1F1(q; p+q; (x - y) t).

That sum, evaluated with mpmath at a fixed working precision, is the
reference here: no grid, no shared code with either solver.
"""

from __future__ import annotations

import cmath

import mpmath as mp
import numpy as np
import pytest

from delayheom import engine, models, oracle
from delayheom.constants import CONSTANTS
from tests.conftest import make_scaled, make_unequal

#: digits of the working precision; the guard test checks they are enough
_DPS = 30


def _term(x, y, p, q, u):
    """The inverse transform of 1 / ((s + x)^p (s + y)^q) at u >= 0."""
    n = p + q - 1
    return u**n / mp.factorial(n) * mp.exp(-x * u) * mp.hyp1f1(q, p + q, (x - y) * u)


def _exact_amplitudes(cavity, init, times_fs, dps=_DPS):
    """``(a(t), b(t))`` of the amplitude delay equations from ``init``."""
    hbar = CONSTANTS.hbar_ev_fs
    with mp.workdps(dps):
        la, lb = mp.mpf(cavity.gamma_a_ev) / hbar, mp.mpf(cavity.gamma_b_ev) / hbar
        tau, v = mp.mpf(cavity.tau_fs), mp.mpf(cavity.v_ab_ev) / hbar
        ca = -2 * v * mp.expjpi(cavity.omega_b_ev * tau / hbar / mp.pi)
        cb = -2 * v * mp.expjpi(cavity.omega_a_ev * tau / hbar / mp.pi)
        a0, b0 = (mp.mpc(z) for z in init)
        a, b = [], []
        for t in times_fs:
            sa = sb = mp.mpc(0)
            m = 0
            # A = (a0 Q + c_a E b0) / (P Q - c_a c_b E^2), P = s + l_a, Q = s + l_b
            while t - 2 * m * tau >= 0:
                u, c = mp.mpf(t) - 2 * m * tau, (ca * cb) ** m
                sa += a0 * c * _term(la, lb, m + 1, m, u)
                sb += b0 * c * _term(lb, la, m + 1, m, u)
                u -= tau
                if u >= 0:
                    sa += b0 * ca * c * _term(la, lb, m + 1, m + 1, u)
                    sb += a0 * cb * c * _term(lb, la, m + 1, m + 1, u)
                m += 1
            a.append(complex(sa))
            b.append(complex(sb))
    return np.array(a), np.array(b)


#: the unequal cavity is passive, 2|v| / sqrt(gamma_a gamma_b) = 0.8
CAVITIES = {
    "equal, gt 1": make_scaled(1.0, 0.0),
    "equal, gt 2, wt 3.7": make_scaled(2.0, 3.7),
    "unequal": make_unequal(0.4, 1.7, 3.7, -1.2, 0.33),
}

#: 41 shared grid times, every tau / 10 to 4 tau
_T_END_DELAYS, _POINTS = 4, 41


def test_reference_digits_agree_between_two_precisions():
    cav = CAVITIES["unequal"]
    times = np.linspace(0.0, _T_END_DELAYS * cav.tau_fs, _POINTS)
    for init in ((1.0, 0.0), (0.0, 1.0)):
        lo = np.concatenate(_exact_amplitudes(cav, init, times))
        hi = np.concatenate(_exact_amplitudes(cav, init, times, dps=2 * _DPS))
        assert np.abs(lo - hi).max() <= 1e-15 * np.abs(hi).max()


def test_reference_solves_the_delay_equations():
    # the residual of a(t) at a late time, by a central difference: the
    # history term uses b one delay back, so a wrong return sum shows here
    cav = CAVITIES["unequal"]
    hbar, tau, dt = CONSTANTS.hbar_ev_fs, cav.tau_fs, 1e-3
    t = 3.3 * tau
    (a_m, a_0, a_p), _ = _exact_amplitudes(cav, (1.0, 0.0), [t - dt, t, t + dt], dps=40)
    _, (b_d,) = _exact_amplitudes(cav, (1.0, 0.0), [t - tau], dps=40)
    ca = -2 * cav.v_ab_ev / hbar * cmath.exp(1j * cav.omega_b_ev * tau / hbar)
    rhs = -cav.gamma_a_ev / hbar * a_0 + ca * b_d
    assert abs((a_p - a_m) / (2 * dt) - rhs) <= 1e-8 * abs(rhs)


@pytest.mark.parametrize("kind", ["single_excitation", "two_photon"])
def test_hierarchy_converges_to_the_reference_at_second_order(kind):
    # the error halves twice per halving of h: ratio 4 from K = 100 to 200
    build = getattr(models, f"build_{kind}")
    for name, cav in CAVITIES.items():
        times = np.linspace(0.0, _T_END_DELAYS * cav.tau_fs, _POINTS)
        exact = models.pure_state_crosscheck(*_exact_amplitudes(cav, (1.0, 0.0), times), kind)
        m = build(cav)
        errors = []
        for K in (100, 200):
            r = engine.run(m.equations, m.default_init, steps_per_delay=K,
                           t_end_fs=_T_END_DELAYS * cav.tau_fs)
            shared = slice(None, None, K // 10)
            assert np.allclose(r.times[shared], times, rtol=0, atol=1e-9)
            errors.append(max(float(np.abs(r.series[k][shared] - exact[k]).max())
                              for k in m.equations.system_vars))
        assert 3.5 <= errors[0] / errors[1] <= 4.5, (name, errors)


def test_wavefunction_oracle_converges_to_the_reference_at_second_order():
    # the oracle runs Heun on the hierarchy's grid: an O(h^2) error of its own
    for name, cav in CAVITIES.items():
        times = np.linspace(0.0, _T_END_DELAYS * cav.tau_fs, _POINTS)
        exact = _exact_amplitudes(cav, (1.0, 0.0), times)
        errors = []
        for K in (100, 200):
            w = oracle.run_wavefunction(cav, K, _T_END_DELAYS * cav.tau_fs)
            shared = slice(None, None, K // 10)
            assert np.allclose(w.times[shared], times, rtol=0, atol=1e-9)
            errors.append(max(float(np.abs(amp[shared] - x).max())
                              for amp, x in zip((w.amp_a, w.amp_b), exact)))
        assert 3.5 <= errors[0] / errors[1] <= 4.5, (name, errors)


@pytest.mark.parametrize("gamma_tau", [0.5, 1.0])
def test_reference_reaches_the_trapped_population(gamma_tau):
    # at v = gamma/2 and omega tau = 0 part of the photon is trapped, with
    # pA = pB -> 1 / (4 (1 + gamma tau / hbar)^2): the closed form and the
    # series check each other, with no grid in either
    cav = make_scaled(gamma_tau, 0.0)
    (a,), (b,) = _exact_amplitudes(cav, (1.0, 0.0), [40 * cav.tau_fs])
    want = 1.0 / (4.0 * (1.0 + gamma_tau) ** 2)
    for pop in (abs(a) ** 2, abs(b) ** 2):
        assert abs(pop - want) <= 1e-10 * want
