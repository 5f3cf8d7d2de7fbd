"""Slab eigenvalue, mode, and overlap layer.

Numeric anchors: the closed-form eigenvalue is checked against frozen
digits, and the regularized spectral factor is checked against a
high-precision quadrature of its defining integral computed inside the
test (mpmath, 50 digits), so no expected value here is copied from the
implementation under test.
"""

from __future__ import annotations

import cmath
import math
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import delayheom
from delayheom.constants import CONSTANTS
from delayheom.qnm import (
    CavityParams,
    SlabParams,
    derive_cavity_params,
    overlaps,
    qnm_frequency,
    regularized_factor,
)
from delayheom.qnm import _si  # noqa: F401  (series/closed-form seam is contractual)

# ---------------------------------------------------------------------------
# frozen references (independent derivations; see the quadrature below)
# ---------------------------------------------------------------------------

SLAB_21UM = SlabParams(L_um=21.0, eps_r=math.pi**2, eps_b=1.0, R_um=13190.868152)
GENERAL_SLAB = SlabParams(L_um=13.0, eps_r=6.5, eps_b=1.5, R_um=40.0, mode_index=2)

Z_FROZEN = 1.0 - 0.20993511974245757j
OMEGA_EV_CYCLIC = 0.05904009448743392
GAMMA_EV_CYCLIC = 0.01239458930582545
OMEGA_EV_ANGULAR = 0.00939652287828767
GAMMA_EV_ANGULAR = 0.001972660155616064
M_FACTOR_FROZEN = -11.277979163178259 - 37.37410355928149j
S_AA_FROZEN = 304897.4853509656
SLAB21_RATIO_FROZEN = 2.7459111783042457e-58
SLAB21_ENVELOPE_FROZEN = 5.3763383407634914e-58


def quad_spectral_factor(slab: SlabParams, omega_rad_fs: complex) -> complex:
    """The defining integral of the regularized factor, straight quadrature.

    (i/2) (eps_r - eps_b) * integral over the slab of e^{i w x / c} times
    the mode profile, split at x = 0, evaluated at 50 digits.
    """
    z = qnm_frequency(slab).z
    n_r = slab.n_r
    L = slab.L_um
    c = CONSTANTS.c_um_fs
    w = mp.mpc(omega_rad_fs)
    phase = mp.mpc(0.0, math.pi * slab.mode_index)

    def profile(x):
        arg = mp.mpc(z) * n_r * x / L
        return mp.e ** (1j * arg) + mp.e ** (-1j * arg + phase)

    def integrand(x):
        return mp.e ** (1j * w * x / c) * profile(x)

    old = mp.mp.dps
    mp.mp.dps = 50
    try:
        val = mp.quad(integrand, [-L / 2, 0, L / 2])
        out = 0.5j * (slab.eps_r - slab.eps_b) * val
    finally:
        mp.mp.dps = old
    return complex(out)


# ---------------------------------------------------------------------------
# eigenvalue
# ---------------------------------------------------------------------------


def test_eigenvalue_frozen_digits() -> None:
    q = qnm_frequency(SLAB_21UM)
    assert q.z == pytest.approx(Z_FROZEN, abs=1e-13)
    assert q.omega_ev == pytest.approx(OMEGA_EV_CYCLIC, rel=1e-13)
    assert q.gamma_ev == pytest.approx(GAMMA_EV_CYCLIC, rel=1e-13)
    assert q.convention == "cyclic"
    assert q.ratio == pytest.approx(-Z_FROZEN.imag / Z_FROZEN.real, rel=1e-13)


def test_eigenvalue_angular_convention() -> None:
    q = qnm_frequency(SLAB_21UM, convention="angular")
    assert q.omega_ev == pytest.approx(OMEGA_EV_ANGULAR, rel=1e-13)
    assert q.gamma_ev == pytest.approx(GAMMA_EV_ANGULAR, rel=1e-13)
    # the convention rescales both parts together, never their ratio
    assert q.ratio == pytest.approx(qnm_frequency(SLAB_21UM).ratio, rel=1e-15)


def test_linewidth_ratio_consistent_with_derived_rates() -> None:
    q = qnm_frequency(SLAB_21UM)
    assert abs(q.ratio - 0.0124 / 0.06) / (0.0124 / 0.06) < 0.02


def test_unknown_convention_rejected() -> None:
    with pytest.raises(ValueError):
        qnm_frequency(SLAB_21UM, convention="wavenumber")


@pytest.mark.parametrize(
    "kwargs",
    [
        {"L_um": 0.0, "eps_r": 4.0},
        {"L_um": -3.0, "eps_r": 4.0},
        {"L_um": 10.0, "eps_r": 0.9},                    # below background
        {"L_um": 10.0, "eps_r": 2.0, "eps_b": 2.5},      # below background
        {"L_um": 10.0, "eps_r": 4.0, "eps_b": 0.5},      # background < vacuum
        {"L_um": 10.0, "eps_r": 4.0, "R_um": -1.0},
        {"L_um": 10.0, "eps_r": 4.0, "mode_index": 0},
        {"L_um": 10.0, "eps_r": 4.0, "mode_index": -2},
    ],
)
def test_slab_validation(kwargs) -> None:
    with pytest.raises(ValueError):
        SlabParams(**kwargs)


def test_an_eps_r_with_the_background_index_is_refused() -> None:
    # eps_r exceeds eps_b by one rounding, but both have the index 1: the slab
    # would reflect nothing, and its linewidth would be log(0)
    with pytest.raises(ValueError, match="^eps_r must exceed eps_b$"):
        SlabParams(L_um=21.0, eps_r=math.nextafter(1.0, 2.0), R_um=1.0)


# ---------------------------------------------------------------------------
# mode profile
# ---------------------------------------------------------------------------


def _mode_function(slab: SlabParams, x_um: float) -> complex:
    """Resonance field profile inside the slab (unnormalised) at ``x_um``,
    measured from the slab centre, so the slab occupies ``[-L/2, +L/2]``.

    ``f(x) = exp(+i n_r z x/L) + exp(-i n_r z x/L + i pi mode_index)``,
    i.e. a standing wave that is odd about the centre for odd mode_index
    (``f(0) = 0``) and even for even mode_index (``f(0) = 2``).
    """
    arg = 1j * slab.n_r * qnm_frequency(slab).z * x_um / slab.L_um
    return complex(np.exp(arg) + np.exp(-arg) * cmath.exp(1j * math.pi * slab.mode_index))


@settings(max_examples=40, deadline=None)
@given(
    L=st.floats(5.0, 40.0),
    eps_r=st.floats(2.0, 12.0),
    eps_b=st.floats(1.0, 1.8),
    mu=st.integers(1, 4),
    frac=st.floats(0.0, 0.5),
)
def test_mode_parity(L, eps_r, eps_b, mu, frac) -> None:
    # even modes even, odd modes odd: f(-x) = (-1)^mu f(x)
    slab = SlabParams(L_um=L, eps_r=eps_r, eps_b=eps_b, mode_index=mu)
    x = frac * L
    left = _mode_function(slab, -x)
    right = (-1) ** mu * _mode_function(slab, x)
    assert left == pytest.approx(right, rel=1e-9, abs=1e-9)


@pytest.mark.parametrize(
    "slab",
    [
        SLAB_21UM,
        SlabParams(L_um=13.0, eps_r=6.5, eps_b=1.0, mode_index=2),
        SlabParams(L_um=7.3, eps_r=11.2, eps_b=1.0, mode_index=3),
    ],
)
def test_mode_edge_matches_spectral_factor(slab) -> None:
    # continuity seam between the interior profile and the outward
    # continuation (vacuum background):
    #   f(L/2) = (-1)^mu (z/L) M(w~) e^{+i z/2}
    q = qnm_frequency(slab)
    w_tilde = q.z * CONSTANTS.c_um_fs / slab.L_um
    m = regularized_factor(slab, w_tilde)
    edge = _mode_function(slab, slab.L_um / 2)
    predicted = (-1) ** slab.mode_index * (q.z / slab.L_um) * m * np.exp(1j * q.z / 2)
    assert edge == pytest.approx(predicted, rel=1e-12)


# ---------------------------------------------------------------------------
# spectral factor
# ---------------------------------------------------------------------------


def test_spectral_factor_frozen_value() -> None:
    q = qnm_frequency(SLAB_21UM)
    w_tilde = q.z * CONSTANTS.c_um_fs / SLAB_21UM.L_um
    m = regularized_factor(SLAB_21UM, w_tilde)
    assert m == pytest.approx(M_FACTOR_FROZEN, rel=1e-12)


@pytest.mark.parametrize(
    "slab,omega_scale",
    [
        (SLAB_21UM, 1.0),        # at the complex eigenfrequency
        (SLAB_21UM, 0.85),       # off resonance, real axis
        (SLAB_21UM, 1.3),
        (GENERAL_SLAB, 1.0),
        (GENERAL_SLAB, 1.1),
    ],
)
def test_spectral_factor_vs_quadrature(slab, omega_scale) -> None:
    q = qnm_frequency(slab)
    w_tilde = q.z * CONSTANTS.c_um_fs / slab.L_um
    w = w_tilde if omega_scale == 1.0 else omega_scale * w_tilde.real
    got = regularized_factor(slab, w)
    want = quad_spectral_factor(slab, w)
    assert got == pytest.approx(want, rel=5e-13)


def test_si_series_seam_continuous() -> None:
    # closed form above the switch, series below; both sides must agree
    for w in (9.9e-5, 1.01e-4, 9.9e-5 + 3e-5j, 1.2e-4 - 4e-5j):
        mp.mp.dps = 40
        ww = mp.mpc(w)
        want = complex(mp.sin(ww) / ww) if ww != 0 else 1.0
        assert _si(w) == pytest.approx(want, rel=1e-13)
    assert _si(0.0) == pytest.approx(1.0, abs=0.0)


# ---------------------------------------------------------------------------
# propagation factor and overlaps
# ---------------------------------------------------------------------------


def test_overlaps_frozen_values() -> None:
    o = overlaps(SLAB_21UM)
    assert o.s_aa == pytest.approx(S_AA_FROZEN, rel=1e-10)
    assert o.ratio == pytest.approx(SLAB21_RATIO_FROZEN, rel=1e-6, abs=0)
    assert o.envelope_bound == pytest.approx(SLAB21_ENVELOPE_FROZEN, rel=1e-10, abs=0)
    assert abs(o.ratio) < o.envelope_bound


def test_overlap_ratio_at_zero_separation_is_half() -> None:
    slab = SlabParams(L_um=21.0, eps_r=math.pi**2, eps_b=1.0, R_um=0.0)
    o = overlaps(slab)
    assert abs(o.ratio - 0.5) <= 1e-15
    assert o.envelope_bound == pytest.approx(1.0, abs=1e-15)


@settings(max_examples=40, deadline=None)
@given(r_over_l=st.floats(0.0, 500.0))
def test_overlap_ratio_under_envelope(r_over_l) -> None:
    slab = SlabParams(
        L_um=21.0, eps_r=math.pi**2, eps_b=1.0, R_um=r_over_l * 21.0
    )
    o = overlaps(slab)
    assert abs(o.ratio) < o.envelope_bound


# ---------------------------------------------------------------------------
# endpoint parameters
# ---------------------------------------------------------------------------


def test_from_rates_halves_exactly() -> None:
    cav = CavityParams.from_rates(0.06, 0.0124, 44000.0)
    assert cav.v_ab_ev == 0.0062            # exact float, not approx
    assert cav.omega_a_ev == cav.omega_b_ev == 0.06


def test_derive_cavity_params_from_slab() -> None:
    cav = derive_cavity_params(SLAB_21UM)
    assert cav.tau_fs == 44000.0            # R chosen as c * 44000 fs exactly
    assert cav.omega_a_ev == pytest.approx(OMEGA_EV_CYCLIC, rel=1e-13)
    assert cav.gamma_a_ev == pytest.approx(GAMMA_EV_CYCLIC, rel=1e-13)
    assert cav.v_ab_ev == pytest.approx(GAMMA_EV_CYCLIC / 2, rel=1e-15)


def test_cavity_validation() -> None:
    with pytest.raises(ValueError):
        CavityParams(omega_a_ev=0.1, gamma_a_ev=-0.01, omega_b_ev=0.1,
                     gamma_b_ev=0.01, v_ab_ev=0.0, tau_fs=1.0)
    with pytest.raises(ValueError):
        CavityParams(omega_a_ev=0.1, gamma_a_ev=0.01, omega_b_ev=0.1,
                     gamma_b_ev=0.01, v_ab_ev=0.0, tau_fs=-5.0)
    # zero loss is the closed-cavity limit and must stay representable
    CavityParams.from_rates(0.0, 0.0, 100.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_params_refuse_non_finite_fields_by_name(bad) -> None:
    # NaN passes every range comparison, so it is refused on its own
    slab = dict(L_um=10.0, eps_r=4.0, eps_b=1.0, R_um=1.0)
    for name in slab:
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            SlabParams(**{**slab, name: bad})
    cav = dict(omega_a_ev=0.1, gamma_a_ev=0.01, omega_b_ev=0.1,
               gamma_b_ev=0.01, v_ab_ev=0.005, tau_fs=1.0)
    for name in cav:
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            CavityParams(**{**cav, name: bad})


def test_physical_constants_defined_once() -> None:
    src = Path(delayheom.__file__).parent
    offenders = {
        literal: sorted(
            p.name for p in src.rglob("*.py") if literal in p.read_text()
        )
        for literal in ("0.6582119569", "0.299792458")
    }
    assert offenders == {
        "0.6582119569": ["constants.py"],
        "0.299792458": ["constants.py"],
    }
