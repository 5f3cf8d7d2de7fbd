"""Quasinormal-mode analytics for lossy dielectric-slab resonators.

A homogeneous slab (relative permittivity ``eps_r``, thickness ``L``)
embedded in a uniform background ``eps_b`` leaks symmetrically into both
half-spaces.  Its resonances are exactly solvable, which makes the pair
geometry -- two identical slabs a distance ``R`` apart, exchanging light
with a flight time ``R/c`` -- a convenient fully-analytic testbed: every
coupling constant of the delay hierarchy reduces to closed form here.

Conventions
-----------
* ``z`` is the dimensionless complex resonance frequency ``omega~ L / c``;
  leaky modes have ``Im z < 0``.
* Energies are quoted in eV.  ``convention="cyclic"`` multiplies the
  angular result by ``2*pi`` (the form in which the benchmark resonance
  values are usually quoted); ``"angular"`` leaves it alone.  Only the
  ratio ``gamma/omega`` is convention independent.
"""

from __future__ import annotations

import cmath
import contextlib
import math
from dataclasses import dataclass

from ._args import count, real
from .constants import CONSTANTS

__all__ = [
    "SlabParams",
    "QnmFrequency",
    "CavityParams",
    "Overlaps",
    "qnm_frequency",
    "regularized_factor",
    "overlaps",
    "derive_cavity_params",
]

_CONVENTIONS = ("cyclic", "angular")


def _store_floats(params, names) -> None:
    """Judge the fields ``names`` of the frozen ``params`` in turn, refusing the first
    bad one by name, and keep each as a Python float: a NumPy scalar would carry its
    precision into every later product."""
    for name in names:
        object.__setattr__(params, name, real(name, getattr(params, name)))


@dataclass(frozen=True)
class SlabParams:
    """Geometry of the two-slab arrangement.

    Parameters
    ----------
    L_um:
        Slab thickness in micrometres.
    eps_r:
        Relative permittivity of the slab; must exceed the background for
        the structure to confine light at all.
    eps_b:
        Background permittivity (>= 1).
    R_um:
        Centre-to-centre separation of the two slabs.  ``R_um / c`` is the
        retardation that every cross coupling inherits.
    mode_index:
        Which longitudinal resonance to use (1 = fundamental).
    """

    L_um: float
    eps_r: float
    eps_b: float = 1.0
    R_um: float = 0.0
    mode_index: int = 1

    def __post_init__(self) -> None:
        _store_floats(self, ("L_um", "eps_r", "eps_b", "R_um"))
        if self.L_um <= 0:
            raise ValueError("L_um must be positive")
        if self.eps_b < 1.0:
            raise ValueError("eps_b must be >= 1")
        # compared as indices: an eps_r one rounding above eps_b can share its index
        if self.n_r <= self.n_b:
            raise ValueError("eps_r must exceed eps_b")
        if self.R_um < 0:
            raise ValueError("R_um must be >= 0")
        object.__setattr__(self, "mode_index", count("mode_index", self.mode_index))

    @property
    def n_r(self) -> float:
        """Refractive index of the slab material."""
        return math.sqrt(self.eps_r)

    @property
    def n_b(self) -> float:
        """Refractive index of the background."""
        return math.sqrt(self.eps_b)


@dataclass(frozen=True)
class QnmFrequency:
    """One leaky resonance: dimensionless ``z`` plus its eV readout."""

    z: complex
    omega_ev: float
    gamma_ev: float
    convention: str

    @property
    def ratio(self) -> float:
        """gamma / omega -- independent of the eV convention."""
        return self.gamma_ev / self.omega_ev


def qnm_frequency(slab: SlabParams, convention: str = "cyclic") -> QnmFrequency:
    """Complex resonance frequency of the slab.

    Round trips across the slab pick up a phase ``2 n_r z`` and two
    reflections off the index step; requiring self-reproduction with
    purely outgoing leakage gives

        z = (2 pi mode_index + i ln r^2) / (2 n_r),
        r = (n_r - n_b) / (n_r + n_b),

    with ``Im z < 0`` (the mode decays).  ``omega_ev``/``gamma_ev`` are the
    real/(-imaginary) parts scaled to eV under the requested convention.
    """
    if convention not in _CONVENTIONS:
        raise ValueError(f"convention must be one of {_CONVENTIONS}, got {convention!r}")
    n_r, n_b = slab.n_r, slab.n_b
    refl = ((n_r - n_b) / (n_r + n_b)) ** 2
    z = (2.0 * math.pi * slab.mode_index + 1j * math.log(refl)) / (2.0 * n_r)
    scale = CONSTANTS.hbar_ev_fs * CONSTANTS.c_um_fs / slab.L_um
    if convention == "cyclic":
        scale *= 2.0 * math.pi
    return QnmFrequency(
        z=z,
        omega_ev=z.real * scale,
        gamma_ev=-z.imag * scale,
        convention=convention,
    )


def _si(w: complex) -> complex:
    """sin(w)/w, complex-safe, with a series fallback near w = 0."""
    w = complex(w)
    if abs(w) < 1e-4:
        w2 = w * w
        return 1.0 - w2 / 6.0 + w2 * w2 / 120.0
    return cmath.sin(w) / w


def regularized_factor(slab: SlabParams, omega_rad_fs: complex) -> complex:
    """Outside-the-slab response amplitude ``M(omega)``.

    Driving the background with the slab's polarization profile at
    (possibly complex) angular frequency ``omega_rad_fs`` produces, outside
    the slab, an outgoing wave ``M(omega) exp(-i omega x / c)``.  M is the
    overlap of the background propagator with the resonance profile over
    the slab only,

        M(omega) = (i/2) L (eps_r - eps_b)
                   [ si(a+) + (-1)^mode_index si(a-) ],
        a+- = (omega +- n_r omega~) L / (2 c),   si(w) = sin(w)/w,

    which is finite even though the leaky profile itself diverges at
    infinity -- the divergence never enters the overlap.
    """
    c = CONSTANTS.c_um_fs
    L = slab.L_um
    om_tilde = qnm_frequency(slab).z * c / L
    a_plus = (omega_rad_fs + slab.n_r * om_tilde) * L / (2.0 * c)
    a_minus = (omega_rad_fs - slab.n_r * om_tilde) * L / (2.0 * c)
    parity = (-1.0) ** slab.mode_index
    return 0.5j * L * (slab.eps_r - slab.eps_b) * (_si(a_plus) + parity * _si(a_minus))


@dataclass(frozen=True)
class Overlaps:
    """Same-slab and cross-slab overlap normalisations.

    ``envelope_bound = exp(-gamma1 R / c)`` is the retardation damping
    factor; the cross overlap always satisfies ``|s_ab| / s_aa <
    envelope_bound`` (strictly, because the oscillatory factor has modulus
    below 1), approaching ``s_ab / s_aa = 1/2`` as ``R -> 0``.
    """

    s_aa: float
    s_ab: float
    envelope_bound: float

    @property
    def ratio(self) -> float:
        return self.s_ab / self.s_aa


def overlaps(slab: SlabParams) -> Overlaps:
    """Overlap normalisations for the slab pair at separation ``slab.R_um``.

    The same-slab value uses the regularized response at the resonance
    itself, ``s_aa = (2 c / gamma1) |M(omega~)|^2``; the cross value picks
    up the propagation phase and envelope over the separation,

        s_ab = s_aa * Re{ (omega~ / 2 omega1) e^{-i omega1 R / c} }
                    * e^{-gamma1 R / c}.

    All internal frequencies are angular (1/fs).  A non-finite result is refused.
    """
    c = CONSTANTS.c_um_fs
    with contextlib.suppress(ArithmeticError, ValueError):    # how extreme geometries fail
        om_t = qnm_frequency(slab).z * c / slab.L_um  # complex angular eigenfrequency, 1/fs
        omega1, gamma1 = om_t.real, -om_t.imag
        m1 = regularized_factor(slab, om_t)
        s_aa = (2.0 * c / gamma1) * abs(m1) ** 2
        damp = math.exp(-gamma1 * slab.R_um / c)
        osc = ((om_t / (2.0 * omega1)) * cmath.exp(-1j * omega1 * slab.R_um / c)).real
        ov = Overlaps(s_aa=s_aa, s_ab=s_aa * osc * damp, envelope_bound=damp)
        if all(map(math.isfinite, (s_aa, ov.s_ab, damp, ov.ratio))):
            return ov
    raise ValueError("overlaps must be finite for this geometry")


@dataclass(frozen=True)
class CavityParams:
    """Rotating-frame rates of the two coupled modes plus the photon delay.

    All energies in eV, ``tau_fs`` in fs.  ``v_ab_ev`` is the cross-site
    coupling carried by the retarded photon, ``gamma1 / 2`` for the
    identical-slab pair.
    """

    omega_a_ev: float
    gamma_a_ev: float
    omega_b_ev: float
    gamma_b_ev: float
    v_ab_ev: float
    tau_fs: float

    def __post_init__(self) -> None:
        _store_floats(self, tuple(vars(self)))
        if self.gamma_a_ev < 0 or self.gamma_b_ev < 0:
            raise ValueError("decay rates must be nonnegative")
        if self.tau_fs < 0:
            raise ValueError("tau_fs must be >= 0")

    @classmethod
    def from_rates(cls, omega_ev: float, gamma_ev: float, tau_fs: float) -> "CavityParams":
        """Identical-slab shortcut: cross coupling ``gamma/2``."""
        return cls(
            omega_a_ev=omega_ev,
            gamma_a_ev=gamma_ev,
            omega_b_ev=omega_ev,
            gamma_b_ev=gamma_ev,
            v_ab_ev=gamma_ev / 2.0,
            tau_fs=tau_fs,
        )


def derive_cavity_params(slab: SlabParams, convention: str = "cyclic") -> CavityParams:
    """Reduce the slab-pair geometry to the coupled-mode rates.

    Identical slabs share ``omega``/``gamma`` from :func:`qnm_frequency`;
    the cross-site coupling is ``gamma1/2``, and the delay is the
    centre-to-centre flight time ``R / c``.
    """
    q = qnm_frequency(slab, convention)
    return CavityParams.from_rates(q.omega_ev, q.gamma_ev, slab.R_um / CONSTANTS.c_um_fs)
