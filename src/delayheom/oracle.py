"""Independent cross-checks for the hierarchy integrator.

Two completely separate routes to the same physics:

* ``run_wavefunction`` -- the two excited-state amplitudes obey a pair of
  delay equations with no auxiliary structure at all; method-of-steps Heun
  on the same grid.  Populations/coherences follow by taking products.
* ``run_discretized_bath`` -- no delay equations anywhere: the field
  between the slabs is discretized into 2M running modes (M per
  direction) and the full closed system is propagated unitarily.  The
  delay emerges from the mode sum, so agreement here tests the whole
  delayed-feedback structure, phases included, against plain quantum
  mechanics.

Both integrate in the frame rotating at the first mode's frequency, like
the hierarchy, so amplitudes are directly comparable.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from ._args import count, finite, grid_steps, initial_value
from .constants import CONSTANTS

__all__ = [
    "WavefunctionResult",
    "BathResult",
    "run_wavefunction",
    "run_discretized_bath",
]


@dataclass
class WavefunctionResult:
    times: np.ndarray
    amp_a: np.ndarray
    amp_b: np.ndarray
    h_fs: float


@dataclass
class BathResult(WavefunctionResult):
    n_modes: int
    norm_drift: float        # max |  ||psi||^2 - 1 |  over the run; NaN if a norm is NaN
    recurrence_fs: float     # 2 pi / (mode spacing): finite-bath echo time


_BLOCK = 32    # steps per block of the bath oracle (see run_discretized_bath)


def _grid(cavity, steps_per_delay, t_end_fs, init):
    """``(K, h, n_steps)`` of the grid locked to the delay, ``h = tau / K``,
    then ``init`` as complex values."""
    K = count("steps_per_delay", steps_per_delay)
    if not (finite(cavity.tau_fs) and cavity.tau_fs > 0):
        raise ValueError(f"need a positive delay to lock the grid to, got {cavity.tau_fs!r}")
    return (K, cavity.tau_fs / K, grid_steps(t_end_fs, K, cavity.tau_fs),
            [initial_value(f"init[{i}]", v) for i, v in enumerate(init)])


def run_wavefunction(cavity, steps_per_delay, t_end_fs, init=(1.0 + 0j, 0.0j)):
    """Delay equations for the two excited-state amplitudes.

    d/dt a = -gamma_a a - 2 v e^{+i phi_b} b(t - tau)   (once t >= tau)
    d/dt b = -gamma_b b - 2 v e^{+i phi_a} a(t - tau)   (phi = omega tau / hbar)

    Heun with the history kept on the same tau-locked grid as the
    hierarchy; the feedback term switches on only for steps that start at
    or after the delay, matching the hierarchy's gating, so the two
    solvers share a continuum limit but no code or state layout.
    """
    hbar = CONSTANTS.hbar_ev_fs
    K, h, n_steps, init = _grid(cavity, steps_per_delay, t_end_fs, init)
    ga = cavity.gamma_a_ev / hbar
    gb = cavity.gamma_b_ev / hbar
    v = cavity.v_ab_ev / hbar
    ca = complex(-2.0 * v * np.exp(1j * cavity.omega_b_ev * cavity.tau_fs / hbar))
    cb = complex(-2.0 * v * np.exp(1j * cavity.omega_a_ev * cavity.tau_fs / hbar))

    # Python lists of complex: indexing an array would make a NumPy scalar per read
    na, nb = [init[0]], [init[1]]
    for n in range(n_steps):
        gate = n >= K
        fa_l = -ga * na[n] + (ca * nb[n - K] if gate else 0.0)
        fb_l = -gb * nb[n] + (cb * na[n - K] if gate else 0.0)
        pa = na[n] + h * fa_l
        pb = nb[n] + h * fb_l
        # delayed reads at the right end are still historical (K >= 1)
        fa_r = -ga * pa + (ca * nb[n + 1 - K] if gate else 0.0)
        fb_r = -gb * pb + (cb * na[n + 1 - K] if gate else 0.0)
        na.append(na[n] + 0.5 * h * (fa_l + fa_r))
        nb.append(nb[n] + 0.5 * h * (fb_l + fb_r))
    times = np.arange(n_steps + 1) * h
    return WavefunctionResult(times=times, amp_a=np.array(na), amp_b=np.array(nb), h_fs=h)


def run_discretized_bath(
    cavity,
    n_modes,
    steps_per_delay,
    t_end_fs,
    init=(1.0 + 0j, 0.0j),
    half_bandwidth_fs=None,
):
    """Brute-force propagation with an explicitly discretized field.

    The connecting field is sampled by ``n_modes`` frequencies per running
    direction on a midpoint grid of half-width ``half_bandwidth_fs``
    (rad/fs; default 40x the larger *population* decay rate, i.e. 80x the
    amplitude rate) around the first mode's frequency.  Couplings carry
    the propagation phase of each direction (slab A at x=0, slab B at
    x=c*tau) times a fixed spectral envelope ``1 + 4 (delta/Delta)^6``.
    The envelope leaves the on-resonance weight -- and hence every decay
    and transfer rate -- untouched, but front-loads the band edges so the
    induced decay switches on faster: a plain sharp-edged comb turns on
    quadratically over ~1/Delta, and that turn-on lag is the dominant
    deviation from the ideal delta-correlated field at any fixed
    bandwidth.  (The envelope tends to 1 pointwise as the bandwidth
    grows, so the continuum limit is unchanged.)

    Each mode's free rotation is absorbed exactly, which leaves the
    interaction-picture Hamiltonian H = [[dc, V], [V^H, 0]] over the two
    cavity amplitudes psi and the 2M field amplitudes f, with dc the
    cavities' detuning and V = G diag(e) the coupling matrix G (left-running
    columns conj(right-running)) times e = exp(-i detun t) at the step
    midpoint.  Its Cayley/Crank-Nicolson step, with the field eliminated
    (V V^H = G G^H, a = h/2, L = 1 + i a dc + a^2 G G^H), is

        psi' = keep psi + feed (V f),    f' = f - i a V^H (psi + psi'),

    keep = L^-1 (1 - i a dc - a^2 G G^H), feed = -2 i a L^-1.  It is taken
    ``_BLOCK`` = B steps at a time, with the field held in the frame of the
    block start n0, c = f exp(-i detun (n0 + 1/2) h).  With lag[j] =
    exp(-i detun j h), step j's V f is P_j - i a sum_{l<j} C_{j-l} (psi_l +
    psi_{l+1}), where P_j = G (lag[j] c) and C_l = G diag(lag[l]) G^H is
    the mode sum (no delay equation).  One lower-triangular map, built
    once, gives the block's amplitudes from psi_0 and the P_j; then the
    field is updated once, by the same sum, and rotated by lag[B].

    The comb is symmetric about omega1 (detun[M-1-m] = -detun[m]), so the
    mirror M-1-m of mode m has the conjugate phases, and the lag table
    holds only the first H = ceil(M/2) modes: B H 16 bytes, 1 MB at M =
    4096.  Only lag[1] and lag[B] come from ``exp``, the rows between from
    products.  Every per-mode array is folded the same way, [half, ...,
    m < H]: half 0 holds mode m, half 1 its mirror.  For odd M the middle
    mode m = H-1 is its own mirror, so its half-1 entry is 0.

    The field is stored so that both mode sums are real products over the
    float view of lag (B x 2H, Re and Im interleaved) and no operand is
    conjugated or converted per block: half 0 holds c_bar = conj(c), half
    1 the mirrors' c itself, with their columns of G conjugated.  With G_R,
    G_L the columns of each direction, P_j sums lag[j] u over the modes, u
    = G_R c_R + G_L c_L; as conj(G_R) = G_L, u_bar = G_L c_bar_R + G_R
    c_bar_L needs no conjugated copy of G, and the same expression gives
    half 1 its u = conj(u_bar).  A row of the float view of u_bar_lo +
    conj(u_bar_mirror) dotted with lag[j]'s is Re P_j, and one of i (u_bar_lo
    - conj(u_bar_mirror)) is Im P_j, so one product of their (4 x 2H) view
    gives both, for both cavities.  The update's weights w = conj(-i a s)
    go into a real (4 x b) matrix of Re w and Im w, whose product with
    lag's float view gives the complex rows A_i = sum_j Re(w_ji) lag[j] and
    A'_i = sum_j Im(w_ji) lag[j] of each cavity i over the H modes; the
    mirrors' rows are their conjugates.  So c_bar_d += sum_i G_d[i] (A_i +
    i A'_i) in half 0, c_d += sum_i conj(G_d[i]) (A_i - i A'_i) in half 1,
    and both halves turn by the same conj(lag[B]).  C_l takes the half
    table and its conjugate, lag[l] X_0 + conj(lag[l] X_1), X_h = sum over
    directions of G conj(G) in half h.  ``norm_drift`` is the worst
    | ||psi||^2 + ||f||^2 - 1 | over all states: ||f||^2 is the stored
    field's squared norm, measured at each block start and advanced by
    each step's exact increment 2a Im((V f)^H s) + a^2 s^H G G^H s, s =
    psi + psi'.

    The mode comb makes the dynamics periodic: after ``recurrence_fs =
    2 pi / spacing`` the emitted field returns.  Keep ``t_end_fs`` well
    below that (with the default bandwidth this needs roughly
    ``n_modes >= 26 gamma t_end``).
    """
    hbar = CONSTANTS.hbar_ev_fs
    # the lag table, _BLOCK x ceil(M/2) complex values, is the largest per-mode array
    M = count("n_modes", n_modes, least=2, most=2 * (sys.maxsize // (16 * _BLOCK)))
    K, h, n_steps, init = _grid(cavity, steps_per_delay, t_end_fs, init)
    ga = cavity.gamma_a_ev / hbar
    gb = cavity.gamma_b_ev / hbar
    if half_bandwidth_fs is None:
        half_bandwidth_fs = 80.0 * max(ga, gb)
    if not (finite(half_bandwidth_fs) and half_bandwidth_fs > 0):
        raise ValueError(f"half_bandwidth_fs must be positive and finite, got {half_bandwidth_fs!r}")
    delta = float(half_bandwidth_fs)

    omega1 = cavity.omega_a_ev / hbar          # rotating-frame reference
    det_b = (cavity.omega_b_ev - cavity.omega_a_ev) / hbar
    tau = cavity.tau_fs

    dw = 2.0 * delta / M
    detun = -delta + (np.arange(M) + 0.5) * dw    # midpoint comb around omega1
    omega_k = omega1 + detun
    g_row = np.array([math.sqrt(ga * dw / (2.0 * math.pi)),
                      math.sqrt(gb * dw / (2.0 * math.pi))])
    # right-running phases at the two slab positions (x_a = 0, x_b = c tau),
    # times the edge-emphasis envelope (folded in as its square root)
    env = np.sqrt(1.0 + 4.0 * (np.abs(detun) / delta) ** 6)
    right = env * np.vstack([np.ones(M), np.exp(-1j * omega_k * tau)])
    G = g_row[:, None] * np.hstack([right, right.conj()])
    GG = G @ G.conj().T
    dc = np.diag([0.0, det_b]).astype(complex)
    alpha = 0.5 * h
    lhs_inv = np.linalg.inv(np.eye(2) + 1j * alpha * dc + alpha**2 * GG)
    keep = lhs_inv @ (np.eye(2) - 1j * alpha * dc - alpha**2 * GG)
    feed = -2j * alpha * lhs_inv

    B = min(_BLOCK, n_steps)
    H = M - M // 2    # mode M - 1 - m has the conjugate phases of mode m < H
    lag = np.ones((B, H), dtype=complex)
    lag[1:] = np.exp(-1j * detun[:H] * h)
    for j in range(2, B):
        lag[j] *= lag[j - 1]
    lag_block = np.exp(1j * detun[:H] * (B * h))    # conj(lag[B]): both halves turn by it
    G3 = G.reshape(2, 2, M)                  # [cavity, direction, mode]
    Gf = np.zeros((2, 2, 2, H), dtype=complex)    # [half, cavity, direction, mode]
    Gf[0] = G3[..., :H]
    Gf[1, ..., :M // 2] = G3[..., ::-1][..., :M // 2].conj()    # odd M's middle has no mirror
    X = np.einsum("hidm,hkdm->hikm", Gf, Gf.conj()).reshape(2, 4, H)
    kernel = (lag @ X[0].T + (lag @ X[1].T).conj()).reshape(B, 2, 2)
    # psi_{j+1} (maps[j + 1, 0]) and V f of step j (maps[j, 1]) from (psi_0, P_0, ..., P_{B-1})
    maps = np.zeros((B + 1, 2, 2, 2 + 2 * B), dtype=complex)
    maps[0, 0, :, :2] = np.eye(2)
    for j in range(B):
        maps[j, 1, :, 2 + 2 * j:4 + 2 * j] = np.eye(2)
        s = maps[:j, 0] + maps[1:j + 1, 0]
        maps[j, 1] -= 1j * alpha * np.einsum("lik,lkx->ix", kernel[j:0:-1], s)
        maps[j + 1, 0] = keep @ maps[j, 0] + feed @ maps[j, 1]
    block_map = np.stack([maps[1:, 0], maps[:-1, 1]], axis=1).reshape(4 * B, 2 + 2 * B)
    del X, kernel, maps, G, G3, right, env, keep, feed, lhs_inv    # set-up only: not the loop's peak

    c_bar = np.zeros((2, 2, H), dtype=complex)    # [half, direction, mode]: conj(c), mirrors' c
    u = np.empty((2, 2, H), dtype=complex)        # [half, cavity, mode]: u_bar; mirrors' u
    fold = np.empty((2, 2, H), dtype=complex)     # [cavity, (sum, i difference), mode]
    fold_flat = fold.view(np.float64).reshape(4, 2 * H)
    Q_bar = np.empty((2, 2, H), dtype=complex)    # [half, cavity, mode]: A + i A', A - i A'
    lf = lag.view(np.float64)
    amps = np.empty((2, n_steps + 1), dtype=complex)
    amps[:, 0] = init[0], init[1]
    field_norm = np.empty(n_steps + 1)
    for n0 in range(0, n_steps, B):
        b = min(B, n_steps - n0)
        np.multiply(Gf[:, :, 1], c_bar[:, None, 0], out=u)    # conj(G) swaps the directions
        u += Gf[:, :, 0] * c_bar[:, None, 1]
        np.add(u[0], u[1], out=fold[:, 0])
        np.subtract(u[0], u[1], out=fold[:, 1])
        fold[:, 1] *= 1j
        P = (lf[:b] @ fold_flat.T).view(complex)    # (b, 2): Re P_j and Im P_j interleaved
        y = block_map[:4 * b, :2 + 2 * b] @ np.concatenate([amps[:, n0], P.ravel()])
        psi, Vf = y.reshape(b, 2, 2).transpose(1, 0, 2)
        amps[:, n0 + 1:n0 + b + 1] = psi.T
        s = amps[:, n0:n0 + b].T + psi
        grow = 2 * alpha * (Vf.conj() * s).sum(1).imag + alpha**2 * (s.conj() @ GG * s).sum(1).real
        field_norm[n0] = np.vdot(c_bar, c_bar).real
        field_norm[n0 + 1:n0 + b + 1] = grow
        np.cumsum(field_norm[n0:n0 + b + 1], out=field_norm[n0:n0 + b + 1])
        if n0 + b < n_steps:
            w = (-1j * alpha * s).conj()
            rows = (np.concatenate([w.real.T, w.imag.T]) @ lf[:b]).view(complex)    # A, A'
            iA = rows[2:]    # i A', in place
            iA *= 1j
            np.add(rows[:2], iA, out=Q_bar[0])
            np.subtract(rows[:2], iA, out=Q_bar[1])
            c_bar += Gf[:, 0] * Q_bar[:, 0, None]
            c_bar += Gf[:, 1] * Q_bar[:, 1, None]
            c_bar *= lag_block
    norms = (amps.real**2 + amps.imag**2).sum(0) + field_norm
    return BathResult(times=np.arange(n_steps + 1) * h, amp_a=amps[0], amp_b=amps[1], h_fs=h,
                      n_modes=M, recurrence_fs=2.0 * math.pi / dw,
                      norm_drift=float(np.max(np.abs(norms - 1.0))))    # np.max keeps a NaN
