"""Reference solvers: limits, regressions, and cross-validation.

Both solvers here exist to check the hierarchy, so they get checked
against things that do not involve the hierarchy at all: closed-form
limits, analytic stationary values, step-halving ratios, and each other.
The frozen complex spot values are regression pins -- recorded from a
run of this code once its limits were verified, not derived elsewhere.
"""

from __future__ import annotations

import ast
import dataclasses
import math
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest

from delayheom import oracle
from delayheom.constants import CONSTANTS
from tests.conftest import make_decoupled, make_scaled, make_unequal


# ---------------------------------------------------------------------------
# delay equations
# ---------------------------------------------------------------------------


def test_wavefunction_argument_validation():
    cav = make_scaled(1.0, 0.0)
    with pytest.raises(ValueError):
        oracle.run_wavefunction(cav, 0, 100.0)
    with pytest.raises(ValueError):
        oracle.run_wavefunction(cav, 50, 0.0)
    for t_end in (math.inf, math.nan):
        with pytest.raises(ValueError, match="t_end_fs"):
            oracle.run_wavefunction(cav, 50, t_end)
    # a fractional grid is refused, not truncated; NumPy integers pass
    with pytest.raises(ValueError, match="steps_per_delay"):
        oracle.run_wavefunction(cav, 10.5, 100.0)
    with pytest.raises(ValueError, match="need a positive delay to lock the grid to"):
        oracle.run_wavefunction(dataclasses.replace(cav, tau_fs=0.0), 50, 100.0)
    # step counts no array can index: infinite, and past sys.maxsize
    for t_end in (1e300, 1e-280):
        with pytest.raises(ValueError, match="t_end_fs implies"):
            oracle.run_wavefunction(dataclasses.replace(cav, tau_fs=1e-300), 10, t_end)
    r = oracle.run_wavefunction(cav, np.int64(10), 100.0)
    assert len(r.times) == 11


def test_decoupled_amplitude_is_a_plain_exponential():
    cav = make_decoupled(0.02)
    ga = cav.gamma_a_ev / CONSTANTS.hbar_ev_fs
    r = oracle.run_wavefunction(cav, 100, 1000.0)
    assert np.abs(r.amp_a - np.exp(-ga * r.times)).max() < 1e-8
    assert np.all(r.amp_b == 0.0)


def test_trapped_fixed_point():
    # resonant feedback with unit gamma*tau freezes a quarter of the
    # excitation in each slab, with opposite amplitude signs
    r = oracle.run_wavefunction(make_scaled(1.0, 0.0), 200, 3000.0)
    assert abs(r.amp_a[-1] - 0.25) < 1e-7
    assert abs(r.amp_b[-1] + 0.25) < 1e-7
    # frozen spot values, pinned to full precision
    assert r.amp_a[-1] == pytest.approx(0.2499999954730365 + 0j, abs=1e-12)
    assert r.amp_b[-1] == pytest.approx(-0.2500000045269628 + 0j, abs=1e-12)


def test_generic_spot_regression():
    r = oracle.run_wavefunction(make_scaled(1.0, 3.7), 200, 1000.0)
    assert r.amp_a[-1] == pytest.approx(
        -0.17975289387417598 + 0.09272027311310449j, abs=1e-12
    )
    assert r.amp_b[-1] == pytest.approx(
        -0.1848977569864272 + 0.09753020395517134j, abs=1e-12
    )


def test_wavefunction_step_halving_is_second_order():
    cav = make_scaled(1.0, 3.7)
    ref = oracle.run_wavefunction(cav, 800, 1000.0)
    d100 = np.abs(oracle.run_wavefunction(cav, 100, 1000.0).amp_a - ref.amp_a[::8]).max()
    d200 = np.abs(oracle.run_wavefunction(cav, 200, 1000.0).amp_a - ref.amp_a[::4]).max()
    assert 3.0 < d100 / d200 < 5.0


def test_wavefunction_silence_before_the_delay():
    r = oracle.run_wavefunction(make_scaled(2.0, 3.7), 50, 300.0)
    assert np.all(r.amp_b[:51] == 0.0)
    assert r.amp_b[51] != 0.0


# ---------------------------------------------------------------------------
# discretized field
# ---------------------------------------------------------------------------


def test_bath_argument_validation():
    cav = make_scaled(1.0, 0.0)
    with pytest.raises(ValueError):
        oracle.run_discretized_bath(cav, 1, 50, 100.0)
    with pytest.raises(ValueError):
        oracle.run_discretized_bath(cav, 64, 0, 100.0)
    with pytest.raises(ValueError):
        oracle.run_discretized_bath(cav, 64, 50, 0.0)
    for t_end in (math.inf, math.nan):
        with pytest.raises(ValueError, match="t_end_fs"):
            oracle.run_discretized_bath(cav, 64, 50, t_end)
    for delta in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="half_bandwidth_fs"):
            oracle.run_discretized_bath(cav, 64, 50, 100.0, half_bandwidth_fs=delta)
    with pytest.raises(ValueError, match="steps_per_delay"):
        oracle.run_discretized_bath(cav, 64, 10.5, 100.0)
    with pytest.raises(ValueError, match="n_modes"):
        oracle.run_discretized_bath(cav, 64.9, 50, 100.0)
    with pytest.raises(ValueError, match="need a positive delay"):
        oracle.run_discretized_bath(dataclasses.replace(cav, tau_fs=0.0), 64, 50, 100.0)
    with pytest.raises(ValueError, match="t_end_fs implies inf steps"):
        oracle.run_discretized_bath(dataclasses.replace(cav, tau_fs=1e-300), 64, 10, 1e300)
    b = oracle.run_discretized_bath(cav, np.int32(64), np.int64(10), 100.0)
    assert b.n_modes == 64 and len(b.times) == 11


def test_counts_past_float_range_are_refused_by_name():
    # the grid multiplies the counts by floats: an integer no float holds is a
    # refusal that names it, not an OverflowError
    cav, huge = make_scaled(1.0, 0.0), 10**400
    with pytest.raises(ValueError, match="^steps_per_delay must be at most"):
        oracle.run_wavefunction(cav, huge, 100.0)
    with pytest.raises(ValueError, match="^steps_per_delay must be at most"):
        oracle.run_discretized_bath(cav, 64, huge, 100.0)
    with pytest.raises(ValueError, match="^n_modes must be at most"):
        oracle.run_discretized_bath(cav, huge, 50, 100.0)


def test_bath_refuses_a_mode_count_no_array_can_index():
    # refused from the lag table's byte count, before anything is allocated:
    # only counts that NumPy could never allocate are tried
    for n_modes in (10**20, 2**62):
        with pytest.raises(ValueError, match="^n_modes must be at most"):
            oracle.run_discretized_bath(make_scaled(1.0, 0.0), n_modes, 50, 100.0)


def test_both_oracles_refuse_a_non_finite_delay():
    # the grid step h = tau / K must be positive and finite; CavityParams
    # refuses both values, so the oracles get a namespace with its fields
    for tau in (math.inf, math.nan):
        cav = types.SimpleNamespace(**{**dataclasses.asdict(make_scaled(1.0, 0.0)), "tau_fs": tau})
        with pytest.raises(ValueError, match="need a positive delay to lock the grid to"):
            oracle.run_wavefunction(cav, 50, 100.0)
        with pytest.raises(ValueError, match="need a positive delay to lock the grid to"):
            oracle.run_discretized_bath(cav, 64, 50, 100.0)


def test_bath_norm_drift_reports_a_nan_run():
    # a NaN anywhere in the state must not read as a unitary run
    # CavityParams refuses NaN, so the oracle gets a namespace with its fields
    cav = types.SimpleNamespace(**{**dataclasses.asdict(make_scaled(1.0, 0.0)),
                                   "gamma_b_ev": math.nan})
    b = oracle.run_discretized_bath(cav, 16, 10, 200.0, half_bandwidth_fs=1.0)
    assert np.isnan(b.amp_a[1:]).all()
    assert not math.isfinite(b.norm_drift)


def test_bath_tracks_the_delay_equations():
    # modest mode count, short run: enough to see the two independent
    # constructions agree to the percent level (the tight comparison
    # with increasing mode counts lives in the acceptance suite)
    cav = make_scaled(1.0, 0.0)
    b = oracle.run_discretized_bath(cav, 1024, 100, 600.0)
    w = oracle.run_wavefunction(cav, 100, 600.0)
    dev = np.abs(np.abs(b.amp_a) ** 2 - np.abs(w.amp_a) ** 2).max()
    assert dev < 2e-2
    assert b.norm_drift < 1e-8


def test_bath_norm_is_conserved_to_roundoff():
    b = oracle.run_discretized_bath(make_scaled(2.0, 3.7), 512, 50, 400.0)
    assert b.norm_drift < 1e-10


def test_bath_frozen_spot_values():
    b = oracle.run_discretized_bath(make_scaled(2.0, 3.7), 512, 50, 400.0)
    assert b.amp_a[-1] == pytest.approx(
        0.06546838419529462 + 0.13335686756771298j, abs=1e-12
    )
    assert b.amp_b[-1] == pytest.approx(
        -0.004938335453769151 + 0.1830278151809155j, abs=1e-12
    )


def _exact_phase_bath(cav, n_modes, steps_per_delay, t_end_fs):
    """The Cayley step with the free phases taken from ``exp`` at every
    midpoint and the half-step field formed explicitly, one step at a time:
    the oracle's update without its blocks, kept as the reference for them
    (default bandwidth, cavity A excited)."""
    hbar = CONSTANTS.hbar_ev_fs
    M, h = n_modes, cav.tau_fs / steps_per_delay
    ga, gb = cav.gamma_a_ev / hbar, cav.gamma_b_ev / hbar
    delta = 80.0 * max(ga, gb)
    dw = 2.0 * delta / M
    detun = -delta + (np.arange(M) + 0.5) * dw
    env = np.sqrt(1.0 + 4.0 * (np.abs(detun) / delta) ** 6)
    omega_k = cav.omega_a_ev / hbar + detun
    right = env * np.vstack([np.ones(M), np.exp(-1j * omega_k * cav.tau_fs)])
    G = np.array([[math.sqrt(ga * dw / (2.0 * math.pi))],
                  [math.sqrt(gb * dw / (2.0 * math.pi))]]) * np.hstack([right, right.conj()])
    G_adj = G.conj().T
    dc = np.diag([0.0, (cav.omega_b_ev - cav.omega_a_ev) / hbar]).astype(complex)
    alpha = 0.5 * h
    lhs_inv = np.linalg.inv(np.eye(2) + 1j * alpha * dc + alpha**2 * (G @ G_adj))
    n_steps = math.ceil(t_end_fs / h - 1e-9)
    psi_c, field = np.array([1.0 + 0j, 0j]), np.zeros((2, M), dtype=complex)
    amps = [psi_c]
    for n in range(n_steps):
        e = np.exp(-1j * detun * ((n + 0.5) * h))
        b_c = psi_c - 1j * alpha * (dc @ psi_c + G @ (e * field).ravel())
        b_f = field - 1j * alpha * e.conj() * (G_adj @ psi_c).reshape(2, M)
        psi_c = lhs_inv @ (b_c - 1j * alpha * G @ (e * b_f).ravel())
        field = b_f - 1j * alpha * e.conj() * (G_adj @ psi_c).reshape(2, M)
        amps.append(psi_c)
    return np.array(amps)


@pytest.mark.parametrize(
    "cav, n_modes, steps_per_delay, t_end_fs",
    [
        # unequal, detuned cavities: the detuning enters the per-step
        # cavity map, which equal cavities leave at zero
        (make_unequal(0.4, 1.7, 3.7, -1.2, 0.2), 512, 50, 1000.0),
        # 10,000 steps: a phase recurrence that is never re-anchored has
        # drifted the amplitudes by over 1e-12 here
        (make_scaled(1.0, 0.0), 512, 50, 20000.0),
    ],
    ids=["unequal", "long"],
)
def test_bath_step_matches_the_exact_phase_step(cav, n_modes, steps_per_delay, t_end_fs):
    b = oracle.run_discretized_bath(cav, n_modes, steps_per_delay, t_end_fs)
    ref = _exact_phase_bath(cav, n_modes, steps_per_delay, t_end_fs)
    assert len(ref) == len(b.times)
    assert np.abs(b.amp_a - ref[:, 0]).max() <= 1e-12
    assert np.abs(b.amp_b - ref[:, 1]).max() <= 1e-12
    assert b.norm_drift < 1e-10


@pytest.mark.parametrize(
    "n_steps",
    [1, oracle._BLOCK - 1, oracle._BLOCK, oracle._BLOCK + 1, 2 * oracle._BLOCK + 3],
    ids=["1", "block-1", "block", "block+1", "two-blocks+3"],
)
def test_bath_block_edges_match_the_exact_phase_step(n_steps):
    # runs that end inside a block of steps, at its end and just past it, on
    # the detuned unequal cavities with the fewest modes the oracle accepts
    cav, K = make_unequal(0.4, 1.7, 3.7, -1.2, 0.2), 50
    t_end_fs = n_steps * cav.tau_fs / K
    b = oracle.run_discretized_bath(cav, 2, K, t_end_fs)
    ref = _exact_phase_bath(cav, 2, K, t_end_fs)
    assert len(ref) == len(b.times) == n_steps + 1
    assert np.abs(b.amp_a - ref[:, 0]).max() <= 1e-12
    assert np.abs(b.amp_b - ref[:, 1]).max() <= 1e-12
    assert b.norm_drift < 1e-10


def test_bath_with_an_odd_mode_count_matches_the_exact_phase_step():
    # the block products read float views that interleave Re and Im of every
    # mode, and a short last block reads [:b] slices of them; with an odd mode
    # count the middle mode has no mirror in the folded table: two blocks and
    # part of a third
    cav, K, n_steps = make_unequal(0.4, 1.7, 3.7, -1.2, 0.2), 50, 2 * oracle._BLOCK + 3
    t_end_fs = n_steps * cav.tau_fs / K
    b = oracle.run_discretized_bath(cav, 5, K, t_end_fs)
    ref = _exact_phase_bath(cav, 5, K, t_end_fs)
    assert len(ref) == len(b.times) == n_steps + 1
    assert np.abs(b.amp_a - ref[:, 0]).max() <= 1e-12
    assert np.abs(b.amp_b - ref[:, 1]).max() <= 1e-12
    assert b.norm_drift < 1e-10


def test_bath_peak_memory_at_4096_modes():
    # the acceptance check runs the bath at M = 4096, where its lag table is
    # 1 MB; the whole run must stay below 4 MB, under the peak of a
    # ``compare`` run on the bundled presets (about 4.4 MB)
    cav, K = make_scaled(1.0, 0.0), 100
    t_end_fs = 3 * oracle._BLOCK * cav.tau_fs / K
    tracemalloc.start()
    try:
        oracle.run_discretized_bath(cav, 4096, K, t_end_fs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_bath_recurrence_time_formula():
    b = oracle.run_discretized_bath(make_scaled(1.0, 0.0), 1024, 50, 100.0)
    assert b.n_modes == 1024
    assert b.recurrence_fs == pytest.approx(math.pi * 1024 / 0.8, rel=1e-12)


def test_bath_default_bandwidth_is_eighty_amplitude_rates():
    cav = make_scaled(1.0, 0.0)   # amplitude rate 0.01/fs
    b1 = oracle.run_discretized_bath(cav, 256, 50, 200.0)
    b2 = oracle.run_discretized_bath(cav, 256, 50, 200.0, half_bandwidth_fs=0.8)
    assert np.array_equal(b1.amp_a, b2.amp_a)
    assert np.array_equal(b1.amp_b, b2.amp_b)


def test_bath_with_no_coupling_is_exactly_frozen():
    init = (0.6 + 0j, 0.8j)
    b = oracle.run_discretized_bath(
        make_decoupled(0.0), 64, 50, 300.0, init=init, half_bandwidth_fs=1.0
    )
    assert np.all(b.amp_a == init[0])
    assert np.all(b.amp_b == init[1])
    assert b.norm_drift == 0.0


def test_dde_with_no_coupling_is_exactly_frozen():
    init = (0.6 + 0j, 0.8j)
    w = oracle.run_wavefunction(make_decoupled(0.0), 50, 300.0, init=init)
    assert np.all(w.amp_a == init[0])
    assert np.all(w.amp_b == init[1])


def test_oracle_imports_nothing_from_the_solver():
    # the oracles are independent checks only while they share no code
    # with the integrator, the models or the CLI
    source = Path(oracle.__file__).read_text()
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names += [node.module or ""] + [a.name for a in node.names]
    parts = {part for name in names for part in name.split(".")}
    assert not parts & {"engine", "models", "cli"}
