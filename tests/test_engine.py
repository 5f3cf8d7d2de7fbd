"""Integrator core: validation, storage contracts, and step accuracy.

The closed-form checks here deliberately avoid the shipped two-cavity
builders where possible -- tiny hand-rolled equation sets make the
band advance testable against results worked out by hand.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delayheom import engine, models, oracle
from delayheom.engine import (
    EquationSet,
    EquationSetError,
    HierarchyIntegrator,
    NonFiniteStateError,
    Pattern,
    Term,
    default_band_width,
)
from tests.conftest import make_decoupled, make_scaled, make_unequal


def toy_eqs(tau_fs: float = 100.0, gb: float = 0.008) -> EquationSet:
    """One system var decaying at gs; one band var decaying at gb."""
    return EquationSet(
        system_vars=("s",),
        band_vars=("w",),
        terms=(
            Term("s", complex(-0.003), "s", Pattern.CURRENT),
            Term("w", 0.7 + 0.2j, "s", Pattern.BIRTH),
            Term("w", complex(-gb), "w", Pattern.OWN),
        ),
        tau_fs=tau_fs,
    )


#: line w is born from s
BIRTH_W = Term("w", 1.0, "s", Pattern.BIRTH)


def fad_only_toy(cavity=None) -> SimpleNamespace:
    """The toy band with a FIRST_ARG_DELAYED read and no SECOND_ARG_DELAYED
    one, shaped as a built model (``cavity`` is ignored)."""
    eqs = toy_eqs()
    fad = Term("w", -0.02 + 0.01j, "w", Pattern.FIRST_ARG_DELAYED)
    return SimpleNamespace(equations=dataclasses.replace(eqs, terms=eqs.terms + (fad,)),
                           default_init={"s": 1.0})


# ---------------------------------------------------------------------------
# equation-set validation
# ---------------------------------------------------------------------------


def test_validate_rejects_duplicate_and_overlapping_names():
    with pytest.raises(EquationSetError):
        EquationSet(("s", "s"), ("w",), (BIRTH_W,), 100.0)
    with pytest.raises(EquationSetError):
        EquationSet(("s",), ("s",), (Term("s", 1.0, "s", Pattern.BIRTH),), 100.0)
    with pytest.raises(EquationSetError, match="at least one system variable is required"):
        EquationSet((), ("w",), (BIRTH_W,), 100.0)


def test_validate_rejects_bad_patterns():
    # a system target may not carry band-only reference patterns
    with pytest.raises(EquationSetError):
        EquationSet(
            ("s",), ("w",),
            (Term("s", -1.0 + 0j, "w", Pattern.OWN), BIRTH_W), 100.0,
        )
    # DIAGONAL must point at a band var
    with pytest.raises(EquationSetError):
        EquationSet(
            ("s",), ("w",),
            (Term("s", -1.0 + 0j, "s", Pattern.DIAGONAL), BIRTH_W), 100.0,
        )
    # a band target may not read the running system state
    with pytest.raises(EquationSetError):
        EquationSet(
            ("s",), ("w",),
            (Term("w", -1.0 + 0j, "s", Pattern.CURRENT), BIRTH_W), 100.0,
        )
    # OWN is a plain read of the target itself: not another line ...
    with pytest.raises(EquationSetError, match="OWN"):
        EquationSet(
            ("s",), ("w", "v"),
            (Term("w", -1.0 + 0j, "v", Pattern.OWN), BIRTH_W,
             Term("v", 1.0, "s", Pattern.BIRTH)), 100.0,
        )
    # ... and not its conjugate
    with pytest.raises(EquationSetError, match="OWN"):
        EquationSet(
            ("s",), ("w",),
            (Term("w", -1.0 + 0j, "w", Pattern.OWN, conjugate=True), BIRTH_W), 100.0,
        )
    # a term must target a declared variable
    with pytest.raises(EquationSetError, match="term targets unknown variable 'x'"):
        EquationSet(("s",), ("w",), (Term("x", 1.0, "s", Pattern.CURRENT), BIRTH_W), 100.0)


def test_validate_requires_exactly_one_source_per_band_var():
    with pytest.raises(EquationSetError):
        EquationSet(("s",), ("w",), (), 100.0)
    with pytest.raises(EquationSetError):
        EquationSet(("s",), ("w",), (BIRTH_W, Term("w", 2.0, "s", Pattern.BIRTH)), 100.0)
    with pytest.raises(EquationSetError):
        EquationSet(("s",), ("w",), (Term("w", 1.0, "nope", Pattern.BIRTH),), 100.0)
    # a birth reads a system value and creates a band line: it may not
    # read a band variable ...
    with pytest.raises(EquationSetError, match="birth source"):
        EquationSet(("s",), ("w", "v"), (BIRTH_W, Term("v", 1.0, "w", Pattern.BIRTH)), 100.0)
    # ... nor target a system variable
    with pytest.raises(EquationSetError, match="system variable 's' takes no"):
        EquationSet(("s",), ("w",), (BIRTH_W, Term("s", 1.0, "s", Pattern.BIRTH)), 100.0)


def test_equation_set_keeps_no_reference_to_caller_lists():
    # the set is frozen: mutating the lists it was built from changes nothing
    system_vars, band_vars = ["s"], ["w"]
    terms = [Term("s", -0.003 + 0j, "s", Pattern.CURRENT),
             Term("s", -0.01 + 0j, "w", Pattern.DIAGONAL),
             Term("w", -0.008 + 0j, "w", Pattern.OWN),
             Term("w", 0.7 + 0.2j, "s", Pattern.BIRTH)]
    eqs = EquationSet(system_vars, band_vars, terms, 100.0)
    kw = dict(steps_per_delay=20, t_end_fs=300.0)
    before = engine.run(eqs, {"s": 1.0}, **kw)
    system_vars.append("x")
    terms[0] = Term("s", 5.0 + 0j, "s", Pattern.CURRENT)
    terms.pop()
    assert isinstance(eqs.terms, tuple)
    assert eqs.system_vars == ("s",) and eqs.band_vars == ("w",)
    after = engine.run(eqs, {"s": 1.0}, **kw)
    assert set(after.series) == {"s"}
    assert np.array_equal(before.series["s"], after.series["s"])


def test_validate_requires_positive_delay():
    with pytest.raises(EquationSetError):
        EquationSet(("s",), ("w",), (BIRTH_W,), 0.0)
    # an infinite delay makes h infinite, and the first step non-finite
    for tau in (math.inf, math.nan):
        with pytest.raises(EquationSetError, match="tau_fs must be positive and finite"):
            EquationSet(("s",), ("w",), (BIRTH_W,), tau)


def test_run_argument_validation():
    eqs = toy_eqs()
    with pytest.raises(ValueError):
        engine.run(eqs, {"s": 1.0}, steps_per_delay=0, t_end_fs=10.0)
    with pytest.raises(ValueError):
        engine.run(eqs, {"s": 1.0}, steps_per_delay=20, t_end_fs=0.0)
    for t_end in (math.inf, math.nan):
        with pytest.raises(ValueError, match="t_end_fs"):
            engine.run(eqs, {"s": 1.0}, steps_per_delay=20, t_end_fs=t_end)
    # step counts no array can index: infinite, and past sys.maxsize
    for t_end in (1e300, 1e-280):
        with pytest.raises(ValueError, match="t_end_fs implies"):
            engine.run(toy_eqs(tau_fs=1e-300), {"s": 1.0}, steps_per_delay=10, t_end_fs=t_end)
    with pytest.raises(ValueError, match="steps_per_delay"):
        engine.run(eqs, {"s": 1.0}, steps_per_delay=0, t_end_fs=10.0, band_width=5)
    with pytest.raises(ValueError):
        engine.run(eqs, {"s": 1.0}, steps_per_delay=20, t_end_fs=10.0, band_width=0)
    with pytest.raises(ValueError):
        engine.run(eqs, {"nope": 1.0}, steps_per_delay=20, t_end_fs=10.0)
    # the grid is integral: no silent truncation of a fractional argument
    with pytest.raises(ValueError, match="steps_per_delay"):
        engine.run(eqs, {"s": 1.0}, steps_per_delay=10.5, t_end_fs=100.0)
    for band_width in (None, 5):
        with pytest.raises(ValueError, match="steps_per_delay"):
            engine.run(eqs, {"s": 1.0}, steps_per_delay="x", t_end_fs=100.0,
                       band_width=band_width)
    with pytest.raises(ValueError, match="band_width"):
        engine.run(eqs, {"s": 1.0}, steps_per_delay=20, t_end_fs=10.0, band_width=7.9)
    r = engine.run(eqs, {"s": 1.0}, steps_per_delay=np.int64(20), t_end_fs=10.0,
                   band_width=np.int32(7))
    assert (r.steps_per_delay, r.band_width) == (20, 7)


def test_counts_past_float_range_are_refused_by_name():
    # the width rule and the step count multiply the count by floats, so an
    # integer no float holds is a refusal that names it, not an OverflowError
    eqs, huge = toy_eqs(), 10**400
    for name, kw in (("steps_per_delay", dict(steps_per_delay=huge)),
                     ("band_width", dict(steps_per_delay=20, band_width=huge))):
        with pytest.raises(ValueError, match=f"^{name} must be at most"):
            engine.plan_run(eqs, t_end_fs=10.0, **kw)
        with pytest.raises(ValueError, match=f"^{name} must be at most"):
            engine.run(eqs, {"s": 1.0}, t_end_fs=10.0, **kw)
    with pytest.raises(ValueError, match="^steps_per_delay must be at most"):
        default_band_width(eqs, huge)
    with pytest.raises(ValueError, match="^horizon_steps must be at most"):
        HierarchyIntegrator(eqs, {"s": 1.0}, steps_per_delay=20, band_width=5, horizon_steps=huge)
    # the largest count a float holds still plans: the width is the cap
    assert default_band_width(eqs, int(sys.float_info.max)) == int(sys.float_info.max)


def test_unknown_initial_state_is_refused_before_the_ring_is_allocated():
    # this ring would take 64 TB: the name check comes first, and allocates nothing
    m = models.build_single_excitation(make_scaled(1.0, 0.0))
    with pytest.raises(ValueError, match=r"unknown variables: \['pX'\]"):
        HierarchyIntegrator(m.equations, {"pX": 1.0}, steps_per_delay=10**6, band_width=10**6)


# ---------------------------------------------------------------------------
# band storage contracts
# ---------------------------------------------------------------------------


def test_buffer_masked_reads_are_exact_zero():
    it = HierarchyIntegrator(toy_eqs(), {"s": 1.0}, steps_per_delay=10, band_width=6)
    assert it.band_value("w", 0, -1) == 0j    # label before the start
    assert it.band_value("w", 0, 3) == 0j     # below the diagonal (i < j)


def test_buffer_rejects_future_and_evicted_positions():
    eqs = toy_eqs()
    it = HierarchyIntegrator(eqs, {"s": 1.0}, steps_per_delay=10, band_width=11)
    for _ in range(25):
        it.step()
    with pytest.raises(ValueError, match="not computed"):
        it.band_value("w", 26, 20)
    with pytest.raises(ValueError, match="evicted"):
        it.band_value("w", 3, 0)


def test_stale_lines_read_zero_beyond_the_band():
    eqs = toy_eqs()
    it = HierarchyIntegrator(eqs, {"s": 1.0}, steps_per_delay=10, band_width=4)
    for _ in range(9):
        it.step()
    assert it.band_value("w", 9, 1) == 0j     # age 8 > band width 4
    assert it.band_value("w", 9, 6) != 0j     # age 3 still live


@pytest.mark.parametrize("build", [models.build_single_excitation, models.build_two_photon,
                                   fad_only_toy])
def test_no_step_reads_an_unwritten_ring_cell(build):
    # the ring is allocated without zeroing: filling every cell but the
    # first birth with NaN must change nothing, at any band width
    m = build(make_scaled(2.0, 3.7))
    K, n_steps = 10, 40
    for W in range(1, 3 * K + 3):
        runs = []
        for fill in (0.0, np.nan):
            it = HierarchyIntegrator(m.equations, m.default_init, steps_per_delay=K, band_width=W)
            birth = it.buffer[0, 0].copy()
            it.buffer[...] = fill
            it.buffer[0, 0] = birth
            series = []
            for _ in range(n_steps):
                it.step()
                series.append(it.state.copy())
            band = [it.band_value(v, i, j) for v in m.equations.band_vars
                    for i in range(n_steps - K, n_steps + 1) for j in range(i - W, i + 1)]
            runs.append((np.array(series), it.truncation_certificate, np.array(band)))
        (s0, c0, b0), (s1, c1, b1) = runs
        assert np.array_equal(s0, s1) and c0 == c1 and np.array_equal(b0, b1), W


@pytest.mark.parametrize("build", [models.build_single_excitation, models.build_two_photon,
                                   fad_only_toy])
@pytest.mark.parametrize("K, W, horizon", [(10, 7, None), (10, 10, None), (10, 30, None),
                                           (100, 40, 50)])
def test_the_first_ring_cycle_gives_every_cell_a_value(build, K, W, horizon):
    # a cell no step writes (a young row's ages past its position, age
    # W + 1) reads 0 once the first ring cycle has reached its row: a ring
    # filled with NaN at construction holds only finite values after R steps
    m = build(make_scaled(2.0, 3.7))
    it = HierarchyIntegrator(m.equations, m.default_init, steps_per_delay=K, band_width=W,
                             horizon_steps=horizon)
    birth = it.buffer[0, 0].copy()
    it.buffer[...] = np.nan
    it.buffer[0, 0] = birth
    for _ in range(it.buffer.shape[0]):
        it.step()
    assert np.isfinite(it.buffer).all()


def test_below_diagonal_reads_zero_by_name():
    eqs = toy_eqs()
    it = HierarchyIntegrator(eqs, {"s": 1.0}, steps_per_delay=10, band_width=11)
    for _ in range(5):
        it.step()
    assert it.band_value("w", 2, 4) == 0j


def test_an_unknown_band_variable_is_named():
    it = HierarchyIntegrator(toy_eqs(), {"s": 1.0}, steps_per_delay=10, band_width=11)
    with pytest.raises(ValueError, match=r"unknown band variable 'x'; band_vars are \['w'\]"):
        it.band_value("x", 2, 1)


# ---------------------------------------------------------------------------
# closed-form accuracy
# ---------------------------------------------------------------------------


def test_own_only_band_matches_product_formula():
    # with only an own-damping term, a line is its birth value times the
    # one-step decay factor of the scheme, exactly
    gb, gs, c = 0.008, 0.003, 0.7 + 0.2j
    eqs = toy_eqs(gb=gb)
    K = 20
    it = HierarchyIntegrator(eqs, {"s": 1.0}, steps_per_delay=K, band_width=K + 1)
    h = eqs.tau_fs / K
    for _ in range(15):
        it.step()
    fac_b = 1.0 - gb * h + 0.5 * (gb * h) ** 2
    fac_s = 1.0 - gs * h + 0.5 * (gs * h) ** 2
    for j in (0, 3, 7):
        for i in range(j, 16):
            want = c * fac_s**j * fac_b ** (i - j)
            assert it.band_value("w", i, j) == pytest.approx(want, rel=1e-13)


def test_conjugated_only_current_read():
    # s' = c conj(s): one Heun step from s = 1 gives 1 + h c + h^2 |c|^2 / 2
    c = -0.01 + 0.02j
    terms = (Term("s", c, "s", Pattern.CURRENT, conjugate=True),)
    with_band = EquationSet(
        system_vars=("s",), band_vars=("w",),
        terms=terms + (Term("w", -0.008, "w", Pattern.OWN), BIRTH_W), tau_fs=100.0,
    )
    it = HierarchyIntegrator(with_band, {"s": 1.0}, steps_per_delay=20, band_width=21)
    it.step()
    h = 5.0
    want = 1.0 + h * c + 0.5 * h**2 * abs(c) ** 2
    assert complex(it.state[0]) == pytest.approx(want, rel=1e-15)
    # with no band variables (hence no births) the step is the same
    bare = EquationSet(system_vars=("s",), band_vars=(), terms=terms, tau_fs=100.0)
    it0 = HierarchyIntegrator(bare, {"s": 1.0}, steps_per_delay=20, band_width=21)
    it0.step()
    assert np.array_equal(it0.state, it.state)
    # and, with no line to retire, the certificate stays 0 past the band width
    r = engine.run(bare, {"s": 1.0}, steps_per_delay=20, t_end_fs=300.0, band_width=21)
    assert r.truncation_certificate == 0.0


def test_system_driven_only_by_the_returning_line():
    # no CURRENT term: s stays exactly 1 until its own line returns
    eqs = EquationSet(
        system_vars=("s",), band_vars=("w",),
        terms=(Term("s", -0.01, "w", Pattern.DIAGONAL),
               Term("w", -0.008, "w", Pattern.OWN), BIRTH_W),
        tau_fs=100.0,
    )
    K = 20
    r = engine.run(eqs, {"s": 1.0}, steps_per_delay=K, t_end_fs=300.0)
    s = r.series["s"]
    assert np.all(s[: K + 1] == 1.0)
    assert s[K + 1] != 1.0
    assert complex(s[-1]) == pytest.approx(0.2024251827258469, rel=1e-12)


def test_decoupled_richardson_limit():
    # Heun is second order: the h^2 error must cancel under Richardson,
    # leaving a residual hundreds of times smaller than the plain error
    cav = make_decoupled(0.2)
    m = models.build_single_excitation(cav)
    g = 0.2 / 100.0
    devs = {}
    for K in (100, 200):
        r = engine.run(m.equations, m.default_init, steps_per_delay=K, t_end_fs=1000.0)
        devs[K] = r.series["pA"].real - np.exp(-2.0 * g * r.times)
    plain = np.abs(devs[100]).max()
    resid = np.abs(4.0 * devs[200][::2] - devs[100]).max() / 3.0
    assert plain > 1e-7                # the plain error is measurable ...
    assert resid < 1e-9                # ... and the extrapolation removes it
    assert resid < plain / 500.0


#: two unequal cavities, (gamma_a, gamma_b, omega_a, omega_b, v) tau / hbar:
#: with gamma_a != gamma_b the OWN block is no multiple of the identity, so
#: the order of each Heun product with it shows in the result.  The first
#: is active (2|v| > sqrt(gamma_a gamma_b), which the CLI refuses): its
#: populations grow, so it and its frozen values test the algebra only
UNEQUAL = ((1.0, 0.3, 0.0, 2.1, 0.65), (0.4, 1.7, 3.7, -1.2, 0.2))


@pytest.mark.parametrize("kind", ["single_excitation", "two_photon"])
@pytest.mark.parametrize("rates", UNEQUAL)
def test_unequal_cavities_track_the_delay_equations(rates, kind):
    cav = make_unequal(*rates)
    m = getattr(models, f"build_{kind}")(cav)
    devs = {}
    for K in (100, 200):
        r = engine.run(m.equations, m.default_init, steps_per_delay=K, t_end_fs=1000.0)
        w = oracle.run_wavefunction(cav, K, 1000.0)
        want = models.pure_state_crosscheck(w.amp_a, w.amp_b, kind)
        devs[K] = max(np.abs(r.series[k] - want[k]).max() for k in want)
    assert devs[200] <= 1e-3
    assert devs[100] / devs[200] >= 3.5     # second order


# ---------------------------------------------------------------------------
# causality structure
# ---------------------------------------------------------------------------


def test_pre_delay_silence_and_departure_index():
    K = 50
    cav = make_scaled(2.0, 3.7)
    m = models.build_single_excitation(cav)
    r = engine.run(m.equations, m.default_init, steps_per_delay=K, t_end_fs=200.0)
    pB = r.series["pB"]
    assert np.all(pB[: K + 1] == 0.0)         # exact zeros through t = tau
    assert pB[K + 1] != 0.0                   # and the transfer lands next step


def test_feedback_on_first_cavity_starts_at_the_round_trip():
    # A only hears its own echo: the coupled and uncoupled runs are
    # bit-identical through t = 2 tau and split on the very next step
    K = 50
    cav = make_scaled(2.0, 3.7)
    cav0 = make_decoupled(2.0, 3.7)
    cav0 = type(cav0)(
        omega_a_ev=cav.omega_a_ev, gamma_a_ev=cav.gamma_a_ev,
        omega_b_ev=cav.omega_b_ev, gamma_b_ev=cav.gamma_b_ev,
        v_ab_ev=0.0, tau_fs=cav.tau_fs,
    )
    m1 = models.build_single_excitation(cav)
    m0 = models.build_single_excitation(cav0)
    r1 = engine.run(m1.equations, m1.default_init, steps_per_delay=K, t_end_fs=300.0)
    r0 = engine.run(m0.equations, m0.default_init, steps_per_delay=K, t_end_fs=300.0)
    assert np.array_equal(r1.series["pA"][: 2 * K + 1], r0.series["pA"][: 2 * K + 1])
    assert r1.series["pA"][2 * K + 1] != r0.series["pA"][2 * K + 1]


def test_populations_exactly_real():
    # the imaginary parts are exactly 0.0, not just small: every coefficient
    # that writes one is an exact zero (see the test below)
    m = models.build_single_excitation(make_scaled(2.0, 3.7))
    r = engine.run(m.equations, m.default_init, steps_per_delay=100, t_end_fs=600.0)
    assert np.all(r.series["pA"].imag == 0.0)
    assert np.all(r.series["pB"].imag == 0.0)


@pytest.mark.parametrize("gamma_tau, omega_tau", [(1.0, 0.0), (2.0, 3.7)])
@pytest.mark.parametrize("K", [10, 100])
def test_population_imaginary_parts_have_exact_zero_coefficients(gamma_tau, omega_tau, K):
    # in the real matrices that advance the system (R(h C) alone, and with
    # the rows of the returning line), only Im pA itself writes Im pA, and
    # likewise for pB: a conjugate term pair c z + conj(c z) folds into
    # coefficients whose imaginary part is exactly 0.0, so a value that
    # starts at 0.0 stays 0.0
    m = models.build_single_excitation(make_scaled(gamma_tau, omega_tau))
    it = HierarchyIntegrator(m.equations, m.default_init, steps_per_delay=K,
                             band_width=K + 1)
    for name in ("pA", "pB"):
        col = 2 * m.equations.system_vars.index(name) + 1
        for mat in (it._sys_cur, it._sys_open):
            others = np.delete(mat[:, col], col)
            assert np.all(others == 0.0), name


def _random_coefficients(rng, n):
    return list(rng.normal(size=n) + 1j * rng.normal(size=n))


@pytest.mark.parametrize("case", ["plain", "conjugated", "both"])
def test_real_form_matches_the_complex_pair(case):
    # a real matrix on float views applies x @ P + conj(x) @ Q, for reads
    # and targets of different counts (DIAGONAL: band -> system, BIRTH:
    # system -> band) and of equal counts (SECOND_ARG_DELAYED)
    rng = np.random.default_rng(7)
    sys_vars, band_vars = ("s0", "s1"), ("w0", "w1", "w2")
    conj = {"plain": [False] * 3, "conjugated": [True] * 3,
            "both": [False, True, False]}[case]
    terms = []
    for j, w in enumerate(band_vars):
        c_diag, c_sad, c_src = _random_coefficients(rng, 3)
        terms.append(Term(sys_vars[j % 2], c_diag, w, Pattern.DIAGONAL, conj[j]))
        terms.append(Term(band_vars[(j + 1) % 3], c_sad, w, Pattern.SECOND_ARG_DELAYED, conj[j]))
        terms.append(Term(w, c_src, sys_vars[j % 2], Pattern.BIRTH, conj[j]))
        if case == "both":  # the same read twice, plain and conjugated
            c_diag, c_sad = _random_coefficients(rng, 2)
            terms.append(Term(sys_vars[j % 2], c_diag, w, Pattern.DIAGONAL, not conj[j]))
            terms.append(Term(band_vars[(j + 1) % 3], c_sad,
                              w, Pattern.SECOND_ARG_DELAYED, not conj[j]))
    eqs = EquationSet(sys_vars, band_vars, terms, 100.0)
    forms, _ = engine._real_forms(eqs)
    index = {v: i for names in (sys_vars, band_vars) for i, v in enumerate(names)}
    for key, n_read, n_target in ((Pattern.DIAGONAL, 3, 2), (Pattern.BIRTH, 2, 3),
                                  (Pattern.SECOND_ARG_DELAYED, 3, 3)):
        P = np.zeros((n_read, n_target), dtype=complex)
        Q = np.zeros((n_read, n_target), dtype=complex)
        for t in terms:
            if t.pattern is key:
                (Q if t.conjugate else P)[index[t.var], index[t.target]] += t.coefficient
        real = forms[key]
        x = rng.normal(size=(5, n_read)) + 1j * rng.normal(size=(5, n_read))
        got = (x.view(np.float64) @ real).view(np.complex128)
        want = x @ P + x.conj() @ Q
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max(), key


# ---------------------------------------------------------------------------
# band width policy
# ---------------------------------------------------------------------------


def test_default_band_width_formula_and_clamp():
    eqs = toy_eqs(gb=0.008)
    # K = 1000 -> h = 0.1, gamma*h = 0.08: ln(1e12)/0.08 = 345.4 -> 346
    assert default_band_width(toy_eqs(gb=0.8), 1000) == 346
    assert default_band_width(eqs, 20) == 20    # capped at K
    assert default_band_width(eqs, np.int64(20)) == 20
    with pytest.raises(ValueError, match="steps_per_delay must be an integer"):
        default_band_width(eqs, 10.5)
    assert default_band_width(toy_eqs(gb=50.0), 20) == 1
    # the rate of a band variable is the sum of its OWN coefficients, and
    # one undamped variable keeps the whole band
    two = EquationSet(
        ("s",), ("w", "u"),
        (Term("w", -0.8 + 0j, "w", Pattern.OWN),
         Term("u", -0.3 + 0j, "u", Pattern.OWN),
         Term("u", 0.3 + 0j, "u", Pattern.OWN),
         BIRTH_W, Term("u", 1.0, "s", Pattern.BIRTH)), 100.0,
    )
    assert default_band_width(two, 1000) == 1000
    # a delay near the subnormal range: at 1e-310 fs the quotient overflows,
    # at 1e-322 fs its divisor underflows to 0; either way a line outlives
    # the delay, so the width is the cap
    for tau_fs in (1e-310, 1e-322):
        cav = dataclasses.replace(make_scaled(1.0, 0.0), tau_fs=tau_fs)
        assert default_band_width(models.build_single_excitation(cav).equations, 10) == 10
    with pytest.raises(ValueError):
        default_band_width(eqs, 20, eps_band=0.0)
    with pytest.raises(ValueError):
        default_band_width(eqs, 20, eps_band=1.5)


def _outcome(f, *args, **kwargs):
    """What ``f`` returns, or the type and message of the ValueError it raises."""
    try:
        return f(*args, **kwargs)
    except ValueError as e:
        return type(e), str(e)


@settings(max_examples=100, deadline=None)
@given(rate=st.one_of(st.sampled_from([0.0, -0.5]), st.floats(-1.0, 60.0)),
       tau_fs=st.sampled_from([5e-324, 1e-310, 1e-3, 100.0, 1e300]),
       K=st.one_of(st.integers(-1, 10**6), st.sampled_from([0, 10.5, 20.0, math.inf])),
       eps_band=st.one_of(st.floats(1e-300, 0.9),
                          st.sampled_from([0.0, 1.0, 1.5, -1e-12, math.nan])),
       delays=st.floats(1e-3, 1e3))
def test_default_band_width_is_the_width_of_every_run_that_sets_none(
        rate, tau_fs, K, eps_band, delays):
    # any run length gives the same width, and a bad argument the same refusal
    eqs = toy_eqs(tau_fs=tau_fs, gb=rate)
    t_end_fs = min(tau_fs * delays, sys.float_info.max) or tau_fs
    plan = _outcome(engine.plan_run, eqs, steps_per_delay=K, t_end_fs=t_end_fs,
                    eps_band=eps_band)
    width = _outcome(default_band_width, eqs, K, eps_band)
    assert (plan if isinstance(plan, tuple) else plan.band_width) == width


def test_default_band_keeps_an_undamped_line_whole():
    # cavity A does not leak: its lines never fade, so the default band is
    # the full K and the run equals the explicit K + 1 run bit for bit
    cav = type(make_scaled(1.0, 0.0))(
        omega_a_ev=0.0, gamma_a_ev=0.0, omega_b_ev=0.0, gamma_b_ev=0.3,
        v_ab_ev=0.003, tau_fs=100.0,
    )
    m = models.build_single_excitation(cav)
    kw = dict(steps_per_delay=100, t_end_fs=1000.0)
    assert default_band_width(m.equations, 100) == 100
    r_def = engine.run(m.equations, m.default_init, **kw)
    r_full = engine.run(m.equations, m.default_init, band_width=101, **kw)
    assert r_def.band_width == 100
    for k in ("pA", "pB", "cAB"):
        assert np.array_equal(r_def.series[k], r_full.series[k])


def test_band_width_beyond_one_delay_changes_nothing():
    # values deeper than one delay into a line cannot reach the system
    # variables, so widening the band leaves the output bit-identical
    m = models.build_single_excitation(make_scaled(2.0, 3.7))
    kw = dict(steps_per_delay=100, t_end_fs=500.0)
    r1 = engine.run(m.equations, m.default_init, band_width=101, **kw)
    r3 = engine.run(m.equations, m.default_init, band_width=300, **kw)
    for k in ("pA", "pB", "cAB"):
        assert np.array_equal(r1.series[k], r3.series[k])


def test_default_band_equals_wider_bands_bit_for_bit():
    # the default width is capped at K, and K + 1 and 2K add FAD lines
    # that never reach the system: the series agree bit for bit
    kw = dict(steps_per_delay=60, t_end_fs=600.0)
    for rates in ((0.4, 1.7, 3.7, -1.2, 0.33), (1.0, 0.3, 0.0, 2.1, 0.27)):
        for build in (models.build_single_excitation, models.build_two_photon):
            m = build(make_unequal(*rates))
            runs = [engine.run(m.equations, m.default_init, band_width=w, **kw)
                    for w in (None, 61, 120)]
            assert runs[0].band_width == 60
            for r in runs[1:]:
                for k in m.equations.system_vars:
                    assert np.array_equal(runs[0].series[k], r.series[k]), (rates, k)


def test_band_width_source_is_the_rule_that_set_it():
    # ln(1e12) K / (gamma tau) = 19.7 at gb = 0.28 and K = 20: the eps
    # rule sets the width K, so the source cannot be read off the width
    kw = dict(steps_per_delay=20, t_end_fs=300.0)
    for gb, width, want in ((0.28, None, (20, "eps")), (0.008, None, (20, "cap")),
                            (50.0, None, (1, "eps")), (0.28, 20, (20, "user")),
                            (0.008, 7, (7, "user"))):
        r = engine.run(toy_eqs(gb=gb), {"s": 1.0}, band_width=width, **kw)
        assert (r.band_width, r.band_width_source) == want


def _apply(terms, pattern, values, targets=None):
    """d/dt of each of ``targets`` (default: the variables of ``values``)
    from the terms of ``pattern`` read at ``values`` (a dict of complex
    reads), term by term."""
    out = dict.fromkeys(values if targets is None else targets, 0j)
    for t in terms:
        if t.pattern is pattern:
            x = values[t.var]
            out[t.target] += t.coefficient * (x.conjugate() if t.conjugate else x)
    return out


@pytest.mark.parametrize("fad", [True, False])
@pytest.mark.parametrize("dW", [-3, 0, 3])
def test_one_step_of_the_band_is_the_written_out_heun_step(dW, fad):
    # y1 = y0 R(h L) + (h/2) S(S_r) + (h/2) S(S_l) (1 + h L), each product
    # taken apart, on an unequal cavity, for every line; F in place of S at
    # ages >= K (module notes, Delay gating), where the S reads are masked
    K, n = 20, 47
    W = K + dW
    for build in (models.build_single_excitation, models.build_two_photon):
        m = build(make_unequal(0.4, 1.7, 3.7, -1.2, 0.33))
        eqs = m.equations
        integ = HierarchyIntegrator(eqs, m.default_init, steps_per_delay=K, band_width=W,
                                    include_first_arg_delayed=fad)
        for _ in range(n):
            integ.step()
        h, own = integ.h_fs, Pattern.OWN
        terms = [t for t in eqs.terms if fad or t.pattern is not Pattern.FIRST_ARG_DELAYED]

        def read(position, label):
            return {v: integ.band_value(v, position, label) for v in eqs.band_vars}

        def plus(*parts):
            return {v: sum(p[v] for p in parts) for v in eqs.band_vars}

        def times(c, x):
            return {v: c * x[v] for v in eqs.band_vars}

        want = {}
        for a in range(min(W, n + 1)):
            j = n - a  # line j, at age a, moves from position n to n + 1
            y0 = read(n, j)
            ly0 = _apply(terms, own, y0)
            parts = [y0, times(h, ly0), times(h * h / 2, _apply(terms, own, ly0))]
            if a < K:
                pattern, left, right = Pattern.SECOND_ARG_DELAYED, read(j, n - K), read(j, n + 1 - K)
            else:
                pattern, left, right = Pattern.FIRST_ARG_DELAYED, read(n - K, j), read(n + 1 - K, j)
            sl = times(h / 2, _apply(terms, pattern, left))
            parts += [times(h / 2, _apply(terms, pattern, right)), sl,
                      times(h, _apply(terms, own, sl))]
            want[a] = plus(*parts)
        integ.step()
        got = np.array([[integ.band_value(v, n + 1, n - a) for v in eqs.band_vars] for a in want])
        ref = np.array([[want[a][v] for v in eqs.band_vars] for a in want])
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max(), build.__name__


@pytest.mark.parametrize("fad", [True, False])
@pytest.mark.parametrize("dW", [0, 3])
def test_one_step_of_the_system_is_the_written_out_heun_step(dW, fad):
    # s1 = s0 R(h C) + d_l (h/2) D (1 + h C) + d_r (h/2) D, with d_l the
    # returning line (age K) and d_r = y0(K - 1) (1 + h L) + h S S_l, S_l
    # at age 1 of position n + 1 - K: each product taken apart, on an
    # unequal cavity, every value read by name
    K, n = 20, 47
    for build in (models.build_single_excitation, models.build_two_photon):
        m = build(make_unequal(0.4, 1.7, 3.7, -1.2, 0.33))
        eqs = m.equations
        integ = HierarchyIntegrator(eqs, m.default_init, steps_per_delay=K, band_width=K + dW,
                                    include_first_arg_delayed=fad)
        for _ in range(n):
            integ.step()
        h, system = integ.h_fs, eqs.system_vars

        def apply(pattern, x, targets=system):
            return _apply(eqs.terms, pattern, x, targets)

        def read(position, label):
            return {v: integ.band_value(v, position, label) for v in eqs.band_vars}

        def comb(*parts):  # a sum of (factor, values) pairs
            return {v: sum(c * x[v] for c, x in parts) for v in parts[0][1]}

        s0 = dict(zip(system, integ.state))
        cs0 = apply(Pattern.CURRENT, s0)
        y0 = read(n, n + 1 - K)  # the line at age K - 1
        d_r = comb((1, y0), (h, apply(Pattern.OWN, y0, eqs.band_vars)),
                   (h, apply(Pattern.SECOND_ARG_DELAYED, read(n + 1 - K, n - K), eqs.band_vars)))
        left = comb((h / 2, apply(Pattern.DIAGONAL, read(n, n - K))))  # d_l (h/2) D
        want = comb((1, s0), (h, cs0), (h * h / 2, apply(Pattern.CURRENT, cs0)),
                    (1, left), (h, apply(Pattern.CURRENT, left)),
                    (h / 2, apply(Pattern.DIAGONAL, d_r)))
        integ.step()
        ref = np.array([want[v] for v in system])
        assert np.abs(integ.state - ref).max() <= 1e-14 * np.abs(ref).max(), build.__name__


@pytest.mark.parametrize("kind", ["single_excitation", "two_photon"])
@pytest.mark.parametrize("width", ["2K", "K-3"])
def test_split_stepping_equals_one_run_bit_for_bit(width, kind):
    # run steps in windows of R - 1, step() in windows of one, each with its
    # own gather buffer: at W = 2K the FAD group grows by one line per step
    # for a delay, and at W = K - 3 the youngest SAD line's left read is zeroed
    K = 12
    W = {"2K": 2 * K, "K-3": K - 3}[width]
    m = getattr(models, f"build_{kind}")(make_unequal(0.4, 1.7, 3.7, -1.2, 0.33))
    eqs = m.equations
    r = engine.run(eqs, m.default_init, steps_per_delay=K, t_end_fs=4 * eqs.tau_fs, band_width=W)
    it = HierarchyIntegrator(eqs, m.default_init, steps_per_delay=K, band_width=W,
                             horizon_steps=r.n_steps)
    assert r.n_steps >= 3 * (it.buffer.shape[0] - 1)  # three ring cycles
    states = [it.state.copy()]
    for _ in range(r.n_steps):
        it.step()
        states.append(it.state.copy())
    for k, name in enumerate(eqs.system_vars):
        assert np.array_equal(r.series[name], np.array(states)[:, k]), name
    assert r.truncation_certificate == it.truncation_certificate


def test_truncation_certificate_reported_and_consistent():
    # W = 40 < K drops the returning line, which W = K keeps whole: the
    # shift is real (a W = 80 run is open loop too, and shifts nothing)
    kw = dict(steps_per_delay=100, t_end_fs=500.0)
    for build in (models.build_single_excitation, models.build_two_photon):
        m = build(make_scaled(2.0, 3.7))
        r1 = engine.run(m.equations, m.default_init, band_width=40, **kw)
        r2 = engine.run(m.equations, m.default_init, band_width=100, **kw)
        shift = max(np.abs(r1.series[k] - r2.series[k]).max() for k in m.equations.system_vars)
        assert 0.0 < shift <= r1.truncation_certificate
        assert (r1.open_loop, r2.open_loop) == (True, False)


def test_dropping_far_side_terms_leaves_system_untouched():
    m = models.build_single_excitation(make_scaled(2.0, 3.7))
    kw = dict(steps_per_delay=100, t_end_fs=500.0, band_width=200)
    r_keep = engine.run(m.equations, m.default_init, **kw)
    r_drop = engine.run(
        m.equations, m.default_init, include_first_arg_delayed=False, **kw
    )
    for k in ("pA", "pB", "cAB"):
        assert np.array_equal(r_keep.series[k], r_drop.series[k])
    # ... while the deep band internals really did change
    assert r_keep.truncation_certificate != r_drop.truncation_certificate


# ---------------------------------------------------------------------------
# horizon-limited allocation
# ---------------------------------------------------------------------------


def test_horizon_shrinks_storage_without_changing_results():
    m = models.build_single_excitation(make_scaled(2.0, 3.7))
    full = HierarchyIntegrator(
        m.equations, m.default_init, steps_per_delay=500, band_width=501
    )
    short = HierarchyIntegrator(
        m.equations, m.default_init, steps_per_delay=500, band_width=501,
        horizon_steps=150,
    )
    assert short.buffer.shape[0] < full.buffer.shape[0]
    for _ in range(150):
        full.step()
        short.step()
        assert np.array_equal(full.state, short.state)
    assert full.band_value("bB_0A", 150, 40) == short.band_value("bB_0A", 150, 40)


def test_stepping_past_the_horizon_raises():
    m = models.build_single_excitation(make_scaled(2.0, 3.7))
    it = HierarchyIntegrator(
        m.equations, m.default_init, steps_per_delay=100, band_width=101,
        horizon_steps=3,
    )
    for _ in range(3):
        it.step()
    with pytest.raises(ValueError, match="horizon"):
        it.step()
    with pytest.raises(ValueError, match="horizon_steps must be an integer >= 1"):
        HierarchyIntegrator(m.equations, m.default_init, steps_per_delay=100, band_width=101,
                            horizon_steps=0)


def test_fine_delay_grid_short_run_stays_small():
    # a run much shorter than the delay must not pay for the full
    # delay-squared ring (this is what makes stiff, vastly-delayed
    # configurations usable at a resolving step size)
    m = models.build_single_excitation(make_scaled(2.0, 3.7))   # 4 band variables

    def ring_shape(**kw):
        return HierarchyIntegrator(m.equations, m.default_init, **kw).buffer.shape

    # a run within one delay reads no row back: its ring keeps a fixed
    # 34 rows, however long the run
    assert ring_shape(steps_per_delay=20000, band_width=500, horizon_steps=400) == (34, 402, 4)
    assert ring_shape(steps_per_delay=20000, band_width=500, horizon_steps=4000) == (34, 502, 4)
    # ages only reach the band width, however long the delay
    assert ring_shape(steps_per_delay=1000, band_width=346) == (1002, 348, 4)

    r = engine.run(m.equations, m.default_init,
                   steps_per_delay=20000, t_end_fs=2.0)
    assert r.n_steps == 400
    assert np.all(r.series["pB"] == 0.0)      # nothing can arrive yet
    assert r.series["pA"][-1].real < 1.0
    assert r.band_bytes == 34 * 402 * 4 * 16

    it = HierarchyIntegrator(m.equations, m.default_init, steps_per_delay=20000,
                             band_width=500, horizon_steps=400)
    for _ in range(100):
        it.step()
    it.band_value("bB_0A", 68, 40)       # kept: 32 positions behind step 100
    with pytest.raises(ValueError, match="ring keeps 32 positions behind it"):
        it.band_value("bB_0A", 67, 40)


@pytest.mark.parametrize(
    "kind, K, W, H",
    [
        ("single_excitation", 100, None, 20),    # a sub-delay ring, H < 32
        ("single_excitation", 100, None, 50),    # a sub-delay ring, 32 < H <= K
        ("single_excitation", 100, 60, 40),      # W > H
        ("single_excitation", 20, 8, 50),        # W < K
        ("single_excitation", 20, None, 50),     # the default width
        ("two_photon", 10, 25, 35),              # W > K, the FIRST_ARG_DELAYED lines
        ("two_photon", 40, None, 30),
    ],
)
def test_plan_matches_what_the_run_allocates(kind, K, W, H):
    m = getattr(models, f"build_{kind}")(make_scaled(1.0, 0.0))
    eqs, t_end = m.equations, H * 100.0 / K
    plan = engine.plan_run(eqs, steps_per_delay=K, t_end_fs=t_end, band_width=W)
    assert plan.n_steps == H
    it = HierarchyIntegrator(eqs, m.default_init, steps_per_delay=K,
                             band_width=plan.band_width, horizon_steps=H)
    assert plan.band_bytes == it.buffer.nbytes
    r = engine.run(eqs, m.default_init, steps_per_delay=K, t_end_fs=t_end, band_width=W)
    n_s = len(eqs.system_vars)
    assert plan.trajectory_bytes == (r.n_steps + 1) * n_s * 16
    # the series are views of the trajectory the plan counted
    assert all(v.base.nbytes == plan.trajectory_bytes for v in r.series.values())
    # and the plan's facts are the result's
    assert {k: getattr(r, k) for k in vars(plan)} == vars(plan)


# ---------------------------------------------------------------------------
# run plumbing
# ---------------------------------------------------------------------------


def test_non_finite_states_abort_with_location():
    cav = type(make_scaled(1.0, 0.0))(
        omega_a_ev=0.0, gamma_a_ev=1e-6, omega_b_ev=0.0, gamma_b_ev=1e-6,
        v_ab_ev=5e3, tau_fs=100.0,
    )
    m = models.build_single_excitation(cav)
    with pytest.raises(NonFiniteStateError) as exc:
        engine.run(m.equations, m.default_init, steps_per_delay=50, t_end_fs=5000.0)
    assert exc.value.step_index > 0
    assert exc.value.time_fs == pytest.approx(exc.value.step_index * 2.0)


def growing_band_toy(own: complex, sad: complex = 0) -> SimpleNamespace:
    """The toy band growing under its OWN rate (and a SECOND_ARG_DELAYED
    gain): the system decays and never reads a line, so it stays finite."""
    eqs = toy_eqs()
    terms = eqs.terms[:2] + (Term("w", own, "w", Pattern.OWN),
                             Term("w", sad, "w", Pattern.SECOND_ARG_DELAYED))
    return SimpleNamespace(equations=dataclasses.replace(eqs, terms=terms),
                           default_init={"s": 1.0})


def divergent_pair():
    # 2 gamma h / hbar is about 3 at K = 10, past Heun's stability edge
    return models.build_single_excitation(type(make_scaled(1.0, 0.0))(
        omega_a_ev=0.0, gamma_a_ev=0.1, omega_b_ev=0.0, gamma_b_ev=0.1,
        v_ab_ev=0.05, tau_fs=100.0))


# (model, K, band width or None, t_end_fs, step of the first non-finite
# value or None, whether only the band diverges); a ring has
# R = min(K, steps) + 2 rows, so the full-row case fails after 26 checks,
# or 34 rows if the run ends within one delay (a check every 33 steps)
CHECKED_RUNS = {
    "system": (divergent_pair, 10, None, 10000.0, 750, False),
    "band, young row": (lambda: growing_band_toy(1000), 100, 101, 200.0, 55, True),
    "band, full row": (lambda: growing_band_toy(0.3, 5), 10, 11, 5000.0, 294, True),
    "band, young rows past the ring": (lambda: growing_band_toy(0.3, 5), 10, 35, 5000.0, 294, True),
    "band, age W": (lambda: growing_band_toy(1000), 100, 55, 100.0, 55, True),
    "band, shrunk ring": (lambda: growing_band_toy(1000), 1000, 101, 15.0, 84, True),
    "finite, shrunk ring": (lambda: growing_band_toy(-0.01), 100, 30, 60.0, None, True),
    "band, sub-delay ring": (lambda: growing_band_toy(1000), 1000, 84, 15.0, 84, True),
    "finite, sub-delay ring": (lambda: growing_band_toy(-0.01), 1000, 40, 20.0, None, True),
    "finite, W < K": (lambda: models.build_two_photon(make_scaled(2.0, 3.7)),
                      10, 7, 700.0, None, True),
    "finite, W = K": (lambda: models.build_single_excitation(make_scaled(2.0, 3.7)),
                      10, 10, 700.0, None, True),
    "finite, W > K": (lambda: models.build_single_excitation(make_scaled(2.0, 3.7)),
                      10, 25, 700.0, None, True),
}


@pytest.mark.parametrize("case", sorted(CHECKED_RUNS))
def test_deferred_checks_match_a_check_after_every_step(case):
    # run checks once per ring cycle, step() after every step: both must
    # stop at the same step, or end with the same certificate
    build, K, W, t_end, diverges_at, band_only = CHECKED_RUNS[case]
    m = build()
    expect = pytest.raises(NonFiniteStateError) if diverges_at else contextlib.nullcontext()
    with expect as ran:
        r = engine.run(m.equations, m.default_init, steps_per_delay=K, t_end_fs=t_end,
                       band_width=W)
    n_steps = round(t_end * K / m.equations.tau_fs)
    it = HierarchyIntegrator(m.equations, m.default_init, steps_per_delay=K,
                             band_width=W or default_band_width(m.equations, K),
                             horizon_steps=n_steps)
    expect = pytest.raises(NonFiniteStateError) if diverges_at else contextlib.nullcontext()
    with expect as stepped:
        for _ in range(n_steps):
            it.step()
    if diverges_at:
        assert ran.value.step_index == stepped.value.step_index == diverges_at
        assert str(ran.value) == str(stepped.value)
        assert ran.value.time_fs == stepped.value.time_fs
        if band_only:
            assert np.isfinite(it.state).all()
    else:
        assert (r.n_steps, it.n) == (n_steps, n_steps)
        assert r.truncation_certificate == it.truncation_certificate > 0
        assert all(np.array_equal(v[-1], it.state[k]) for k, v in enumerate(r.series.values()))


def test_finite_check_survives_an_overflowing_sum():
    # the check clears a scan by its sum; a sum that overflows on finite
    # values must not be taken for a non-finite value
    with np.errstate(over="ignore", invalid="ignore"):
        assert engine._finite(np.array([1e308, 1e308, -1.0]))
        assert engine._finite(np.empty((0, 4)))
        for bad in (math.inf, -math.inf, math.nan):
            assert not engine._finite(np.array([1.0, bad, 2.0]))
        assert not engine._finite(np.array([math.inf, -math.inf]))


def test_t_end_rounding():
    m = models.build_single_excitation(make_scaled(1.0, 0.0))
    run = lambda t: engine.run(
        m.equations, m.default_init, steps_per_delay=10, t_end_fs=t
    )
    assert run(100.0).n_steps == 10           # exact multiple of h
    assert run(101.0).n_steps == 11           # partial step rounds up
    assert run(1e-6).n_steps == 1             # never fewer than one step


def test_result_layout():
    m = models.build_single_excitation(make_scaled(1.0, 3.7))
    r = engine.run(m.equations, m.default_init, steps_per_delay=50, t_end_fs=300.0)
    assert r.h_fs == pytest.approx(2.0)
    assert r.steps_per_delay == 50
    assert r.open_loop is False        # the default width keeps the returning line
    assert len(r.times) == r.n_steps + 1
    assert set(r.series) == {"pA", "pB", "cAB"}
    for v in r.series.values():
        assert v.shape == r.times.shape
        assert v.dtype == np.complex128
    assert r.times[0] == 0.0
    assert r.times[-1] == pytest.approx(r.n_steps * r.h_fs)


# ---------------------------------------------------------------------------
# frozen regression values
# ---------------------------------------------------------------------------

# spot values at grid indices K + 1, 2K + 1 and the last step (K = 100,
# t_end = 600 fs, gamma*tau = 2, omega*tau = 3.7); any change to the
# stepper's arithmetic beyond rounding noise moves them
FROZEN = {
    "single_excitation": {
        "pA": (0.01761701945242808, 0.00032610739937219077, 0.04012745150385463),
        "pB": (0.00039207999999999995, 0.07183467357752839, 0.012113523762852746),
        "cAB": (0.0022047264722328905 - 0.0013773655490270592j,
                0.004127522054485402 - 0.0025229255219159637j,
                0.021538597356789282 + 0.004698777463940299j),
    },
    "two_photon": {
        "g20": (0.01761701945242808,
                0.00032610739937219077 + 6.3232082043411124e-06j,
                -0.013441372620761616 - 0.03780902508165184j),
        "g02": (0.0001719456361953667 + 0.0003523654702058229j,
                0.031502904124603694 + 0.06455840270411037j,
                -0.008442387814250382 - 0.00868333529317516j),
        "g11": (0.003117954078354743 + 0.0019478890397795314j,
                0.005766437922335332 + 0.003681219456464077j,
                -0.016464774997815613 - 0.02647317743082588j),
    },
}


@pytest.mark.parametrize("kind", sorted(FROZEN))
def test_frozen_spot_values(kind):
    K = 100
    build = {"single_excitation": models.build_single_excitation,
             "two_photon": models.build_two_photon}[kind]
    m = build(make_scaled(2.0, 3.7))
    r = engine.run(m.equations, m.default_init, steps_per_delay=K, t_end_fs=600.0)
    for name, want in FROZEN[kind].items():
        got = [complex(r.series[name][i]) for i in (K + 1, 2 * K + 1, -1)]
        assert got == pytest.approx([complex(w) for w in want], rel=1e-12)


# truncation certificate at band width 2K and spot values as above (K = 100,
# t_end = 600 fs) for the two UNEQUAL cavities, whose runs the wave-function
# oracle checks above: the width opens the FIRST_ARG_DELAYED reads, which
# only the certificate sees
FROZEN_UNEQUAL = {
    (UNEQUAL[0], "single_excitation"): (0.8230068479378082, {
        "pA": (0.13267360069642542,
              0.017946492920169903,
              0.47674602329209415),
        "pB": (0.00016731844999999998,
              0.4834447612749496,
              1.9518014023439507),
        "cAB": (-0.004703961456103772,
               -0.093132986313548 - 5.039058675495249e-05j,
               -0.6262304680134536 - 0.7336784761709962j),
    }),
    (UNEQUAL[0], "two_photon"): (0.584518902542058, {
        "g20": (0.13267360069642542,
               0.017946492920169903 + 1.9418430649243706e-05j,
               0.3196130888624776 - 0.3536527312621765j),
        "g02": (0.00016731845,
               0.4834447612749498,
               -1.6354613941905605 - 1.065225732058735j),
        "g11": (-0.006652406088102248,
               -0.13170993234892747 - 7.126305120479186e-05j,
               0.17584365937506732 + 1.352711662713174j),
    }),
    (UNEQUAL[1], "single_excitation"): (0.4493299255670137, {
        "pA": (0.44575253756525884,
              0.20028556923554364,
              0.0027788304488578467),
        "pB": (1.5936127999999998e-05,
              0.022549259367132785,
              0.0008623117365842682),
        "cAB": (0.0022410506208342617 - 0.0014000584460877078j,
               0.05699393726421494 - 0.035605158776876374j,
               0.0015399256048624723 + 0.0001575657374418555j),
    }),
    (UNEQUAL[1], "two_photon"): (0.4493299255670137, {
        "g20": (0.44575253756525884,
               0.20028556923554364 + 4.240213290188612e-06j,
               -0.0012995828856675416 + 0.002455855768413388j),
        "g02": (6.988746346283402e-06 + 1.4321927249490358e-05j,
               0.009888917434237844 + 0.020265201947798375j,
               -0.00024053360104388463 + 0.0008280434457451684j),
        "g11": (0.003169324181948458 + 0.001979981642572237j,
               0.08060053281481011 + 0.05035500514126085j,
               -0.0008214793721054931 + 0.0020289971875625747j),
    }),
}


@pytest.mark.parametrize("rates, kind", sorted(FROZEN_UNEQUAL))
def test_frozen_unequal_spot_values(rates, kind):
    K = 100
    m = getattr(models, f"build_{kind}")(make_unequal(*rates))
    r = engine.run(m.equations, m.default_init, steps_per_delay=K, t_end_fs=600.0,
                   band_width=2 * K)
    cert, spots = FROZEN_UNEQUAL[rates, kind]
    assert r.truncation_certificate == pytest.approx(cert, rel=1e-12, abs=0)
    for name, want in spots.items():
        got = [complex(r.series[name][i]) for i in (K + 1, 2 * K + 1, -1)]
        assert got == pytest.approx([complex(w) for w in want], rel=1e-12)


# truncation certificate and final system values at K = 100, t_end = 700 fs
# (gamma*tau = 2, omega*tau = 3.7) for (model, band width, FIRST_ARG_DELAYED
# on): widths below K cut the SAD reads short at the band edge, widths above
# K + 1 open the FIRST_ARG_DELAYED reads, which only the certificate sees
FROZEN_BAND = {
    ("single_excitation", 7, True): (
        0.8693664721317147, {"pA": 6.967806417142425e-13, "pB": 0j, "cAB": 0j}),
    ("single_excitation", 40, True): (
        0.44935329132562807, {"pA": 6.967806417142425e-13, "pB": 0j, "cAB": 0j}),
    ("single_excitation", 200, True): (0.08470510922227657, None),
    ("single_excitation", 300, True): (0.07004417584795163, None),
    ("single_excitation", 200, False): (0.024898626950421755, None),
    ("two_photon", 7, True): (
        0.8693664721317147, {"g20": 6.967806417142425e-13, "g02": 0j, "g11": 0j}),
    ("two_photon", 40, True): (
        0.44935329132562807, {"g20": 6.967806417142425e-13, "g02": 0j, "g11": 0j}),
    ("two_photon", 200, True): (0.035211975917754684, None),
    ("two_photon", 300, True): (0.00476606777458106, None),
    ("two_photon", 200, False): (0.035211975917754684, None),
}
# final system values once the band covers the delay (None above); the
# width and FIRST_ARG_DELAYED cannot change them
FROZEN_BAND_SYSTEM = {
    "single_excitation": {
        "pA": 0.0197199912145965,
        "pB": 0.029164574773033216,
        "cAB": 0.02257301694673604 - 0.008091355572982928j,
    },
    "two_photon": {
        "g20": -0.00236244446599787 - 0.01957745355164163j,
        "g02": 0.015700388900087896 - 0.02457623832163807j,
        "g11": 0.007538582794199092 - 0.033062400653121826j,
    },
}


def test_frozen_band_internals():
    builders = {"single_excitation": models.build_single_excitation,
                "two_photon": models.build_two_photon}
    for (kind, width, fad), (cert, last) in FROZEN_BAND.items():
        m = builders[kind](make_scaled(2.0, 3.7))
        r = engine.run(m.equations, m.default_init, steps_per_delay=100,
                       t_end_fs=700.0, band_width=width,
                       include_first_arg_delayed=fad)
        case = f"{kind} W={width} FAD={'on' if fad else 'off'}"
        assert r.truncation_certificate == pytest.approx(cert, rel=1e-12, abs=0), case
        want = FROZEN_BAND_SYSTEM[kind] if last is None else last
        got = {name: complex(v[-1]) for name, v in r.series.items()}
        assert got == pytest.approx(want, rel=1e-12, abs=0), case


# band values at position 300 and ages 20, 50, 80 (K = 100, W = 80,
# gamma*tau = 2, omega*tau = 3.7): a band between half a delay and one
# delay is where a SECOND_ARG_DELAYED read lands one age past the band
FROZEN_NARROW_BAND = {
    ("single_excitation", "bA_0A"): (0.00014852160629392545, 0.008711014141583685,
                                     0.005233067837677396),
    ("two_photon", "bA01_10"): (-0.00012124791808367382 + 0.00015531573324526767j,
                                -0.007566095973397861 + 0.009691991107850524j,
                                -0.004527473496610495 + 0.005799587135090446j),
}


def test_frozen_narrow_band_values():
    for (kind, var), want in FROZEN_NARROW_BAND.items():
        m = getattr(models, f"build_{kind}")(make_scaled(2.0, 3.7))
        it = HierarchyIntegrator(m.equations, m.default_init, steps_per_delay=100, band_width=80)
        for _ in range(300):
            it.step()
        got = [it.band_value(var, 300, 300 - age) for age in (20, 50, 80)]
        assert got == pytest.approx(list(want), rel=1e-12, abs=1e-15), kind


# band values of :func:`fad_only_toy` at position 3K and ages 5, K, K + 1
# and W, and the certificate, after 3K steps (K = 10): the delayed reads
# are FIRST_ARG_DELAYED alone, so the gather holds no SECOND_ARG_DELAYED line
FROZEN_FAD_ONLY = {
    11: ((0.22177170136762633 + 0.06336334324789325j, 0.17279027088781898 + 0.049368648825091135j,
          0.08097991652079464 + 0.06260196557095124j, 0.08097991652079464 + 0.06260196557095124j),
         0.1809769350891184),
    20: ((0.22177170136762633 + 0.06336334324789325j, 0.17279027088781898 + 0.049368648825091135j,
          0.08097991652079464 + 0.06260196557095124j, -0.4272844073920378 + 0.12975258882405297j),
         0.6027529124102237),
    25: ((0.22177170136762633 + 0.06336334324789325j, 0.17279027088781898 + 0.049368648825091135j,
          0.08097991652079464 + 0.06260196557095124j, -0.33164007330352885 - 0.01827471581854031j),
         0.3858864597725363),
}


@pytest.mark.parametrize("W", sorted(FROZEN_FAD_ONLY))
def test_frozen_fad_only_band_values(W):
    K = 10
    m = fad_only_toy()
    it = HierarchyIntegrator(m.equations, m.default_init, steps_per_delay=K, band_width=W)
    for _ in range(3 * K):
        it.step()
    want, cert = FROZEN_FAD_ONLY[W]
    got = [it.band_value("w", 3 * K, 3 * K - age) for age in (5, K, K + 1, W)]
    assert got == pytest.approx(list(want), rel=1e-12)
    assert it.truncation_certificate == pytest.approx(cert, rel=1e-12)


def test_rerun_is_bit_identical():
    m = models.build_single_excitation(make_scaled(2.0, 3.7))
    kw = dict(steps_per_delay=100, t_end_fs=400.0)
    r1 = engine.run(m.equations, m.default_init, **kw)
    r2 = engine.run(m.equations, m.default_init, **kw)
    for k in r1.series:
        assert np.array_equal(r1.series[k], r2.series[k])
