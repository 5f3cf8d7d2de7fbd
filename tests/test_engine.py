"""Integrator core: validation, storage contracts, and step accuracy.

The closed-form checks here deliberately avoid the shipped two-cavity
builders where possible -- tiny hand-rolled equation sets make the
band advance testable against results worked out by hand.
"""

from __future__ import annotations

import numpy as np
import pytest

from delayheom import engine, models
from delayheom.engine import (
    BandBuffer,
    EquationSet,
    EquationSetError,
    HierarchyIntegrator,
    NonFiniteStateError,
    Pattern,
    Term,
    default_band_width,
)
from tests.conftest import make_decoupled, make_scaled


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


# ---------------------------------------------------------------------------
# equation-set validation
# ---------------------------------------------------------------------------


def test_validate_rejects_duplicate_and_overlapping_names():
    with pytest.raises(EquationSetError):
        EquationSet(("s", "s"), ("w",), (BIRTH_W,), 100.0)
    with pytest.raises(EquationSetError):
        EquationSet(("s",), ("s",), (Term("s", 1.0, "s", Pattern.BIRTH),), 100.0)


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


def test_run_argument_validation():
    eqs = toy_eqs()
    with pytest.raises(ValueError):
        engine.run(eqs, {"s": 1.0}, steps_per_delay=0, t_end_fs=10.0)
    with pytest.raises(ValueError):
        engine.run(eqs, {"s": 1.0}, steps_per_delay=20, t_end_fs=0.0)
    with pytest.raises(ValueError, match="steps_per_delay"):
        engine.run(eqs, {"s": 1.0}, steps_per_delay=0, t_end_fs=10.0, band_width=5)
    with pytest.raises(ValueError):
        engine.run(eqs, {"s": 1.0}, steps_per_delay=20, t_end_fs=10.0, band_width=0)
    with pytest.raises(ValueError):
        engine.run(eqs, {"nope": 1.0}, steps_per_delay=20, t_end_fs=10.0)
    # the grid is integral: no silent truncation of a fractional argument
    with pytest.raises(ValueError, match="steps_per_delay"):
        engine.run(eqs, {"s": 1.0}, steps_per_delay=10.5, t_end_fs=100.0)
    with pytest.raises(ValueError, match="band_width"):
        engine.run(eqs, {"s": 1.0}, steps_per_delay=20, t_end_fs=10.0, band_width=7.9)
    r = engine.run(eqs, {"s": 1.0}, steps_per_delay=np.int64(20), t_end_fs=10.0,
                   band_width=np.int32(7))
    assert (r.steps_per_delay, r.band_width) == (20, 7)


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


def test_below_diagonal_reads_zero_by_name():
    eqs = toy_eqs()
    it = HierarchyIntegrator(eqs, {"s": 1.0}, steps_per_delay=10, band_width=11)
    for _ in range(5):
        it.step()
    assert it.band_value("w", 2, 4) == 0j


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
        col = 2 * m.equations.system_index(name) + 1
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
    g, _ = engine._complex_forms(eqs)
    index = {v: i for names in (sys_vars, band_vars) for i, v in enumerate(names)}
    for key, n_read, n_target in ((Pattern.DIAGONAL, 3, 2), (Pattern.BIRTH, 2, 3),
                                  (Pattern.SECOND_ARG_DELAYED, 3, 3)):
        P = np.zeros((n_read, n_target), dtype=complex)
        Q = np.zeros((n_read, n_target), dtype=complex)
        for t in terms:
            if t.pattern is key:
                (Q if t.conjugate else P)[index[t.var], index[t.target]] += t.coefficient
        real = g[engine._KEYS.index(key), : 2 * n_read, :n_target].view(np.float64)
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
    assert default_band_width(eqs, 20) == 21    # clamped to K + 1
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
    assert default_band_width(two, 1000) == 1001
    with pytest.raises(ValueError):
        default_band_width(eqs, 20, eps_band=0.0)
    with pytest.raises(ValueError):
        default_band_width(eqs, 20, eps_band=1.5)


def test_default_band_keeps_an_undamped_line_whole():
    # cavity A does not leak: its lines never fade, so the default band is
    # the full K + 1 and the run equals the explicit K + 1 run bit for bit
    cav = type(make_scaled(1.0, 0.0))(
        omega_a_ev=0.0, gamma_a_ev=0.0, omega_b_ev=0.0, gamma_b_ev=0.3,
        v_ab_ev=0.003, tau_fs=100.0,
    )
    m = models.build_single_excitation(cav)
    kw = dict(steps_per_delay=100, t_end_fs=1000.0)
    assert default_band_width(m.equations, 100) == 101
    r_def = engine.run(m.equations, m.default_init, **kw)
    r_full = engine.run(m.equations, m.default_init, band_width=101, **kw)
    assert r_def.band_width == 101
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


def test_truncation_certificate_reported_and_consistent():
    m = models.build_single_excitation(make_scaled(2.0, 3.7))
    kw = dict(steps_per_delay=100, t_end_fs=500.0)
    r1 = engine.run(m.equations, m.default_init, band_width=40, **kw)
    r2 = engine.run(m.equations, m.default_init, band_width=80, **kw)
    assert r1.truncation_certificate >= 0.0
    for k in ("pA", "pB"):
        drift = np.abs(r1.series[k][-1] - r2.series[k][-1])
        assert drift <= r1.truncation_certificate


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
    assert short.buffer.data.shape[0] < full.buffer.data.shape[0]
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


def test_fine_delay_grid_short_run_stays_small():
    # a run much shorter than the delay must not pay for the full
    # delay-squared ring (this is what makes stiff, vastly-delayed
    # configurations usable at a resolving step size)
    buf = BandBuffer(4, 20000, 500, horizon=400)
    assert buf.data.shape == (402, 402, 4)
    # ages only reach the band width, however long the delay
    assert BandBuffer(4, 1000, 346).data.shape == (1002, 348, 4)

    m = models.build_single_excitation(make_scaled(2.0, 3.7))
    r = engine.run(m.equations, m.default_init,
                   steps_per_delay=20000, t_end_fs=2.0)
    assert r.n_steps == 400
    assert np.all(r.series["pB"] == 0.0)      # nothing can arrive yet
    assert r.series["pA"][-1].real < 1.0


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
    assert r.tau_fs == 100.0
    assert r.steps_per_delay == 50
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


def test_rerun_is_bit_identical():
    m = models.build_single_excitation(make_scaled(2.0, 3.7))
    kw = dict(steps_per_delay=100, t_end_fs=400.0)
    r1 = engine.run(m.equations, m.default_init, **kw)
    r2 = engine.run(m.equations, m.default_init, **kw)
    for k in r1.series:
        assert np.array_equal(r1.series[k], r2.series[k])
