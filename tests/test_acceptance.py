"""Top-level acceptance gate: ten numbered end-to-end checks.

Each numbered test wraps one criterion in ``record_criterion``; the
session summary prints one PASS/FAIL line per criterion.  An unnumbered
closed-form anchor sits beside criterion 7.  Tolerances and wall
clock budgets are stated inline next to each check.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np

from delayheom import cli, engine, models, oracle, qnm
from delayheom.constants import CONSTANTS
from delayheom.engine import HierarchyIntegrator
from tests.conftest import make_decoupled, make_scaled

SLAB_21UM = dict(L_um=21.0, eps_r=math.pi**2, eps_b=1.0, R_um=13190.868152)


def test_criterion_1_resonance_analytics(record_criterion):
    with record_criterion(1, "slab resonance 1 - 0.21i and linewidth ratio"):
        q = qnm.qnm_frequency(qnm.SlabParams(**SLAB_21UM))
        assert abs(q.z.real - 1.0) <= 5e-3
        assert abs(q.z.imag - (-0.21)) <= 5e-3
        assert abs(q.ratio - 0.0124 / 0.06) <= 0.02 * (0.0124 / 0.06)


def test_criterion_2_cross_coupling_endpoint(record_criterion):
    with record_criterion(2, "cross-coupling 0.0062 eV from a 0.0124 eV linewidth"):
        cav = qnm.CavityParams.from_rates(0.06, 0.0124, 44000.0)
        assert cav.v_ab_ev == 0.0062          # exact, not approximately


def test_criterion_3_overlap_bound(record_criterion):
    with record_criterion(3, "overlap ratio under the exponential envelope"):
        for factor in (1.0, 5.0, 20.0, 100.0):
            slab = qnm.SlabParams(
                L_um=21.0, eps_r=math.pi**2, R_um=21.0 * factor
            )
            ov = qnm.overlaps(slab)
            assert abs(ov.ratio) < ov.envelope_bound


def test_criterion_4_hierarchy_tracks_delay_equations(record_criterion):
    with record_criterion(4, "hierarchy vs delay equations, 4 configs, 2nd order"):
        for gamma_tau in (0.5, 2.0):
            for omega_tau in (0.0, 3.7):
                t0 = time.perf_counter()
                cav = make_scaled(gamma_tau, omega_tau)
                m = models.build_single_excitation(cav)
                devs = {}
                for K in (200, 400):
                    r = engine.run(
                        m.equations, m.default_init,
                        steps_per_delay=K, t_end_fs=1000.0,
                    )
                    w = oracle.run_wavefunction(cav, K, 1000.0)
                    want = models.pure_state_crosscheck(w.amp_a, w.amp_b)
                    devs[K] = max(
                        np.abs(r.series[k] - want[k]).max()
                        for k in ("pA", "pB", "cAB")
                    )
                assert devs[200] <= 5e-3
                assert devs[200] / devs[400] >= 3.0
                assert time.perf_counter() - t0 < 10.0


def test_criterion_5_pre_delay_silence_and_free_decay(record_criterion):
    with record_criterion(5, "exact silence before the delay; free decay exact"):
        cav0 = make_decoupled(0.02)
        ga = cav0.gamma_a_ev / CONSTANTS.hbar_ev_fs
        m0 = models.build_single_excitation(cav0)
        r0 = engine.run(m0.equations, m0.default_init,
                        steps_per_delay=100, t_end_fs=1000.0)
        assert np.abs(r0.series["pA"] - np.exp(-2.0 * ga * r0.times)).max() <= 1e-8

        m = models.build_single_excitation(make_scaled(2.0, 3.7))
        r = engine.run(m.equations, m.default_init,
                       steps_per_delay=100, t_end_fs=300.0)
        assert np.abs(r.series["pB"][:101]).max() <= 1e-12


def test_criterion_6_discretized_field_crosscheck(record_criterion):
    with record_criterion(6, "brute-force field agrees and improves with modes"):
        t0 = time.perf_counter()
        cav = make_scaled(1.0, 0.0)
        w = oracle.run_wavefunction(cav, 100, 3000.0)
        devs = {}
        for M in (512, 4096, 8192):
            b = oracle.run_discretized_bath(cav, M, 100, 3000.0)
            devs[M] = max(
                np.abs(b.amp_a - w.amp_a).max(),
                np.abs(b.amp_b - w.amp_b).max(),
            )
            assert b.norm_drift < 1e-10
        assert devs[4096] <= 1e-2
        assert devs[512] > 10.0 * devs[4096]      # few modes measurably worse
        assert devs[8192] <= devs[4096] + 1e-6    # more modes never worse
        assert time.perf_counter() - t0 < 60.0


def test_criterion_7_trapped_state_is_stationary(record_criterion):
    with record_criterion(7, "trapped state: late-time derivatives vanish"):
        t0 = time.perf_counter()
        cav = make_scaled(1.0, 0.0)
        w = oracle.run_wavefunction(cav, 100, 3000.0)
        tail = slice(int(0.9 * len(w.times)), None)
        pop = np.abs(w.amp_a) ** 2
        assert np.abs(np.diff(pop[tail]) / w.h_fs).max() < 1e-6   # the premise

        m = models.build_single_excitation(cav)
        r = engine.run(m.equations, m.default_init,
                       steps_per_delay=100, t_end_fs=3000.0)
        for k in ("pA", "pB"):
            rates = np.abs(np.diff(r.series[k][tail].real) / r.h_fs)
            assert rates.max() < 1e-6
        assert time.perf_counter() - t0 < 30.0


def test_trapped_population_matches_closed_form():
    # at v = gamma/2 and omega tau = 0 (mod 2 pi) the trapped population
    # is pA(inf) = 1 / (4 (1 + gamma tau / hbar)^2): an anchor that needs
    # no oracle; the late pA must reach it at second order in h.
    # gamma tau = 2 is left out: its ratio reads 3.8 at 40 tau and shows
    # 4 only by about 80 tau
    for gamma_tau in (0.5, 1.0):
        want = 1.0 / (4.0 * (1.0 + gamma_tau) ** 2)
        for omega_tau in (0.0, 2.0 * math.pi):
            m = models.build_single_excitation(make_scaled(gamma_tau, omega_tau))
            dev = {}
            for K in (100, 200):
                r = engine.run(m.equations, m.default_init,
                               steps_per_delay=K, t_end_fs=40 * m.equations.tau_fs)
                dev[K] = abs(r.series["pA"][-1].real - want) / want
            assert dev[200] <= 2e-5, (gamma_tau, omega_tau)
            assert 3.5 <= dev[100] / dev[200] <= 4.5, (gamma_tau, omega_tau)


def test_criterion_8_two_photon_sum_rule(record_criterion):
    with record_criterion(8, "two-photon coherence sum rule at late times"):
        t0 = time.perf_counter()
        m = models.build_two_photon(make_scaled(1.0, 0.0))
        r = engine.run(m.equations, m.default_init,
                       steps_per_delay=100, t_end_fs=3000.0)
        g20, g02, g11 = (r.series[k][-1] for k in ("g20", "g02", "g11"))
        assert abs(abs(g11) ** 2 - abs(g20) ** 2 - abs(g02) ** 2) < 1e-3
        assert time.perf_counter() - t0 < 60.0


def test_criterion_9_far_side_terms_do_not_feed_back(record_criterion):
    with record_criterion(9, "deep-band terms leave the system block untouched"):
        t0 = time.perf_counter()
        m = models.build_single_excitation(make_scaled(2.0, 3.7))
        kw = dict(steps_per_delay=100, t_end_fs=1000.0, band_width=200)
        r_on = engine.run(m.equations, m.default_init, **kw)
        r_off = engine.run(
            m.equations, m.default_init, include_first_arg_delayed=False, **kw
        )
        for k in ("pA", "pB", "cAB"):
            assert np.abs(r_on.series[k] - r_off.series[k]).max() <= 1e-10
        # non-vacuity: the deep band itself did change
        assert r_on.truncation_certificate != r_off.truncation_certificate
        assert time.perf_counter() - t0 < 20.0


def test_criterion_10_engineering_invariants(record_criterion, tmp_path):
    with record_criterion(10, "determinism, hermiticity, bounds, causality, certificate"):
        # determinism: two CLI runs, byte-identical CSV
        cfg = {
            "model": "single_excitation",
            "cavity": {
                "omega_a_ev": 0.0243538424053, "gamma_a_ev": 0.006582119569,
                "omega_b_ev": 0.0243538424053, "gamma_b_ev": 0.006582119569,
                "v_ab_ev": 0.0032910597845, "tau_fs": 100.0,
            },
            "steps_per_delay": 100, "t_end_fs": 600.0,
        }
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(cfg))
        outs = []
        for name in ("one.csv", "two.csv"):
            out = tmp_path / name
            assert cli.main(["simulate", "--config", str(cfgfile),
                             "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

        # hermiticity and boundedness on a long coupled run
        m = models.build_single_excitation(make_scaled(2.0, 3.7))
        r = engine.run(m.equations, m.default_init,
                       steps_per_delay=100, t_end_fs=2000.0)
        for k in ("pA", "pB"):
            assert np.abs(r.series[k].imag).max() <= 1e-10
            assert r.series[k].real.min() >= -1e-9
            assert r.series[k].real.max() <= 1.0 + 1e-9

        # causality: below-diagonal band reads are exact zeros
        it = HierarchyIntegrator(
            m.equations, m.default_init, steps_per_delay=50, band_width=51
        )
        for _ in range(60):
            it.step()
        for (i, j) in ((20, 30), (55, 58), (12, 60)):
            assert it.band_value("bB_0A", i, j) == 0j

        # certificate consistency: widening the band moves the final
        # populations by less than the reported bound
        kw = dict(steps_per_delay=100, t_end_fs=600.0)
        narrow = engine.run(m.equations, m.default_init, band_width=40, **kw)
        wide = engine.run(m.equations, m.default_init, band_width=80, **kw)
        for k in ("pA", "pB"):
            shift = abs(narrow.series[k][-1] - wide.series[k][-1])
            assert shift < narrow.truncation_certificate
