"""Command-line behaviour, driven in-process through ``cli.main``.

Everything runs through ``main(argv)`` with captured stdio -- no
subprocesses -- so the exit-code contract (0 ok, 1 config/usage,
2 numerical failure, 3 compare miss) is what is actually asserted.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import tracemalloc
import types

import numpy as np
import pytest

from delayheom import __version__, cli, engine, models, oracle, qnm
from delayheom.constants import CONSTANTS
from tests.conftest import make_unequal

BASE_CAVITY = {
    "omega_a_ev": 0.0243538424053,
    "gamma_a_ev": 0.006582119569,
    "omega_b_ev": 0.0243538424053,
    "gamma_b_ev": 0.006582119569,
    "v_ab_ev": 0.0032910597845,
    "tau_fs": 100.0,
}


SLAB = {"L_um": 21.0, "eps_r": 9.87, "R_um": 100.0}

_DROP = object()    # an override that removes the key


def base_config(**overrides):
    cfg = {
        "model": "single_excitation",
        "cavity": dict(BASE_CAVITY),
        "steps_per_delay": 50,
        "t_end_fs": 400.0,
    }
    cfg.update(overrides)
    return {k: v for k, v in cfg.items() if v is not _DROP}


def write_cfg(tmp_path, **overrides):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(base_config(**overrides)))
    return str(path)


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == f"delayheom {__version__}"


def test_unknown_subcommand_is_usage_error(capsys):
    assert cli.main(["frobnicate"]) == 1
    assert "error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_csv_and_sidecar(tmp_path, capsys):
    out = tmp_path / "run.csv"
    assert cli.main(["simulate", "--config", write_cfg(tmp_path),
                     "--out", str(out)]) == 0
    msg = capsys.readouterr().out
    assert "wrote" in msg and "201 rows" in msg and "certificate" in msg

    lines = out.read_text().splitlines()
    assert lines[0] == "time_fs,pA_re,pA_im,pB_re,pB_im,cAB_re,cAB_im"
    assert len(lines) == 1 + 201
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == 1.0 and float(first[2]) == 0.0

    meta = json.loads((tmp_path / "run.csv.meta.json").read_text())
    assert set(meta) == {
        "package_version", "model", "cavity", "steps_per_delay", "h_fs",
        "t_end_fs", "n_steps", "band_width", "eps_band",
        "include_first_arg_delayed", "initial_state",
        "truncation_certificate", "open_loop", "band_bytes", "band_width_source",
        "trajectory_bytes", "default_band_width", "stability_margin", "wall_time_s",
    }
    assert meta["model"] == "single_excitation"
    assert meta["steps_per_delay"] == 50
    assert meta["h_fs"] == 2.0
    assert meta["n_steps"] == 200
    assert meta["cavity"]["tau_fs"] == 100.0
    assert meta["initial_state"] == {"pA": [1.0, 0.0]}
    assert meta["truncation_certificate"] >= 0.0
    assert "wall_time_s" in meta
    # the sidecar holds every run fact of the result, as the result has it
    cfg = cli.load_config(base_config())
    m = cfg["model"]
    r = engine.run(m.equations, m.default_init, steps_per_delay=50, t_end_fs=400.0)
    facts = {f.name for f in dataclasses.fields(r)} - {"times", "series"}
    assert facts <= set(meta)
    assert {k: meta[k] for k in facts} == {k: getattr(r, k) for k in facts}
    assert meta["open_loop"] is False


def test_simulate_roundtrips_full_precision(tmp_path):
    from delayheom import models

    cfgfile = write_cfg(tmp_path)
    out = tmp_path / "run.csv"
    assert cli.main(["simulate", "--config", cfgfile, "--out", str(out)]) == 0

    cfg = cli.load_config(json.loads((tmp_path / "cfg.json").read_text()))
    m = models.build_single_excitation(cfg["cavity"])
    r = engine.run(m.equations, m.default_init, steps_per_delay=50, t_end_fs=400.0)

    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    got = np.array([complex(float(row[5]), float(row[6])) for row in rows])
    assert np.array_equal(got, r.series["cAB"])    # %.17g loses nothing


def test_csv_write_memory_does_not_grow_with_the_run(tmp_path):
    # the CSV is formatted a block of rows at a time: writing eleven blocks
    # peaks where writing one does (the whole table at once peaked at about
    # ten times as much), and every value round-trips across the block edges
    rng = np.random.default_rng(7)
    peaks = []
    for n in (cli._CSV_BLOCK, 10 * cli._CSV_BLOCK + 3):
        series = {v: rng.normal(size=n) + 1j * rng.normal(size=n) for v in ("pA", "pB", "cAB")}
        result = types.SimpleNamespace(times=np.arange(n) * 0.1, series=series)
        out = tmp_path / f"{n}.csv"
        tracemalloc.start()
        try:
            cli.write_csv(out, result)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        lines = out.read_text().splitlines()
        assert lines[0] == "time_fs,pA_re,pA_im,pB_re,pB_im,cAB_re,cAB_im"
        table = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
        assert np.array_equal(table[:, 0], result.times)
        for k, values in enumerate(series.values()):
            assert np.array_equal(table[:, 1 + 2 * k], values.real)
            assert np.array_equal(table[:, 2 + 2 * k], values.imag)
    assert peaks[1] < 1.5 * peaks[0], peaks


def test_csv_blocks_write_the_bytes_of_a_row_by_row_format(tmp_path):
    # each block is formatted at once; the bytes are those of one "%.17g"
    # per value, row by row, for signed zeros, subnormals, values near the
    # float range and exact integers, over two block edges
    n = 2 * cli._CSV_BLOCK + 1
    special = np.array([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072e-310, 1e300, -1e300,
                        1.0, -3.0, 2.0**53, 1e16, 0.1])
    values = np.resize(special, 6 * n).reshape(6, n)
    series = {v: np.stack(values[2 * k : 2 * k + 2], axis=-1).view(complex)[:, 0]
              for k, v in enumerate(("pA", "pB", "cAB"))}
    result = types.SimpleNamespace(times=np.resize(special[::-1], n), series=series)
    out = tmp_path / "edge.csv"
    cli.write_csv(out, result)
    columns = [result.times] + [part for v in series.values() for part in (v.real, v.imag)]
    want = "time_fs,pA_re,pA_im,pB_re,pB_im,cAB_re,cAB_im\n" + "".join(
        ",".join("%.17g" % float(c[i]) for c in columns) + "\n" for i in range(n))
    assert out.read_bytes() == want.encode("utf-8")
    assert {"-0", "4.9406564584124654e-324", "-1.0000000000000001e+300", "9007199254740992"} <= set(
        want.replace("\n", ",").split(","))


def test_simulate_is_byte_deterministic(tmp_path):
    cfgfile = write_cfg(tmp_path)
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        assert cli.main(["simulate", "--config", cfgfile, "--out", str(out)]) == 0
        outs.append(out)
    assert outs[0].read_bytes() == outs[1].read_bytes()
    metas = [json.loads((tmp_path / f"{n}.meta.json").read_text())
             for n in ("a.csv", "b.csv")]
    for m in metas:
        m.pop("wall_time_s")
    assert metas[0] == metas[1]


def test_simulate_accepts_bundled_preset_names(tmp_path, capsys):
    out = tmp_path / "preset.csv"
    assert cli.main(["simulate", "--config", "scaled_pair",
                     "--out", str(out)]) == 0
    assert out.exists()
    meta = json.loads((tmp_path / "preset.csv.meta.json").read_text())
    assert meta["steps_per_delay"] == 200
    # a ring of K + 2 = 202 rows, each a one-cell system slot and
    # band_width + 2 = 202 ages of 4 lines
    assert meta["band_bytes"] == 202 * 203 * 4 * 16 == 2_624_384
    # the slowest decay is the lines', gamma h / hbar = 0.005: R(-0.005) = 0.9950125
    assert (meta["default_band_width"], meta["stability_margin"]) == (200, 0.9950125)


def test_slab_preset_covers_the_decay_epoch(tmp_path, capsys):
    # the slab-derived preset lives in the vast-delay regime: the mode
    # dies ~1650x faster than the photon round trip, so the shipped run
    # resolves the decay and the second slab stays exactly dark
    out = tmp_path / "slab.csv"
    assert cli.main(["simulate", "--config", "slab_21um",
                     "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert all(float(r[3]) == 0.0 and float(r[4]) == 0.0 for r in rows)
    assert float(rows[-1][1]) < 1e-20
    meta = json.loads((tmp_path / "slab.csv.meta.json").read_text())
    assert meta["cavity"]["tau_fs"] == 44000.0
    assert meta["truncation_certificate"] < 1e-10
    # the eps width, 534 of K = 16000 steps, drops the returning line
    assert (meta["band_width"], meta["steps_per_delay"], meta["open_loop"]) == (534, 16000, True)
    # the run ends within one delay, so its ring keeps 34 rows, not 548,
    # of a one-cell system slot and 536 ages
    assert meta["band_bytes"] == 34 * 537 * 4 * 16 == 1_168_512
    assert meta["default_band_width"] == 534
    assert meta["stability_margin"] == pytest.approx(0.9495564, abs=1e-7)


def test_slab_run_within_one_delay_stays_small():
    # the slab preset ends long before its photon returns, so no step reads
    # a ring row back and the ring keeps 34 rows, not one per step; the
    # run's peak was 18.9 MB with a row per step
    cfg = cli.load_config(cli.read_config_file("slab_21um"))
    tracemalloc.start()
    try:
        r = engine.run(cfg["model"].equations, cfg["init"],
                       steps_per_delay=cfg["steps_per_delay"], t_end_fs=cfg["t_end_fs"],
                       band_width=cfg["band_width"], eps_band=cfg["eps_band"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert r.n_steps < r.steps_per_delay
    assert peak < 4e6


def test_missing_config_lists_presets(tmp_path, capsys):
    assert cli.main(["simulate", "--config", "not_a_preset",
                     "--out", str(tmp_path / "x.csv")]) == 1
    err = capsys.readouterr().err
    assert "config file not found: not_a_preset" in err
    assert "slab_21um" in err and "scaled_pair" in err


#: a passive cavity on a grid too coarse for its decay: 2 gamma h / hbar is
#: about 3, past Heun's stability edge of 2 (stability_margin 2.578)
_UNSTABLE = dict(BASE_CAVITY, omega_a_ev=0.0, omega_b_ev=0.0,
                 gamma_a_ev=0.1, gamma_b_ev=0.1, v_ab_ev=0.05)


def test_divergent_run_exits_two(tmp_path, capsys):
    # at 2 gamma h / hbar = 1.9 the step without delay is stable
    # (stability_margin 0.905), but K = 10 puts the delayed coupling past
    # the edge, 1.865: the run passes the pre-flight and blows up
    g = 1.9 * CONSTANTS.hbar_ev_fs / (2 * 10.0)
    cav = dict(BASE_CAVITY, omega_a_ev=0.0, omega_b_ev=0.0, gamma_a_ev=g, gamma_b_ev=g,
               v_ab_ev=g / 2)
    cfgfile = write_cfg(tmp_path, cavity=cav, steps_per_delay=10, t_end_fs=4000 * 100.0)
    assert cli.main(["simulate", "--config", cfgfile,
                     "--out", str(tmp_path / "x.csv")]) == 2
    assert ("numerical failure: non-finite state at step 33481 (t = 334810 fs)"
            in capsys.readouterr().err)


def test_an_unstable_grid_is_refused_before_the_run(tmp_path, capsys, monkeypatch):
    # the run would exit 0 with pA = 2.4e123 by 3000 fs, and 2 by 10000 fs
    def reached(*args, **kwargs):
        raise AssertionError("a refused config reached the engine")

    monkeypatch.setattr(engine, "run", reached)
    for t_end_fs in (3000.0, 10000.0):
        cfgfile = write_cfg(tmp_path, cavity=_UNSTABLE, steps_per_delay=10, t_end_fs=t_end_fs)
        assert cli.main(["simulate", "--config", cfgfile,
                         "--out", str(tmp_path / "x.csv")]) == 1
        assert capsys.readouterr().err == (
            "config error at steps_per_delay: the Heun step grows a mode by 2.578 > 1 per "
            "step (stability_margin), so the run diverges: take more steps per delay\n")
    # 20 steps per delay bring the margin to 0.635, and the same cavity loads
    assert cli.load_config(base_config(cavity=_UNSTABLE, steps_per_delay=20))


# ---------------------------------------------------------------------------
# config validation (all exit 1, with the offending path named)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "overrides, needle",
    [
        ({"bogus": 1}, "config error at bogus: unknown key"),
        ({"steps_per_delay": 5}, "steps_per_delay"),
        ({"t_end_fs": -1.0}, "t_end_fs"),
        ({"eps_band": 2.0}, "eps_band"),
        ({"initial_state": {"pX": 1.0}}, "initial_state.pX"),
        ({"literal_two_photon_source": True},
         "config error at literal_two_photon_source: unknown key"),
        ({"model": "three_photon"}, "config error at model"),
        ({"cavity": dict(BASE_CAVITY, nonsense=2.0)}, "cavity.nonsense"),
        ({"band_width": 0}, "band_width"),
        # JSON as Python reads it admits NaN and Infinity
        ({"t_end_fs": math.nan}, "config error at t_end_fs"),
        ({"t_end_fs": math.inf}, "config error at t_end_fs"),
        ({"t_end_fs": 10**400}, "config error at t_end_fs"),
        ({"cavity": dict(BASE_CAVITY, gamma_a_ev=math.nan)}, "config error at cavity.gamma_a_ev"),
        ({"cavity": dict(BASE_CAVITY, tau_fs=math.inf)}, "config error at cavity.tau_fs"),
        ({"initial_state": {"pA": [1.0, math.nan]}}, "config error at initial_state.pA"),
        ({"steps_per_delay": 10**400}, "config error at steps_per_delay"),
        ({"band_width": 10**400}, "config error at band_width"),
        # open loop: the band ends before the returning line
        ({"steps_per_delay": 100, "band_width": 40}, "config error at band_width"),
        # step counts no array can index: infinite, and past sys.maxsize
        ({"cavity": dict(BASE_CAVITY, tau_fs=1e-300), "steps_per_delay": 10,
          "t_end_fs": 1e300}, "config error at t_end_fs: implies inf steps"),
        ({"cavity": dict(BASE_CAVITY, tau_fs=1e-300), "steps_per_delay": 10,
          "t_end_fs": 1e-280}, "config error at t_end_fs: implies 1e+21 steps"),
    ],
)
def test_config_errors_name_the_path(tmp_path, capsys, overrides, needle):
    assert cli.main(["simulate", "--config", write_cfg(tmp_path, **overrides),
                     "--out", str(tmp_path / "x.csv")]) == 1
    assert needle in capsys.readouterr().err


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"bogus": 1}, "config error at bogus: unknown key"),
        ({"model": "three_photon"},
         "config error at model: must be one of ('single_excitation', 'two_photon')"),
        ({"cavity": 3}, "config error at cavity: must be an object"),
        ({"cavity": _DROP, "slab": 3}, "config error at slab: must be an object"),
        ({"steps_per_delay": 5}, "config error at steps_per_delay: must be an integer >= 10"),
        ({"steps_per_delay": _DROP}, "config error at steps_per_delay: required key missing"),
        ({"t_end_fs": -1.0}, "config error at t_end_fs: must be a positive finite number"),
        ({"t_end_fs": math.nan}, "config error at t_end_fs: must be finite"),
        ({"band_width": 0}, "config error at band_width: must be an integer >= 1"),
        ({"eps_band": 2.0}, "config error at eps_band: must be a number in (0, 1)"),
        ({"include_first_arg_delayed": 1},
         "config error at include_first_arg_delayed: must be a boolean"),
        ({"initial_state": [1]}, "config error at initial_state: must be an object"),
        ({"cavity": dict(BASE_CAVITY, gamma_a_ev="x")},
         "config error at cavity.gamma_a_ev: expected float"),
        ({"cavity": dict(BASE_CAVITY, tau_fs=math.inf)},
         "config error at cavity.tau_fs: must be finite"),
        ({"initial_state": {"pA": "x"}},
         "config error at initial_state.pA: expected a number or a [re, im] pair"),
        ({"cavity": _DROP, "slab": dict(SLAB, eps_r=0.5)},
         "config error at slab: eps_r must exceed eps_b"),
        ({"cavity": dict(BASE_CAVITY, gamma_b_ev=-1.0)},
         "config error at cavity: decay rates must be nonnegative"),
        ({"cavity": dict(BASE_CAVITY, tau_fs=0.0)},
         "config error at cavity.tau_fs: the delay must be positive to lock the grid to it"),
        ({"cavity": dict(BASE_CAVITY, tau_fs=-5.0)},
         "config error at cavity.tau_fs: the delay must be positive to lock the grid to it"),
        ({"cavity": _DROP, "slab": dict(SLAB, R_um=0.0)},
         "config error at slab.R_um: the delay must be positive to lock the grid to it"),
        ({"cavity": _DROP, "slab": dict(SLAB, R_um=-1.0)},
         "config error at slab.R_um: the delay must be positive to lock the grid to it"),
        # an active coupling, 2|v| / sqrt(gamma_a gamma_b) = 2.37: the
        # populations reach 3e3 by 2000 fs
        ({"cavity": dataclasses.asdict(make_unequal(1.0, 0.3, 0.0, 2.1, 0.65))},
         "config error at cavity.v_ab_ev: must satisfy 2|v_ab_ev| <= sqrt(gamma_a_ev "
         "gamma_b_ev): a larger coupling is active, and the populations grow without bound"),
    ],
)
def test_config_error_messages(overrides, message):
    with pytest.raises(cli.ConfigError) as exc:
        cli.load_config(base_config(**overrides))
    assert str(exc.value) == message


def test_passivity_refuses_a_coupling_just_past_the_bound():
    # 4 v^2 = gamma_a gamma_b (1 + 1e-9): past the bound by more than its 1e-12 slack
    g_b = 0.5 * BASE_CAVITY["gamma_b_ev"]
    v = math.sqrt(BASE_CAVITY["gamma_a_ev"] * g_b * (1 + 1e-9)) / 2
    with pytest.raises(cli.ConfigError, match="^config error at cavity.v_ab_ev: "):
        cli.load_config(base_config(cavity=dict(BASE_CAVITY, gamma_b_ev=g_b, v_ab_ev=v)))
    # the slab preset's derived coupling sits on the bound, and loads as a cavity block
    raw = cli.read_config_file("slab_21um")
    cavity = dataclasses.asdict(cli.load_config(raw)["cavity"])
    assert 4 * cavity["v_ab_ev"] ** 2 == cavity["gamma_a_ev"] * cavity["gamma_b_ev"]
    del raw["slab"]
    cli.load_config(dict(raw, cavity=cavity))


def test_null_band_width_is_the_default():
    cfg = cli.load_config(base_config(band_width=None))
    assert cfg == cli.load_config(base_config()) and cfg["band_width"] is None


def test_band_width_below_one_delay_loads_when_eps_drops_the_line():
    # at gamma tau / hbar = 40 the eps rule keeps 70 < K steps of a line,
    # so a user width of 50 is no more open loop than the default
    g = 40 * BASE_CAVITY["gamma_a_ev"]
    cav = dict(BASE_CAVITY, gamma_a_ev=g, gamma_b_ev=g, v_ab_ev=g / 2)
    cfg = cli.load_config(base_config(cavity=cav, steps_per_delay=100, band_width=50))
    assert engine.default_band_width(cfg["model"].equations, 100) == 70
    assert cfg["band_width"] == 50
    with pytest.raises(cli.ConfigError, match="config error at band_width"):
        cli.load_config(base_config(steps_per_delay=100, band_width=99))


#: the cavity of the test above, whose eps rule keeps 70 < K = 100 steps of a line
_G = 40 * BASE_CAVITY["gamma_a_ev"]
_FAST = dict(BASE_CAVITY, gamma_a_ev=_G, gamma_b_ev=_G, v_ab_ev=_G / 2)


@pytest.mark.parametrize(
    "overrides, refused",
    [
        ({}, False),    # the default width
        ({"band_width": 60}, False),    # a user width >= K
        ({"cavity": _FAST, "steps_per_delay": 100, "band_width": 50}, False),
        ({"steps_per_delay": 100, "band_width": 99}, True),    # open loop
    ],
)
def test_load_config_plans_each_config_once(monkeypatch, overrides, refused):
    plan_run, plans = engine.plan_run, []

    def counted(*args, **kwargs):
        plans.append(kwargs)
        return plan_run(*args, **kwargs)

    monkeypatch.setattr(engine, "plan_run", counted)

    def other_width(*args, **kwargs):
        raise AssertionError("the plan holds the default width")

    monkeypatch.setattr(engine, "default_band_width", other_width)
    with pytest.raises(cli.ConfigError) if refused else contextlib.nullcontext():
        cli.load_config(base_config(**overrides))
    assert len(plans) == 1


@pytest.mark.parametrize(
    "overrides, key, nbytes",
    [
        # two delays at K = 16000 with a slow decay: the capped width keeps a
        # ring of K + 2 rows of a one-cell system slot and K + 2 ages of 4
        # lines, 16.4 GB
        ({"steps_per_delay": 16000, "t_end_fs": 200.0}, "steps_per_delay", 16002 * 16003 * 4 * 16),
        ({"steps_per_delay": 16000, "t_end_fs": 200.0, "band_width": 16000}, "band_width",
         16002 * 16003 * 4 * 16),
        # 10^8 delays at K = 10: 10^9 steps of 3 system values, 48 GB
        ({"steps_per_delay": 10, "t_end_fs": 1e10}, "t_end_fs", (10**9 + 1) * 3 * 16),
    ],
)
def test_memory_budget_refuses_before_anything_is_allocated(
        tmp_path, capsys, monkeypatch, overrides, key, nbytes):
    def reached(*args, **kwargs):
        raise AssertionError("a refused config reached the engine")

    monkeypatch.setattr(engine, "run", reached)
    monkeypatch.setattr(engine, "HierarchyIntegrator", reached)
    assert cli.main(["simulate", "--config", write_cfg(tmp_path, **overrides),
                     "--out", str(tmp_path / "x.csv")]) == 1
    assert f"config error at {key}: the " in capsys.readouterr().err
    # the refused byte count, computed and never allocated
    cfg = base_config(**overrides)
    m = models.build_single_excitation(qnm.CavityParams(**cfg["cavity"]))
    plan = engine.plan_run(m.equations, steps_per_delay=cfg["steps_per_delay"],
                           t_end_fs=cfg["t_end_fs"], band_width=cfg.get("band_width"))
    assert max(plan.band_bytes, plan.trajectory_bytes) == nbytes > cli._ARRAY_BUDGET


@pytest.mark.parametrize(
    "overrides, key, nbytes",
    [
        # a ring of 52 rows, each a one-cell system slot and 52 ages of 4 lines
        ({}, "steps_per_delay", 52 * 53 * 4 * 16),
        ({"band_width": 50}, "band_width", 52 * 53 * 4 * 16),
        # 100 delays at K = 10: 1001 x 3 recorded values, and a ring of 12 rows of 13 cells
        ({"steps_per_delay": 10, "t_end_fs": 10000.0}, "t_end_fs", 1001 * 3 * 16),
    ],
)
def test_memory_budget_admits_an_array_of_exactly_its_size(monkeypatch, overrides, key, nbytes):
    monkeypatch.setattr(cli, "_ARRAY_BUDGET", nbytes)
    cli.load_config(base_config(**overrides))
    monkeypatch.setattr(cli, "_ARRAY_BUDGET", nbytes - 1)
    with pytest.raises(cli.ConfigError, match=f"config error at {key}: the "):
        cli.load_config(base_config(**overrides))


def test_subnormal_delay_runs_at_the_capped_width(tmp_path, capsys):
    # ln(1/eps) K / (gamma tau) overflows to inf at tau = 1e-310 fs: the
    # default width is the cap K, not an OverflowError
    out = tmp_path / "x.csv"
    cfgfile = write_cfg(tmp_path, cavity=dict(BASE_CAVITY, tau_fs=1e-310),
                        steps_per_delay=10, t_end_fs=1e-309)
    assert cli.main(["simulate", "--config", cfgfile, "--out", str(out)]) == 0
    meta = json.loads((tmp_path / "x.csv.meta.json").read_text())
    assert (meta["band_width"], meta["n_steps"]) == (10, 100)


def test_config_requires_exactly_one_geometry_block(tmp_path, capsys):
    path = tmp_path / "both.json"
    path.write_text(json.dumps({
        "model": "single_excitation", "cavity": dict(BASE_CAVITY),
        "slab": dict(SLAB), "steps_per_delay": 50, "t_end_fs": 100.0,
    }))
    assert cli.main(["simulate", "--config", str(path),
                     "--out", str(tmp_path / "x.csv")]) == 1
    assert "exactly one of 'slab' or 'cavity'" in capsys.readouterr().err

    path.write_text(json.dumps({"steps_per_delay": 50, "t_end_fs": 100.0}))
    assert cli.main(["simulate", "--config", str(path),
                     "--out", str(tmp_path / "x.csv")]) == 1


def test_invalid_json_reports_cleanly(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert cli.main(["simulate", "--config", str(path),
                     "--out", str(tmp_path / "x.csv")]) == 1
    assert "not valid JSON" in capsys.readouterr().err


def test_config_that_is_a_directory_reports_cleanly(tmp_path, capsys):
    assert cli.main(["simulate", "--config", str(tmp_path),
                     "--out", str(tmp_path / "x.csv")]) == 1
    assert f"cannot read config file {tmp_path}" in capsys.readouterr().err


def test_config_that_is_not_utf8_reports_cleanly(tmp_path, capsys):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe" + "{}".encode("utf-16-le"))
    assert cli.main(["simulate", "--config", str(path),
                     "--out", str(tmp_path / "x.csv")]) == 1
    assert f"cannot read config file {path}" in capsys.readouterr().err


@pytest.mark.parametrize("out, needle", [("missing_dir/x.csv", "--out directory does not exist"),
                                         (".", "--out is a directory")])
def test_unwritable_out_is_refused_before_the_run(tmp_path, capsys, monkeypatch, out, needle):
    def no_run(*args, **kwargs):
        raise AssertionError("the run started")

    monkeypatch.setattr(engine, "run", no_run)
    assert cli.main(["simulate", "--config", write_cfg(tmp_path),
                     "--out", str(tmp_path / out)]) == 1
    assert needle in capsys.readouterr().err
    assert not (tmp_path / "missing_dir").exists()


def test_sidecar_that_is_a_directory_is_refused_before_the_run(tmp_path, capsys, monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("the run started")

    monkeypatch.setattr(engine, "run", no_run)
    (tmp_path / "o.csv.meta.json").mkdir()
    assert cli.main(["simulate", "--config", write_cfg(tmp_path),
                     "--out", str(tmp_path / "o.csv")]) == 1
    assert (f"--out sidecar is a directory: {tmp_path / 'o.csv.meta.json'}"
            in capsys.readouterr().err)
    assert not (tmp_path / "o.csv").exists()


def test_a_failed_sidecar_write_leaves_neither_output(tmp_path, capsys, monkeypatch):
    cfgfile = write_cfg(tmp_path)
    assert cli.main(["simulate", "--config", cfgfile, "--out", str(tmp_path / "ok.csv")]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "ok.csv", "ok.csv.meta.json"]

    def full_disk(path, *args):
        raise OSError(28, "No space left on device", path)

    monkeypatch.setattr(cli, "_write_meta", full_disk)
    out = tmp_path / "x.csv"
    assert cli.main(["simulate", "--config", cfgfile, "--out", str(out)]) == 1
    assert f"cannot write {out}.meta.json" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "ok.csv", "ok.csv.meta.json"]


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def test_compare_pass_and_fail_codes(tmp_path, capsys):
    cfgfile = write_cfg(tmp_path)
    assert cli.main(["compare", "--config", cfgfile]) == 0
    assert "PASS" in capsys.readouterr().out
    assert cli.main(["compare", "--config", cfgfile,
                     "--tolerance", "1e-12"]) == 3
    assert "FAIL" in capsys.readouterr().out
    # the photon may start in the second cavity too
    cfgfile = write_cfg(tmp_path, initial_state={"pB": 1.0})
    assert cli.main(["compare", "--config", cfgfile]) == 0
    assert "PASS" in capsys.readouterr().out


@pytest.mark.parametrize("tolerance", ["nan", "inf", "-inf", "-1e-3"])
def test_compare_refuses_a_bad_tolerance(tmp_path, capsys, tolerance):
    assert cli.main(["compare", "--config", write_cfg(tmp_path),
                     f"--tolerance={tolerance}"]) == 1
    assert "--tolerance must be a finite number >= 0" in capsys.readouterr().err


def test_compare_counts_steps_as_the_engine_does(tmp_path, capsys):
    # t_end / (tau / K) rounds to 33 steps here, t_end * K / tau to 32
    cfgfile = write_cfg(tmp_path, steps_per_delay=10, t_end_fs=320.00000001)
    assert cli.main(["compare", "--config", cfgfile]) == 0
    assert "PASS" in capsys.readouterr().out
    cfg = cli.load_config(base_config(steps_per_delay=10, t_end_fs=320.00000001))
    result = cli._run_from(cfg)
    wf = oracle.run_wavefunction(cfg["cavity"], 10, cfg["t_end_fs"])
    assert result.n_steps == len(wf.times) - 1 == 32


def test_compare_rejects_unsupported_initial_states(tmp_path, capsys):
    cfgfile = write_cfg(tmp_path, initial_state={"cAB": 0.5})
    assert cli.main(["compare", "--config", cfgfile]) == 1
    assert "compare supports only" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# qnm-info
# ---------------------------------------------------------------------------


def test_qnm_info_matches_the_library(capsys):
    code = cli.main([
        "qnm-info", "--L", "21.0", "--eps-r", str(math.pi**2),
        "--R", "13190.868152",
    ])
    assert code == 0
    out = dict(
        line.split(": ", 1) for line in capsys.readouterr().out.splitlines()
    )
    slab = qnm.SlabParams(L_um=21.0, eps_r=math.pi**2, R_um=13190.868152)
    q = qnm.qnm_frequency(slab)
    cav = qnm.derive_cavity_params(slab)
    ov = qnm.overlaps(slab)
    assert float(out["omega_ev"]) == pytest.approx(q.omega_ev, rel=1e-11)
    assert float(out["gamma_ev"]) == pytest.approx(q.gamma_ev, rel=1e-11)
    assert float(out["tau_fs"]) == pytest.approx(cav.tau_fs, rel=1e-11)
    assert float(out["v_ab_ev"]) == pytest.approx(cav.v_ab_ev, rel=1e-11)
    assert float(out["s_ratio"]) == pytest.approx(ov.ratio, rel=1e-11, abs=0)
    assert float(out["envelope_bound"]) == pytest.approx(ov.envelope_bound, rel=1e-11, abs=0)


def test_qnm_info_rejects_bad_geometry(capsys):
    assert cli.main(["qnm-info", "--L", "-3.0", "--eps-r", "9.87"]) == 1
    assert capsys.readouterr().err
    for argv, name in ((["--L", "nan", "--eps-r", "9.87"], "L_um"),
                       (["--L", "21.0", "--eps-r", "inf"], "eps_r"),
                       (["--L", "1e-320", "--eps-r", "9.87"], "omega_a_ev"),
                       (["--L", "21", "--eps-r", "9.87", "--R", "1e308"], "tau_fs"),
                       (["--L", "1e-300", "--eps-r", "9.87"], "overlaps"),
                       (["--L", "21", "--eps-r", "1e308"], "overlaps"),
                       (["--L", "1e300", "--eps-r", "9.87"], "overlaps")):
        assert cli.main(["qnm-info", *argv]) == 1
        assert f"{name} must be finite" in capsys.readouterr().err


def test_an_eps_r_with_the_background_index_is_refused_by_name(capsys):
    # one rounding above eps_b, with eps_b's index: the linewidth would be log(0)
    eps_r = math.nextafter(1.0, 2.0)
    with pytest.raises(cli.ConfigError, match=r"^config error at slab: eps_r must exceed eps_b$"):
        cli.load_config(base_config(cavity=_DROP, slab=dict(SLAB, eps_r=eps_r)))
    assert cli.main(["qnm-info", "--L", "21", "--eps-r", repr(eps_r), "--R", "1"]) == 1
    assert capsys.readouterr().err.strip() == "eps_r must exceed eps_b"
