"""Command-line behaviour, driven in-process through ``cli.main``.

Everything runs through ``main(argv)`` with captured stdio -- no
subprocesses -- so the exit-code contract (0 ok, 1 config/usage,
2 numerical failure, 3 compare miss) is what is actually asserted.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from delayheom import __version__, cli, qnm

BASE_CAVITY = {
    "omega_a_ev": 0.0243538424053,
    "gamma_a_ev": 0.006582119569,
    "omega_b_ev": 0.0243538424053,
    "gamma_b_ev": 0.006582119569,
    "v_ab_ev": 0.0032910597845,
    "tau_fs": 100.0,
}


def write_cfg(tmp_path, **overrides):
    cfg = {
        "model": "single_excitation",
        "cavity": dict(BASE_CAVITY),
        "steps_per_delay": 50,
        "t_end_fs": 400.0,
    }
    cfg.update(overrides)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
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
        "truncation_certificate", "wall_time_s",
    }
    assert meta["model"] == "single_excitation"
    assert meta["steps_per_delay"] == 50
    assert meta["h_fs"] == 2.0
    assert meta["n_steps"] == 200
    assert meta["cavity"]["tau_fs"] == 100.0
    assert meta["initial_state"] == {"pA": [1.0, 0.0]}
    assert meta["truncation_certificate"] >= 0.0
    assert "wall_time_s" in meta


def test_simulate_roundtrips_full_precision(tmp_path):
    from delayheom import engine, models

    cfgfile = write_cfg(tmp_path)
    out = tmp_path / "run.csv"
    assert cli.main(["simulate", "--config", cfgfile, "--out", str(out)]) == 0

    cfg = cli.load_config(json.loads((tmp_path / "cfg.json").read_text()))
    m = models.build_single_excitation(cfg["cavity"])
    r = engine.run(m.equations, m.default_init, steps_per_delay=50, t_end_fs=400.0)

    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    got = np.array([complex(float(row[5]), float(row[6])) for row in rows])
    assert np.array_equal(got, r.series["cAB"])    # %.17g loses nothing


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


def test_missing_config_lists_presets(tmp_path, capsys):
    assert cli.main(["simulate", "--config", "not_a_preset",
                     "--out", str(tmp_path / "x.csv")]) == 1
    err = capsys.readouterr().err
    assert "config file not found: not_a_preset" in err
    assert "slab_21um" in err and "scaled_pair" in err


def test_divergent_run_exits_two(tmp_path, capsys):
    cav = dict(BASE_CAVITY, v_ab_ev=50.0)      # absurd coupling: blows up
    cfgfile = write_cfg(tmp_path, cavity=cav, t_end_fs=5000.0)
    assert cli.main(["simulate", "--config", cfgfile,
                     "--out", str(tmp_path / "x.csv")]) == 2
    assert "numerical failure: non-finite state at step" in capsys.readouterr().err


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
    ],
)
def test_config_errors_name_the_path(tmp_path, capsys, overrides, needle):
    assert cli.main(["simulate", "--config", write_cfg(tmp_path, **overrides),
                     "--out", str(tmp_path / "x.csv")]) == 1
    assert needle in capsys.readouterr().err


def test_config_requires_exactly_one_geometry_block(tmp_path, capsys):
    slab = {"L_um": 21.0, "eps_r": 9.87, "R_um": 100.0}
    path = tmp_path / "both.json"
    path.write_text(json.dumps({
        "model": "single_excitation", "cavity": dict(BASE_CAVITY),
        "slab": slab, "steps_per_delay": 50, "t_end_fs": 100.0,
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
    assert float(out["s_ratio"]) == pytest.approx(ov.ratio, rel=1e-11)
    assert float(out["envelope_bound"]) == pytest.approx(ov.envelope_bound, rel=1e-11)


def test_qnm_info_rejects_bad_geometry(capsys):
    assert cli.main(["qnm-info", "--L", "-3.0", "--eps-r", "9.87"]) == 1
    assert capsys.readouterr().err
