"""Command-line front end: simulate / compare / qnm-info.

Exit codes: 0 success (and compare-pass), 1 usage or config error,
2 numerical failure, 3 compare beyond tolerance.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time
from importlib import resources

import numpy as np

from . import __version__
from . import engine, models, oracle
from .engine import NonFiniteStateError
from .qnm import CavityParams, SlabParams, derive_cavity_params


class ConfigError(Exception):
    pass


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # usage problems are exit code 1 here, not argparse's default 2
    def error(self, message):
        raise _UsageError(f"{self.prog}: error: {message}")


# ---------------------------------------------------------------- config

_MODELS = ("single_excitation", "two_photon")

# the JSON types each field annotation accepts (a float field takes an int)
_KINDS = {"float": (float, int), "int": (int,)}


def _keys(params):
    return {f.name: _KINDS[f.type] for f in dataclasses.fields(params)}


_SLAB_KEYS = {**_keys(SlabParams), "convention": (str,)}
# the CLI requires R_um, which SlabParams defaults to 0
_SLAB_REQUIRED = ("L_um", "eps_r", "R_um")

_CAVITY_KEYS = _keys(CavityParams)

_TOP_KEYS = (
    "model", "slab", "cavity", "steps_per_delay", "t_end_fs", "band_width",
    "eps_band", "include_first_arg_delayed", "initial_state",
)


def _fail(path, why):
    raise ConfigError(f"config error at {path}: {why}")


def _finite(value):
    # JSON as Python reads it admits NaN, Infinity and integers past float range
    try:
        return not isinstance(value, (int, float)) or math.isfinite(value)
    except OverflowError:
        return False


def _check_block(block, path, allowed, required):
    if not isinstance(block, dict):
        _fail(path, "must be an object")
    for key in block:
        if key not in allowed:
            _fail(f"{path}.{key}", "unknown key")
    for key in required:
        if key not in block:
            _fail(f"{path}.{key}", "required key missing")
    for key, value in block.items():
        kinds = allowed[key]
        if isinstance(value, bool) or not isinstance(value, kinds):
            _fail(f"{path}.{key}", f"expected {kinds[0].__name__}")
        if not _finite(value):
            _fail(f"{path}.{key}", "must be finite")


def _as_complex(value, path):
    parts = value if isinstance(value, list) and len(value) == 2 else [value]
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in parts):
        _fail(path, "expected a number or a [re, im] pair")
    if not all(map(_finite, parts)):
        _fail(path, "must be finite")
    return complex(*parts)


def load_config(raw):
    """Validate a parsed JSON document and resolve it to run inputs."""
    if not isinstance(raw, dict):
        _fail("<top>", "must be an object")
    for key in raw:
        if key not in _TOP_KEYS:
            _fail(key, "unknown key")

    model_name = raw.get("model", "single_excitation")
    if model_name not in _MODELS:
        _fail("model", f"must be one of {_MODELS}")

    has_slab, has_cavity = "slab" in raw, "cavity" in raw
    if has_slab == has_cavity:
        _fail("<top>", "exactly one of 'slab' or 'cavity' is required")
    if has_slab:
        _check_block(raw["slab"], "slab", _SLAB_KEYS, _SLAB_REQUIRED)
        block = dict(raw["slab"])
        convention = block.pop("convention", "cyclic")
        try:
            slab = SlabParams(**block)
            cavity = derive_cavity_params(slab, convention)
        except ValueError as e:
            _fail("slab", str(e))
    else:
        _check_block(raw["cavity"], "cavity", _CAVITY_KEYS, tuple(_CAVITY_KEYS))
        try:
            cavity = CavityParams(**raw["cavity"])
        except ValueError as e:
            _fail("cavity", str(e))
    if cavity.tau_fs <= 0:
        _fail("cavity.tau_fs" if has_cavity else "slab.R_um",
              "the delay must be positive to lock the grid to it")

    spd = raw.get("steps_per_delay")
    if not isinstance(spd, int) or isinstance(spd, bool) or spd < 10:
        _fail("steps_per_delay", "must be an integer >= 10")
    t_end = raw.get("t_end_fs")
    if (isinstance(t_end, bool) or not isinstance(t_end, (int, float))
            or not _finite(t_end) or t_end <= 0):
        _fail("t_end_fs", "must be a positive finite number")

    band_width = raw.get("band_width")
    if band_width is not None:
        if not isinstance(band_width, int) or isinstance(band_width, bool) or band_width < 1:
            _fail("band_width", "must be an integer >= 1")
    eps_band = raw.get("eps_band", 1e-12)
    if isinstance(eps_band, bool) or not isinstance(eps_band, (int, float)) or not 0 < eps_band < 1:
        _fail("eps_band", "must be a number in (0, 1)")
    fad = raw.get("include_first_arg_delayed", True)
    if not isinstance(fad, bool):
        _fail("include_first_arg_delayed", "must be a boolean")

    # looked up at call time, so a wrapped module attribute is the one called
    model = getattr(models, f"build_{model_name}")(cavity)

    init = dict(model.default_init)
    if "initial_state" in raw:
        block = raw["initial_state"]
        if not isinstance(block, dict):
            _fail("initial_state", "must be an object")
        init = {}
        for key, value in block.items():
            if key not in model.equations.system_vars:
                _fail(f"initial_state.{key}",
                      f"unknown variable (model has {model.equations.system_vars})")
            init[key] = _as_complex(value, f"initial_state.{key}")

    return {
        "model": model,
        "cavity": cavity,
        "steps_per_delay": spd,
        "t_end_fs": float(t_end),
        "band_width": band_width,
        "eps_band": float(eps_band),
        "include_first_arg_delayed": fad,
        "init": init,
    }


def _preset_names():
    return sorted(
        p.name[:-5] for p in resources.files("delayheom.presets").iterdir()
        if p.name.endswith(".json")
    )


def read_config_file(path):
    """Read a config from a filesystem path or a bundled preset name."""
    import os

    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    else:
        name = path[:-5] if path.endswith(".json") else path
        if os.sep not in path and name in _preset_names():
            text = resources.files("delayheom.presets").joinpath(f"{name}.json").read_text()
        else:
            raise ConfigError(
                f"config file not found: {path} "
                f"(bundled presets: {', '.join(_preset_names())})"
            )
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"config error at <top>: not valid JSON ({e})") from e


def _run_from(cfg):
    return engine.run(
        cfg["model"].equations,
        cfg["init"],
        steps_per_delay=cfg["steps_per_delay"],
        t_end_fs=cfg["t_end_fs"],
        band_width=cfg["band_width"],
        eps_band=cfg["eps_band"],
        include_first_arg_delayed=cfg["include_first_arg_delayed"],
    )


# ---------------------------------------------------------------- output

def write_csv(path, result, var_order):
    cols = ["time_fs"] + [f"{name}_{part}" for name in var_order for part in ("re", "im")]
    table = np.column_stack([result.times] + [
        part(result.series[name]) for name in var_order for part in (np.real, np.imag)
    ])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        np.savetxt(fh, table, fmt="%.17g", delimiter=",", header=",".join(cols), comments="")


def _write_meta(path, cfg, result, wall_s):
    meta = {
        "package_version": __version__,
        "model": cfg["model"].kind,
        "cavity": dataclasses.asdict(cfg["cavity"]),
        "steps_per_delay": result.steps_per_delay,
        "h_fs": result.h_fs,
        "t_end_fs": cfg["t_end_fs"],
        "n_steps": result.n_steps,
        "band_width": result.band_width,
        "eps_band": cfg["eps_band"],
        "include_first_arg_delayed": result.include_first_arg_delayed,
        "initial_state": {k: [v.real, v.imag] for k, v in sorted(cfg["init"].items())},
        "truncation_certificate": result.truncation_certificate,
        "wall_time_s": wall_s,  # excluded from the determinism contract
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ------------------------------------------------------------ subcommands

def _cmd_simulate(args):
    cfg = load_config(read_config_file(args.config))
    t0 = time.perf_counter()
    result = _run_from(cfg)
    wall = time.perf_counter() - t0
    write_csv(args.out, result, cfg["model"].equations.system_vars)
    _write_meta(args.out + ".meta.json", cfg, result, wall)
    print(f"wrote {args.out}: {result.n_steps + 1} rows, "
          f"h = {result.h_fs:g} fs, band_width = {result.band_width}, "
          f"certificate = {result.truncation_certificate:.3e}")
    return 0


def _amplitude_init(cfg):
    # compare needs an initial state a product of amplitudes can represent
    init = {k: v for k, v in cfg["init"].items() if v != 0}
    one, other = cfg["model"].equations.system_vars[:2]
    if set(init) == {one} and init[one] == 1:
        return 1.0 + 0j, 0.0j
    if set(init) == {other} and init[other] == 1:
        return 0.0j, 1.0 + 0j
    raise ConfigError(
        "config error at initial_state: compare supports only a unit "
        f"population in {one!r} or {other!r}"
    )


def _cmd_compare(args):
    cfg = load_config(read_config_file(args.config))
    a0, b0 = _amplitude_init(cfg)
    result = _run_from(cfg)
    wf = oracle.run_wavefunction(
        cfg["cavity"], cfg["steps_per_delay"], cfg["t_end_fs"], init=(a0, b0)
    )
    target = models.pure_state_crosscheck(wf.amp_a, wf.amp_b, cfg["model"].kind)
    worst = 0.0
    worst_var = ""
    for name in cfg["model"].equations.system_vars:
        dev = float(np.max(np.abs(result.series[name] - target[name])))
        if dev > worst:
            worst, worst_var = dev, name
    ok = worst <= args.tolerance
    print(f"max deviation {worst:.3e} ({worst_var}), tolerance {args.tolerance:g}: "
          f"{'PASS' if ok else 'FAIL'}")
    return 0 if ok else 3


def _cmd_qnm_info(args):
    try:
        slab = SlabParams(
            L_um=args.L, eps_r=args.eps_r, eps_b=args.eps_b,
            R_um=args.R, mode_index=args.mode_index,
        )
    except ValueError as e:
        raise ConfigError(str(e)) from e
    from .qnm import overlaps, qnm_frequency

    q = qnm_frequency(slab, args.convention)
    cav = derive_cavity_params(slab, args.convention)
    ov = overlaps(slab)
    print(f"z: {q.z.real:.12g} {q.z.imag:+.12g}j")
    print(f"omega_ev: {q.omega_ev:.12g}")
    print(f"gamma_ev: {q.gamma_ev:.12g}")
    print(f"gamma_over_omega: {q.ratio:.12g}")
    print(f"tau_fs: {cav.tau_fs:.12g}")
    print(f"v_ab_ev: {cav.v_ab_ev:.12g}")
    print(f"s_aa: {ov.s_aa:.12g}")
    print(f"s_ab: {ov.s_ab:.12g}")
    print(f"s_ratio: {ov.ratio:.12g}")
    print(f"envelope_bound: {ov.envelope_bound:.12g}")
    return 0


def _build_parser():
    parser = _Parser(prog="delayheom", description=__doc__)
    parser.add_argument("--version", action="version", version=f"delayheom {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", parents=[], help="run a config and write CSV + sidecar")
    p.add_argument("--config", required=True, help="config path or bundled preset name")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("compare", help="run a config against the amplitude-product check")
    p.add_argument("--config", required=True, help="config path or bundled preset name")
    p.add_argument("--tolerance", type=float, default=5e-3)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("qnm-info", help="resonance, couplings and overlaps of a slab pair")
    p.add_argument("--L", type=float, required=True, help="slab thickness, um")
    p.add_argument("--eps-r", type=float, required=True, dest="eps_r")
    p.add_argument("--eps-b", type=float, default=1.0, dest="eps_b")
    p.add_argument("--R", type=float, default=0.0, help="slab separation, um")
    p.add_argument("--mode-index", type=int, default=1)
    p.add_argument("--convention", choices=("cyclic", "angular"), default="cyclic")
    p.set_defaults(func=_cmd_qnm_info)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (_UsageError, ConfigError) as e:
        print(e, file=sys.stderr)
        return 1
    except NonFiniteStateError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
