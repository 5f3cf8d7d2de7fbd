"""Command-line front end: simulate / compare / qnm-info.

Exit codes: 0 success (and compare-pass), 1 usage or config error,
2 numerical failure, 3 compare beyond tolerance.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import sys
import time
from importlib import resources

import numpy as np

from . import __version__
from . import engine, models, oracle
from ._args import finite
from .engine import NonFiniteStateError
from .qnm import CavityParams, SlabParams, derive_cavity_params, overlaps, qnm_frequency


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


# each table maps a key to _check's arguments for its value; a field needs only its types
def _keys(params):
    return {f.name: (_KINDS[f.type],) for f in dataclasses.fields(params)}


# the grid is locked to the delay, tau_fs or R_um / c
_DELAY = (_KINDS["float"], lambda d: d > 0,
          "the delay must be positive to lock the grid to it")
_SLAB_KEYS = {**_keys(SlabParams), "R_um": _DELAY, "convention": ((str,),)}
# the CLI requires R_um, which SlabParams defaults to 0
_SLAB_REQUIRED = ("L_um", "eps_r", "R_um")

_CAVITY_KEYS = {**_keys(CavityParams), "tau_fs": _DELAY}

_OBJECT = ((dict,), None, "must be an object")
_TOP_KEYS = {
    "model": ((str,), _MODELS.__contains__, f"must be one of {_MODELS}"),
    "slab": _OBJECT,
    "cavity": _OBJECT,
    "steps_per_delay": ((int,), lambda k: k >= 10, "must be an integer >= 10"),
    "t_end_fs": ((float, int),),    # plan_run refuses it, and the next two, out of range
    "band_width": ((int, type(None)),),    # null asks for the default width
    "eps_band": ((float, int),),
    "include_first_arg_delayed": ((bool,), None, "must be a boolean"),
    "initial_state": _OBJECT,
}

#: the bytes one array of a run (band ring, trajectory) may take: fixed, not
#: a probe of the host, so that a config is refused the same way everywhere
_ARRAY_BUDGET = 2 * 2**30

#: rows of a CSV formatted at once: a write's peak memory is one block's
_CSV_BLOCK = 1024


def _fail(path, why):
    raise ConfigError(f"config error at {path}: {why}")


def _check(path, value, kinds, ok=None, why=None):
    """``value``, if it has one of the JSON ``kinds``, is finite and passes ``ok``."""
    # bool subclasses int, but true and false are never numbers here
    if (isinstance(value, bool) and bool not in kinds) or not isinstance(value, kinds):
        _fail(path, why or f"expected {kinds[0].__name__}")
    # JSON as Python reads it admits NaN, Infinity and integers past float range
    if isinstance(value, (int, float)) and not isinstance(value, bool) and not finite(value):
        _fail(path, "must be finite")
    if ok is not None and not ok(value):
        _fail(path, why)
    return value


def _check_block(block, prefix, table, required):
    for key in block:
        if key not in table:
            _fail(prefix + key, "unknown key")
    for key in required:
        if key not in block:
            _fail(prefix + key, "required key missing")
    for key, value in block.items():
        _check(prefix + key, value, *table[key])


def load_config(raw):
    """Validate a parsed JSON document and resolve it to run inputs."""
    _check("<top>", raw, *_OBJECT)
    _check_block(raw, "", _TOP_KEYS, ("steps_per_delay", "t_end_fs"))

    has_slab, has_cavity = "slab" in raw, "cavity" in raw
    if has_slab == has_cavity:
        _fail("<top>", "exactly one of 'slab' or 'cavity' is required")
    if has_slab:
        _check_block(raw["slab"], "slab.", _SLAB_KEYS, _SLAB_REQUIRED)
        block = dict(raw["slab"])
        convention = block.pop("convention", "cyclic")
        try:
            slab = SlabParams(**block)
            cavity = derive_cavity_params(slab, convention)
        except ValueError as e:
            _fail("slab", str(e))
    else:
        _check_block(raw["cavity"], "cavity.", _CAVITY_KEYS, tuple(_CAVITY_KEYS))
        try:
            cavity = CavityParams(**raw["cavity"])
        except ValueError as e:
            _fail("cavity", str(e))
        # a slab's derived coupling sits on this bound exactly
        if 4 * cavity.v_ab_ev**2 > cavity.gamma_a_ev * cavity.gamma_b_ev * (1 + 1e-12):
            _fail("cavity.v_ab_ev", "must satisfy 2|v_ab_ev| <= sqrt(gamma_a_ev gamma_b_ev): "
                  "a larger coupling is active, and the populations grow without bound")

    # looked up at call time, so a wrapped module attribute is the one called
    model = getattr(models, f"build_{raw.get('model', 'single_excitation')}")(cavity)
    K, width = raw["steps_per_delay"], raw.get("band_width")
    t_end, eps_band = float(raw["t_end_fs"]), float(raw.get("eps_band", 1e-12))
    try:    # the engine's refusals lead with the argument's name, which is the key
        facts = engine.plan_run(model.equations, steps_per_delay=K, t_end_fs=t_end,
                                band_width=width, eps_band=eps_band)
    except ValueError as e:
        _fail(*str(e).split(" ", 1))
    # refused where the eps rule keeps the returning line (so never with no width set)
    if facts.open_loop and facts.default_band_width == K:
        _fail("band_width", f"must be >= steps_per_delay ({K}): a narrower band drops "
              "the returning line, which eps_band keeps (open loop)")
    if facts.stability_margin > 1:
        _fail("steps_per_delay", f"the Heun step grows a mode by {facts.stability_margin:.4g} "
              "> 1 per step (stability_margin), so the run diverges: take more steps per delay")
    ring = ("steps_per_delay" if width is None else "band_width", "band ring", facts.band_bytes)
    for key, what, size in (ring, ("t_end_fs", "trajectory", facts.trajectory_bytes)):
        if size > _ARRAY_BUDGET:
            _fail(key, f"the {what} needs {size / 2**30:.3g} GiB, "
                  f"over the {_ARRAY_BUDGET / 2**30:g} GiB budget of one array")

    init = {} if "initial_state" in raw else dict(model.default_init)
    for key, value in raw.get("initial_state", {}).items():
        path = f"initial_state.{key}"
        if key not in model.equations.system_vars:
            _fail(path, f"unknown variable (model has {model.equations.system_vars})")
        parts = value if isinstance(value, list) and len(value) == 2 else [value]
        why = "expected a number or a [re, im] pair"
        init[key] = complex(*(_check(path, v, (float, int), None, why) for v in parts))

    return {
        "model": model,
        "cavity": cavity,
        "steps_per_delay": K,
        "t_end_fs": t_end,
        "band_width": width,
        "eps_band": eps_band,
        "include_first_arg_delayed": raw.get("include_first_arg_delayed", True),
        "init": init,
    }


def _preset_names():
    return sorted(
        p.name[:-5] for p in resources.files("delayheom.presets").iterdir()
        if p.name.endswith(".json")
    )


def read_config_file(path):
    """Read a config from a filesystem path or a bundled preset name."""
    if os.path.exists(path):
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as e:
            raise ConfigError(f"cannot read config file {path}: {e}") from e
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
    keys = ("steps_per_delay", "t_end_fs", "band_width", "eps_band", "include_first_arg_delayed")
    return engine.run(cfg["model"].equations, cfg["init"], **{k: cfg[k] for k in keys})


# ---------------------------------------------------------------- output

def write_csv(path, result):
    # the series keep the model's variable order; real and imag are views
    cols = ["time_fs"] + [f"{name}_{part}" for name in result.series for part in ("re", "im")]
    parts = [result.times] + [
        part(values) for values in result.series.values() for part in (np.real, np.imag)
    ]
    row = ",".join(["%.17g"] * len(cols)) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(cols) + "\n")
        for i in range(0, len(result.times), _CSV_BLOCK):
            table = np.column_stack([part[i : i + _CSV_BLOCK] for part in parts])
            fh.write(row * len(table) % tuple(table.ravel().tolist()))


def _write_meta(path, cfg, result, wall_s):
    # every run fact the result holds, then the inputs it does not
    meta = {f.name: getattr(result, f.name) for f in dataclasses.fields(result)
            if f.name not in ("times", "series")}
    meta.update(
        package_version=__version__,
        model=cfg["model"].kind,
        cavity=dataclasses.asdict(cfg["cavity"]),
        t_end_fs=cfg["t_end_fs"],
        eps_band=cfg["eps_band"],
        initial_state={k: [v.real, v.imag] for k, v in sorted(cfg["init"].items())},
        wall_time_s=wall_s,  # excluded from the determinism contract
    )
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_outputs(out, cfg, result, wall_s):
    """Write the CSV and its sidecar under temporary names in their
    directory, then rename both into place: a failed write leaves neither."""
    paths = (out, out + ".meta.json")
    temps = [p + ".tmp" for p in paths]
    path = out
    try:
        write_csv(temps[0], result)
        path = paths[1]
        _write_meta(temps[1], cfg, result, wall_s)
        for path, temp in zip(paths, temps):
            os.replace(temp, path)
    except OSError as e:
        for temp in temps:
            with contextlib.suppress(OSError):
                os.remove(temp)
        raise _UsageError(f"delayheom simulate: error: cannot write {path}: {e}") from e


# ------------------------------------------------------------ subcommands

def _cmd_simulate(args):
    # refused before the run, not after it
    out_dir = os.path.dirname(args.out) or "."
    if not os.path.isdir(out_dir):
        raise _UsageError(f"delayheom simulate: error: --out directory does not exist: {out_dir}")
    for path, what in ((args.out, "--out"), (args.out + ".meta.json", "--out sidecar")):
        if os.path.isdir(path):
            raise _UsageError(f"delayheom simulate: error: {what} is a directory: {path}")
    cfg = load_config(read_config_file(args.config))
    t0 = time.perf_counter()
    result = _run_from(cfg)
    wall = time.perf_counter() - t0
    _write_outputs(args.out, cfg, result, wall)
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
    if not (finite(args.tolerance) and args.tolerance >= 0):
        raise _UsageError(f"delayheom compare: error: --tolerance must be a finite number >= 0, "
                          f"got {args.tolerance}")
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
        slab = SlabParams(L_um=args.L, eps_r=args.eps_r, eps_b=args.eps_b,
                          R_um=args.R, mode_index=args.mode_index)
        q = qnm_frequency(slab, args.convention)
        cav = derive_cavity_params(slab, args.convention)
        ov = overlaps(slab)
        fields = (
            ("omega_ev", q.omega_ev), ("gamma_ev", q.gamma_ev), ("gamma_over_omega", q.ratio),
            ("tau_fs", cav.tau_fs), ("v_ab_ev", cav.v_ab_ev), ("s_aa", ov.s_aa), ("s_ab", ov.s_ab),
            ("s_ratio", ov.ratio), ("envelope_bound", ov.envelope_bound),
        )
    except ValueError as e:
        raise ConfigError(str(e)) from e
    print(f"z: {q.z.real:.12g} {q.z.imag:+.12g}j")
    for name, value in fields:
        print(f"{name}: {value:.12g}")
    return 0


def _build_parser():
    parser = _Parser(prog="delayheom", description=__doc__)
    parser.add_argument("--version", action="version", version=f"delayheom {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a config and write CSV + sidecar")
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
