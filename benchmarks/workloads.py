"""The four benchmark workloads and the output checks of their operations.

A workload is a list of operations made from the seed.  Every operation
has three parts, which the runner calls at different times:

* ``setup()`` -- everything before the first step: config read and
  validation, ``qnm`` derivation, ``models.build_*`` and one
  ``engine.HierarchyIntegrator`` built with the arguments ``engine.run``
  would use.  Timed on its own as ``setup_s``.
* ``run(outdir)`` -- the operation itself, timed as part of ``wall_s``.
* ``check(outcome)`` -- untimed; returns the deviation from an independent
  oracle or raises :class:`CheckFailed`.

Program calls go through module attributes (``engine.run``,
``models.build_*``, ...) at call time, so the traced pass can wrap them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import re

import numpy as np

from delayheom import cli, engine, models, oracle
from delayheom.constants import CONSTANTS
from delayheom.qnm import CavityParams

#: the ``compare`` subcommand's default tolerance
HIERARCHY_TOL = 5e-3
#: acceptance criterion 6: discretized bath at M=4096 against the delay equations
BATH_TOL = 1e-2
BATH_NORM_TOL = 1e-10

PRESETS = ("scaled_pair", "two_photon_trapped", "slab_21um")
COMPARE_PRESETS = ("scaled_pair", "two_photon_trapped")

# sweep: gamma*tau stays inside [0.5, 2], far below the explicit-stability
# limit (2 gamma h / hbar = 0.04 at K = 100 and gamma*tau = 2)
SWEEP_CONFIGS = 16
SWEEP_GAMMA_TAU = (0.5, 2.0)
SWEEP_K = 100
SWEEP_DELAYS = 10


class CheckFailed(Exception):
    """An operation's output broke one of the benchmark's output checks."""


def scaled_cavity(gamma_tau, omega_tau, tau_fs=100.0):
    """Two identical cavities at dimensionless (gamma*tau, omega*tau)."""
    hbar = CONSTANTS.hbar_ev_fs
    return CavityParams.from_rates(omega_tau / tau_fs * hbar, gamma_tau / tau_fs * hbar, tau_fs)


def _build(kind, cavity):
    return getattr(models, f"build_{kind}")(cavity)


def _construct(eqs, init, K, t_end_fs, band_width=None, eps_band=1e-12, fad=True):
    """One integrator built with the arguments ``engine.run`` derives."""
    if band_width is None:
        band_width = engine.default_band_width(eqs, K, eps_band)
    n_steps = max(1, math.ceil(t_end_fs / (eqs.tau_fs / K) - 1e-9))
    return engine.HierarchyIntegrator(
        eqs, init, steps_per_delay=K, band_width=band_width,
        include_first_arg_delayed=fad, horizon_steps=n_steps,
    )


def _construct_from_config(cfg):
    return _construct(
        cfg["model"].equations, cfg["init"], cfg["steps_per_delay"], cfg["t_end_fs"],
        cfg["band_width"], cfg["eps_band"], cfg["include_first_arg_delayed"],
    )


def _call_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _unit_amplitudes(kind, init):
    first = models.SINGLE_EXCITATION_VARS["system"][0] if kind == "single_excitation" \
        else models.TWO_PHOTON_VARS["system"][0]
    if {k: v for k, v in init.items() if v != 0} != {first: 1}:
        raise CheckFailed(f"no amplitude oracle for initial state {dict(init)}")
    return (1.0 + 0j, 0.0j)


class _HierarchyCheck:
    """Checks shared by every operation that yields hierarchy series.

    * the second mode's variable (``pB`` / ``g02``) is exactly 0.0 through
      t = tau, and populations are exactly real;
    * the series match the delay wave-function oracle within the
      ``compare`` default.  The oracle runs once per operation and is
      reused by later passes.
    """

    kind: str
    cavity: CavityParams
    K: int
    t_end_fs: float
    init: dict

    _target = None

    def _reference(self):
        if self._target is None:
            wf = oracle.run_wavefunction(
                self.cavity, self.K, self.t_end_fs, init=_unit_amplitudes(self.kind, self.init))
            self._target = models.pure_state_crosscheck(wf.amp_a, wf.amp_b, self.kind)
        return self._target

    def check_series(self, series):
        names = list(series)
        if not all(np.isfinite(s).all() for s in series.values()):
            raise CheckFailed("non-finite value in the series")
        silent = series[names[1]][: self.K + 1]
        if np.any(silent != 0.0):
            raise CheckFailed(f"{names[1]} is not exactly 0.0 through t = tau")
        if self.kind == "single_excitation":
            for pop in ("pA", "pB"):
                if np.any(series[pop].imag != 0.0):
                    raise CheckFailed(f"{pop} is not exactly real")
        target = self._reference()
        dev = max(float(np.max(np.abs(series[n] - target[n]))) for n in names)
        if not dev <= HIERARCHY_TOL:
            raise CheckFailed(f"deviation {dev:.3e} from the wave-function oracle "
                              f"exceeds {HIERARCHY_TOL:g}")
        return dev


def _read_csv(path, var_order):
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {name: table[:, 1 + 2 * i] + 1j * table[:, 2 + 2 * i]
            for i, name in enumerate(var_order)}


class SimulateOp(_HierarchyCheck):
    """``delayheom simulate`` on a bundled preset, CSV and sidecar to ``outdir``."""

    def __init__(self, preset):
        self.name = f"simulate:{preset}"
        self.preset = preset
        cfg = cli.load_config(cli.read_config_file(preset))
        self.kind = cfg["model"].kind
        self.cavity = cfg["cavity"]
        self.K = cfg["steps_per_delay"]
        self.t_end_fs = cfg["t_end_fs"]
        self.init = cfg["init"]
        self.var_order = cfg["model"].equations.system_vars
        self.digest = None

    def setup(self):
        _construct_from_config(cli.load_config(cli.read_config_file(self.preset)))

    def run(self, outdir):
        path = os.path.join(outdir, f"{self.preset}.csv")
        code, _, err = _call_cli(["simulate", "--config", self.preset, "--out", path])
        return code, err, path

    def check(self, outcome):
        code, err, path = outcome
        if code != 0:
            raise CheckFailed(f"simulate exited {code}: {err.strip()}")
        with open(path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            raise CheckFailed("rerun wrote a CSV that differs from the first run")
        return self.check_series(_read_csv(path, self.var_order))


class EngineOp(_HierarchyCheck):
    """``models.build_*`` + ``engine.run`` on one explicit cavity."""

    def __init__(self, kind, gamma_tau, omega_tau, K, delays, band_width=None):
        self.name = f"engine:{kind}:K{K}:gt{gamma_tau:.4f}:wt{omega_tau:.4f}"
        self.kind = kind
        self.cavity = scaled_cavity(gamma_tau, omega_tau)
        self.K = K
        self.t_end_fs = delays * self.cavity.tau_fs
        self.band_width = band_width
        self.init = dict(_build(kind, self.cavity).default_init)

    def setup(self):
        m = _build(self.kind, self.cavity)
        _construct(m.equations, m.default_init, self.K, self.t_end_fs, self.band_width)

    def run(self, outdir):
        m = _build(self.kind, self.cavity)
        return engine.run(m.equations, m.default_init, steps_per_delay=self.K,
                          t_end_fs=self.t_end_fs, band_width=self.band_width)

    def check(self, outcome):
        return self.check_series(outcome.series)


_DEVIATION = re.compile(r"max deviation (\S+)")


class CompareOp:
    """``delayheom compare`` on a bundled preset; must exit 0."""

    def __init__(self, preset):
        self.name = f"compare:{preset}"
        self.preset = preset
        self.K = cli.load_config(cli.read_config_file(preset))["steps_per_delay"]

    def setup(self):
        _construct_from_config(cli.load_config(cli.read_config_file(self.preset)))

    def run(self, outdir):
        return _call_cli(["compare", "--config", self.preset])

    def check(self, outcome):
        code, out, err = outcome
        if code != 0:
            raise CheckFailed(f"compare exited {code}: {(out + err).strip()}")
        found = _DEVIATION.search(out)
        if found is None:
            raise CheckFailed(f"compare printed no deviation: {out.strip()}")
        return float(found.group(1))


class BathOp:
    """Discretized-bath oracle at the setting of acceptance criterion 6."""

    K = None  # not a hierarchy run

    def __init__(self, n_modes=4096, steps_per_delay=100, t_end_fs=3000.0):
        self.name = f"bath:M{n_modes}"
        self.cavity = scaled_cavity(1.0, 0.0)
        self.args = (self.cavity, n_modes, steps_per_delay, t_end_fs)
        self._wf = None

    def setup(self):
        pass  # the oracle has no set-up that can be called apart from its run

    def run(self, outdir):
        return oracle.run_discretized_bath(*self.args)

    def check(self, outcome):
        if not outcome.norm_drift < BATH_NORM_TOL:
            raise CheckFailed(f"bath norm drift {outcome.norm_drift:.3e} >= {BATH_NORM_TOL:g}")
        if self._wf is None:
            cavity, _, K, t_end = self.args
            self._wf = oracle.run_wavefunction(cavity, K, t_end)
        dev = max(float(np.max(np.abs(outcome.amp_a - self._wf.amp_a))),
                  float(np.max(np.abs(outcome.amp_b - self._wf.amp_b))))
        if not dev <= BATH_TOL:
            raise CheckFailed(f"bath deviates {dev:.3e} from the wave-function oracle")
        return dev


class Tally:
    """Attempted and failed operations, with the worst oracle deviation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.oracle_dev = 0.0
        self.reasons: list[str] = []

    def record(self, op, outcome):
        """Check one outcome; an exception raised by the operation is a failure."""
        self.attempted += 1
        try:
            if isinstance(outcome, Exception):
                raise CheckFailed(f"raised {type(outcome).__name__}: {outcome}")
            self.oracle_dev = max(self.oracle_dev, op.check(outcome))
        except CheckFailed as e:
            self.failed += 1
            self.reasons.append(f"{op.name}: {e}")


def sweep_draws(seed):
    """(gamma*tau, omega*tau) pairs, one per stratum of each range.

    Stratifying keeps the spread of the sweep's extremes (and so of
    ``oracle_dev``) small from seed to seed; the seed still picks every
    value and the order.
    """
    rng = np.random.default_rng(seed)
    n = SWEEP_CONFIGS
    lo, hi = SWEEP_GAMMA_TAU
    gamma = lo + (hi - lo) * (rng.permutation(n) + rng.random(n)) / n
    omega = 2 * math.pi * (rng.permutation(n) + rng.random(n)) / n
    return [(float(g), float(w)) for g, w in zip(gamma, omega)]


def make_ops(workload, seed):
    """The operations of one pass of ``workload``, and the inputs drawn from ``seed``."""
    if workload == "presets":
        return [SimulateOp(p) for p in PRESETS], {"presets": list(PRESETS)}
    if workload == "fine_grid":
        # band at its cap (K + 1) over two delays, so every delayed read opens
        ops = [EngineOp("single_excitation", 1.0, 0.0, 1600, 2, band_width=1601),
               EngineOp("two_photon", 1.0, 0.0, 800, 2, band_width=801)]
        return ops, {"configs": [op.name for op in ops]}
    if workload == "sweep":
        draws = sweep_draws(seed)
        kinds = ("single_excitation", "two_photon")
        ops = [EngineOp(kinds[i % 2], g, w, SWEEP_K, SWEEP_DELAYS)
               for i, (g, w) in enumerate(draws)]
        return ops, {"gamma_tau_omega_tau": draws}
    if workload == "crosscheck":
        ops = [CompareOp(p) for p in COMPARE_PRESETS] + [BathOp()]
        return ops, {"configs": [op.name for op in ops]}
    raise ValueError(f"unknown workload {workload!r}")

