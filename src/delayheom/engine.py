"""Fixed-step integrator for a delay hierarchy with one auxiliary line per step.

The state is a small vector of "system" variables rho(t) together with a band
of auxiliary lines B(i, j): line j is created at grid time j (a delta source
fires once, converting a system value into the line's birth value) and is then
propagated forward in position i.  Couplings only ever look back exactly one
delay tau, and the grid is locked to the delay (h = tau / steps_per_delay), so
every delayed read is an exact index lookup K steps into the past -- no
interpolation anywhere.

Reference patterns
------------------
Equations are declared structurally; a term on variable X picks one of five
read patterns, evaluated while integrating X at time t (system) or while
advancing line t1 at position t (band):

* ``CURRENT``             -- system value at t.
* ``DIAGONAL``            -- band value at (t, t - tau): the returning line.
* ``OWN``                 -- band value at (t, t1): the line itself, of the
                             target variable and never conjugated.
* ``SECOND_ARG_DELAYED``  -- band value at (t1, t - tau): a line one delay
                             older, read at this line's birth position.
* ``FIRST_ARG_DELAYED``   -- band value at (t - tau, t1): the same line, one
                             delay earlier in position.

Delay gating
------------
Reads across the delay switch on only once their whole step lies inside the
causal region, judged at the step start n (in units of h, K = tau/h):

* DIAGONAL and SECOND_ARG_DELAYED terms participate from n >= K on (before
  that the read would cross the start of the history, where lines do not
  exist yet);
* SECOND_ARG_DELAYED additionally requires the advancing line to be younger
  than the delay (age <= K - 1);
* FIRST_ARG_DELAYED requires it to be at least one delay old (age >= K).

A gated term contributes to both slope evaluations of a step or to neither.
Boundary reads landing exactly on a line's birth position return the
post-source value (the one-sided limit from inside the causal region).  This
keeps the scheme second order through the kink at t = tau, makes the
pre-delay silence of undriven variables exact, and means values at ages
<= K never receive FIRST_ARG_DELAYED contributions -- so the system output
is bit-for-bit independent of those terms, as the structure promises.

Storage
-------
One complex array ``data[row, age, variable]``: the band value B(i, j) of
line j at position i lives at ``data[i % n_rows, i - j]``.  Rows are
positions modulo K + 2 (nothing ever reads further back than one delay);
axis 1 is the age i - j, so a line set at one position is a contiguous
row, and one line's history at successive positions is a diagonal of the
ring.  Lines stop advancing at age ``band_width``, so axis 1 keeps
band_width + 2 cells; the largest magnitude ever discarded at that edge is
reported as the truncation certificate.  A run of at most ``horizon`` steps
reaches neither a position nor an age beyond ``horizon``, so neither axis
needs more than ``horizon + 2`` cells.

B(i, j) is zero before the start of history (j < 0), ahead of the line's
birth (i < j) and beyond the retained band (i - j > band_width).
:meth:`BandBuffer.value` applies these masks; the step's slices and gates
stay inside them, so it never reads a masked cell.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

__all__ = [
    "Pattern",
    "Reference",
    "Term",
    "DiagonalSource",
    "EquationSet",
    "EquationSetError",
    "NonFiniteStateError",
    "BandBuffer",
    "HierarchyIntegrator",
    "SimResult",
    "default_band_width",
    "run",
]


class Pattern(enum.Enum):
    CURRENT = "current"
    DIAGONAL = "diagonal"
    OWN = "own"
    SECOND_ARG_DELAYED = "second_arg_delayed"
    FIRST_ARG_DELAYED = "first_arg_delayed"


_SYSTEM_PATTERNS = frozenset({Pattern.CURRENT, Pattern.DIAGONAL})
_BAND_PATTERNS = frozenset(
    {Pattern.OWN, Pattern.SECOND_ARG_DELAYED, Pattern.FIRST_ARG_DELAYED}
)


class EquationSetError(ValueError):
    """Raised when a declared equation set is structurally inconsistent."""


class NonFiniteStateError(RuntimeError):
    """Raised when the integration produces a non-finite value."""

    def __init__(self, step_index: int, time_fs: float):
        super().__init__(
            f"non-finite state at step {step_index} (t = {time_fs:g} fs)"
        )
        self.step_index = step_index
        self.time_fs = time_fs


@dataclass(frozen=True)
class Reference:
    """A read of variable ``var`` under one of the five patterns."""

    var: str
    pattern: Pattern
    conjugate: bool = False


@dataclass(frozen=True)
class Term:
    """One linear contribution ``coefficient * read`` to d/dt of ``target``."""

    target: str
    coefficient: complex
    ref: Reference


@dataclass(frozen=True)
class DiagonalSource:
    """Birth rule of a band variable: line t1 starts at
    ``coefficient * system_var(t1)`` (conjugated if requested)."""

    band_var: str
    coefficient: complex
    system_var: str
    conjugate: bool = False


@dataclass(frozen=True)
class EquationSet:
    """A closed linear delay hierarchy.

    ``system_vars`` evolve under CURRENT/DIAGONAL terms; ``band_vars``
    under OWN/SECOND_ARG_DELAYED/FIRST_ARG_DELAYED terms, each with
    exactly one :class:`DiagonalSource`.  ``tau_fs`` is the single delay
    shared by every delayed pattern.
    """

    system_vars: tuple[str, ...]
    band_vars: tuple[str, ...]
    terms: tuple[Term, ...]
    sources: tuple[DiagonalSource, ...]
    tau_fs: float

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        names = list(self.system_vars) + list(self.band_vars)
        if not self.system_vars:
            raise EquationSetError("at least one system variable is required")
        if len(set(names)) != len(names) or any(not n for n in names):
            raise EquationSetError("variable names must be unique and non-empty")
        if not (self.tau_fs > 0):
            raise EquationSetError("tau_fs must be positive")
        sys_set = set(self.system_vars)
        band_set = set(self.band_vars)
        for t in self.terms:
            if t.target in sys_set:
                if t.ref.pattern not in _SYSTEM_PATTERNS:
                    raise EquationSetError(
                        f"system variable {t.target!r} may only use "
                        f"CURRENT/DIAGONAL reads, got {t.ref.pattern}"
                    )
                expected = sys_set if t.ref.pattern is Pattern.CURRENT else band_set
            elif t.target in band_set:
                if t.ref.pattern not in _BAND_PATTERNS:
                    raise EquationSetError(
                        f"band variable {t.target!r} may only use "
                        f"OWN/SECOND_ARG_DELAYED/FIRST_ARG_DELAYED reads, "
                        f"got {t.ref.pattern}"
                    )
                expected = band_set
                if t.ref.pattern is Pattern.OWN and (
                    t.ref.var != t.target or t.ref.conjugate
                ):
                    raise EquationSetError(
                        f"OWN term on {t.target!r} must be a plain read of "
                        f"{t.target!r} itself, got "
                        f"{'conjugated ' if t.ref.conjugate else ''}{t.ref.var!r}"
                    )
            else:
                raise EquationSetError(f"term targets unknown variable {t.target!r}")
            if t.ref.var not in expected:
                raise EquationSetError(
                    f"term on {t.target!r} references {t.ref.var!r}, which is "
                    f"not a valid {t.ref.pattern.value} source"
                )
        sourced = [s.band_var for s in self.sources]
        if sorted(sourced) != sorted(self.band_vars):
            raise EquationSetError(
                "every band variable needs exactly one diagonal source "
                f"(got sources for {sorted(sourced)}, band vars {sorted(self.band_vars)})"
            )
        for s in self.sources:
            if s.system_var not in sys_set:
                raise EquationSetError(
                    f"source of {s.band_var!r} references unknown system "
                    f"variable {s.system_var!r}"
                )

    def system_index(self, name: str) -> int:
        return self.system_vars.index(name)

    def band_index(self, name: str) -> int:
        return self.band_vars.index(name)


def default_band_width(
    eqs: EquationSet, steps_per_delay: int, eps_band: float = 1e-12
) -> int:
    """Number of steps a line is kept, ``ceil(ln(1/eps) / (gamma_min h))``.

    ``gamma_min`` is the slowest own-damping rate over the band equations.
    The result is clamped to ``steps_per_delay + 1``: values deeper into a
    line than one delay past its birth can never propagate back into the
    system variables, so keeping more buys exactly nothing (see the module
    notes; the claim is also regression-tested).
    """
    if not (0 < eps_band < 1):
        raise ValueError("eps_band must be in (0, 1)")
    k = int(steps_per_delay)
    if k < 1:
        raise ValueError("steps_per_delay must be >= 1")
    h = eqs.tau_fs / k
    rates = [-t.coefficient.real for t in eqs.terms if t.ref.pattern is Pattern.OWN]
    positive = [r for r in rates if r > 0]
    cap = k + 1
    if not positive:
        return cap
    width = math.ceil(math.log(1.0 / eps_band) / (min(positive) * h))
    return max(1, min(width, cap))


class BandBuffer:
    """Ring storage for the band, ``data[position ring, age, variable]``.

    ``value()`` is the contractual scalar read: it applies the masks of
    the module notes (Storage), and refuses reads of positions that were
    never computed or that have been evicted from the ring (older than
    one delay behind the frontier).  The integrator slices ``data``
    directly on its hot path.
    """

    def __init__(
        self,
        n_vars: int,
        steps_per_delay: int,
        band_width: int,
        horizon: int | None = None,
    ):
        if steps_per_delay < 1:
            raise ValueError("steps_per_delay must be >= 1")
        if band_width < 1:
            raise ValueError("band_width must be >= 1")
        self.n_vars = int(n_vars)
        self.steps_per_delay = int(steps_per_delay)
        self.band_width = int(band_width)
        # a run of at most `horizon` steps touches positions and ages
        # 0..horizon only, so the ring shrinks accordingly -- this is what
        # keeps fine delay grids (large steps_per_delay) affordable when
        # the run itself is short
        span = self.steps_per_delay
        age_span = self.band_width
        if horizon is not None:
            if horizon < 1:
                raise ValueError("horizon must be >= 1")
            span = min(span, int(horizon))
            age_span = min(age_span, int(horizon))
        self.n_rows = span + 2
        self.n_cols = age_span + 2
        self.data = np.zeros((self.n_rows, self.n_cols, self.n_vars), dtype=complex)
        self.frontier = -1  # highest fully-computed position

    def row(self, position: int) -> int:
        return position % self.n_rows

    def value(self, var_index: int, position: int, label: int) -> complex:
        if label < 0 or position < label:
            return 0j
        if position - label > self.band_width:
            return 0j
        if position > self.frontier:
            raise ValueError(
                f"position {position} not computed yet (frontier {self.frontier})"
            )
        if position < self.frontier - self.steps_per_delay:
            raise ValueError(
                f"position {position} already evicted (frontier {self.frontier}, "
                f"ring keeps one delay)"
            )
        return complex(self.data[self.row(position), position - label, var_index])


def _term_matrices(eqs: EquationSet) -> dict:
    """One ``(plain, conjugated)`` coefficient pair per read pattern, and one
    more under ``"birth"`` for the diagonal sources (system -> band).

    Every matrix is indexed (read, target): a row of read values ``x``
    contributes ``x @ plain + x.conj() @ conjugated`` to its targets.
    """
    n_s, n_b = len(eqs.system_vars), len(eqs.band_vars)
    index = {v: i for names in (eqs.system_vars, eqs.band_vars) for i, v in enumerate(names)}
    shapes = {
        p: (n_s if p is Pattern.CURRENT else n_b, n_s if p in _SYSTEM_PATTERNS else n_b)
        for p in Pattern
    }
    shapes["birth"] = (n_s, n_b)
    mats = {k: (np.zeros(s, dtype=complex), np.zeros(s, dtype=complex)) for k, s in shapes.items()}
    reads = [(t.ref.pattern, t.ref.var, t.target, t.coefficient, t.ref.conjugate)
             for t in eqs.terms]
    reads += [("birth", s.system_var, s.band_var, s.coefficient, s.conjugate)
              for s in eqs.sources]
    for key, read, target, c, conj in reads:
        mats[key][int(conj)][index[read], index[target]] += complex(c)
    return mats


def _pair(pair: tuple[np.ndarray, np.ndarray]):
    """A ``(plain, conjugated)`` pair with all-zero matrices as None; None
    when both are zero."""
    plain, conj = (m if np.count_nonzero(m) else None for m in pair)
    return None if plain is None and conj is None else (plain, conj)


def _apply(out: np.ndarray, x: np.ndarray, pair) -> None:
    """``out += x @ T + x.conj() @ Tc``, leaving out the all-zero matrix."""
    plain, conj = pair
    if plain is not None:
        out += x @ plain
    if conj is not None:
        out += x.conj() @ conj


class HierarchyIntegrator:
    """Synchronised Heun stepper over system + band.

    One call to :meth:`step` advances everything by h: left slopes from the
    final state at n, an Euler predictor at position n + 1, right slopes
    with predicted data at n + 1 (historical reads stay final), trapezoidal
    correction, retirement bookkeeping, then the birth of line n + 1 from
    the corrected system values.

    ``horizon_steps`` is an optional promise that at most that many steps
    will be taken; it shrinks the ring allocation for short runs on fine
    delay grids and makes further stepping an error.
    """

    def __init__(
        self,
        eqs: EquationSet,
        init: Mapping[str, complex],
        *,
        steps_per_delay: int,
        band_width: int,
        include_first_arg_delayed: bool = True,
        horizon_steps: int | None = None,
    ):
        eqs.validate()
        if steps_per_delay < 1:
            raise ValueError("steps_per_delay must be >= 1")
        if band_width < 1:
            raise ValueError("band_width must be >= 1")
        if horizon_steps is not None and horizon_steps < 1:
            raise ValueError("horizon_steps must be >= 1")
        self._horizon = None if horizon_steps is None else int(horizon_steps)
        self.eqs = eqs
        self.K = int(steps_per_delay)
        self.band_width = int(band_width)
        self.h_fs = eqs.tau_fs / self.K
        self.include_first_arg_delayed = bool(include_first_arg_delayed)

        mats = _term_matrices(eqs)
        self._cur = _pair(mats[Pattern.CURRENT])
        self._diag = _pair(mats[Pattern.DIAGONAL])
        # OWN is a plain self-read (validated), so its matrix is diagonal:
        # one damping rate per band variable, applied elementwise
        self._own_rate = mats[Pattern.OWN][0].diagonal().copy()
        self._sad = _pair(mats[Pattern.SECOND_ARG_DELAYED])
        self._fad = (
            _pair(mats[Pattern.FIRST_ARG_DELAYED])
            if self.include_first_arg_delayed
            else None
        )
        self._birth = _pair(mats["birth"])

        unknown = set(init) - set(eqs.system_vars)
        if unknown:
            raise ValueError(f"initial state names unknown variables: {sorted(unknown)}")
        self.state = np.zeros(len(eqs.system_vars), dtype=complex)
        for name, value in init.items():
            self.state[eqs.system_index(name)] = complex(value)

        n_b = len(eqs.band_vars)
        buf = self.buffer = BandBuffer(n_b, self.K, self.band_width, horizon=self._horizon)
        # the ring with (position, age) flattened, for the diagonal SAD reads
        self._flat = buf.data.reshape(buf.n_rows * buf.n_cols, n_b)
        self.n = 0
        self.truncation_certificate = 0.0
        self._give_birth(0, self.state)
        buf.frontier = 0

    # -- helpers ---------------------------------------------------------

    def band_value(self, var: str, position: int, label: int) -> complex:
        """Masked band read (the BandBuffer contract, by variable name)."""
        return self.buffer.value(self.eqs.band_index(var), position, label)

    def _give_birth(self, position: int, sys_vec: np.ndarray) -> None:
        born = self.buffer.data[self.buffer.row(position), 0]
        born[:] = 0
        if self._birth is not None:
            _apply(born, sys_vec, self._birth)

    # -- the step --------------------------------------------------------

    def step(self) -> None:
        if self._horizon is not None and self.n >= self._horizon:
            raise ValueError(
                f"integrator was allocated for {self._horizon} steps "
                f"(horizon_steps); construct without a horizon to continue"
            )
        with np.errstate(over="ignore", invalid="ignore"):
            self._step_impl()

    def _step_impl(self) -> None:
        # overflow is deliberate territory here: a diverging run is caught by
        # the isfinite check below and surfaced as NonFiniteStateError, so
        # callers hold np.errstate to keep the inf/nan arithmetic quiet
        n, K, W = self.n, self.K, self.band_width
        h = self.h_fs
        buf = self.buffer
        A = buf.data
        R = buf.n_rows
        n_adv = min(W, n + 1)  # lines at ages 0 .. n_adv-1 still advance
        diag_open = self._diag is not None and n >= K and K <= W
        sad_open = self._sad is not None and n >= K
        fad_open = self._fad is not None and n_adv > K

        own0 = A[n % R, :n_adv]  # values at position n, by age

        # ---- left slopes (time n, all reads final) ----
        f_sys_l, f_band_l = self._slopes(
            n, self.state, own0,
            A[n % R, K] if diag_open else None,
            K if sad_open else None,
            A[(n - K) % R, : n_adv - K] if fad_open else None,
        )

        # ---- predictor at position n + 1 (ages 1 .. n_adv) ----
        sys_p = self.state + h * f_sys_l
        pred = own0 + h * f_band_l

        # ---- right slopes (time n + 1; predicted data only at n + 1) ----
        # the returning line at n + 1 is the one predicted from age K - 1
        f_sys_r, f_band_r = self._slopes(
            n, sys_p, pred,
            pred[K - 1] if diag_open else None,
            K - 1 if sad_open else None,
            A[(n + 1 - K) % R, 1 : n_adv - K + 1] if fad_open else None,
        )

        # ---- trapezoidal corrector, written straight into position n + 1 ----
        sys_new = self.state + 0.5 * h * (f_sys_l + f_sys_r)
        band_new = A[(n + 1) % R, 1 : n_adv + 1]
        np.add(own0, 0.5 * h * (f_band_l + f_band_r), out=band_new)

        if not (np.isfinite(sys_new).all() and np.isfinite(band_new).all()):
            raise NonFiniteStateError(n + 1, (n + 1) * h)

        # ---- retirement: the oldest line reaches age W and stops ----
        if n_adv == W:
            edge = float(np.abs(band_new[W - 1]).max())
            if edge > self.truncation_certificate:
                self.truncation_certificate = edge

        # ---- birth of line n + 1 from the corrected system state ----
        self.state = sys_new
        self.n = n + 1
        self._give_birth(self.n, sys_new)
        buf.frontier = self.n

    def _slopes(self, n, sys_vec, band, diag, sad_age0, fad_band):
        """System and band slopes of one Heun stage at step n.

        ``band`` holds the advancing lines by age; ``diag`` is the returning
        line, ``sad_age0`` the age at position n of the line one delay older
        than the newest (K left, K - 1 right), and ``fad_band`` the advancing
        lines one delay earlier in position.  A gated-off read is None.
        """
        K = self.K
        f_sys = np.zeros_like(sys_vec)
        if self._cur is not None:
            _apply(f_sys, sys_vec, self._cur)
        if diag is not None:
            _apply(f_sys, diag, self._diag)
        f_band = band * self._own_rate
        if sad_age0 is not None:
            # the line of age a reads line n + sad_age0 - K at its own birth
            # position n - a, where that line has age sad_age0 - a: a diagonal
            # of the ring, flat index (n - a) * n_cols + sad_age0 - a
            lo = max(0, sad_age0 - self.band_width)  # deeper reads fall off the band
            hi = min(len(band), K)                   # age gate: younger than the delay
            if hi > lo:
                stride = self.buffer.n_cols + 1
                start = n * self.buffer.n_cols + sad_age0 - lo * stride
                idx = np.arange(start, start - (hi - lo) * stride, -stride)
                _apply(f_band[lo:hi], self._flat.take(idx, axis=0, mode="wrap"), self._sad)
        if fad_band is not None:
            _apply(f_band[K:], fad_band, self._fad)
        return f_sys, f_band


@dataclass
class SimResult:
    """Output of :func:`run`: the system trajectories plus the run settings."""

    times: np.ndarray
    series: dict[str, np.ndarray]
    h_fs: float
    tau_fs: float
    steps_per_delay: int
    band_width: int
    n_steps: int
    truncation_certificate: float
    include_first_arg_delayed: bool


def run(
    eqs: EquationSet,
    init: Mapping[str, complex],
    *,
    steps_per_delay: int,
    t_end_fs: float,
    band_width: int | None = None,
    eps_band: float = 1e-12,
    include_first_arg_delayed: bool = True,
) -> SimResult:
    """Integrate the hierarchy to ``t_end_fs`` and record the system variables.

    ``h = tau / steps_per_delay`` exactly; the number of steps is
    ``ceil(t_end / h)`` (so the final time may overshoot ``t_end_fs`` by a
    fraction of a step).  ``band_width`` defaults to
    :func:`default_band_width` with the given ``eps_band``.
    """
    eqs.validate()
    if t_end_fs <= 0:
        raise ValueError("t_end_fs must be positive")
    if steps_per_delay < 1:
        raise ValueError("steps_per_delay must be >= 1")
    if band_width is None:
        band_width = default_band_width(eqs, steps_per_delay, eps_band)
    h = eqs.tau_fs / steps_per_delay
    n_steps = max(1, math.ceil(t_end_fs / h - 1e-9))
    integ = HierarchyIntegrator(
        eqs,
        init,
        steps_per_delay=steps_per_delay,
        band_width=band_width,
        include_first_arg_delayed=include_first_arg_delayed,
        horizon_steps=n_steps,
    )
    n_sys = len(eqs.system_vars)
    traj = np.zeros((n_steps + 1, n_sys), dtype=complex)
    traj[0] = integ.state
    # the horizon is n_steps, so the loop calls the step body directly
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n_steps):
            integ._step_impl()
            traj[i + 1] = integ.state
    times = np.arange(n_steps + 1) * h
    series = {name: traj[:, k].copy() for k, name in enumerate(eqs.system_vars)}
    return SimResult(
        times=times,
        series=series,
        h_fs=h,
        tau_fs=eqs.tau_fs,
        steps_per_delay=integ.K,
        band_width=integ.band_width,
        n_steps=n_steps,
        truncation_certificate=integ.truncation_certificate,
        include_first_arg_delayed=include_first_arg_delayed,
    )
