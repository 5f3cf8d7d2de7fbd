"""Fixed-step integrator for a delay hierarchy with one auxiliary line per step.

The state is a small vector of "system" variables rho(t) together with a band
of auxiliary lines B(i, j): line j is created at grid time j (a delta source
fires once, converting a system value into the line's birth value) and is then
propagated forward in position i.  Couplings only ever look back exactly one
delay tau, and the grid is locked to the delay (h = tau / steps_per_delay), so
every delayed read is an exact index lookup K steps into the past -- no
interpolation anywhere.

Read patterns
-------------
Equations are declared structurally; a term on variable X picks one of six
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
* ``BIRTH``               -- system value at t1, read once, at the birth of
                             line t1: the delta source that creates the line
                             (every band variable has exactly one).

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
:meth:`HierarchyIntegrator.band_value` applies these masks; the step's
slices and gates stay inside them (a SECOND_ARG_DELAYED read one age past
the band is gathered, then set to 0), so every cell the step reads was
written before; the ring is therefore allocated without zeroing.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass
from typing import Mapping

import numpy as np

__all__ = [
    "Pattern",
    "Term",
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
    BIRTH = "birth"

    # an identity hash, as for identity equality: keeps lookups in C
    __hash__ = object.__hash__


#: the (target, read) variable groups each pattern allows
_GROUPS = {
    Pattern.CURRENT: ("system", "system"),
    Pattern.DIAGONAL: ("system", "band"),
    Pattern.OWN: ("band", "band"),
    Pattern.SECOND_ARG_DELAYED: ("band", "band"),
    Pattern.FIRST_ARG_DELAYED: ("band", "band"),
    Pattern.BIRTH: ("band", "system"),
}


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
class Term:
    """One linear contribution ``coefficient * var`` (read under ``pattern``,
    conjugated if requested) to d/dt of ``target``, or for BIRTH to its birth."""

    target: str
    coefficient: complex
    var: str
    pattern: Pattern
    conjugate: bool = False


@dataclass(frozen=True)
class EquationSet:
    """A closed linear delay hierarchy.

    ``system_vars`` evolve under CURRENT/DIAGONAL terms; ``band_vars``
    under OWN/SECOND_ARG_DELAYED/FIRST_ARG_DELAYED terms, each with
    exactly one BIRTH term.  ``tau_fs`` is the single delay shared by
    every delayed pattern.
    """

    system_vars: tuple[str, ...]
    band_vars: tuple[str, ...]
    terms: tuple[Term, ...]
    tau_fs: float

    def __post_init__(self) -> None:
        # the set is frozen: keep no reference to a caller's mutable sequence
        for name in ("system_vars", "band_vars", "terms"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        self.validate()

    def validate(self) -> None:
        names = list(self.system_vars) + list(self.band_vars)
        if not self.system_vars:
            raise EquationSetError("at least one system variable is required")
        if len(set(names)) != len(names) or any(not n for n in names):
            raise EquationSetError("variable names must be unique and non-empty")
        if not (self.tau_fs > 0):
            raise EquationSetError("tau_fs must be positive")
        group = dict.fromkeys(self.system_vars, "system")
        group.update(dict.fromkeys(self.band_vars, "band"))
        own, birth, born = Pattern.OWN, Pattern.BIRTH, []
        for t in self.terms:
            p = t.pattern
            if t.target not in group:
                raise EquationSetError(f"term targets unknown variable {t.target!r}")
            target, read = _GROUPS.get(p, (None, None))
            if group[t.target] != target:
                raise EquationSetError(f"{group[t.target]} variable {t.target!r} takes no {p} term")
            if group.get(t.var) != read:
                raise EquationSetError(
                    f"term on {t.target!r} references {t.var!r}, which is "
                    f"not a valid {p.value} source"
                )
            if p is own and (t.var != t.target or t.conjugate):
                raise EquationSetError(
                    f"OWN term on {t.target!r} must be a plain read of "
                    f"{t.target!r} itself, got "
                    f"{'conjugated ' if t.conjugate else ''}{t.var!r}"
                )
            if p is birth:
                born.append(t.target)
        if sorted(born) != sorted(self.band_vars):
            raise EquationSetError(
                "every band variable needs exactly one BIRTH term "
                f"(got births of {sorted(born)}, band vars {sorted(self.band_vars)})"
            )

    def system_index(self, name: str) -> int:
        return self.system_vars.index(name)

    def band_index(self, name: str) -> int:
        return self.band_vars.index(name)


def default_band_width(
    eqs: EquationSet, steps_per_delay: int, eps_band: float = 1e-12
) -> int:
    """Number of steps a line is kept, ``ceil(ln(1/eps) / (gamma_min h))``.

    ``gamma_min`` is the slowest own-damping rate over the band variables,
    a variable's rate being minus the real part of the sum of its OWN
    coefficients.  If any band variable is undamped (rate <= 0) its lines
    never fade, so the whole band is kept.  The result is clamped to
    ``steps_per_delay + 1``: values deeper into a line than one delay past
    its birth can never propagate back into the system variables, so
    keeping more buys exactly nothing (see the module notes; the claim is
    also regression-tested).
    """
    if steps_per_delay < 1:
        raise ValueError("steps_per_delay must be >= 1")
    return _band_width(eqs, int(steps_per_delay), eps_band)


def _band_width(eqs: EquationSet, k: int, eps_band: float) -> int:
    # divides by no k, so :func:`run` can call it before the ring checks k
    if not (0 < eps_band < 1):
        raise ValueError("eps_band must be in (0, 1)")
    rates = dict.fromkeys(eqs.band_vars, 0.0)
    for t in eqs.terms:
        if t.pattern is Pattern.OWN:
            rates[t.target] -= t.coefficient.real
    slowest = min(rates.values(), default=0.0)
    cap = k + 1
    if slowest <= 0:
        return cap
    width = math.ceil(math.log(1.0 / eps_band) * k / (slowest * eqs.tau_fs))
    return max(1, min(width, cap))


def _count(name: str, value) -> int:
    """``value`` as an int >= 1; NumPy integers pass, a float does not."""
    try:
        n = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if n < 1:
        raise ValueError(f"{name} must be >= 1")
    return n


class BandBuffer:
    """Ring storage for the band, ``data[position ring, age, variable]``
    (see the module notes, Storage)."""

    def __init__(
        self,
        n_vars: int,
        steps_per_delay: int,
        band_width: int,
        horizon: int | None = None,
    ):
        span = _count("steps_per_delay", steps_per_delay)
        age_span = _count("band_width", band_width)
        # a run of at most `horizon` steps touches positions and ages
        # 0..horizon only, so the ring shrinks accordingly -- this is what
        # keeps fine delay grids (large steps_per_delay) affordable when
        # the run itself is short
        if horizon is not None:
            horizon = _count("horizon", horizon)
            span, age_span = min(span, horizon), min(age_span, horizon)
        self.n_rows = span + 2
        self.n_cols = age_span + 2
        # not zeroed: the step writes every cell before it reads it
        self.data = np.empty((self.n_rows, self.n_cols, int(n_vars)), dtype=complex)


#: the coefficient sets, one per read pattern
_KEYS = tuple(Pattern)


def _complex_forms(eqs: EquationSet) -> tuple[np.ndarray, set]:
    """Every coefficient set in one complex array ``g[key, row, target]``,
    keys in ``_KEYS`` order, and the positions in ``_KEYS`` of the sets
    with a nonzero term.

    Rows ``2r`` and ``2r + 1`` take the real and imaginary part of read
    ``r``: a plain term ``c`` adds ``(c, i c)``, a conjugated one
    ``(c, -i c)``.  So a row of complex reads ``x`` contributes
    ``x.view(float) @ g[key]`` to its targets, and ``g[key].view(float)``
    is that map as one real matrix acting on float views.
    """
    index = {v: i for names in (eqs.system_vars, eqs.band_vars) for i, v in enumerate(names)}
    n = max(len(eqs.system_vars), len(eqs.band_vars))
    at, coef, used = [], [], set()  # flat index of each real row, and its coefficient
    for t in eqs.terms:
        c = t.coefficient
        key = _KEYS.index(t.pattern)
        i = (key * 2 * n + 2 * index[t.var]) * n + index[t.target]
        at += (i, i + n)
        coef += (c, -1j * c if t.conjugate else 1j * c)
        if c:
            used.add(key)
    g = np.zeros((len(_KEYS), 2 * n, n), dtype=complex)
    np.add.at(g.reshape(-1), np.array(at, dtype=np.intp), np.array(coef, dtype=complex))
    return g, used


#: the Heun factor, over h, of each real matrix the integrator builds
_HEUN_SCALE = np.array([1, 1, 0.5, 0.5, 0.5, 1, 1, 0.5, 0.5])[:, None, None]


class HierarchyIntegrator:
    """Synchronised Heun stepper over system + band.

    Every read is linear in the values it reads, so a Heun step (Euler
    predictor, trapezoidal corrector) has a closed form, precomputed at
    construction with R(z) = 1 + z + z^2 / 2.  The band advances as
    y1 = R(h L) y0 + (h/2)(1 + h L) S_l + (h/2) S_r, with L the OWN rates
    and S the SECOND_ARG_DELAYED and FIRST_ARG_DELAYED reads of the left
    and right stage (historical, hence final); the system as
    s1 = R(h C) s0 + (h/2) D (1 + h C) d_l + (h/2) D d_r, with C the
    CURRENT and D the DIAGONAL coefficients.  The one predicted value is
    d_r, the returning line at n + 1: (1 + h L) y0 + h S_l at age K - 1.
    Each coefficient set is one real matrix acting on float views of the
    complex rows, so no read is conjugated at run time.

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
        n_s, n_b = len(eqs.system_vars), len(eqs.band_vars)
        # the ring checks steps_per_delay, band_width and the horizon, so
        # it is allocated before anything divides by steps_per_delay
        buf = self.buffer = BandBuffer(n_b, steps_per_delay, band_width, horizon=horizon_steps)
        self._horizon = None if horizon_steps is None else int(horizon_steps)
        self.eqs = eqs
        self.K = K = int(steps_per_delay)
        self.band_width = W = int(band_width)
        self.h_fs = h = eqs.tau_fs / K

        unknown = set(init) - set(eqs.system_vars)
        if unknown:
            raise ValueError(f"initial state names unknown variables: {sorted(unknown)}")
        self.state = np.zeros(n_s, dtype=complex)
        for name, value in init.items():
            self.state[eqs.system_index(name)] = complex(value)

        g, used = _complex_forms(eqs)
        s2, b2 = 2 * n_s, 2 * n_b
        # real matrices padded to (2n, 2n), sliced to their reads and
        # targets at the end: h C, h L, (h/2) D, (h/2) S, (h/2) F, h L, h S,
        # (h/2) C, (h/2) L; then every product in one batched matmul:
        # h C + (h C)^2 / 2, (1 + h L)(h/2) D, (h/2) D (1 + h C),
        # (h/2) S (1 + h L), (h/2) F (1 + h L), h L + (h L)^2 / 2, h S (h/2) D
        f = (g.take((0, 2, 1, 3, 4, 2, 3, 0, 2), axis=0) * (h * _HEUN_SCALE)).view(np.float64)
        p = f[:7] @ f.take((7, 2, 0, 1, 1, 8, 2), axis=0)
        p[:6] += f.take((0, 2, 2, 3, 4, 1), axis=0)
        c_step, d_own, d_left, s_left, f_left, own_step, s_pred = p
        self._own = np.array(own_step[:b2, :b2])  # R(h L), block diagonal
        self._own.reshape(-1)[:: b2 + 1] += 1
        # system rows: s0 (R(h C)), then, once the returning line is read,
        # y0 at ages K - 1 and K and the SAD read of age K - 1 (for d_r)
        rows = [c_step[:s2, :s2]]
        delayed = _KEYS.index(Pattern.DIAGONAL) in used and K <= W
        has_sad = _KEYS.index(Pattern.SECOND_ARG_DELAYED) in used
        if delayed:
            rows += [d_own[:b2, :s2], d_left[:b2, :s2]]
            if has_sad:
                rows.append(s_pred[:b2, :s2])
        sys = np.concatenate(rows)
        sys.reshape(-1)[: s2 * s2 : s2 + 1] += 1  # the identity of R(h C)
        self._sys_cur = sys[:s2]
        self._sys_open = sys if delayed else None
        # a set with no nonzero term is None, and its reads are skipped;
        # SAD rows: right-stage read, then left-stage read
        self._sad = np.concatenate((f[3, :b2, :b2], s_left[:b2, :b2])) if has_sad else None
        self._sad_idx = None
        self._fad = None  # (left, right)
        if include_first_arg_delayed and _KEYS.index(Pattern.FIRST_ARG_DELAYED) in used:
            self._fad = (np.array(f_left[:b2, :b2]), np.array(f[4, :b2, :b2]))
        self._birth = np.array(g[5, :s2, :n_b]).view(np.float64)  # copies: f, g and p go

        # the ring with (position, age) flattened, for the diagonal SAD reads
        self._flat = buf.data.reshape(buf.n_rows * buf.n_cols, n_b)
        self.n = 0
        self.truncation_certificate = 0.0
        np.matmul(self.state.view(np.float64), self._birth, out=buf.data[0, 0].view(np.float64))

    def band_value(self, var: str, position: int, label: int) -> complex:
        """Band value B(position, label) of ``var``, zero where the module
        notes (Storage) mask it.  Positions not computed yet, or evicted
        from the ring (more than one delay behind step n), are an error."""
        v = self.eqs.band_index(var)
        if label < 0 or position < label or position - label > self.band_width:
            return 0j
        if position > self.n:
            raise ValueError(f"position {position} not computed yet (latest {self.n})")
        if position < self.n - self.K:
            raise ValueError(
                f"position {position} already evicted (latest {self.n}, "
                f"ring keeps one delay)"
            )
        return complex(self.buffer.data[position % self.buffer.n_rows, position - label, v])

    # -- the step --------------------------------------------------------

    def step(self) -> None:
        self._advance(1)

    def _advance(self, n_steps: int, record: np.ndarray | None = None) -> None:
        """Take ``n_steps`` steps, writing the float view of the system
        state after step i to ``record[i]`` if given."""
        if self._horizon is not None and self.n + n_steps > self._horizon:
            raise ValueError(
                f"integrator was allocated for {self._horizon} steps "
                f"(horizon_steps); construct without a horizon to continue"
            )
        K, W = self.K, self.band_width
        A, R, C = self.buffer.data, self.buffer.n_rows, self.buffer.n_cols
        flat, own, sad, fad = self._flat, self._own, self._sad, self._fad
        if sad is not None and self._sad_idx is None and self.n + n_steps > K:
            # built by the first call that gathers: flat index of the SAD
            # cells of age lo + j relative to age lo (at most min(K, W + 1))
            at = np.arange(0, -(C + 1) * min(K, W + 1), -(C + 1)).repeat(2)
            at[1::2] += 1
            self._sad_idx = at.reshape(-1, 2)
        sad_idx = self._sad_idx
        sys_cur, sys_open, birth = self._sys_cur, self._sys_open, self._birth
        # overflow is deliberate territory here: a diverging run is caught
        # by the isfinite check and surfaced as NonFiniteStateError
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(n_steps):
                n = self.n
                n_adv = min(W, n + 1)  # lines at ages 0 .. n_adv-1 advance
                band = A[(n + 1) % R, 1 : n_adv + 1].view(np.float64)
                np.matmul(A[n % R, :n_adv].view(np.float64), own, out=band)
                if n >= K and sad is not None:
                    # the line of age a < K reads the line one delay older
                    # at its own birth position n - a, at age K - 1 - a
                    # (right stage) and K - a (left): two adjacent cells,
                    # flat index ((n - a) % R) * C + K - 1 - a
                    lo, hi = max(0, K - 1 - W), min(n_adv, K)
                    if hi > lo:
                        at = sad_idx[: hi - lo] + (((n - lo) % R) * C + K - 1 - lo)
                        x = flat.take(at, axis=0, mode="wrap")
                        if lo:  # its left read is one age past the band
                            x[0, 1] = 0
                        x = x.reshape(hi - lo, -1).view(np.float64)
                        band[lo:hi] += x @ sad
                if fad is not None and n_adv > K:
                    # the same lines one delay earlier in position
                    m = n_adv - K
                    left, right = A[(n - K) % R, :m], A[(n + 1 - K) % R, 1 : m + 1]
                    band[K:] += left.view(np.float64) @ fad[0]
                    band[K:] += right.view(np.float64) @ fad[1]
                s = self.state.view(np.float64)
                if n >= K and sys_open is not None:
                    reads = [s, A[n % R, K - 1 : K + 1].view(np.float64)]
                    if sad is not None:
                        reads.append(A[(n + 1 - K) % R, 1].view(np.float64))
                    s1 = np.concatenate(reads, axis=None) @ sys_open
                else:
                    s1 = s @ sys_cur

                if not (np.isfinite(s1).all() and np.isfinite(band).all()):
                    raise NonFiniteStateError(n + 1, (n + 1) * self.h_fs)

                # retirement: the oldest line reaches age W and stops
                if n_adv == W:
                    edge = float(np.abs(band[W - 1].view(np.complex128)).max())
                    if edge > self.truncation_certificate:
                        self.truncation_certificate = edge

                # birth of line n + 1 from the new system state
                np.matmul(s1, birth, out=A[(n + 1) % R, 0].view(np.float64))
                self.state = s1.view(np.complex128)
                self.n = n + 1
                if record is not None:
                    record[i] = s1


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
    if t_end_fs <= 0:
        raise ValueError("t_end_fs must be positive")
    # steps_per_delay and band_width are checked once, by the ring the
    # integrator allocates, so nothing here divides by steps_per_delay
    if band_width is None:
        band_width = _band_width(eqs, int(steps_per_delay), eps_band)
    n_steps = max(1, math.ceil(t_end_fs * steps_per_delay / eqs.tau_fs - 1e-9))
    integ = HierarchyIntegrator(
        eqs,
        init,
        steps_per_delay=steps_per_delay,
        band_width=band_width,
        include_first_arg_delayed=include_first_arg_delayed,
        horizon_steps=n_steps,
    )
    traj = np.zeros((n_steps + 1, len(eqs.system_vars)), dtype=complex)
    traj[0] = integ.state
    integ._advance(n_steps, traj.view(np.float64)[1:])
    times = np.arange(n_steps + 1) * integ.h_fs
    series = {name: traj[:, k].copy() for k, name in enumerate(eqs.system_vars)}
    return SimResult(
        times=times,
        series=series,
        h_fs=integ.h_fs,
        tau_fs=eqs.tau_fs,
        steps_per_delay=integ.K,
        band_width=integ.band_width,
        n_steps=n_steps,
        truncation_certificate=integ.truncation_certificate,
        include_first_arg_delayed=include_first_arg_delayed,
    )
