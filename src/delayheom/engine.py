"""Fixed-step integrator for a delay hierarchy with one auxiliary line per step.

The state is a small vector of "system" variables rho(t) together with a band
of auxiliary lines B(i, j): line j is born at grid time j (its BIRTH read,
below) and is then propagated forward in position i.  Couplings only ever
look back exactly one delay tau, and the grid is locked to the delay (h =
tau / steps_per_delay), so every delayed read is an exact index lookup K
steps into the past -- no interpolation anywhere.

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

* every delayed read (DIAGONAL, SECOND_ARG_DELAYED, FIRST_ARG_DELAYED)
  participates from n >= K on (before that the read would cross the start
  of the history, where lines do not exist yet);
* SECOND_ARG_DELAYED acts on ages [max(0, K - 1 - W), min(W, K)) (W =
  band_width): lines younger than the delay whose read lies in the band;
* FIRST_ARG_DELAYED acts on ages >= K, so it exists only for W > K.

Construction fixes both age ranges and drops a read whose range is empty.
A gated term contributes to both slope evaluations of a step or to neither.
Boundary reads landing exactly on a line's birth position return the
post-source value (the one-sided limit from inside the causal region).  This
keeps the scheme second order through the kink at t = tau, makes the
pre-delay silence of undriven variables exact, and means values at ages
<= K never receive FIRST_ARG_DELAYED contributions -- so the system output
is bit-for-bit independent of those terms, as the structure promises.

Storage
-------
One complex array, the ring ``buffer[row, age, variable]``: the band value
B(i, j) of line j at position i lives at ``buffer[i % R, i - j]``.  Axis
1 is the age i - j, so a line set at one position is a contiguous row,
and one line's history at successive positions is a diagonal of the ring.
Its shape, set by :func:`_ring_shape` alone, is (R, A) = (K + 2, W + 2)
(W = band_width): nothing ever reads further back than one delay, and
lines stop advancing at age W.  A run of at most H steps reaches neither
a position nor an age beyond H, so it keeps A = min(W, H) + 2 and, for
H > K, R = min(K, H) + 2.  A run that ends within one delay (H <= K)
reads no row back at all (Delay gating): each step reads only the row
before it, so it keeps R = min(32, H) + 2 however long the run, a check
cycle (below) of 33 steps being long enough to spread a check's set-up.

The step reads and writes only a float view of the ring, one cell per
row.  One ``take`` of it per step n gathers every cell read back, as
(row, age), into one buffer per check window, [s | system cells | line
cells]: the system's reads in the order of its rows (class notes), y0 at
(n, K - 1) and (n, K) and S_l at (n + 1 - K, 1), which it reads with its
state as one vector; then the own, right- and left-stage reads of each
SECOND_ARG_DELAYED line of age a, (n, a), (n - a, K - 1 - a) and
(n - a, K - a), and of each FIRST_ARG_DELAYED line of age K + j,
(n, K + j), (n + 1 - K, j + 1) and (n - K, j).  Each group of lines
advances with one product.

No step checks its own values.  At least every R - 1 steps, and at the
end of every call, one check looks at what the steps since the last one
wrote: their system states and their ring rows, one sum per run of whole
rows.  A row is written again only R steps later, so the check sees every
value a check after each step would see, and reports the same: the first
step that wrote a non-finite value (to its state, or to its row at the
ages it wrote, 1 .. min(W, n + 1)), or the truncation certificate, the
largest magnitude at age W of the rows that retired a line (a max, which
does not depend on the order).  After a raise, the integrator may stand
up to R - 1 steps past the step it names.

B(i, j) is zero before the start of history (j < 0), ahead of the line's
birth (i < j) and beyond the retained band (i - j > band_width).
:meth:`HierarchyIntegrator.band_value` applies these masks.  The ring is
allocated without zeroing: each step of the first ring cycle zeroes the
ages of its row that it does not write (past its position, and W + 1),
and later positions of a row write at least the ages earlier ones did,
so a cell no step writes reads 0.  The step reads one such cell: when
W < K, the youngest SECOND_ARG_DELAYED line, age K - 1 - W, reads its
left stage at age W + 1.
"""

from __future__ import annotations

import enum
import math
import numbers
import operator
import sys
from dataclasses import dataclass
from typing import Mapping, NamedTuple

import numpy as np

__all__ = [
    "Pattern",
    "Term",
    "EquationSet",
    "EquationSetError",
    "NonFiniteStateError",
    "HierarchyIntegrator",
    "SimResult",
    "default_band_width",
    "plan_run",
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
    """Raised at the first step (``step_index``, ``time_fs``) that wrote a
    non-finite value; when it is checked is in the module notes (Storage)."""

    def __init__(self, step_index: int, time_fs: float):
        super().__init__(
            f"non-finite state at step {step_index} (t = {time_fs:g} fs)"
        )
        self.step_index = step_index
        self.time_fs = time_fs


class Term(NamedTuple):
    """One linear contribution ``coefficient * var`` (read under ``pattern``,
    conjugated if requested) to d/dt of ``target``, or for BIRTH to its birth."""

    target: str
    coefficient: complex
    var: str
    pattern: Pattern
    conjugate: bool = False


@dataclass(frozen=True)
class EquationSet:
    """A closed linear delay hierarchy, checked against ``_GROUPS`` and the
    read patterns (module notes) when it is built."""

    system_vars: tuple[str, ...]
    band_vars: tuple[str, ...]
    terms: tuple[Term, ...]
    tau_fs: float

    def __post_init__(self) -> None:
        # the set is frozen: keep no reference to a caller's mutable sequence
        for name in ("system_vars", "band_vars", "terms"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        names = list(self.system_vars) + list(self.band_vars)
        if not self.system_vars:
            raise EquationSetError("at least one system variable is required")
        if len(set(names)) != len(names) or any(not n for n in names):
            raise EquationSetError("variable names must be unique and non-empty")
        if not 0 < _number(self.tau_fs) <= sys.float_info.max:    # refuses NaN too
            raise EquationSetError("tau_fs must be positive and finite")
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


def default_band_width(
    eqs: EquationSet, steps_per_delay: int, eps_band: float = 1e-12
) -> int:
    """The band width :func:`plan_run` gives any run that sets none."""
    return _width_rule(eqs, _count("steps_per_delay", steps_per_delay), eps_band)[0]


def _width_rule(eqs: EquationSet, K: int, eps_band: float) -> tuple[int, str]:
    """The default band width and what set it, "eps" or "cap": a line is kept
    ``ceil(ln(1/eps) / (gamma_min h))`` steps, ``gamma_min`` being the slowest
    own-damping rate over the band variables, minus the real part of the sum
    of a variable's OWN coefficients (an undamped variable, rate <= 0, never
    fades), and never more than ``K``, the oldest age the system reads."""
    if not 0 < _number(eps_band) < 1:    # refuses NaN too
        raise ValueError("eps_band must be a number in (0, 1)")
    own, rates = Pattern.OWN, dict.fromkeys(eqs.band_vars, 0.0)
    for t in eqs.terms:
        if t.pattern is own:
            rates[t.target] -= t.coefficient.real
    # near the subnormal range the product underflows and the quotient
    # overflows: each means that a line outlives the delay
    decay = min(rates.values(), default=0.0) * eqs.tau_fs
    kept = math.log(1.0 / eps_band) * K / decay if decay > 0 else math.inf
    return (max(1, math.ceil(kept)), "eps") if kept < K else (K, "cap")


def _number(value, kinds=(float, int, numbers.Real)):    # built-ins first: an ABC checks slowly
    """``value`` if it is one of ``kinds``, else NaN: a bool is not one."""
    return value if isinstance(value, kinds) and not isinstance(value, bool) else math.nan


def _count(name: str, value) -> int:
    """``value`` as an int in [1, float max]; NumPy integers pass, a float
    or a bool does not, and no later float product of it overflows."""
    try:
        n = 0 if isinstance(value, bool) else operator.index(value)
    except TypeError:    # a float, a string, None
        n = 0
    if n < 1:
        raise ValueError(f"{name} must be an integer >= 1")
    if n > sys.float_info.max:
        raise ValueError(f"{name} must be at most {sys.float_info.max:.6g}")
    return n


def _real_forms(eqs: EquationSet) -> tuple[dict[Pattern, np.ndarray], set[Pattern]]:
    """Each pattern's coefficients as one real matrix ``M[read row, target]``
    acting on float views, and the patterns with a nonzero term.

    Rows ``2r`` and ``2r + 1`` take the real and imaginary part of read
    ``r``: a plain term ``c`` adds ``(c, i c)`` to the complex column of
    its target, a conjugated one ``(c, -i c)``.  So a row of complex
    reads ``x`` contributes ``x.view(float) @ M`` to the float view of
    its targets.
    """
    index = {v: i for names in (eqs.system_vars, eqs.band_vars) for i, v in enumerate(names)}
    size = {"system": len(eqs.system_vars), "band": len(eqs.band_vars)}
    forms = {p: np.zeros((2 * size[read], size[target]), dtype=complex)
             for p, (target, read) in _GROUPS.items()}
    used = set()
    for t in eqs.terms:
        g, c = forms[t.pattern], t.coefficient
        r, j = 2 * index[t.var], index[t.target]
        g[r, j] += c
        g[r + 1, j] += -1j * c if t.conjugate else 1j * c
        if c:
            used.add(t.pattern)
    return {p: g.view(np.float64) for p, g in forms.items()}, used


def _heun_factor(z: np.ndarray) -> np.ndarray:
    """R(z) = 1 + z + z^2 / 2, the Heun step of x' = x z."""
    r = z @ (z / 2) + z
    r.reshape(-1)[:: len(r) + 1] += 1
    return r


#: the positions behind step n kept by a run ending within one delay (Storage)
_WINDOW = 32


def _ring_shape(K: int, W: int, horizon: float) -> tuple[int, int]:
    """The ring's (rows, ages), for a run of at most ``horizon`` steps,
    ``math.inf`` if unbounded (module notes, Storage)."""
    return min(K if horizon > K else _WINDOW, horizon) + 2, min(W, horizon) + 2


class HierarchyIntegrator:
    """Synchronised Heun stepper over system + band.

    Every read is linear in the values it reads, so a Heun step (Euler
    predictor, trapezoidal corrector) has a closed form, precomputed at
    construction.  Rows are read as ``x @ M``, so "M1, then M2" is
    ``M1 @ M2``.  With C, D, L, S and F the CURRENT, DIAGONAL, OWN,
    SECOND_ARG_DELAYED and FIRST_ARG_DELAYED sets (:func:`_real_forms`)
    and R(z) = 1 + z + z^2 / 2 (:func:`_heun_factor`), a line advances as

        y1 = [y0, S_r, S_l] [R(h L); (h/2) S; (h/2) S (1 + h L)]  (_sad)
        y1 = [y0, F_r, F_l] [R(h L); (h/2) F; (h/2) F (1 + h L)]  (_fad)

    with S_l, S_r or F_l, F_r its reads at the left and right stage
    (historical, hence final).  A line with no delayed read advances as
    y0 R(h L) (_own); the system as

        s1 = s0 R(h C) + d_l (h/2) D (1 + h C) + d_r (h/2) D  (_sys_open)

    with d_l the returning line, y0 at age K, and d_r the one predicted
    value, y0 (1 + h L) + S_l h S at age K - 1: its rows are
    (1 + h L)(h/2) D and h S (h/2) D.  Before the line returns the
    system advances by ``_sys_cur``, R(h C) alone.

    ``buffer`` is the ring, gathered and checked as the module notes say
    (Storage).  ``horizon_steps`` promises at most that many steps, for a
    smaller ring, and makes further stepping an error.
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
        self.K = K = _count("steps_per_delay", steps_per_delay)
        self.band_width = W = _count("band_width", band_width)
        self._horizon = math.inf if horizon_steps is None else _count("horizon_steps", horizon_steps)
        unknown = set(init) - set(eqs.system_vars)
        if unknown:
            raise ValueError(f"initial state names unknown variables: {sorted(unknown)}")
        self.state = np.zeros(n_s, dtype=complex)
        for name, value in init.items():
            z = _number(value, (complex, float, int, numbers.Complex))
            if not abs(z.real) <= sys.float_info.max >= abs(z.imag):    # refuses NaN too
                raise ValueError(f"init[{name!r}] must be a finite number, got {value!r}")
            self.state[eqs.system_vars.index(name)] = complex(value)
        # not zeroed: the first ring cycle does it (Storage), out of construction
        self.buffer = np.empty((*_ring_shape(K, W, self._horizon), n_b), dtype=complex)
        self.eqs = eqs
        self.h_fs = h = eqs.tau_fs / K

        m, used = _real_forms(eqs)
        h_c, h_l = h * m[Pattern.CURRENT], h * m[Pattern.OWN]
        h_s = h * m[Pattern.SECOND_ARG_DELAYED]
        d = h / 2 * m[Pattern.DIAGONAL]
        s = h / 2 * m[Pattern.SECOND_ARG_DELAYED]
        f = h / 2 * m[Pattern.FIRST_ARG_DELAYED]
        # the rows of the class notes; a dropped delayed read is None (Delay gating)
        self._own = _heun_factor(h_l)
        rows = [_heun_factor(h_c)]
        delayed = Pattern.DIAGONAL in used and K <= W
        has_sad = Pattern.SECOND_ARG_DELAYED in used
        if delayed:
            rows += [d + h_l @ d, d + d @ h_c]
            if has_sad:
                rows.append(h_s @ d)
        system = np.concatenate(rows)
        self._sys_cur = system[: 2 * n_s]
        self._sys_open = system if delayed else None
        self._sad_ages = lo, hi = max(0, K - 1 - W), min(W, K)
        self._sad = np.concatenate((self._own, s, s + s @ h_l)) if has_sad and hi > lo else None
        self._idx = None  # the gather's flat index, built by _advance
        use_fad = include_first_arg_delayed and Pattern.FIRST_ARG_DELAYED in used
        self._fad = np.concatenate((self._own, f, f + f @ h_l)) if use_fad and W > K else None
        self._birth = m[Pattern.BIRTH]

        # Storage's float view, (position, age) flattened; R * C, as -1 is ambiguous if n_b is 0
        R, C = self.buffer.shape[:2]
        self._flat = self.buffer.view(np.float64).reshape(R * C, 2 * n_b)
        self.n = 0
        self.truncation_certificate = 0.0
        np.dot(self.state.view(np.float64), self._birth, out=self._flat[0])

    def band_value(self, var: str, position: int, label: int) -> complex:
        """Band value B(position, label) of ``var``, zero where the module notes
        (Storage) mask it; a position not computed yet, or evicted, is an error."""
        if var not in self.eqs.band_vars:
            raise ValueError(f"unknown band variable {var!r}; band_vars are {list(self.eqs.band_vars)}")
        v = self.eqs.band_vars.index(var)
        if label < 0 or position < label or position - label > self.band_width:
            return 0j
        if position > self.n:
            raise ValueError(f"position {position} not computed yet (latest {self.n})")
        kept = self.buffer.shape[0] - 2
        if position < self.n - kept:
            raise ValueError(
                f"position {position} already evicted (latest {self.n}, "
                f"ring keeps {kept} positions behind it)"
            )
        return complex(self.buffer[position % self.buffer.shape[0], position - label, v])

    def step(self) -> None:
        self._advance(1)

    def _advance(self, n_steps: int, record: np.ndarray | None = None) -> None:
        """Take ``n_steps`` steps, writing the float view of the system
        state after step i to ``record[i]`` if given (checks: Storage)."""
        if self.n + n_steps > self._horizon:
            raise ValueError(
                f"integrator was allocated for {self._horizon} steps "
                f"(horizon_steps); construct without a horizon to continue"
            )
        K, W = self.K, self.band_width
        R, C = self.buffer.shape[:2]
        flat, own, sad, fad = self._flat, self._own, self._sad, self._fad
        lo, hi = (0, 0) if sad is None else self._sad_ages
        sys_cur, sys_open, birth = self._sys_cur, self._sys_open, self._birth
        start, s = self.n, self.state.view(np.float64)
        ns, cell = len(s), flat.shape[1]  # floats per system state, per ring cell
        n_sys = 0 if sys_open is None else (len(sys_open) - ns) // cell
        if self._idx is None and self.n + n_steps > K:
            # built by the first call that gathers: its cells (Storage), less n C
            self._idx = np.concatenate(
                (np.array((K - 1, K, C + 1 - K * C)[:n_sys], dtype=np.intp),
                 np.arange(lo, hi)[:, None] * (1, -C - 1, -C - 1) + (0, K - 1, K),
                 np.arange(0 if fad is None else C - 2 - K)[:, None] + (K, C + 1 - K * C, -K * C)),
                axis=None)
        idx, k_max = self._idx, 0 if self._idx is None else len(self._idx)
        if record is None:
            record = np.empty((n_steps, ns))
        # a diverging run overflows, and _check reports it
        with np.errstate(over="ignore", invalid="ignore"):
            for n0 in range(start, start + n_steps, R - 1):
                n1 = min(n0 + R - 1, start + n_steps)
                buf, m_views = np.empty(ns + k_max * cell), -1
                reads = buf[: ns + n_sys * cell]
                for n in range(n0, n1):
                    row, new = (n % R) * C, ((n + 1) % R) * C  # flat offsets of rows n, n + 1
                    n_adv = min(W, n + 1)  # lines at ages 0 .. n_adv-1 advance
                    band = flat[new + 1 : new + n_adv + 1]
                    if n < R:  # the first ring cycle: ages this step leaves unwritten read 0 (Storage)
                        flat[new + n_adv + 1 : new + C] = 0
                    plain = (0, n_adv),  # the ages of lines with no delayed read
                    if n >= K and k_max:
                        m = hi - lo + (0 if fad is None else n_adv - K)
                        if m != m_views:  # the views change only as FAD lines join
                            m_views, x = m, buf[ns : ns + (n_sys + 3 * m) * cell].reshape(-1, cell)
                            x_sad = x[n_sys : n_sys + 3 * (hi - lo)].reshape(-1, 3 * cell)
                            x_fad = x[n_sys + 3 * (hi - lo) :].reshape(-1, 3 * cell)
                        flat.take(idx[: len(x)] + row, axis=0, mode="wrap", out=x)
                        if sad is not None:
                            np.matmul(x_sad, sad, out=band[lo:hi])
                        if fad is not None:
                            np.matmul(x_fad, fad, out=band[K:])
                        plain = (0, lo), (hi, n_adv if fad is None else K)
                    for a, b in plain:
                        if a < b:
                            np.matmul(flat[row + a : row + b], own, out=band[a:b])
                    s1 = record[n - start]
                    if n >= K and sys_open is not None:
                        reads[:ns] = s
                        np.dot(reads, sys_open, out=s1)
                    else:
                        np.dot(s, sys_cur, out=s1)
                    np.dot(s1, birth, out=flat[new])  # line n + 1 is born
                    s = s1
                buf = reads = x = x_sad = x_fad = None  # none outlives its window (peak memory)
                self._check(n0, n1, record[n0 - start : n1 - start])

    def _check(self, n0: int, n1: int, states: np.ndarray) -> None:
        """Check steps n0 .. n1 - 1, whose system states are ``states``, as
        the module notes say (Storage), and move the integrator to n1.  A
        window the sums do not clear is rescanned step by step, to raise."""
        W = self.band_width
        R, C = self.buffer.shape[:2]
        flat = self._flat
        self.n, self.state = n1, states[-1].view(np.complex128)
        finite = _finite(states)
        for a, b in _rows(n0 + 1, n1 + 1, R):
            finite = finite and math.isfinite(np.add.reduce(flat[a * C : b * C], axis=None))
        if not finite:
            for n in range(n0, n1):
                r = (n + 1) % R
                if not (_finite(states[n - n0]) and _finite(flat[r * C + 1 : r * C + min(W, n + 1) + 1])):
                    raise NonFiniteStateError(n + 1, (n + 1) * self.h_fs)
        edge = self.truncation_certificate
        for a, b in _rows(max(n0 + 1, W), n1 + 1, R):
            edge = max(edge, float(np.abs(self.buffer[a:b, W]).max(initial=0.0)))
        self.truncation_certificate = edge


def _rows(p0: int, p1: int, R: int) -> tuple[tuple[int, int], ...]:
    """The rows of positions p0 .. p1 - 1 (at most R) in a ring of R rows,
    as at most two runs ``(a, b)`` of contiguous rows, split at the wrap."""
    if p1 <= p0:
        return ()
    a, b = p0 % R, p0 % R + p1 - p0
    return ((a, b),) if b <= R else ((a, R), (0, b - R))


def _finite(x: np.ndarray) -> bool:
    """Whether every value of ``x`` is finite.  Call it under ``errstate``:
    a sum of large finite values may overflow."""
    return math.isfinite(np.add.reduce(x, axis=None)) or bool(np.isfinite(x).all())


@dataclass(frozen=True)
class _RunPlan:
    """What a run touches, decided before anything is allocated (:func:`plan_run`)."""

    n_steps: int
    h_fs: float
    band_width: int
    band_width_source: str    # what set band_width: "eps", "cap" or "user"
    open_loop: bool    # band_width < steps_per_delay: the returning line is dropped
    band_bytes: int    # the band ring's size
    trajectory_bytes: int    # the recorded system states' size


def plan_run(eqs: EquationSet, *, steps_per_delay: int, t_end_fs: float,
             band_width: int | None = None, eps_band: float = 1e-12) -> _RunPlan:
    """What :func:`run` with these arguments touches, by arithmetic alone: it
    builds and allocates nothing, and raises ``run``'s ``ValueError``, led by
    the argument's name.  A run takes ``ceil(t_end / h)`` steps (the last
    time may overshoot ``t_end_fs`` by a fraction of a step).  With no
    ``band_width``, the width is :func:`default_band_width`'s.
    """
    if not 0 < _number(t_end_fs) <= sys.float_info.max:    # refuses NaN too
        raise ValueError("t_end_fs must be a positive finite number")
    K = _count("steps_per_delay", steps_per_delay)
    W, source = _width_rule(eqs, K, eps_band)    # checks eps_band whether or not a width is given
    if band_width is not None:
        W, source = _count("band_width", band_width), "user"
    steps = t_end_fs * K / eqs.tau_fs
    if not steps < sys.maxsize:    # refuses an infinite count too
        raise ValueError(f"t_end_fs implies {steps:.3g} steps, more than an array can index")
    n_steps = max(1, math.ceil(steps - 1e-9))
    rows, ages = _ring_shape(K, W, n_steps)
    cell, state = 16 * len(eqs.band_vars), 16 * len(eqs.system_vars)    # 16 bytes per value
    return _RunPlan(n_steps, eqs.tau_fs / K, W, source, W < K,
                    rows * ages * cell, (n_steps + 1) * state)


@dataclass(frozen=True)
class SimResult(_RunPlan):
    """Output of :func:`run`: its plan, the system trajectories and the run settings."""

    times: np.ndarray
    series: dict[str, np.ndarray]
    steps_per_delay: int
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
    """Integrate the hierarchy to ``t_end_fs`` and record the system
    variables, on the grid, band and ring of :func:`plan_run`."""
    plan = plan_run(eqs, steps_per_delay=steps_per_delay, t_end_fs=t_end_fs,
                    band_width=band_width, eps_band=eps_band)
    integ = HierarchyIntegrator(eqs, init, steps_per_delay=steps_per_delay,
                                band_width=plan.band_width, horizon_steps=plan.n_steps,
                                include_first_arg_delayed=include_first_arg_delayed)
    traj = np.zeros((plan.n_steps + 1, len(eqs.system_vars)), dtype=complex)
    traj[0] = integ.state
    integ._advance(plan.n_steps, traj.view(np.float64)[1:])
    return SimResult(
        **vars(plan),
        times=np.arange(plan.n_steps + 1) * plan.h_fs,
        series={name: traj[:, k] for k, name in enumerate(eqs.system_vars)},
        steps_per_delay=integ.K,
        truncation_certificate=integ.truncation_certificate,
        include_first_arg_delayed=include_first_arg_delayed,
    )
