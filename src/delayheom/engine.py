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

An :class:`EquationSet` walks its terms once, to check them, and keeps
each pattern's real coefficient matrix and sums for the integrator, the
width rule and the stability margin of :func:`plan_run`.

Delay gating
------------
Reads across the delay switch on only once their whole step lies inside the
causal region, judged at the step start n (in units of h, K = tau/h):

* every delayed read (DIAGONAL, SECOND_ARG_DELAYED, FIRST_ARG_DELAYED)
  participates from n >= K on (before that the read would cross the start
  of the history, where lines do not exist yet: until n = K the system
  reads the returning line from zero cells of the gather buffer, Storage);
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

Ahead of age 0 each row has a system slot, which holds the system state
at the row's position: ceil(n_s / n_b) cells (:func:`_cells`), zero pad
first, so that the state's floats end where age 0 begins and one product
can write both.  ``buffer`` is the view of the rows past their slots.  An empty band keeps one silent
variable, so that a cell can hold the slot.

The step reads and writes only a float view of the allocation, one cell
per row.  From step n = K on, one ``take`` of it per step gathers every
cell read back, as (row, age), into one zeroed buffer per check window,
[slot | system cells | line cells]: row n's slot, whose state is the
first read of the system; the system's band reads in the order of its
rows (class notes), y0 at (n, K - 1) and (n, K) and S_l at (n + 1 - K,
1); then the own, right- and left-stage reads of each SECOND_ARG_DELAYED
line of age a, (n, a), (n - a, K - 1 - a) and (n - a, K - a), and of each
FIRST_ARG_DELAYED line of age K + j, (n, K + j), (n + 1 - K, j + 1) and
(n - K, j).  Before n = K there is nothing to gather: the state is copied
from row n's slot into the buffer, whose system cells read 0.  Each
group of lines advances with one product, and one more writes the new
state and the newborn line's age-0 cell, side by side in row n + 1.

From step max(K, W, R) on the band is full, and every step makes the
same calls: the ``take``, one product per group of lines, and the system
product.  Such steps go in chunks of up to ``_CHUNK``, which end with the
check window, or on the ring's last row, so that no chunk's rows read or
written wrap.  A chunk walks the rows of one gather table, whose row k
holds the cells of the step k rows on.  The first call that gathers
builds it, and each chunk moves it to its first row with one in-place
add: one index add per chunk, not per step.  Every other step, before
the band is full and the first of each check window, whose buffer is
new, is a chunk of one that first works out its calls: the ages that
advance, the first cycle's zeroing, the gather's length and views (it
reads the table's first row, cut to that length), and the lines with no
delayed read.  Every product is the
``ndarray.dot`` method, which calls the same BLAS routine as
``np.matmul`` and ``np.dot``, bit for bit, but skips ``matmul``'s ufunc
dispatch (about 1 us a call at K = 100-200) and ``np.dot``'s
Python-level dispatcher (about 0.2 us).

No step checks its own values or records its state.  At least every
R - 1 steps, and at the end of every call, one check copies the states
the steps since the last one wrote from their slots to the trajectory,
and looks at their ring rows, slots included, one sum per run of whole
rows.  A row is written again only R steps later, so the check sees
every value a check after each step would see, and reports the same:
the first step that wrote a non-finite value (to its state, or to its
row at the ages it wrote, 1 .. min(W, n + 1)), or the truncation
certificate, the largest magnitude at age W of the rows that retired a
line (a max, which does not depend on the order).  After a raise, the
integrator may stand up to R - 1 steps past the step it names.

B(i, j) is zero before the start of history (j < 0), ahead of the line's
birth (i < j) and beyond the retained band (i - j > band_width).
:meth:`HierarchyIntegrator.band_value` applies these masks.  The ring is
allocated without zeroing, and construction writes only line 0 (the
first step writes row 0's state): each step of the first ring cycle
zeroes the slot and the
ages of its row that it does not write (past its position, and W + 1),
and later positions of a row write at least the ages earlier ones did,
so a cell no step writes reads 0.  The step reads one such cell: when
W < K, the youngest SECOND_ARG_DELAYED line, age K - 1 - W, reads its
left stage at age W + 1.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple

import numpy as np

from ._args import count, finite, grid_steps, initial_value

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
    """A closed linear delay hierarchy of finite coefficients, checked against
    ``_GROUPS`` and the read patterns (module notes) when it is built.

    The walk that checks the terms also keeps what is read of them later
    (fields neither compared, hashed nor shown; the sums Python numbers):

    * ``_forms``: each pattern's coefficients as one read-only real matrix
      ``M[read row, target]``.  Rows ``2r`` and ``2r + 1`` take the real
      and imaginary part of read ``r``: a plain term ``c`` adds ``(c, i c)``
      to the complex column of its target, a conjugated one ``(c, -i c)``,
      so a row of complex reads ``x`` contributes ``x.view(float) @ M`` to
      the float view of its targets.  An empty band has the silent
      variable of :func:`_cells`.
    * ``_used``: the patterns with a nonzero term.
    * ``_own_sums``, ``_current_sums``: each variable's sum of plain
      self-reads, the eigenvalues of the OWN block, which has no other
      term, and of the CURRENT block (None if it has another term).
    """

    system_vars: tuple[str, ...]
    band_vars: tuple[str, ...]
    terms: tuple[Term, ...]
    tau_fs: float
    _forms: dict[Pattern, np.ndarray] = field(init=False, repr=False, compare=False)
    _used: frozenset[Pattern] = field(init=False, repr=False, compare=False)
    _own_sums: tuple[complex, ...] = field(init=False, repr=False, compare=False)
    _current_sums: tuple[complex, ...] | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # the set is frozen: keep no reference to a caller's mutable sequence
        for name in ("system_vars", "band_vars"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        names = list(self.system_vars) + list(self.band_vars)
        if not self.system_vars:
            raise EquationSetError("at least one system variable is required")
        if len(set(names)) != len(names) or any(not n for n in names):
            raise EquationSetError("variable names must be unique and non-empty")
        if not (finite(self.tau_fs) and self.tau_fs > 0):
            raise EquationSetError("tau_fs must be positive and finite")
        # a NumPy scalar would carry its precision into every product with h
        object.__setattr__(self, "tau_fs", float(self.tau_fs))
        # each variable's group and its index in the group
        where = {v: ("system", i) for i, v in enumerate(self.system_vars)}
        where.update((v, ("band", i)) for i, v in enumerate(self.band_vars))
        # each pattern's (target, read) groups, and its form's complex matrix
        # of (rows, columns) at an offset of one flat list
        size, layout, n = {"system": len(self.system_vars), "band": _cells(self)[1]}, {}, 0
        for p, (target, read) in _GROUPS.items():
            layout[p] = target, read, n, 2 * size[read], size[target]
            n += 2 * size[read] * size[target]
        values, used, cross = [0j] * n, set(), False
        own, cur, birth, born, terms = Pattern.OWN, Pattern.CURRENT, Pattern.BIRTH, [], list(self.terms)
        for i, t in enumerate(terms):
            # a Python number is kept as given (the forms below judge it);
            # any other is judged, then kept as a complex
            if type(c := t.coefficient) not in (float, complex):
                terms[i] = t = t._replace(coefficient=(c := initial_value(f"terms[{i}].coefficient", c)))
            p = t.pattern
            if t.target not in where:
                raise EquationSetError(f"term targets unknown variable {t.target!r}")
            (g, j), (g_read, r) = where[t.target], where.get(t.var, (None, 0))
            target, read, at, _, cols = layout.get(p, (None,) * 5)
            if g != target:
                raise EquationSetError(f"{g} variable {t.target!r} takes no {p} term")
            if g_read != read:
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
            if p is cur and (t.var != t.target or t.conjugate):
                cross = True
            k = at + 2 * r * cols + j    # at (2 r, j) and (2 r + 1, j)
            values[k] += c
            values[k + cols] += -1j * c if t.conjugate else 1j * c
            if c:
                used.add(p)
        # each entry of the forms sums coefficients: a non-finite one makes it
        # non-finite, and so may finite ones that overflow, which are kept
        forms = np.fromiter(values, complex, n).view(np.float64)
        if not np.isfinite(forms).all():
            for i, t in enumerate(terms):
                initial_value(f"terms[{i}].coefficient", t.coefficient)
        object.__setattr__(self, "terms", tuple(terms))
        if sorted(born) != sorted(self.band_vars):
            raise EquationSetError(
                "every band variable needs exactly one BIRTH term "
                f"(got births of {sorted(born)}, band vars {sorted(self.band_vars)})"
            )
        forms.flags.writeable = False    # and so is every view of it
        object.__setattr__(self, "_forms", {
            p: forms[2 * at : 2 * (at + rows * cols)].reshape(rows, 2 * cols)
            for p, (_, _, at, rows, cols) in layout.items()})
        object.__setattr__(self, "_used", frozenset(used))

        def diagonal(p, n):    # entries (2 j, j), j < n: each variable's plain self-reads
            _, _, at, _, cols = layout[p]
            return tuple(values[at : at + n * (2 * cols + 1) : 2 * cols + 1])

        object.__setattr__(self, "_own_sums", diagonal(own, len(self.band_vars)))
        object.__setattr__(self, "_current_sums", None if cross else diagonal(cur, size["system"]))


def default_band_width(
    eqs: EquationSet, steps_per_delay: int, eps_band: float = 1e-12
) -> int:
    """The band width :func:`plan_run` gives any run that sets none."""
    return _width_rule(eqs, count("steps_per_delay", steps_per_delay), eps_band)[0]


def _width_rule(eqs: EquationSet, K: int, eps_band: float) -> tuple[int, str]:
    """The default band width and what set it, "eps" or "cap": a line is kept
    ``ceil(ln(1/eps) / (gamma_min h))`` steps, ``gamma_min`` being the slowest
    own-damping rate over the band variables, minus the real part of the sum
    of a variable's OWN coefficients (an undamped variable, rate <= 0, never
    fades), and never more than ``K``, the oldest age the system reads."""
    if not (finite(eps_band) and 0 < eps_band < 1):
        raise ValueError("eps_band must be a number in (0, 1)")
    # near the subnormal range the product underflows and the quotient
    # overflows: each means that a line outlives the delay
    decay = min((-s.real for s in eqs._own_sums), default=0.0) * eqs.tau_fs
    kept = math.log(1.0 / float(eps_band)) * K / decay if decay > 0 else math.inf
    return (max(1, math.ceil(kept)), "eps") if kept < K else (K, "cap")


def _heun_factor(z: np.ndarray) -> np.ndarray:
    """R(z) = 1 + z + z^2 / 2, the Heun step of x' = x z."""
    r = z @ (z / 2) + z
    r.reshape(-1)[:: len(r) + 1] += 1
    return r


#: the positions behind step n kept by a run ending within one delay (Storage)
_WINDOW = 32
#: the most full-band steps taken with one move of the gather table (Storage)
_CHUNK = 8


def _ring_shape(K: int, W: int, horizon: float) -> tuple[int, int]:
    """The ring's (rows, ages), for a run of at most ``horizon`` steps,
    ``math.inf`` if unbounded (module notes, Storage)."""
    return min(K if horizon > K else _WINDOW, horizon) + 2, min(W, horizon) + 2


def _cells(eqs: EquationSet) -> tuple[int, int]:
    """The cells of a row's system slot, and the variables of a cell: one
    silent variable if the band is empty (module notes, Storage)."""
    n_c = len(eqs.band_vars) or 1
    return -(-len(eqs.system_vars) // n_c), n_c


class HierarchyIntegrator:
    """Synchronised Heun stepper over system + band.

    Every read is linear in the values it reads, so a Heun step (Euler
    predictor, trapezoidal corrector) has a closed form, precomputed at
    construction.  Rows are read as ``x @ M``, so "M1, then M2" is
    ``M1 @ M2``.  With C, D, L, S and F the CURRENT, DIAGONAL, OWN,
    SECOND_ARG_DELAYED and FIRST_ARG_DELAYED sets (the real forms that
    :class:`EquationSet` builds as it checks its terms, so construction
    builds none) and R(z) = 1 + z + z^2 / 2 (:func:`_heun_factor`), a
    line advances as

        y1 = [y0, S_r, S_l] [R(h L); (h/2) S; (h/2) S (1 + h L)]  (_sad)
        y1 = [y0, F_r, F_l] [R(h L); (h/2) F; (h/2) F (1 + h L)]  (_fad)

    with S_l, S_r or F_l, F_r its reads at the left and right stage
    (historical, hence final).  A line with no delayed read advances as
    y0 R(h L) (_own); the system as

        s1 = s0 R(h C) + d_l (h/2) D (1 + h C) + d_r (h/2) D  (_system)

    with d_l the returning line, y0 at age K, and d_r the one predicted
    value, y0 (1 + h L) + S_l h S at age K - 1: its rows are
    (1 + h L)(h/2) D and h S (h/2) D.  Before the line returns its
    reads are zero cells of the gather buffer, so s1 = s0 R(h C).  With
    B the BIRTH set, line n + 1 is born as s1 B, so one product

        [s1, y1(0)] = [s0, d cells] [M, M B]  (_fused, M = _system)

    writes the new state and the newborn line's age-0 cell together.

    ``buffer`` is the ring past its system slots, gathered and checked as
    the module notes say (Storage).  ``horizon_steps`` promises at most that many steps, for a
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
        self.K = K = count("steps_per_delay", steps_per_delay)
        self.band_width = W = count("band_width", band_width)
        self._horizon = math.inf if horizon_steps is None else count("horizon_steps", horizon_steps)
        unknown = set(init) - set(eqs.system_vars)
        if unknown:
            raise ValueError(f"initial state names unknown variables: {sorted(unknown)}")
        self.state = np.zeros(n_s, dtype=complex)
        for name, value in init.items():
            self.state[eqs.system_vars.index(name)] = initial_value(f"init[{name!r}]", value)
        # not zeroed: the first ring cycle does it (Storage), out of construction
        R, C = _ring_shape(K, W, self._horizon)
        q, n_c = _cells(eqs)
        self._ring = np.empty((R, q + C, n_c), dtype=complex)
        self.buffer = self._ring[:, q:, :n_b]
        self.eqs = eqs
        self.h_fs = h = eqs.tau_fs / K

        m, used = eqs._forms, eqs._used
        h_c, h_l = h * m[Pattern.CURRENT], h * m[Pattern.OWN]
        h_s = h * m[Pattern.SECOND_ARG_DELAYED]
        d = h / 2 * m[Pattern.DIAGONAL]
        s = h / 2 * m[Pattern.SECOND_ARG_DELAYED]
        f = h / 2 * m[Pattern.FIRST_ARG_DELAYED]
        # the rows of the class notes; a dropped delayed read is None (Delay gating)
        self._own = _heun_factor(h_l)
        rows = [_heun_factor(h_c)]
        has_sad = Pattern.SECOND_ARG_DELAYED in used
        if Pattern.DIAGONAL in used and K <= W:  # the line returns
            rows += [d + h_l @ d, d + d @ h_c]
            if has_sad:
                rows.append(h_s @ d)
        self._system, self._n_sys = np.concatenate(rows), len(rows) - 1  # and the band cells it reads
        self._sad_ages = lo, hi = max(0, K - 1 - W), min(W, K)
        self._sad = np.concatenate((self._own, s, s + s @ h_l)) if has_sad and hi > lo else None
        self._tab = self._tab_rows = self._fused = None  # the gather table, [M, M B], views (_advance)
        use_fad = include_first_arg_delayed and Pattern.FIRST_ARG_DELAYED in used
        self._fad = np.concatenate((self._own, f, f + f @ h_l)) if use_fad and W > K else None
        self._birth = m[Pattern.BIRTH]

        self.n = 0
        self.truncation_certificate = 0.0
        # line 0 is born; the first call of _advance writes row 0's state
        self.state.view(np.float64).dot(self._birth, out=self._ring[0, q].view(np.float64))

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
        state after step i to ``record[i]`` if given, in chunks that walk
        the gather table's rows with the ring rows they read and write
        (chunks and checks: Storage)."""
        if self.n + n_steps > self._horizon:
            raise ValueError(
                f"integrator was allocated for {self._horizon} steps "
                f"(horizon_steps); construct without a horizon to continue"
            )
        K, W = self.K, self.band_width
        R, L, n_c = self._ring.shape
        C = self.buffer.shape[1]
        q, ns, cell = L - C, len(self._birth), 2 * n_c  # slot cells; floats per state, per cell
        pad = q * cell - ns
        if self._fused is None:  # the first call, at n = 0: set-up kept out of construction
            self._fused = np.concatenate((self._system, self._system @ self._birth), axis=1)
            # Storage's float views: the cells, (row, slot or age) flattened, and
            # each row's state and [state | age 0], strided by the row
            ring = self._ring.view(np.float64)
            self._flat, by_row = ring.reshape(-1, cell), ring.reshape(R, -1)
            self._slots, self._outs = by_row[:, pad : q * cell], by_row[:, pad : (q + 1) * cell]
            self._slots[0] = self.state.view(np.float64)
        flat, slots, outs = self._flat, self._slots, self._outs
        own, sad, fad = self._own, self._sad, self._fad
        lo, hi = (0, 0) if sad is None else self._sad_ages
        n_sys, start = self._n_sys, self.n
        cells = flat.reshape(R, L, cell)  # cells[row, slot cells, then ages]
        if self._tab is None and self.n + n_steps > K:
            # built by the first call that gathers: its cells (Storage), from row n's
            # first one, and the table of them for _CHUNK steps, at row 0
            idx = q + np.concatenate(
                (np.arange(-q, 0),
                 np.array((K - 1, K, L + 1 - K * L)[:n_sys], dtype=np.intp),
                 np.arange(lo, hi)[:, None] * (1, -L - 1, -L - 1) + (0, K - 1, K),
                 np.arange(0 if fad is None else C - 2 - K)[:, None] + (K, L + 1 - K * L, -K * L)),
                axis=None)
            self._tab, self._tab_row = np.empty((_CHUNK, len(idx)), dtype=np.intp), 0
            self._tab_rows = list(self._tab)
            for k, row in enumerate(self._tab_rows):
                np.add(idx, k * L, out=row)  # a broadcast add would allocate a ufunc buffer
        fused, tab, tab_rows = self._fused, self._tab, self._tab_rows
        full = max(K, W, R)  # the band is full: every later step makes the same calls
        if record is None:
            record = np.empty((n_steps, ns))
        # a diverging run overflows, and _check reports it
        with np.errstate(over="ignore", invalid="ignore"):
            for n0 in range(start, start + n_steps, R - 1):
                n1 = min(n0 + R - 1, start + n_steps)
                # the system's cells read 0.0 until n = K
                buf = np.zeros(max(q + n_sys, 0 if tab is None else tab.shape[1]) * cell)
                head, reads = buf[pad : q * cell], buf[pad : (q + n_sys) * cell]
                n = n0
                while n < n1:  # a chunk of steps from position n
                    r, r1 = n % R, (n + 1) % R  # the rows of positions n, n + 1
                    if n < full or n == n0:  # a chunk of one, with its calls on this window's buffer
                        c, n_adv = 1, min(W, n + 1)  # lines at ages 0 .. n_adv-1 advance
                        if n < R:  # the first ring cycle: cells this step leaves unwritten read 0 (Storage)
                            cells[r1, :q] = 0
                            cells[r1, q + n_adv + 1 :] = 0
                        # the groups of lines with a delayed read, as (reads, product, rows
                        # of their next ages), and the ages of the lines with none
                        ixs, groups, plain = (None,), [], [(0, n_adv)]
                        if n >= K:
                            m = hi - lo + (0 if fad is None else n_adv - K)
                            x = buf[: (q + n_sys + 3 * m) * cell].reshape(-1, cell)
                            ixs, split = (tab[0, : len(x)],), q + n_sys + 3 * (hi - lo)
                            groups = [(x[q + n_sys : split].reshape(-1, 3 * cell), sad, lo, hi),
                                      (x[split:].reshape(-1, 3 * cell), fad, K, n_adv)]
                            groups = [(x_g, product, cells[:, q + a + 1 : q + b + 1])
                                      for x_g, product, a, b in groups if product is not None]
                            plain = [(0, lo), (hi, n_adv if fad is None else K)]
                        plain = [(cells[:, q + a : q + b], cells[:, q + a + 1 : q + b + 1])
                                 for a, b in plain if a < b]
                    else:  # full-band steps, whose gathers read whole table rows
                        c, ixs = min(_CHUNK, n1 - n, R - max(r, r1)), tab_rows
                    if n >= K:  # the table, moved to row n
                        tab += (r - self._tab_row) * L
                        self._tab_row = r
                    p, p1 = r, r1  # the rows a step reads and writes
                    for ix in ixs[:c]:  # its row of the table, None before n = K
                        if ix is None:
                            head[...] = slots[p]
                        else:
                            flat.take(ix, axis=0, mode="wrap", out=x)
                        for x_g, product, y1 in groups:
                            x_g.dot(product, out=y1[p1])
                        for y0, y1 in plain:
                            y0[p].dot(own, out=y1[p1])
                        reads.dot(fused, out=outs[p1])  # the new state, and line n + 1 is born
                        p, p1 = p + 1, p1 + 1
                    n += c
                buf = head = reads = x = groups = x_g = None  # none outlives its window (peak memory)
                self._check(n0, n1, record[n0 - start : n1 - start])

    def _check(self, n0: int, n1: int, states: np.ndarray) -> None:
        """Copy the system states of steps n0 .. n1 - 1 from their slots to
        ``states``, check the steps as the module notes say (Storage), and
        move the integrator to n1.  A window the sums do not clear is
        rescanned step by step, to raise."""
        W = self.band_width
        R, L = self._ring.shape[:2]
        q, flat = L - self.buffer.shape[1], self._flat
        self._slots.take(np.arange(n0 + 1, n1 + 1), axis=0, mode="wrap", out=states)
        self.n, self.state = n1, states[-1].view(np.complex128)
        finite = True
        for a, b in _rows(n0 + 1, n1 + 1, R):
            finite = finite and math.isfinite(np.add.reduce(flat[a * L : b * L], axis=None))
        if not finite:
            for n in range(n0, n1):
                r = (n + 1) % R * L + q
                if not (_finite(states[n - n0]) and _finite(flat[r + 1 : r + min(W, n + 1) + 1])):
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
    default_band_width: int    # the width the rule gives, whether or not the run sets one
    stability_margin: float    # above 1, the Heun step grows a mode (_stability_margin)


def _stability_margin(eqs: EquationSet, h: float) -> float:
    """The largest gain |R(h lam)| of the Heun step, R(z) = 1 + z + z^2 / 2,
    over the eigenvalues lam of the OWN and CURRENT blocks (the reads
    without delay): the sums :class:`EquationSet` keeps.  A CURRENT block
    with a cross or conjugated read takes the eigenvalues of R(h C)'s
    real form instead, whose moduli are those gains."""
    gains = [abs(1 + z + z * z / 2) if cmath.isfinite(z := h * lam) else math.inf
             for lam in eqs._own_sums + (eqs._current_sums or ())]
    if eqs._current_sums is None:
        with np.errstate(all="ignore"):    # a matrix past float range has an infinite gain
            r = _heun_factor(h * eqs._forms[Pattern.CURRENT])
        gains.append(float(np.abs(np.linalg.eigvals(r)).max()) if np.isfinite(r).all() else math.inf)
    return max(gains)


def plan_run(eqs: EquationSet, *, steps_per_delay: int, t_end_fs: float,
             band_width: int | None = None, eps_band: float = 1e-12) -> _RunPlan:
    """What :func:`run` with these arguments touches, by arithmetic alone: it
    allocates no array of the run, and raises ``run``'s ``ValueError``, led
    by the argument's name.  A run takes ``ceil(t_end / h)`` steps (the last
    time may overshoot ``t_end_fs`` by a fraction of a step).  With no
    ``band_width``, the width is :func:`default_band_width`'s.  ``run``
    does not refuse a ``stability_margin`` above 1.
    """
    K = count("steps_per_delay", steps_per_delay)
    n_steps, h = grid_steps(t_end_fs, K, eqs.tau_fs), eqs.tau_fs / K
    default, rule = _width_rule(eqs, K, eps_band)    # checks eps_band whether or not a width is given
    W, source = (default, rule) if band_width is None else (count("band_width", band_width), "user")
    (rows, ages), (slot, n_c) = _ring_shape(K, W, n_steps), _cells(eqs)
    cell, state = 16 * n_c, 16 * len(eqs.system_vars)    # 16 bytes per value
    return _RunPlan(n_steps, h, W, source, W < K, rows * (slot + ages) * cell,
                    (n_steps + 1) * state, default, _stability_margin(eqs, h))


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
