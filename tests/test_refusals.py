"""Every public entry point refuses a bad argument by name, and takes a NumPy scalar.

Each argument rule is stated once, in the library, and ``cli.load_config``
maps a refusal led by a name to ``config error at <name>``.  The property
below is what lets the CLI leave those ranges to the library: it swaps one
argument of each entry point, or one initial value, for a value from a pool
of bad ones and asserts a ``ValueError`` whose message leads with that
argument's name.  A NumPy scalar is judged as the float64 value it holds,
so each argument also takes one, with no warning from a cast.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from delayheom import engine, models, oracle, qnm
from tests.conftest import make_scaled

_CAV = make_scaled(1.0, 0.0)
_EQS = models.build_single_excitation(_CAV).equations
_PAIR = (1.0 + 0j, 0j)
_RUN = dict(steps_per_delay=20, t_end_fs=50.0, band_width=5, eps_band=1e-12)
_SLAB = dict(L_um=21.0, eps_r=9.87, R_um=1.0)
#: one damped line, whose OWN coefficient sets the default width: taken in
#: float32, this coefficient once gave 14103 at K = 100000, for 14104
_LINE = engine.EquationSet(
    ("s",), ("b",),
    (engine.Term("s", -0.01, "s", engine.Pattern.CURRENT),
     engine.Term("b", 1.0, "s", engine.Pattern.BIRTH),
     engine.Term("b", -1.9592299461364746, "b", engine.Pattern.OWN)),
    tau_fs=100.0)

#: each entry point with valid arguments, the counts among them and the
#: other numbers; an ``init`` among them is swapped one value at a time
_ENTRIES = (
    (engine.plan_run, dict(eqs=_EQS, **_RUN), ("steps_per_delay", "band_width"),
     ("t_end_fs", "eps_band")),
    (engine.run, dict(eqs=_EQS, init={"pA": 1.0}, **_RUN), ("steps_per_delay", "band_width"),
     ("t_end_fs", "eps_band")),
    (engine.default_band_width, dict(eqs=_EQS, steps_per_delay=20, eps_band=1e-12),
     ("steps_per_delay",), ("eps_band",)),
    (engine.HierarchyIntegrator,
     dict(eqs=_EQS, init={"pA": 1.0}, steps_per_delay=20, band_width=5, horizon_steps=10),
     ("steps_per_delay", "band_width", "horizon_steps"), ()),
    (engine.EquationSet, vars(_LINE), (), ("tau_fs",)),
    (oracle.run_wavefunction, dict(cavity=_CAV, steps_per_delay=10, t_end_fs=50.0, init=_PAIR),
     ("steps_per_delay",), ("t_end_fs",)),
    (oracle.run_discretized_bath,
     dict(cavity=_CAV, n_modes=64, steps_per_delay=10, t_end_fs=50.0, init=_PAIR,
          half_bandwidth_fs=1.0),
     ("n_modes", "steps_per_delay"), ("t_end_fs", "half_bandwidth_fs")),
    (qnm.CavityParams, dataclasses.asdict(_CAV), (), tuple(dataclasses.asdict(_CAV))),
    (qnm.SlabParams, dict(_SLAB, eps_b=1.0, mode_index=1),
     ("mode_index",), ("L_um", "eps_r", "eps_b", "R_um")),
)

#: integers past float range, NaN, +-inf (also as NumPy scalars), strings,
#: bools, and floats, which are bad only where a count is due; the strings are
#: number-like, and an explicit alphabet spares hypothesis its unicode tables
_POOL = st.one_of(
    st.integers(min_value=2**1024), st.integers(max_value=-(2**1024)),
    st.sampled_from([math.nan, math.inf, -math.inf,
                     np.float32("nan"), np.float32("inf"), np.float64("-inf")]),
    st.text(alphabet="0123456789+-.eEnaif "), st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False),
)

#: slab pairs from the subnormal to the largest float, for ``overlaps``
_GEOMETRY = st.fixed_dictionaries({
    "L_um": st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    "eps_r": st.floats(min_value=1.0, exclude_min=True, allow_infinity=False),
    "R_um": st.floats(min_value=0.0, allow_infinity=False),
})


def _slots(args, counts, numbers):
    """``(kind, name, value, swap)`` for each count, number, OWN coefficient
    and initial value of ``args``: ``swap(v)`` is ``args`` with that one
    value swapped for ``v``."""
    for kind, names in (("count", counts), ("number", numbers)):
        for name in names:
            yield kind, name, args[name], lambda v, name=name: {**args, name: v}
    for i, t in enumerate(args.get("terms", ())):
        if t.pattern is engine.Pattern.OWN:
            def swap(v, i=i, t=t):
                terms = list(args["terms"])
                terms[i] = t._replace(coefficient=v)
                return {**args, "terms": tuple(terms)}
            yield "coefficient", f"terms[{i}].coefficient", t.coefficient, swap
    init = args.get("init", ())
    for key in init if isinstance(init, dict) else range(len(init)):
        def swap(v, key=key):
            values = dict(init) if isinstance(init, dict) else list(init)
            values[key] = v
            return {**args, "init": values if isinstance(init, dict) else tuple(values)}
        yield "init", "init", init[key], swap


@settings(max_examples=50, deadline=None)
@given(bad=_POOL, geometry=_GEOMETRY)
# the three geometries where overlaps once failed in other ways: s_aa = 0,
# a zero linewidth, and an overflow
@example(bad=True, geometry=dict(_SLAB, L_um=1e-300))
@example(bad=False, geometry=dict(_SLAB, eps_r=1e308))
@example(bad="x", geometry=dict(_SLAB, L_um=1e300))
@example(bad=10**400, geometry=_SLAB)
@example(bad=-(10**400), geometry=_SLAB)
@example(bad=math.nan, geometry=_SLAB)
@example(bad=math.inf, geometry=_SLAB)
@example(bad=-math.inf, geometry=_SLAB)
@example(bad=20.0, geometry=_SLAB)
@example(bad=np.float32("nan"), geometry=_SLAB)
@example(bad=np.float32("inf"), geometry=_SLAB)
@example(bad=np.float64("-inf"), geometry=_SLAB)
def test_every_entry_point_refuses_a_bad_argument_by_name(bad, geometry):
    count_only = isinstance(bad, float) and math.isfinite(bad)
    for f, args, counts, numbers in _ENTRIES:
        for kind, name, _, swap in _slots(args, counts, numbers):
            if count_only and kind != "count":
                continue
            with pytest.raises(ValueError) as exc:
                f(**swap(bad))
            assert str(exc.value).startswith(name), (f.__name__, name, bad, str(exc.value))
    # overlaps has no number of its own to swap: every geometry gives finite
    # values or a refusal by name (an eps_r one rounding above 1 has index 1)
    try:
        ov = qnm.overlaps(qnm.SlabParams(**geometry))
    except ValueError as e:
        assert str(e) in ("eps_r must exceed eps_b", "overlaps must be finite for this geometry")
    else:
        assert all(map(math.isfinite, (ov.s_aa, ov.s_ab, ov.envelope_bound, ov.ratio)))


#: the NumPy scalar types that fit a count, a real number, a coefficient and
#: an initial value
_NUMPY = {"count": (np.int64,), "number": (np.float64, np.float32, np.int64),
          "coefficient": (np.float64, np.float32, np.complex64), "init": (np.complex64,)}


def _plain(result):
    """``result`` as values that compare with ``==``: an integrator takes one
    step first, a slab gives its fields and the cavity it derives, a cavity
    or an equation set is run and gives its default width at K = 100000,
    and any step ``h_fs`` must be a Python float."""
    if isinstance(result, qnm.SlabParams):
        return vars(result), vars(qnm.derive_cavity_params(result))
    if isinstance(result, qnm.CavityParams):
        result = models.build_single_excitation(result).equations
    if isinstance(result, engine.EquationSet):
        run = engine.run(result, {result.system_vars[0]: 1.0}, **_RUN)
        return engine.default_band_width(result, 100_000), _plain(run)
    if hasattr(result, "h_fs"):
        assert type(result.h_fs) is float, type(result.h_fs)
    if isinstance(result, engine.HierarchyIntegrator):
        result.step()
        return result.K, result.band_width, result.h_fs, result.state.tolist()
    if dataclasses.is_dataclass(result):
        result = vars(result)
    if isinstance(result, dict):
        return {k: _plain(v) for k, v in result.items()}
    return result.tolist() if isinstance(result, np.ndarray) else result


@pytest.mark.parametrize("entry", _ENTRIES, ids=lambda entry: entry[0].__name__)
def test_every_entry_point_takes_numpy_scalars(entry):
    # the suite turns a RuntimeWarning into an error: a bound cast to the
    # argument's dtype overflows there; and a scalar runs as the Python
    # number it holds, bit for bit, where float32 arithmetic would not
    f, args, counts, numbers = entry
    want = _plain(f(**args))
    for kind, name, value, swap in _slots(args, counts, numbers):
        for t in _NUMPY[kind]:
            if t is np.int64 and value != int(value):    # no integer holds it
                continue
            got = _plain(f(**swap(t(value))))
            assert got == _plain(f(**swap(t(value).item()))), (f.__name__, name, t)
            if t(value).item() == value:    # NumPy compares a float32 with a float in float32
                assert got == want, (f.__name__, name, t)
