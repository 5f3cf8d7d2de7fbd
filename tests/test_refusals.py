"""Every public entry point refuses a bad argument by name.

Each argument rule is stated once, in the library module that owns it, and
``cli.load_config`` maps a refusal led by a name to ``config error at
<name>``.  The property below is what lets the CLI leave those ranges to the
library: it swaps one argument of each entry point, or one initial value,
for a value from a pool of bad ones and asserts a ``ValueError`` whose
message leads with that argument's name.
"""

from __future__ import annotations

import dataclasses
import math

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
    (engine.EquationSet, vars(_EQS), (), ("tau_fs",)),
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

#: integers past float range, NaN, +-inf, strings, bools, and floats, which
#: are bad only where a count is due
_POOL = st.one_of(
    st.integers(min_value=2**1024), st.integers(max_value=-(2**1024)),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.text(), st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False),
)

#: slab pairs from the subnormal to the largest float, for ``overlaps``
_GEOMETRY = st.fixed_dictionaries({
    "L_um": st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    "eps_r": st.floats(min_value=1.0, exclude_min=True, allow_infinity=False),
    "R_um": st.floats(min_value=0.0, allow_infinity=False),
})


def _swaps(args, counts, numbers, bad):
    """``(name, args with one of them swapped for bad)`` for every swap where ``bad`` is bad."""
    count_only = isinstance(bad, float) and math.isfinite(bad)
    for name in counts + (() if count_only else numbers):
        yield name, {**args, name: bad}
    init = args.get("init")
    if init is not None and not count_only:
        for key in init if isinstance(init, dict) else range(len(init)):
            values = dict(init) if isinstance(init, dict) else list(init)
            values[key] = bad
            yield "init", {**args, "init": values if isinstance(init, dict) else tuple(values)}


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
def test_every_entry_point_refuses_a_bad_argument_by_name(bad, geometry):
    for f, args, counts, numbers in _ENTRIES:
        for name, kwargs in _swaps(args, counts, numbers, bad):
            with pytest.raises(ValueError) as exc:
                f(**kwargs)
            assert str(exc.value).startswith(name), (f.__name__, name, bad, str(exc.value))
    # overlaps has no number of its own to swap: every geometry gives finite
    # values or a refusal by name
    try:
        ov = qnm.overlaps(qnm.SlabParams(**geometry))
    except ValueError as e:
        assert str(e) == "overlaps must be finite for this geometry"
    else:
        assert all(map(math.isfinite, (ov.s_aa, ov.s_ab, ov.envelope_bound, ov.ratio)))
