"""The argument rules that more than one module applies, each stated once.

A refusal is a ``ValueError`` led by the argument's name, and a NumPy scalar
is judged as the float64 value it holds.  This module imports nothing from
the package, so the integrator and the oracles share it but no code.
"""

from __future__ import annotations

import cmath
import math
import numbers
import operator
import sys


def finite(value, kinds=(float, int, numbers.Real)) -> bool:    # built-ins first: an ABC checks slowly
    """Whether ``value`` is a number of ``kinds``, never a bool, that is finite in float64."""
    if isinstance(value, bool) or not isinstance(value, kinds):
        return False
    try:
        return cmath.isfinite(value)
    except OverflowError:    # an integer past float range
        return False


def count(name, value, least=1, most=sys.float_info.max) -> int:
    """``value`` as an int in [``least``, ``most``]; NumPy integers pass, a
    float or a bool does not, and no later float product of it overflows."""
    try:
        n = 0 if isinstance(value, bool) else operator.index(value)
    except TypeError:    # a float, a string, None
        n = 0
    if n < least:
        raise ValueError(f"{name} must be an integer >= {least}")
    if n > most:
        raise ValueError(f"{name} must be at most {most:.6g}")
    return n


def real(name, value) -> float:
    """``value`` as a Python float, if it is a finite real number."""
    if not finite(value):
        raise ValueError(f"{name} must be finite")
    return float(value)


def initial_value(name, value) -> complex:
    """``value`` as a complex, if it is a finite number."""
    if not finite(value, (complex, float, int, numbers.Complex)):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return complex(value)


def grid_steps(t_end_fs, K: int, tau_fs) -> int:
    """The steps to ``t_end_fs`` on the grid h = tau / K: ``ceil(t_end / h)``."""
    if not (finite(t_end_fs) and t_end_fs > 0):
        raise ValueError("t_end_fs must be a positive finite number")
    steps = float(t_end_fs) * K / float(tau_fs)    # not t_end / h, which can round to another count
    if not steps < sys.maxsize:    # refuses an infinite count too
        raise ValueError(f"t_end_fs implies {steps:.3g} steps, more than an array can index")
    return max(1, math.ceil(steps - 1e-9))
