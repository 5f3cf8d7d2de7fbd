"""Delay hierarchy for two leaky slab modes exchanging retarded photons.

The public surface, in dependency order:

* :mod:`delayheom.constants` -- the eV/fs/um unit anchors.
* :mod:`delayheom.qnm` -- slab resonances, overlaps and coupling rates.
* :mod:`delayheom.engine` -- the banded delay integrator.
* :mod:`delayheom.models` -- the one-excitation and two-photon equation sets.
* :mod:`delayheom.oracle` -- independent amplitude/bath cross-checks.
* :mod:`delayheom.cli` -- ``delayheom simulate | compare | qnm-info``.
"""

__version__ = "0.1.0"

from .constants import CONSTANTS, PhysicalConstants
from .engine import (
    BandBuffer,
    DiagonalSource,
    EquationSet,
    EquationSetError,
    HierarchyIntegrator,
    NonFiniteStateError,
    Pattern,
    Reference,
    SimResult,
    Term,
    default_band_width,
    run,
)
from .models import (
    HierarchyModel,
    build_single_excitation,
    build_two_photon,
    pure_state_crosscheck,
)
from .oracle import run_discretized_bath, run_wavefunction
from .qnm import (
    CavityParams,
    Overlaps,
    QnmFrequency,
    SlabParams,
    derive_cavity_params,
    mode_function,
    overlaps,
    qnm_frequency,
    regularized_factor,
)

__all__ = [
    "CONSTANTS",
    "PhysicalConstants",
    "BandBuffer",
    "DiagonalSource",
    "EquationSet",
    "EquationSetError",
    "HierarchyIntegrator",
    "NonFiniteStateError",
    "Pattern",
    "Reference",
    "SimResult",
    "Term",
    "default_band_width",
    "run",
    "HierarchyModel",
    "build_single_excitation",
    "build_two_photon",
    "pure_state_crosscheck",
    "run_discretized_bath",
    "run_wavefunction",
    "CavityParams",
    "Overlaps",
    "QnmFrequency",
    "SlabParams",
    "derive_cavity_params",
    "mode_function",
    "overlaps",
    "qnm_frequency",
    "regularized_factor",
    "__version__",
]
