"""Delay hierarchy for two leaky slab modes exchanging retarded photons.

The package exposes its modules, not their names; each module lists its
own public names in ``__all__``.  In dependency order:

* :mod:`delayheom.constants` -- the eV/fs/um unit anchors.
* :mod:`delayheom.qnm` -- slab resonances, overlaps and coupling rates.
* :mod:`delayheom.engine` -- the banded delay integrator.
* :mod:`delayheom.models` -- the one-excitation and two-photon equation sets.
* :mod:`delayheom.oracle` -- independent amplitude/bath cross-checks.
* :mod:`delayheom.cli` -- ``delayheom simulate | compare | qnm-info``.
"""

__version__ = "0.1.0"

from . import constants, engine, models, oracle, qnm

__all__ = ["__version__", "constants", "engine", "models", "oracle", "qnm"]
