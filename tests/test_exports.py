"""Every exported name of the package and of its modules resolves, and the
public surface is pinned: adding or removing a public name is a test edit."""

from __future__ import annotations

import importlib

import pytest

PUBLIC = {
    "delayheom": {"__version__", "constants", "engine", "models", "oracle", "qnm"},
    "delayheom.qnm": {
        "SlabParams", "QnmFrequency", "CavityParams", "Overlaps", "qnm_frequency",
        "regularized_factor", "overlaps", "derive_cavity_params",
    },
    "delayheom.engine": {
        "Pattern", "Term", "EquationSet", "EquationSetError", "NonFiniteStateError",
        "HierarchyIntegrator", "SimResult", "default_band_width", "plan_run", "run",
    },
    "delayheom.models": {
        "HierarchyModel", "build_single_excitation", "build_two_photon",
        "pure_state_crosscheck", "SINGLE_EXCITATION_VARS", "TWO_PHOTON_VARS",
    },
    "delayheom.oracle": {
        "WavefunctionResult", "BathResult", "run_wavefunction", "run_discretized_bath",
    },
}


@pytest.mark.parametrize("name", PUBLIC)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert len(set(module.__all__)) == len(module.__all__)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    assert set(module.__all__) == PUBLIC[name]
