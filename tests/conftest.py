"""Shared helpers: scaled two-cavity configs, the acceptance report, and a
deterministic hypothesis profile.

The ``record_criterion`` fixture wraps each numbered acceptance check and
collects a verdict; a one-line PASS/FAIL summary per criterion is printed
at the end of the session so the gate status is readable without digging
through the pytest output.
"""

from __future__ import annotations

from contextlib import contextmanager

import pytest
from hypothesis import settings

from delayheom.constants import CONSTANTS
from delayheom.qnm import CavityParams

_ACCEPTANCE: dict[int, dict] = {}

# the property tests draw the same examples on every run
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


@pytest.fixture
def record_criterion():
    """Context manager factory: ``with record_criterion(4, "..."):``.

    The criterion counts as passed only if the block runs to completion;
    any assertion or error inside leaves it marked FAIL (and still fails
    the test normally).
    """

    @contextmanager
    def _record(number: int, description: str):
        entry = {"description": description, "passed": False}
        _ACCEPTANCE[number] = entry
        yield
        entry["passed"] = True

    return _record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_ACCEPTANCE):
        entry = _ACCEPTANCE[number]
        verdict = "PASS" if entry["passed"] else "FAIL"
        terminalreporter.write_line(
            f"ACCEPTANCE {number} [{verdict}] {entry['description']}"
        )


def make_scaled(gamma_tau: float, omega_tau: float, tau_fs: float = 100.0) -> CavityParams:
    """Two identical cavities at dimensionless (gamma*tau, omega*tau)."""
    hbar = CONSTANTS.hbar_ev_fs
    return CavityParams.from_rates(
        omega_tau / tau_fs * hbar, gamma_tau / tau_fs * hbar, tau_fs
    )


def make_decoupled(gamma_tau: float, omega_tau: float = 0.0, tau_fs: float = 100.0) -> CavityParams:
    """Same rates but all couplings zero: two independent lossy cavities."""
    hbar = CONSTANTS.hbar_ev_fs
    g_ev = gamma_tau / tau_fs * hbar
    w_ev = omega_tau / tau_fs * hbar
    return CavityParams(
        omega_a_ev=w_ev, gamma_a_ev=g_ev, omega_b_ev=w_ev, gamma_b_ev=g_ev,
        v_ab_ev=0.0, tau_fs=tau_fs,
    )


def make_unequal(
    gamma_a_tau: float, gamma_b_tau: float, omega_a_tau: float, omega_b_tau: float,
    v_tau: float, tau_fs: float = 100.0,
) -> CavityParams:
    """Two different cavities, every rate given in units of hbar / tau."""
    s = CONSTANTS.hbar_ev_fs / tau_fs
    return CavityParams(
        omega_a_ev=omega_a_tau * s, gamma_a_ev=gamma_a_tau * s,
        omega_b_ev=omega_b_tau * s, gamma_b_ev=gamma_b_tau * s,
        v_ab_ev=v_tau * s, tau_fs=tau_fs,
    )
