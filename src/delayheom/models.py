"""Equation sets for the retardation-coupled slab-mode pair.

Two blocks are wired up here.  The one-excitation density-matrix block
carries three system elements (two populations and a coherence) and four
stored line elements; the four other line elements of the block are the
complex conjugates of these at the transposed time pair, so they are
never integrated.  The doubly-excited-against-vacuum block carries
three system elements and six stored line elements, with no conjugate
partners (its right-hand side is the vacuum, so the block closes on
itself like an amplitude equation).

Sign/phase convention: the system-level feedback reads carry
``exp(+i omega tau)`` and the line-level reads of the one-excitation block
carry the conjugate phases, which is what the amplitude factorization of
the block demands (the crosscheck below makes that executable).  The
couplings are real, so conjugating a coefficient only flips its phase.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .constants import CONSTANTS
from .engine import EquationSet, Pattern, Term
from .qnm import CavityParams

__all__ = [
    "HierarchyModel",
    "build_single_excitation",
    "build_two_photon",
    "pure_state_crosscheck",
    "SINGLE_EXCITATION_VARS",
    "TWO_PHOTON_VARS",
]

SQRT8 = 2.0 * math.sqrt(2.0)

#: census of the one-excitation block: 3 system + 4 stored
SINGLE_EXCITATION_VARS = {
    "system": ("pA", "pB", "cAB"),
    "band": ("bB_0A", "bA_0B", "bB_0B", "bA_0A"),
}

#: census of the two-photon block: 3 system + 6 stored
TWO_PHOTON_VARS = {
    "system": ("g20", "g02", "g11"),
    "band": ("bB01_10", "bA01_01", "bB01_01", "bA01_10", "bA12_10", "bB12_01"),
}


@dataclass(frozen=True)
class HierarchyModel:
    """A ready-to-run equation set plus its bookkeeping."""

    kind: str
    equations: EquationSet
    default_init: Mapping[str, complex]


def _rates(cavity: CavityParams):
    hbar = CONSTANTS.hbar_ev_fs
    ga = cavity.gamma_a_ev / hbar
    gb = cavity.gamma_b_ev / hbar
    v = cavity.v_ab_ev / hbar
    ea = cmath.exp(1j * cavity.omega_a_ev * cavity.tau_fs / hbar)
    eb = cmath.exp(1j * cavity.omega_b_ev * cavity.tau_fs / hbar)
    return ga, gb, v, ea, eb


def build_single_excitation(cavity: CavityParams) -> HierarchyModel:
    """One shared excitation: populations pA, pB and the coherence cAB.

    Stored line elements (first label = which mode emitted, then the
    matrix element the line is attached to):

    ==========  ================================  ===================
    name        feeds                              born from
    ==========  ================================  ===================
    bB_0A       pA  (via the returning photon)     conj(cAB)
    bA_0B       pB                                 cAB
    bB_0B       cAB                                pB
    bA_0A       cAB (conjugated read)              pA
    ==========  ================================  ===================
    """
    ga, gb, v, ea, eb = _rates(cavity)
    eac, ebc = ea.conjugate(), eb.conjugate()
    cur, diag, birth = Pattern.CURRENT, Pattern.DIAGONAL, Pattern.BIRTH
    own, sad, fad = Pattern.OWN, Pattern.SECOND_ARG_DELAYED, Pattern.FIRST_ARG_DELAYED

    terms = (
        # populations: damping plus the returning line and its conjugate
        Term("pA", -2.0 * ga, "pA", cur),
        Term("pA", -2.0 * v * eb, "bB_0A", diag),
        Term("pA", -2.0 * v * ebc, "bB_0A", diag, conjugate=True),
        Term("pB", -2.0 * gb, "pB", cur),
        Term("pB", -2.0 * v * ea, "bA_0B", diag),
        Term("pB", -2.0 * v * eac, "bA_0B", diag, conjugate=True),
        # coherence: one line per side
        Term("cAB", -(ga + gb), "cAB", cur),
        Term("cAB", -2.0 * v * eb, "bB_0B", diag),
        Term("cAB", -2.0 * v * eac, "bA_0A", diag, conjugate=True),
        # lines: birth, own damping, the one-delay-older cross read, and the
        # same-line earlier-position read (invisible to the system block)
        Term("bB_0A", 1.0, "cAB", birth, conjugate=True),
        Term("bB_0A", -ga, "bB_0A", own),
        Term("bB_0A", -2.0 * v * ebc, "bB_0B", sad, conjugate=True),
        Term("bB_0A", -2.0 * v * eac, "bB_0A", fad),
        Term("bA_0B", 1.0, "cAB", birth),
        Term("bA_0B", -gb, "bA_0B", own),
        Term("bA_0B", -2.0 * v * eac, "bA_0A", sad, conjugate=True),
        Term("bA_0B", -2.0 * v * ebc, "bA_0B", fad),
        Term("bB_0B", 1.0, "pB", birth),
        Term("bB_0B", -gb, "bB_0B", own),
        Term("bB_0B", -2.0 * v * eac, "bA_0B", sad, conjugate=True),
        Term("bB_0B", -2.0 * v * eac, "bB_0A", fad),
        Term("bA_0A", 1.0, "pA", birth),
        Term("bA_0A", -ga, "bA_0A", own),
        Term("bA_0A", -2.0 * v * ebc, "bB_0A", sad, conjugate=True),
        Term("bA_0A", -2.0 * v * ebc, "bA_0B", fad),
    )
    eqs = EquationSet(
        system_vars=SINGLE_EXCITATION_VARS["system"],
        band_vars=SINGLE_EXCITATION_VARS["band"],
        terms=terms,
        tau_fs=cavity.tau_fs,
    )
    return HierarchyModel(
        kind="single_excitation",
        equations=eqs,
        default_init={"pA": 1.0 + 0j},
    )


def build_two_photon(cavity: CavityParams) -> HierarchyModel:
    """Two photons against the vacuum: g20, g02 and the shared g11.

    Stored line elements (emitting mode and its rung, then the element):

    ==========  =========================  ==========
    name        feeds                       born from
    ==========  =========================  ==========
    bB01_10     g20                         g11
    bA01_01     g02                         g11
    bB01_01     g11                         (silent)
    bA01_10     g11                         (silent)
    bA12_10     g11                         g20
    bB12_01     g11                         g02
    ==========  =========================  ==========

    The silent lines still need a birth rule structurally; they get a
    zero-coefficient BIRTH term, which changes nothing.
    """
    ga, gb, v, ea, eb = _rates(cavity)
    cur, diag, birth = Pattern.CURRENT, Pattern.DIAGONAL, Pattern.BIRTH
    own, sad = Pattern.OWN, Pattern.SECOND_ARG_DELAYED

    terms = (
        Term("g20", -2.0 * ga, "g20", cur),
        Term("g20", -SQRT8 * v * eb, "bB01_10", diag),
        Term("g02", -2.0 * gb, "g02", cur),
        Term("g02", -SQRT8 * v * ea, "bA01_01", diag),
        Term("g11", -(ga + gb), "g11", cur),
        Term("g11", -SQRT8 * v * eb, "bB12_01", diag),
        Term("g11", -SQRT8 * v * ea, "bA12_10", diag),
        Term("g11", -2.0 * v * eb, "bB01_01", diag),
        Term("g11", -2.0 * v * ea, "bA01_10", diag),
        Term("bB01_10", 1.0, "g11", birth),
        Term("bB01_10", -ga, "bB01_10", own),
        Term("bB01_10", -SQRT8 * v * eb, "bB12_01", sad),
        Term("bB01_10", -2.0 * v * eb, "bB01_01", sad),
        Term("bA01_01", 1.0, "g11", birth),
        Term("bA01_01", -gb, "bA01_01", own),
        Term("bA01_01", -SQRT8 * v * ea, "bA12_10", sad),
        Term("bA01_01", -2.0 * v * ea, "bA01_10", sad),
        Term("bB01_01", 0.0, "g11", birth),
        Term("bB01_01", -gb, "bB01_01", own),
        Term("bB01_01", -2.0 * v * ea, "bA01_01", sad),
        Term("bA01_10", 0.0, "g11", birth),
        Term("bA01_10", -ga, "bA01_10", own),
        Term("bA01_10", -2.0 * v * eb, "bB01_10", sad),
        Term("bA12_10", 1.0, "g20", birth),
        Term("bA12_10", -ga, "bA12_10", own),
        Term("bB12_01", 1.0, "g02", birth),
        Term("bB12_01", -gb, "bB12_01", own),
    )
    eqs = EquationSet(
        system_vars=TWO_PHOTON_VARS["system"],
        band_vars=TWO_PHOTON_VARS["band"],
        terms=terms,
        tau_fs=cavity.tau_fs,
    )
    return HierarchyModel(
        kind="two_photon",
        equations=eqs,
        default_init={"g20": 1.0 + 0j},
    )


def pure_state_crosscheck(amp_a, amp_b, kind: str = "single_excitation"):
    """Density-matrix elements a factorizing amplitude pair would produce.

    For a block that stays a product of excited-state amplitudes
    (exactly true in the continuum limit), the one-excitation elements
    are ``pA = |a|^2, pB = |b|^2, cAB = a conj(b)`` and the two-photon
    ones are ``g20 = a^2, g02 = b^2, g11 = sqrt(2) a b``.  Feeding the
    delay-integrated amplitudes through this gives an independent target
    for every system trajectory the hierarchy produces.
    """
    a = np.asarray(amp_a)
    b = np.asarray(amp_b)
    if kind == "single_excitation":
        return {"pA": np.abs(a) ** 2, "pB": np.abs(b) ** 2, "cAB": a * b.conj()}
    if kind == "two_photon":
        return {"g20": a * a, "g02": b * b, "g11": math.sqrt(2.0) * a * b}
    raise ValueError(f"unknown kind {kind!r}")
