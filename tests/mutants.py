"""A standing suite of hand-made mutants, each with the tests that must catch it.

Each entry names a file under ``src/``, one exact source snippet in it, the
snippet's replacement, and the test node ids that must fail once the
replacement is made.  Run from the repository root:

    python -m tests.mutants

The runner first collects every node the entries name in one ``pytest
--collect-only`` run, and stops with the ids it does not find.  It then
copies ``src/`` to a temporary directory once, and for each
entry writes the mutated file into the copy, runs the entry's nodes in a
fresh pytest subprocess with the copy first on ``PYTHONPATH``, and puts the
file back.  It reports every entry one of whose nodes still passes (a
survivor) and exits 1 if there is one.  ``SURVIVORS`` are mutants known
to pass every test: they are run and reported, never asserted.

``tests/test_mutants.py`` checks that every snippet occurs exactly once in
the current source, and that each node names an existing test function, so
a change that moves mutated code must update its entry here.  Parametrize
ids are checked only by the runner's collection, which is too slow for
tier-1.  Pytest does not collect this file (its name is not
``test_*``).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    file: str    # relative to src/
    snippet: str    # occurs exactly once in the file
    replacement: str
    nodes: tuple[str, ...]    # test node ids, each of which must fail


ENGINE, ORACLE, CLI = "delayheom/engine.py", "delayheom/oracle.py", "delayheom/cli.py"
QNM = "delayheom/qnm.py"
T_ENGINE, T_ORACLE, T_CLI = "tests/test_engine.py::", "tests/test_oracle.py::", "tests/test_cli.py::"
#: the property that every entry point refuses a bad argument by name
REFUSALS = "tests/test_refusals.py::test_every_entry_point_refuses_a_bad_argument_by_name"

MUTANTS = (
    # -- the Heun step of the band and the system
    Mutant("first-order OWN factor", ENGINE,
           "self._own = _heun_factor(h_l)",
           "self._own = h_l + np.eye(len(h_l))",
           (T_ENGINE + "test_own_only_band_matches_product_formula",
            T_ENGINE + "test_frozen_band_internals")),
    Mutant("y0 cells at ages K - 1 and K swapped in the gather index", ENGINE,
           "(K - 1, K, C + 1 - K * C)[:n_sys]",
           "(K, K - 1, C + 1 - K * C)[:n_sys]",
           (T_ENGINE + "test_one_step_of_the_system_is_the_written_out_heun_step[0-True]",
            T_ENGINE + "test_system_driven_only_by_the_returning_line")),
    Mutant("S_l row of the system dropped", ENGINE,
           "            if has_sad:\n                rows.append(h_s @ d)\n",
           "",
           (T_ENGINE + "test_one_step_of_the_system_is_the_written_out_heun_step[0-True]",
            T_ENGINE + "test_frozen_spot_values[single_excitation]")),
    Mutant("no view rebuild after FAD lines join", ENGINE,
           "if m != m_views:",
           "if m_views == -1:",
           (T_ENGINE + "test_split_stepping_equals_one_run_bit_for_bit[2K-single_excitation]",
            T_ENGINE + "test_band_width_beyond_one_delay_changes_nothing")),
    Mutant("no (1 + hL) factor on the S left read", ENGINE,
           "s + s @ h_l",
           "s",
           (T_ENGINE + "test_one_step_of_the_band_is_the_written_out_heun_step[-3-True]",
            T_ENGINE + "test_frozen_narrow_band_values")),
    Mutant("no (1 + hL) factor on the F left read", ENGINE,
           "f + f @ h_l",
           "f",
           (T_ENGINE + "test_one_step_of_the_band_is_the_written_out_heun_step[3-True]",
            T_ENGINE + "test_frozen_fad_only_band_values[20]")),
    Mutant("s + h_l @ s for (h/2) S (1 + hL)", ENGINE,
           "s + s @ h_l",
           "s + h_l @ s",
           (T_ENGINE + "test_one_step_of_the_band_is_the_written_out_heun_step[0-True]",
            T_ENGINE + "test_unequal_cavities_track_the_delay_equations[rates0-single_excitation]")),
    # -- the first ring cycle, the check windows and the certificate
    Mutant("no first-cycle zeroing", ENGINE,
           "flat[new + n_adv + 1 : new + C] = 0",
           "pass",
           (T_ENGINE + "test_the_first_ring_cycle_gives_every_cell_a_value[10-10-None-build_single_excitation]",
            T_ENGINE + "test_no_step_reads_an_unwritten_ring_cell[build_two_photon]")),
    Mutant("first-cycle zeroing only for n < R - 1", ENGINE,
           "if n < R:",
           "if n < R - 1:",
           (T_ENGINE + "test_the_first_ring_cycle_gives_every_cell_a_value[10-10-None-build_single_excitation]",
            T_ENGINE + "test_no_step_reads_an_unwritten_ring_cell[build_single_excitation]")),
    Mutant("a check window of R + 4 steps", ENGINE,
           "for n0 in range(start, start + n_steps, R - 1):\n"
           "                n1 = min(n0 + R - 1, start + n_steps)",
           "for n0 in range(start, start + n_steps, R + 4):\n"
           "                n1 = min(n0 + R + 4, start + n_steps)",
           (T_ENGINE + "test_deferred_checks_match_a_check_after_every_step[finite, sub-delay ring]",
            T_ENGINE + "test_deferred_checks_match_a_check_after_every_step[band, full row]")),
    Mutant("no sum over the wrapped run of rows", ENGINE,
           "for a, b in _rows(n0 + 1, n1 + 1, R):",
           "for a, b in _rows(n0 + 1, n1 + 1, R)[:1]:",
           (T_ENGINE + "test_deferred_checks_match_a_check_after_every_step[band, full row]",
            T_ENGINE + "test_deferred_checks_match_a_check_after_every_step[band, shrunk ring]")),
    Mutant("a certificate over the first run of rows only", ENGINE,
           "for a, b in _rows(max(n0 + 1, W), n1 + 1, R):",
           "for a, b in _rows(max(n0 + 1, W), n1 + 1, R)[:1]:",
           (T_ENGINE + "test_frozen_band_internals",
            T_ENGINE + "test_frozen_unequal_spot_values[rates2-single_excitation]")),
    Mutant("no errstate around the steps", ENGINE,
           'with np.errstate(over="ignore", invalid="ignore"):\n            for n0',
           "with np.errstate():\n            for n0",
           (T_ENGINE + "test_non_finite_states_abort_with_location",
            T_ENGINE + "test_deferred_checks_match_a_check_after_every_step[system]")),
    # -- the block-stepped discretized bath
    Mutant("no field rotation at the block end", ORACLE,
           "c_bar *= lag_block",
           "c_bar *= 1",
           (T_ORACLE + "test_bath_block_edges_match_the_exact_phase_step[block+1]",
            T_ORACLE + "test_bath_tracks_the_delay_equations")),
    Mutant("block-end rotation one step short, lag[B - 1]", ORACLE,
           "lag_block = np.exp(1j * detun[:H] * (B * h))",
           "lag_block = lag[B - 1].conj()",
           (T_ORACLE + "test_bath_block_edges_match_the_exact_phase_step[block+1]",
            T_ORACLE + "test_bath_step_matches_the_exact_phase_step[long]")),
    Mutant("no swap of the two directions in u_bar", ORACLE,
           "np.multiply(Gf[:, :, 1], c_bar[:, None, 0], out=u)",
           "np.multiply(Gf[:, :, 0], c_bar[:, None, 0], out=u)",
           (T_ORACLE + "test_bath_block_edges_match_the_exact_phase_step[block+1]",
            T_ORACLE + "test_bath_norm_is_conserved_to_roundoff")),
    Mutant("the two directions swapped in the field update", ORACLE,
           "c_bar += Gf[:, 0] * Q_bar[:, 0, None]\n            c_bar += Gf[:, 1] * Q_bar[:, 1, None]",
           "c_bar += Gf[:, 0, ::-1] * Q_bar[:, 0, None]\n            c_bar += Gf[:, 1, ::-1] * Q_bar[:, 1, None]",
           (T_ORACLE + "test_bath_block_edges_match_the_exact_phase_step[block+1]",
            T_ORACLE + "test_bath_norm_is_conserved_to_roundoff")),
    Mutant("the i (u_bar - mirror) rows left without the i", ORACLE,
           "fold[:, 1] *= 1j",
           "fold[:, 1] *= 1",
           (T_ORACLE + "test_bath_with_an_odd_mode_count_matches_the_exact_phase_step",
            T_ORACLE + "test_bath_norm_is_conserved_to_roundoff")),
    Mutant("Q_bar combined as A - i A'", ORACLE,
           "iA *= 1j",
           "iA *= -1j",
           (T_ORACLE + "test_bath_with_an_odd_mode_count_matches_the_exact_phase_step",
            T_ORACLE + "test_bath_frozen_spot_values")),
    Mutant("lag kernel one step off", ORACLE,
           "kernel = (lag @ ",
           "kernel = (np.roll(lag, 1, 0) @ ",
           (T_ORACLE + "test_bath_block_edges_match_the_exact_phase_step[block-1]",
            T_ORACLE + "test_bath_norm_is_conserved_to_roundoff")),
    Mutant("no in-block field-norm increments", ORACLE,
           "field_norm[n0 + 1:n0 + b + 1] = grow",
           "field_norm[n0 + 1:n0 + b + 1] = 0 * grow",
           (T_ORACLE + "test_bath_block_edges_match_the_exact_phase_step[1]",
            T_ORACLE + "test_bath_norm_is_conserved_to_roundoff")),
    Mutant("no a^2 term in the field-norm increments", ORACLE,
           " + alpha**2 * (s.conj() @ GG * s).sum(1).real",
           "",
           (T_ORACLE + "test_bath_block_edges_match_the_exact_phase_step[1]",
            T_ORACLE + "test_bath_norm_is_conserved_to_roundoff")),
    Mutant("field norm not measured at the block start", ORACLE,
           "field_norm[n0] = np.vdot(c_bar, c_bar).real",
           "field_norm[n0] = 0.0",
           (T_ORACLE + "test_bath_block_edges_match_the_exact_phase_step[block+1]",
            T_ORACLE + "test_bath_norm_is_conserved_to_roundoff")),
    Mutant("every block as long as the first", ORACLE,
           "b = min(B, n_steps - n0)",
           "b = B",
           (T_ORACLE + "test_bath_block_edges_match_the_exact_phase_step[block+1]",
            T_ORACLE + "test_bath_frozen_spot_values")),
    Mutant("the mirrored half taken without its conjugate", ORACLE,
           "np.add(u[0], u[1], out=fold[:, 0])\n        np.subtract(u[0], u[1], out=fold[:, 1])",
           "np.add(u[0], u[1].conj(), out=fold[:, 0])\n"
           "        np.subtract(u[0], u[1].conj(), out=fold[:, 1])",
           (T_ORACLE + "test_bath_block_edges_match_the_exact_phase_step[two-blocks+3]",
            T_ORACLE + "test_bath_with_an_odd_mode_count_matches_the_exact_phase_step")),
    Mutant("the odd-M middle mode counted on both sides", ORACLE,
           "Gf[1, ..., :M // 2] = G3[..., ::-1][..., :M // 2].conj()",
           "Gf[1] = G3[..., ::-1][..., :H].conj()",
           (T_ORACLE + "test_bath_with_an_odd_mode_count_matches_the_exact_phase_step",)),
    # -- the run plan and the memory budget
    Mutant("own rates summed with the wrong sign", ENGINE,
           "rates[t.target] -= t.coefficient.real",
           "rates[t.target] += t.coefficient.real",
           (T_ENGINE + "test_default_band_width_formula_and_clamp",
            T_ENGINE + "test_band_width_source_is_the_rule_that_set_it")),
    Mutant("default width capped at K + 1", ENGINE,
           'if kept < K else (K, "cap")',
           'if kept < K else (K + 1, "cap")',
           (T_ENGINE + "test_default_band_width_formula_and_clamp",
            T_ENGINE + "test_band_width_source_is_the_rule_that_set_it")),
    Mutant("ring bytes counted with the system width", ENGINE,
           "rows * ages * cell",
           "rows * ages * state",
           (T_ENGINE + "test_plan_matches_what_the_run_allocates[single_excitation-20-8-50]",
            T_CLI + "test_memory_budget_admits_an_array_of_exactly_its_size[overrides0-steps_per_delay-173056]")),
    Mutant("trajectory one row short", ENGINE,
           "(n_steps + 1) * state",
           "n_steps * state",
           (T_ENGINE + "test_plan_matches_what_the_run_allocates[two_photon-10-25-35]",
            T_CLI + "test_memory_budget_admits_an_array_of_exactly_its_size[overrides2-t_end_fs-48048]")),
    Mutant(">= for > in the budget", CLI,
           "if size > _ARRAY_BUDGET:",
           "if size >= _ARRAY_BUDGET:",
           (T_CLI + "test_memory_budget_admits_an_array_of_exactly_its_size[overrides0-steps_per_delay-173056]",
            T_CLI + "test_memory_budget_admits_an_array_of_exactly_its_size[overrides2-t_end_fs-48048]")),
    Mutant("ring refusal always at steps_per_delay", CLI,
           '"steps_per_delay" if width is None else "band_width"',
           '"steps_per_delay"',
           (T_CLI + "test_memory_budget_refuses_before_anything_is_allocated[overrides1-band_width-16388096256]",
            T_CLI + "test_memory_budget_admits_an_array_of_exactly_its_size[overrides1-band_width-173056]")),
    Mutant("no memory check", CLI,
           "if size > _ARRAY_BUDGET:",
           "if False:",
           (T_CLI + "test_memory_budget_refuses_before_anything_is_allocated[overrides0-steps_per_delay-16388096256]",
            T_CLI + "test_memory_budget_refuses_before_anything_is_allocated[overrides2-t_end_fs-48000000048]")),
    Mutant("no eps comparison in the open-loop refusal", CLI,
           "if facts.open_loop and engine.default_band_width(model.equations, K, eps_band) == K:",
           "if facts.open_loop:",
           (T_CLI + "test_band_width_below_one_delay_loads_when_eps_drops_the_line",
            T_CLI + "test_load_config_plans_each_config_once[overrides2-False]")),
    Mutant("the open-loop check reading the plan's width, not the default", CLI,
           "engine.default_band_width(model.equations, K, eps_band) == K",
           "facts.band_width == K",
           (T_CLI + "test_band_width_below_one_delay_loads_when_eps_drops_the_line",
            T_CLI + "test_load_config_plans_each_config_once[overrides3-True]")),
    Mutant("the width rule's sources swapped", ENGINE,
           '(max(1, math.ceil(kept)), "eps") if kept < K else (K, "cap")',
           '(max(1, math.ceil(kept)), "cap") if kept < K else (K, "eps")',
           (T_ENGINE + "test_band_width_source_is_the_rule_that_set_it",)),
    Mutant("age axis one short in _ring_shape", ENGINE,
           "min(W, horizon) + 2",
           "min(W, horizon) + 1",
           (T_ENGINE + "test_no_step_reads_an_unwritten_ring_cell[build_single_excitation]",
            T_ENGINE + "test_fine_delay_grid_short_run_stays_small")),
    Mutant("an unbounded ring sized for a run within one delay", ENGINE,
           "self._horizon = math.inf if horizon_steps is None",
           "self._horizon = _WINDOW if horizon_steps is None",
           (T_ENGINE + "test_fine_delay_grid_short_run_stays_small",
            T_ENGINE + "test_horizon_shrinks_storage_without_changing_results")),
    Mutant("passivity slack 1e-6 for 1e-12", CLI,
           "cavity.gamma_a_ev * cavity.gamma_b_ev * (1 + 1e-12)",
           "cavity.gamma_a_ev * cavity.gamma_b_ev * (1 + 1e-6)",
           (T_CLI + "test_passivity_refuses_a_coupling_just_past_the_bound",)),
    # -- one refusal per argument rule, in the library
    Mutant("plan_run skips the width rule when a width is given", ENGINE,
           "    W, source = _width_rule(eqs, K, eps_band)    # checks eps_band whether or not "
           "a width is given\n    if band_width is not None:\n",
           "    if band_width is None:\n        W, source = _width_rule(eqs, K, eps_band)\n"
           "    else:\n",
           (REFUSALS,)),
    Mutant("the engine's count accepts a bool", ENGINE,
           "n = 0 if isinstance(value, bool) else operator.index(value)",
           "n = operator.index(value)",
           (REFUSALS,)),
    Mutant("no refusal of a non-finite initial value in the engine", ENGINE,
           "            if not abs(z.real) <= sys.float_info.max >= abs(z.imag):    # refuses NaN too\n"
           "                raise ValueError(f\"init[{name!r}] must be a finite number, got {value!r}\")\n",
           "",
           (REFUSALS,)),
    Mutant("no refusal of a non-finite initial value in the oracles", ORACLE,
           "        if not abs(z.real) <= sys.float_info.max >= abs(z.imag):    # refuses NaN too\n"
           "            raise ValueError(f\"init[{i}] must be a finite number, got {init[i]!r}\")\n",
           "        pass\n",
           (REFUSALS,)),
    Mutant("overlaps returns what it cannot vouch for", QNM,
           "        if all(map(math.isfinite, (s_aa, ov.s_ab, damp, ov.ratio))):\n"
           "            return ov\n",
           "        return ov\n",
           (REFUSALS,)),
)

#: mutants that pass every test; recorded so that no one takes them for
#: covered, and so that no test is tightened for them alone
SURVIVORS = (
    # its drift stays below the 1e-12 the exact-phase tests allow
    Mutant("block-end rotation built by recurrence", ORACLE,
           "lag_block = np.exp(1j * detun[:H] * (B * h))",
           "lag_block = (lag[B - 1] * np.exp(-1j * detun[:H] * h)).conj()",
           (T_ORACLE + "test_bath_block_edges_match_the_exact_phase_step",)),
    # equivalent: conj(G) of a mode swaps its two running directions, which
    # share one frequency, so the cavities see the same bath
    Mutant("the mirrors' columns of G left unconjugated", ORACLE,
           "G3[..., ::-1][..., :M // 2].conj()",
           "G3[..., ::-1][..., :M // 2]",
           (T_ORACLE + "test_bath_with_an_odd_mode_count_matches_the_exact_phase_step",)),
)


def _failed(output: str) -> set[str]:
    """The node ids pytest's short summary (``-rfE``) lists as failed."""
    return {line.split(" ", 1)[1].split(" - ", 1)[0]
            for line in output.splitlines() if line.startswith(("FAILED ", "ERROR "))}


def _passing_nodes(mutant: Mutant, src: Path) -> tuple[str, ...] | None:
    """The nodes of ``mutant`` that pass with it applied to the copy ``src``
    of the sources, or None if pytest itself failed to run."""
    path = src / mutant.file
    original = path.read_text()
    path.write_text(original.replace(mutant.snippet, mutant.replacement, 1))
    try:
        # ``-o pythonpath=`` drops the src/ that pytest's settings would put first
        env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(src), str(ROOT))),
                   PYTHONDONTWRITEBYTECODE="1")
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
             "-o", "pythonpath=", *mutant.nodes],
            cwd=ROOT, env=env, capture_output=True, text=True)
    finally:
        path.write_text(original)
    if done.returncode not in (0, 1):
        return None
    failed = _failed(done.stdout)
    return tuple(n for n in mutant.nodes if n not in failed)


def _missing_nodes(entries: tuple[Mutant, ...]) -> list[str]:
    """The nodes the entries name that one ``pytest --collect-only`` run
    over their test functions does not collect (all of them if a function
    is gone, since pytest then lists none)."""
    nodes = {n for m in entries for n in m.nodes}
    functions = sorted({n.split("[", 1)[0] for n in nodes})
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider",
         *functions], cwd=ROOT, capture_output=True, text=True)
    collected = set(done.stdout.splitlines())
    # a node with no parametrize id runs every case of its function
    collected |= {n.split("[", 1)[0] for n in collected}
    return sorted(nodes - collected)


def main() -> int:
    entries = MUTANTS + SURVIVORS
    missing = _missing_nodes(entries)
    if missing:
        print("test nodes not collected:", *missing, sep="\n  ")
        return 1
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        for m in entries:
            alive = _passing_nodes(m, src)
            known = m in SURVIVORS
            if alive is None:
                verdict = "ERROR (pytest did not run)"
            elif not alive:
                verdict = "killed" + (" (a recorded survivor)" if known else "")
            else:
                verdict = "survives" + (" (recorded)" if known else f": {', '.join(alive)}")
            bad += not known and verdict != "killed"
            print(f"{m.name}: {verdict}", flush=True)
    print(f"{len(entries)} mutants, {bad} not killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
