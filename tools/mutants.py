"""Mutant catalogue: deliberate small faults and the tests that must catch them.

Each entry of CATALOGUE changes one exact text in one module of src/ttw4d/
and names the test nodes expected to kill it (fail on the mutant).  Some
entries also name known survivors: nodes that check nearby behaviour but
miss the fault, each with the ROADMAP item that will close the gap.  The
script copies src/, tests/ and tools/ into a temporary directory, checks
that every node passes there unmutated, then applies one entry at a time,
runs its nodes with pytest and prints the kill matrix.  pytest runs under
the "no-shrink" hypothesis profile of tests/conftest.py: a killed property
reports its first failing example without shrinking it.  The working tree
is never touched.

Standard library only (pytest runs in a subprocess); run from anywhere:

    python3 tools/mutants.py

Exit status 0 when every expected killer failed on its mutant and every
known survivor passed; 1 when an expectation is not met; 2 when a node
fails on the unmutated copy or pytest itself errs.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src") / "ttw4d"
ACC, CLI, DIF, GEO, LAT, MOD, NUM = (f"tests/test_{m}.py::" for m in (
    "acceptance", "cli", "diffops", "geometry", "lattice", "model", "numcore"))


class Mutant(NamedTuple):
    name: str
    module: str        # file name under src/ttw4d/
    old: str           # exact text, occurring once in the module
    new: str
    kills: tuple       # node ids expected to fail on the mutant
    survivors: tuple = ()  # (node id, the ROADMAP item that will kill it)


CATALOGUE = (
    Mutant("j-plus-sign", "lattice.py",
           '"J+": (1, 0, -2, ("n+1", "Dn+da+db+D"), 1, 0),',
           '"J+": (1, 0, 2, ("n+1", "Dn+da+db+D"), 1, 0),',
           (ACC + "test_criterion_04_xi1_closed_form_as_printed",
            LAT + "test_slot3_jacobi_raising_example")),
    Mutant("j-minus-coefficient", "lattice.py",
           '"J-": (-1, 0, -2, ("Dn+da", "Dn+db"), 2, 0),',
           '"J-": (-1, 0, -2, ("Dn+da", "Dn+db+D"), 2, 0),',
           (LAT + "test_jacobi_lowering_coefficient",),
           ((ACC + "test_criterion_05c_corrected_constants_close_everywhere", "7"),
            (ACC + "test_criterion_06_fifth_symmetry", "7"))),
    Mutant("k-minus-a-coefficient", "lattice.py",
           '"K-a": (-1, 2, 2, ("Dn+da+db+D", "Dn+db"), 2, 0),',
           '"K-a": (-1, 2, 2, ("Dn+da+db", "Dn+db"), 2, 0),',
           (LAT + "test_xi2_xi3_coefficients_are_printed_step_products",)),
    Mutant("xi-guard-off-by-one", "lattice.py",
           "guards[lvl] = max(guards.get(lvl, 0), 1 - delta[lvl])",
           "guards[lvl] = max(guards.get(lvl, 0), -delta[lvl])",
           (LAT + "test_index_ladder_below_lattice_is_zero",
            LAT + "test_xi_sweep_counts_the_fraction_reference_images")),
    Mutant("xi-program-key-drops-sign", "lattice.py",
           'key = ("xi-program", i, sign)', 'key = ("xi-program", i)',
           (LAT + "test_xi_programs_belong_to_the_parameter_set",
            LAT + "test_xi_sweep_counts_the_fraction_reference_images",
            LAT + "test_xi2_shift_pattern")),
    Mutant("extra-k0-minus-step", "lattice.py",
           'tail = (("K0-", None),) * p if i == 1',
           'tail = (("K0-", None),) * (p + 1) if i == 1',
           (ACC + "test_criterion_03_energy_invariance",
            LAT + "test_xi_preserves_energy_exactly")),
    Mutant("alpha-printed-2", "lattice.py",
           "ALPHA_PRINTED = (Fraction(1), Fraction(1, 4), Fraction(0))",
           "ALPHA_PRINTED = (Fraction(1), Fraction(1, 2), Fraction(0))",
           (ACC + "test_criterion_05_bracket_identities_as_printed",
            CLI + "test_printed_lattice_reports_match_golden")),
    Mutant("add-into-keeps-cancelled", "lattice.py",
           "if s.num:", "if True:",
           (LAT + "test_vector_basics",
            LAT + "test_lattice_algebra_keeps_normal_form")),
    Mutant("identity-key-drops-variant", "lattice.py",
           'key = ("identity", i, which, convention, variant)',
           'key = ("identity", i, which, convention)',
           (LAT + "test_identity_operators_are_per_parameter_set_and_variant",)),
    Mutant("commutator-weight-flipped", "lattice.py",
           "else c + sign * ds).num", "else sign * c + ds).num",
           (LAT + "test_diagonal_products_and_brackets_match_the_dict_reference",
            LAT + "test_corrected_identities_hold_on_grid",
            LAT + "test_commutator_antisymmetry_and_jacobi",
            LAT + "test_m1_relations_exact_on_interior_states",
            ACC + "test_criterion_06_fifth_symmetry")),
    Mutant("triple-middle-word", "lattice.py",
           "anticommutator(a, b @ b) + b @ (a @ b)", "anticommutator(a, b @ b) + b @ (b @ a)",
           (LAT + "test_lattice_algebra_keeps_normal_form",
            LAT + "test_diagonal_products_and_brackets_match_the_dict_reference",
            LAT + "test_corrected_identities_hold_on_grid")),
    Mutant("cross-commute-key-drops-i", "lattice.py",
           'key = ("cross-commute", i)', 'key = ("cross-commute",)',
           (LAT + "test_cross_commute_operators_are_per_parameter_set",)),
    Mutant("divisor-never-raises", "lattice.py",
           "if d == 0:", "if d != d:",
           (LAT + "test_m1_singular_divisor_guard",)),
    Mutant("leaf-key-drops-sign", "lattice.py",
           'return _leaf(params, ("lpm", i, sign), build)',
           'return _leaf(params, ("lpm", i), build)',
           (LAT + "test_check_identity_computes_each_lpm_image_once",
            LAT + "test_corrected_identities_hold_on_grid")),
    Mutant("leaf-keeps-no-image", "lattice.py",
           "vec = images[st] = expr._image(st)", "vec = expr._image(st)",
           (LAT + "test_operator_memo_is_per_instance",
            LAT + "test_only_xi_lpm_and_m1_leaves_memoize",
            LAT + "test_xi_images_are_owned_by_the_parameter_set")),
    Mutant("opoly-skips-reduction", "numcore.py",
           "if g != 1:", "if False:",
           (NUM + "test_opoly_kernel_normal_form",
            NUM + "test_opoly_hash_agrees_with_equality")),
    Mutant("jet-add-keeps-zeros", "numcore.py",
           "[x + y if y else x for", "[x + y for",
           (NUM + "test_flat_jet_core_matches_dict_reference",)),
    Mutant("univariate-product-overwrites", "numcore.py",
           "if ca:\n                                out[k] += ca * cb",
           "if ca:\n                                out[k] = ca * cb",
           (NUM + "test_flat_jet_core_matches_dict_reference",
            NUM + "test_jet_square_of_coordinate",
            ACC + "test_criterion_01_eigen_tower")),
    Mutant("value-apply-drops-factorial", "diffops.py",
           "acc += c * (d * fact)", "acc += c * d",
           (DIF + "test_value_apply_is_the_order_one_jet_truncated",
            DIF + "test_pure_second_derivative_on_slot3",
            ACC + "test_criterion_09c_working_table_matches_lattice")),
    Mutant("ell2-drops-factor-4", "model.py", "4 * X2 * X2", "X2 * X2",
           (LAT + "test_integer_kernel_matches_fraction_reference",
            MOD + "test_ell2_shift_identity",
            ACC + "test_criterion_01_eigen_tower")),
    Mutant("build-l1-correction", "model.py",
           "(k1 ** 2 - k2 ** 2) / 4", "(k1 ** 2 - k2 ** 2) / 2",
           (ACC + "test_criterion_01_eigen_tower",
            ACC + "test_criterion_08_conformal_covariance",
            DIF + "test_tower_eigen_equations",
            GEO + "test_quantum_corrections_match_minus_r6_minus_w24")),
    Mutant("tower-slot2-kind", "model.py",
           '((params.beta2, "sec2"),)', '((params.beta2, "csc2"),)',
           (ACC + "test_criterion_01_eigen_tower",
            ACC + "test_criterion_08_conformal_covariance",
            DIF + "test_tower_eigen_equations",
            GEO + "test_quantum_corrections_match_minus_r6_minus_w24",
            GEO + "test_conformal_identity_on_generic_functions")),
    Mutant("k2sq-for-k1sq", "diffops.py",
           "A02 = I.scale(k1sq) - L1", "A02 = I.scale(k2sq) - L1",
           (ACC + "test_criterion_09_explicit_operator_as_printed",)),
    Mutant("radial-key-drops-a0", "model.py",
           'ev.key = ("radial", n0, *A0.as_integer_ratio(), *omega.as_integer_ratio())',
           'ev.key = ("radial", n0, *omega.as_integer_ratio())',
           (ACC + "test_criterion_01_eigen_tower",)),
    # one run has one b per axis, so only a context shared by two parameter
    # sets with the same (k, a) and different b can see this one
    Mutant("factor-block-key", "model.py",
           'chain_key = ("jacobi", *_exact(k, a, b))', 'chain_key = ("jacobi", *_exact(k, a))',
           (MOD + "test_shared_factor_blocks_are_bit_identical",
            MOD + "test_one_context_serves_parameter_sets_that_differ_in_one_b")),
    Mutant("christoffel-sign", "geometry.py",
           "acc = -dg[mu][rho] if acc is None else acc - dg[mu][rho]",
           "acc = dg[mu][rho] if acc is None else acc + dg[mu][rho]",
           (ACC + "test_criterion_07_curvature",
            GEO + "test_frozen_curvature_bits")),
)


def anchor_counts(root: Path = ROOT) -> dict:
    """{entry name: occurrences of its old text in its module under root}."""
    return {m.name: (root / PACKAGE / m.module).read_text(encoding="utf-8").count(m.old)
            for m in CATALOGUE}


def failing_nodes(tree: Path, nodes) -> set:
    """The nodes among `nodes` that fail (or cannot be collected) in tree."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
         "--continue-on-collection-errors", "--hypothesis-profile", "no-shrink", *nodes],
        cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode not in (0, 1):
        raise RuntimeError(f"pytest exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    failed = [line.split()[1] for line in proc.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR ")) and len(line.split()) > 1]
    return {n for n in nodes
            if any(n == f or n.startswith(f + "::") or f.startswith(n + "[")
                   for f in failed)}


def main() -> int:
    bad = {name: n for name, n in anchor_counts().items() if n != 1}
    if bad:
        print(f"anchor texts not found exactly once: {bad}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="ttw4d-mutants-") as tmp:
        tree = Path(tmp)
        for part in ("src", "tests", "tools"):
            shutil.copytree(ROOT / part, tree / part, ignore=shutil.ignore_patterns(
                "__pycache__", ".hypothesis", ".pytest_cache"))
        nodes = sorted({n for m in CATALOGUE for n in (*m.kills, *(s for s, _ in m.survivors))})
        try:
            broken = failing_nodes(tree, nodes)
        except RuntimeError as exc:
            print(exc, file=sys.stderr)
            return 2
        if broken:
            print(f"nodes failing on the unmutated copy: {sorted(broken)}", file=sys.stderr)
            return 2
        misses = 0
        print(f"{'mutant':<30} {'expected':<9} {'result':<9} node")
        for m in CATALOGUE:
            path = tree / PACKAGE / m.module
            clean = path.read_text(encoding="utf-8")
            path.write_text(clean.replace(m.old, m.new), encoding="utf-8")
            t0 = time.perf_counter()
            try:
                killed = failing_nodes(tree, [*m.kills, *(s for s, _ in m.survivors)])
            except RuntimeError as exc:
                print(f"{m.name}: {exc}", file=sys.stderr)
                return 2
            finally:
                path.write_text(clean, encoding="utf-8")
            rows = [(n, "kill", "") for n in m.kills]
            rows += [(n, "survive", f"  (ROADMAP item {item})") for n, item in m.survivors]
            for node, want, note in rows:
                got = "killed" if node in killed else "survived"
                ok = (got == "killed") == (want == "kill")
                misses += not ok
                print(f"{m.name:<30} {want:<9} {got:<9} {node}{note}"
                      + ("" if ok else "   <-- not as expected"))
            print(f"{'':<30} {time.perf_counter() - t0:.1f} s")
        print(f"{len(CATALOGUE)} mutants, {misses} expectations not met")
        return 1 if misses else 0


if __name__ == "__main__":
    sys.exit(main())
