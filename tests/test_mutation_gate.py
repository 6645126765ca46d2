"""The mutation gate: every verdict failure site in verify.py is reached by a
failing-input test.

A failure site is a `return False` (or `return False, detail`) in
verify.py outside negative_controls, whose false branches run only when a
control goes uncaught.  For each site, the project is copied into tmp_path
with that one `False` turned into `True`, and the failing-input tests run
against the copy in a subprocess: at least one of them must fail.  A new
verdict site that no failing-input test reaches fails the gate.

Run with: PYTHONPATH=src python -m pytest -m slow tests/test_mutation_gate.py
"""

import ast
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
VERIFY = Path("src") / "modinvar" / "verify.py"

# Each runs a suite, or the certificate verifier, on a corrupted input and
# asserts which items fail.
FAILING_INPUT_TESTS = tuple("tests/test_verify.py::" + name for name in (
    # verify_certificate
    "test_certificate_corruption_detected",
    "test_an_ell_with_a_u_variable_is_refused",
    "test_a_certificate_needs_one_cofactor_per_relation",
    "test_identity_rejects_a_changed_coefficient",
    "test_a_value_times_t_fails_the_pullback_value_check",
    "test_a_relation_that_does_not_vanish_fails_the_certificate",
    # elimination_crosscheck
    "test_elimination_with_a_wrong_relation_fails_ideal_equality",
    "test_elimination_of_the_c_generators_eliminates_nothing",
    "test_elimination_against_a_multiple_of_t1_fails_ideal_equality",
    # congruence:products
    "test_a_corrupted_pullback_fails_the_item_and_the_oracle",
    "test_a_basis_without_a_carry_relation_fails_that_carry",
    # one suite item each
    "test_a_changed_generator_fails_its_identity",
    "test_a_wrong_census_fails_the_census",
    "test_a_nonvanishing_relation_fails_relations_in_kernel",
    "test_a_changed_pullback_fails_the_base_congruence",
    "test_a_carry_range_violation_fails_the_exponent_carry",
    "test_a_changed_h_numerator_fails_only_its_division",
    "test_a_changed_h_fails_its_identities_star_images_and_boundary",
    "test_a_dropped_basis_spec_fails_the_series_count",
    "test_a_dropped_basis_spec_fails_the_census",
    "test_a_wrong_quotient_count_fails_the_census",
    "test_a_wrong_invariant_dimension_fails_its_degree",
    "test_a_changed_generator_fails_its_invariance",
    "test_a_moved_d2_fails_the_control_at_q2",
    "test_a_fixed_d2_fails_the_control_at_q3",
))


def failure_sites(source):
    """(label, node) of each `False` returned as a verdict outside
    negative_controls, in source order; the label is the enclosing
    functions' names, numbered when one function has several sites."""
    sites = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                if child.name == "negative_controls":
                    continue
                inner = scope + (child.name,)
            if isinstance(child, ast.Return) and child.value is not None:
                value = child.value
                if isinstance(value, ast.Tuple) and value.elts:
                    value = value.elts[0]
                if isinstance(value, ast.Constant) and value.value is False:
                    sites.append((".".join(inner), value))
            visit(child, inner)

    visit(ast.parse(source), ())
    labels = [label for label, _ in sites]
    return [(label if labels.count(label) == 1
             else "%s#%d" % (label, labels[:k + 1].count(label)), node)
            for k, (label, node) in enumerate(sites)]


def mutant(source, node):
    """source with the `False` at node turned into `True`."""
    lines = source.splitlines(keepends=True)
    line = lines[node.lineno - 1]
    assert line[node.col_offset:node.end_col_offset] == "False"
    lines[node.lineno - 1] = line[:node.col_offset] + "True" \
        + line[node.end_col_offset:]
    return "".join(lines)


def run_failing_input_tests(tmp_path, verify_source):
    """Copy the project into tmp_path with verify.py replaced by
    verify_source and run the failing-input tests there, stopping at the
    first failure.  The copy's pyproject puts its own src first on the
    path, so its tests import the copy.  Returns pytest's exit code."""
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "tests", tmp_path / "tests",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "pyproject.toml", tmp_path)
    (tmp_path / VERIFY).write_text(verify_source)
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         *FAILING_INPUT_TESTS],
        cwd=tmp_path, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    ).returncode


SOURCE = (ROOT / VERIFY).read_text()
SITES = failure_sites(SOURCE)


def test_the_sites_are_found():
    labels = [label for label, _ in SITES]
    assert "check_hilbert.census" in labels
    assert "check_kernel.vanishing" in labels
    assert not any(label.startswith("negative_controls") for label in labels)
    assert len(set(labels)) == len(labels)


@pytest.mark.slow
def test_the_failing_input_tests_pass_on_the_package(tmp_path):
    # otherwise a failure below could come from the tests, not the mutant
    assert run_failing_input_tests(tmp_path, SOURCE) == 0


@pytest.mark.slow
@pytest.mark.parametrize("site", [node for _, node in SITES],
                         ids=[label for label, _ in SITES])
def test_a_site_that_always_passes_fails_a_failing_input_test(tmp_path,
                                                             site):
    # exit code 1: tests ran and some failed (not a usage or collection
    # error)
    assert run_failing_input_tests(tmp_path, mutant(SOURCE, site)) == 1
