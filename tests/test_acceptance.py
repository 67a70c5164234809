"""Acceptance gate: every published number, one test per criterion.

Each test prints a single pass/fail line (visible under ``pytest -s`` or on
failure) and then asserts the criterion, so a red run names the exact check
and deviation that broke.
"""


def _assert_criterion(result):
    status = "PASS" if result.passed else "FAIL"
    print(f"ACCEPTANCE {result.index:2d} [{status}] {result.title}")
    bad = [r for r in result.rows if not r.ok]
    detail = "; ".join(
        f"{r.label}: reference={r.reference!r} computed={r.computed!r} "
        f"tol={r.tol:g} mode={r.mode}"
        for r in bad
    )
    assert result.passed, f"criterion {result.index} ({result.title}): {detail}"


def test_criterion_01_network_clones_at_two_thirds(unfaulted_result):
    _assert_criterion(unfaulted_result(1))


def test_criterion_02_preparation_circuit_state(unfaulted_result):
    _assert_criterion(unfaulted_result(2))


def test_criterion_03_network_equals_direct_map(unfaulted_result):
    _assert_criterion(unfaulted_result(3))


def test_criterion_04_scaling_law_all_copy_counts(unfaulted_result):
    _assert_criterion(unfaulted_result(4))


def test_criterion_05_idle_qubit_marginal_law(unfaulted_result):
    _assert_criterion(unfaulted_result(5))


def test_criterion_06_clone_pair_pt_spectra(unfaulted_result):
    _assert_criterion(unfaulted_result(6))


def test_criterion_07_clone_copier_pair_spectrum(unfaulted_result):
    _assert_criterion(unfaulted_result(7))


def test_criterion_08_copier_purity_law(unfaulted_result):
    _assert_criterion(unfaulted_result(8))


def test_criterion_09_multidimensional_closed_forms(unfaulted_result):
    _assert_criterion(unfaulted_result(9))


def test_criterion_10_register_inseparability_windows(unfaulted_result):
    _assert_criterion(unfaulted_result(10))


def test_criterion_11_bloch_mean_fidelity(unfaulted_result):
    _assert_criterion(unfaulted_result(11))


def test_criterion_12_universality_of_quality(unfaulted_result):
    _assert_criterion(unfaulted_result(12))
