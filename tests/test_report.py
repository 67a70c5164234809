import json
import math

import numpy as np
import pytest

from qclone import analysis, linalg, report
from qclone.report import (
    report_gm,
    report_mdim,
    report_register,
    report_uqcm,
    round12,
)
from qclone.states import BlochQubit, haar_random_ket


def test_round12():
    assert round12(0.6666666666666666) == 0.666666666667
    assert round12(0.0) == 0.0
    assert round12(-1.5e-17) == -1.5e-17


def test_uqcm_report_values():
    rep = report_uqcm(BlochQubit(math.pi / 2, 0.0))
    assert rep.kind == "uqcm"
    assert rep.n_or_m == 1
    np.testing.assert_allclose(rep.scaling_factor, 2 / 3, atol=1e-12)
    np.testing.assert_allclose(rep.fidelity, 5 / 6, atol=1e-12)
    np.testing.assert_allclose(rep.bures, 0.4174423812332963, atol=1e-10)
    np.testing.assert_allclose(rep.purity_xi, 5 / 9, atol=1e-12)
    assert rep.separable == {"a0-a1": False}
    assert rep.pt_eigenvalues[0] < 0


def test_gm_report_separability_verdicts():
    rep = report_gm(BlochQubit(1.0, 1.0), 3)
    assert rep.n_or_m == 3
    assert len(rep.pt_eigenvalues) == 4
    assert set(rep.separable) == {
        "a0-a1", "a0-a2", "a0-a3", "a1-a2", "a1-a3", "a2-a3"
    }
    assert all(rep.separable.values())
    np.testing.assert_allclose(rep.fidelity, 0.75, atol=1e-12)


def test_mdim_report():
    rep = report_mdim(haar_random_ket(3, 5), 5)
    assert rep.kind == "mdim"
    assert rep.n_or_m == 3
    assert rep.input["seed"] == 5
    # copier purity of the three-level cloner: (1 + 2 + 3) / 16
    np.testing.assert_allclose(rep.purity_xi, 0.375, atol=1e-12)
    assert rep.separable == {}
    np.testing.assert_allclose(rep.scaling_factor, 5 / 8, atol=1e-12)
    assert "clone" in rep.entropies and "copier" in rep.entropies


def test_register_report():
    rep = report_register("nonlocal", math.sqrt(0.5))
    np.testing.assert_allclose(rep.scaling_factor, 0.6, atol=1e-12)
    assert rep.separable == {"a0b1": False}
    rep = report_register("local", 1.0)
    assert rep.separable == {"a0b1": True}
    with pytest.raises(ValueError):
        report_register("global", 0.5)


def test_json_round_trip_and_rounding():
    rep = report_uqcm(BlochQubit(1.2345, 2.3456))
    data = json.loads(rep.to_json())
    assert data["kind"] == "uqcm"
    assert data["input"]["theta"] == 1.2345
    # every float in the document carries at most 12 significant digits
    def walk(x):
        if isinstance(x, float):
            assert x == round12(x)
        elif isinstance(x, dict):
            for v in x.values():
                walk(v)
        elif isinstance(x, list):
            for v in x:
                walk(v)

    walk(data)


def test_csv_matches_header():
    rep = report_gm(BlochQubit(0.5, 0.5), 2, seed=None)
    text = rep.to_csv()
    header, row = text.strip().split("\n")
    assert header == (
        "kind,n_or_m,theta,phi,alpha,seed,scaling_factor,scaling_residual,"
        "fidelity,bures,pt_min,separable_all,purity_xi,entropy_clone,entropy_copier"
    )
    assert len(row.split(",")) == 15


def test_table_lists_every_csv_column_value():
    rep = report_uqcm(BlochQubit(1.0, 0.0))
    table = rep.to_table()
    assert "scaling_factor" in table
    assert table.endswith("\n")


@pytest.mark.parametrize("build, pairs", [
    (lambda: report_uqcm(BlochQubit(1.0, 0.5)), 1),
    (lambda: report_gm(BlochQubit(1.0, 0.5), 3), 6),
    (lambda: report_register("nonlocal", math.sqrt(0.5)), 1),
], ids=["uqcm", "gm-3", "register"])
def test_one_pt_solve_per_clone_pair(monkeypatch, build, pairs):
    """The first pair's verdict and its reported spectrum come from one
    partial transpose, solved once."""
    solved = []

    def counting(rho, sub):
        solved.append(rho.mat.shape)
        return linalg.partial_transpose(rho, sub)

    for module in (analysis, report):
        monkeypatch.setattr(module, "partial_transpose", counting, raising=False)
    rep = build()
    assert solved == [(4, 4)] * pairs
    assert len(rep.separable) == pairs and len(rep.pt_eigenvalues) == 4
