import json
import math

import numpy as np
import pytest

from qclone import cli
from qclone.cli import main
from qclone.network import build_copy_stage, build_prep_circuit_1, circuit_from_text


#: stands for an --output path inside a directory that does not exist
MISSING = "<missing>/out"


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_clone_uqcm_json(capsys):
    code, out = run(capsys, "clone", "uqcm", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["kind"] == "uqcm"
    np.testing.assert_allclose(data["fidelity"], 5 / 6, atol=1e-10)
    np.testing.assert_allclose(data["input"]["theta"], math.pi / 2, atol=1e-10)


def test_clone_is_deterministic(capsys):
    _, first = run(capsys, "clone", "gm", "3", "--seed", "11", "--format", "json")
    _, second = run(capsys, "clone", "gm", "3", "--seed", "11", "--format", "json")
    assert first == second
    data = json.loads(first)
    assert data["input"]["seed"] == 11
    assert data["n_or_m"] == 3


def test_clone_explicit_angles_override_seed_default(capsys):
    _, out = run(capsys, "clone", "uqcm", "--theta", "0.8", "--format", "json")
    data = json.loads(out)
    assert data["input"]["theta"] == 0.8
    assert data["input"]["phi"] == 0.0


def test_clone_register(capsys):
    code, out = run(capsys, "clone", "register-nonlocal", "--alpha2", "0.5", "--format", "json")
    assert code == 0
    data = json.loads(out)
    np.testing.assert_allclose(data["scaling_factor"], 0.6, atol=1e-10)
    assert data["separable"] == {"a0b1": False}


def test_clone_csv_and_table(capsys):
    _, out = run(capsys, "clone", "mdim", "4", "--format", "csv")
    assert out.splitlines()[0].startswith("kind,n_or_m,")
    _, out = run(capsys, "clone", "mdim", "4", "--format", "table")
    assert "scaling_factor" in out


@pytest.mark.parametrize(
    "argv",
    [
        ("clone", "gm"),                                  # missing clone count
        ("clone", "mdim"),                                # missing dimension
        ("clone", "uqcm", "7"),                           # stray parameter
        ("clone", "uqcm", "--alpha2", "0.5"),             # alpha2 on a qubit cloner
        ("clone", "mdim", "3", "--theta", "1.0"),         # angles on mdim
        ("clone", "register-local", "--seed", "3"),       # seed on register
        ("clone", "register-local", "--alpha2", "1.5"),   # out of range
        ("sweep", "mdim-scaling"),                        # missing --m
        ("sweep", "gm-fidelity", "--n", "1:3", "--m", "2:4"),      # --m on gm-fidelity
        ("sweep", "mdim-scaling", "--m", "2:3", "--method", "local"),  # --method on mdim-scaling
        ("sweep", "mdim-scaling", "--m", "5:2"),          # inverted range
        ("sweep", "mdim-scaling", "--m", "1:4"),          # below the floor
        ("sweep", "register-negativity", "--alpha2", "0:1:5"),  # missing method
        ("sweep", "register-negativity", "--alpha2", "0:1", "--method", "local"),
        ("dump-circuit", "copy", "--n", "9"),             # over the limit
        ("dump-circuit", "prep1", "--n", "2"),            # stray --n
        ("clone", "gm", "9"),                             # clone count over the limit
        ("clone", "uqcm", "--theta", "4"),                # theta outside [0, pi]
        ("clone", "uqcm", "--seed", "-1"),                # negative seed
        ("clone", "mdim", "65"),                          # dimension over the limit
        ("clone", "mdim", "1"),                           # dimension below the floor
        ("sweep", "register-negativity", "--alpha2=0:inf:5", "--method", "local"),      # infinite STOP
        ("sweep", "register-negativity", "--alpha2=-inf:1:5", "--method", "local"),     # infinite START
        ("sweep", "register-negativity", "--alpha2=-0.5:1.5:5", "--method", "local"),  # grid outside [0, 1]
        ("clone", "uqcm", "--output", MISSING),            # --output in a missing directory
        ("reproduce", "--output", MISSING),
        ("sweep", "gm-fidelity", "--n", "1:2", "--output", MISSING),
        ("dump-circuit", "prep1", "--output", MISSING),
    ],
)
def test_usage_errors_exit_2(capsys, tmp_path, argv):
    with pytest.raises(SystemExit) as err:
        main([str(tmp_path / "missing" / "out") if a == MISSING else a for a in argv])
    assert err.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("clone", "gm", "9"),
        ("clone", "uqcm", "--theta", "4"),
        ("clone", "uqcm", "--seed", "-1"),
        ("clone", "mdim", "65"),
        ("clone", "register-local", "--alpha2", "1.5"),
        ("sweep", "mdim-scaling", "--m", "5:2"),
        ("sweep", "register-negativity", "--alpha2", "0:1", "--method", "local"),
        ("sweep", "register-negativity", "--alpha2=-0.5:1.5:5", "--method", "local"),
    ],
)
def test_command_errors_show_subcommand_usage(capsys, argv):
    # errors the commands raise after parsing show the usage of the
    # subcommand that was called, as argparse's own errors do
    with pytest.raises(SystemExit) as err:
        main(list(argv))
    assert err.value.code == 2
    first = capsys.readouterr().err.splitlines()[0]
    assert first.startswith(f"usage: qclone {argv[0]} {argv[1]} ")


@pytest.mark.parametrize(
    "argv, message",
    [
        (("sweep", "mdim-scaling", "--m", "2:x"), "--m expects LO:HI, got '2:x'"),
        (("sweep", "register-negativity", "--alpha2", "0:x:5", "--method", "local"),
         "--alpha2 expects numeric START:STOP:STEPS, got '0:x:5'"),
        (("sweep", "register-negativity", "--alpha2", "0:1:1", "--method", "local"),
         "--alpha2: need START < STOP and STEPS >= 2, got '0:1:1'"),
        (("clone", "register-local", "--alpha2", "1.5"), "--alpha2 must lie in [0, 1], got 1.5"),
        (("clone", "uqcm", "--output", MISSING), "qclone: error: cannot write --output"),
    ],
    ids=["non-integer-range", "non-numeric-grid", "one-step-grid", "alpha2-out-of-range", "unwritable-output"],
)
def test_usage_errors_name_their_cause(capsys, tmp_path, argv, message):
    """The tool's own message, not the one a later step would raise (or no
    error at all, for a one-step grid)."""
    with pytest.raises(SystemExit) as err:
        main([str(tmp_path / "missing" / "out") if a == MISSING else a for a in argv])
    assert err.value.code == 2
    assert message in capsys.readouterr().err


def test_format_env_is_ignored(capsys, monkeypatch):
    # only --format picks the format: an exported QCLONE_FORMAT, valid or
    # not, leaves the default table in place
    _, table = run(capsys, "clone", "uqcm", "--format", "table")
    for value in ("json", "yaml"):
        monkeypatch.setenv("QCLONE_FORMAT", value)
        assert run(capsys, "clone", "uqcm") == (0, table)


def test_successive_calls_behave_like_fresh_ones(capsys):
    # the parser is built once per process; a usage error must leave no
    # state behind, and each call's --format holds for that call only
    with pytest.raises(SystemExit) as err:
        main(["clone", "gm"])
    assert err.value.code == 2
    code, out = run(capsys, "clone", "gm", "2", "--format", "json")
    assert code == 0 and json.loads(out)["n_or_m"] == 2

    _, out = run(capsys, "clone", "uqcm", "--format", "csv")
    assert out.splitlines()[0].startswith("kind,n_or_m,")
    _, out = run(capsys, "clone", "uqcm")
    assert out.startswith("kind ")


def test_flag_beats_env(capsys, monkeypatch):
    monkeypatch.setenv("QCLONE_FORMAT", "csv")
    _, out = run(capsys, "clone", "uqcm", "--format", "json")
    assert out.lstrip().startswith("{")


@pytest.mark.parametrize("m", ["1", "65", "3000000", "200000000"])
def test_clone_mdim_checks_range_before_drawing(capsys, monkeypatch, m):
    # an out-of-range M is a usage error with the library's message before
    # any input is drawn, so a huge M costs no memory
    def no_draw(*args):
        raise AssertionError(f"drew an input for M = {m}")

    monkeypatch.setattr(cli, "haar_random_ket", no_draw)
    with pytest.raises(SystemExit) as err:
        main(["clone", "mdim", m])
    assert err.value.code == 2
    assert f"dimension is limited to 2 <= m <= 64, got {m}" in capsys.readouterr().err


def test_clone_mdim_help_names_the_dimension_cap(capsys):
    with pytest.raises(SystemExit) as err:
        main(["clone", "mdim", "--help"])
    assert err.value.code == 0
    assert "dimension M, 2..64" in capsys.readouterr().out


class Reached(Exception):
    """Raised by a patched function the command reached."""


def reach(*args):
    raise Reached


@pytest.mark.parametrize(
    "argv, patched",
    [
        (("sweep", "register-negativity", "--alpha2", "0:1:{rows}", "--method", "local"), (np, "linspace")),
        (("sweep", "mdim-scaling", "--m", "2:{rows_from_2}"), (cli, "mdim_formulas")),
        (("sweep", "gm-fidelity", "--n", "1:{rows}"), (cli, "scaling_factor_formula")),
    ],
)
@pytest.mark.parametrize("rows", [10**6, 10**6 + 1, 3000000000])
def test_sweep_checks_row_count_before_computing(capsys, monkeypatch, argv, patched, rows):
    # a sweep of more than MAX_ROWS rows is a usage error before any row is
    # computed, so a huge STEPS or HI costs no memory; 10**6 rows still run
    monkeypatch.setattr(*patched, reach)
    argv = [a.format(rows=rows, rows_from_2=rows + 1) for a in argv]
    if rows == cli.MAX_ROWS:
        with pytest.raises(Reached):
            main(argv)
        return
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert f"at most {cli.MAX_ROWS}" in capsys.readouterr().err


def test_output_file(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, out = run(capsys, "clone", "uqcm", "--format", "json", "--output", str(path))
    assert code == 0
    assert out == ""
    assert json.loads(path.read_text())["kind"] == "uqcm"


def test_sweep_gm_fidelity(capsys):
    code, out = run(capsys, "sweep", "gm-fidelity", "--n", "1:8")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,scaling_factor,fidelity"
    assert len(lines) == 9
    first = lines[1].split(",")
    np.testing.assert_allclose(float(first[1]), 2 / 3, atol=1e-10)
    np.testing.assert_allclose(float(first[2]), 5 / 6, atol=1e-10)


def test_sweep_mdim_scaling_monotone(capsys):
    _, out = run(capsys, "sweep", "mdim-scaling", "--m", "2:64")
    lines = out.strip().splitlines()
    assert len(lines) == 64
    s = [float(line.split(",")[1]) for line in lines[1:]]
    assert all(a > b for a, b in zip(s, s[1:]))
    assert s[-1] > 0.5


def test_sweep_register_negativity(capsys):
    _, out = run(capsys, "sweep", "register-negativity",
                 "--alpha2", "0:1:11", "--method", "nonlocal")
    lines = out.strip().splitlines()
    assert lines[0] == "alpha2,min_pt_eigenvalue,separable"
    assert len(lines) == 12
    mid = lines[6].split(",")
    np.testing.assert_allclose(float(mid[0]), 0.5, atol=1e-12)
    np.testing.assert_allclose(float(mid[1]), -0.2, atol=1e-10)
    assert mid[2] == "false"
    assert lines[1].split(",")[2] == "true"


def test_dump_circuit_round_trips(capsys):
    code, out = run(capsys, "dump-circuit", "prep1")
    assert code == 0  # main() returns the exit status, as for every command
    assert circuit_from_text(out) == build_prep_circuit_1()
    _, out = run(capsys, "dump-circuit", "copy", "--n", "3")
    assert circuit_from_text(out) == build_copy_stage(3)


def test_dump_circuit_default_n(capsys):
    _, out = run(capsys, "dump-circuit", "copy")
    assert circuit_from_text(out) == build_copy_stage(1)


def test_reproduce_passes(capsys):
    code, out = run(capsys, "reproduce")
    assert code == 0
    assert "all 12 criteria passed" in out.strip().splitlines()[-1]
    assert "FAIL" not in out
