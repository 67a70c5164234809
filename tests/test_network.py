import math

import numpy as np
import pytest

from qclone.cloners import gisin_massar_map, uqcm_map
from qclone.linalg import StateVector, SubsystemLayout
from qclone.network import (
    CNOT,
    ROTATION,
    Circuit,
    GateOp,
    build_copy_stage,
    build_prep_circuit_1,
    circuit_from_text,
    circuit_to_text,
    clone_via_network,
    cnot,
    rotation,
    run_circuit,
)
from qclone.states import BlochQubit, prep_state, random_bloch


def ket(*bits):
    amps = np.zeros(2 ** len(bits))
    idx = 0
    for b in bits:
        idx = (idx << 1) | b
    amps[idx] = 1.0
    return StateVector(SubsystemLayout((2,) * len(bits)), amps)


def test_rotation_action():
    theta = 0.7
    circ = Circuit(width=1, ops=(rotation(0, theta),))
    out = run_circuit(circ, ket(0))
    np.testing.assert_allclose(out.amps, [math.cos(theta), math.sin(theta)], atol=1e-15)
    out = run_circuit(circ, ket(1))
    np.testing.assert_allclose(out.amps, [-math.sin(theta), math.cos(theta)], atol=1e-15)


@pytest.mark.parametrize(
    "control,target,source,expect",
    [
        (0, 1, (0, 0), (0, 0)),
        (0, 1, (1, 0), (1, 1)),
        (0, 1, (1, 1), (1, 0)),
        (1, 0, (0, 1), (1, 1)),
        (1, 0, (1, 1), (0, 1)),
    ],
)
def test_cnot_action(control, target, source, expect):
    circ = Circuit(width=2, ops=(cnot(control, target),))
    out = run_circuit(circ, ket(*source))
    np.testing.assert_allclose(out.amps, ket(*expect).amps, atol=1e-15)


def test_cnot_middle_wire():
    circ = Circuit(width=3, ops=(cnot(2, 0),))
    out = run_circuit(circ, ket(0, 1, 1))
    np.testing.assert_allclose(out.amps, ket(1, 1, 1).amps, atol=1e-15)


def test_gate_validation():
    with pytest.raises(ValueError):
        cnot(1, 1)
    with pytest.raises(ValueError):
        GateOp(kind=ROTATION, wires=(0, 1), theta=0.5)
    for theta in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite angle"):
            rotation(0, theta)
    with pytest.raises(ValueError):
        Circuit(width=2, ops=(cnot(0, 2),))
    with pytest.raises(ValueError):
        Circuit(width=0, ops=())


def test_run_circuit_checks_layout():
    circ = Circuit(width=2, ops=(cnot(0, 1),))
    with pytest.raises(ValueError):
        run_circuit(circ, ket(0))
    with pytest.raises(ValueError):
        run_circuit(circ, StateVector(SubsystemLayout((4,)), [1, 0, 0, 0]))


def test_prep_circuit_produces_prep_state():
    out = run_circuit(build_prep_circuit_1(), ket(0, 0))
    np.testing.assert_allclose(out.amps, prep_state(1).amps, atol=1e-12)


def test_copy_stage_shape():
    circ = build_copy_stage(3)
    assert circ.width == 7
    assert len(circ.ops) == 12
    assert all(op.kind == CNOT for op in circ.ops)


def test_copy_stage_on_basis_inputs():
    """The 4-CNOT stage sends |0>|prep> and |1>|prep> to the two cloner
    columns, with no residual phase."""
    stage = build_copy_stage(1)
    for bit, column in ((0, 0), (1, 1)):
        src = np.zeros(2)
        src[bit] = 1.0
        psi = StateVector(
            SubsystemLayout((2, 2, 2)), np.kron(src, prep_state(1).amps)
        )
        out = run_circuit(stage, psi)
        want = np.zeros(8)
        if column == 0:
            want[0b000] = math.sqrt(2 / 3)
            want[0b011] = want[0b101] = math.sqrt(1 / 6)
        else:
            want[0b111] = math.sqrt(2 / 3)
            want[0b100] = want[0b010] = math.sqrt(1 / 6)
        np.testing.assert_allclose(out.amps, want, atol=1e-14)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 8])
def test_network_matches_direct_map(n):
    q = random_bloch(31 + n)
    net = clone_via_network(q, n)
    direct = gisin_massar_map(q, n)
    np.testing.assert_allclose(net.amps, direct.joint.amps, atol=1e-13)


def test_network_matches_uqcm():
    q = BlochQubit(2.2, 4.0)
    np.testing.assert_allclose(
        clone_via_network(q, 1).amps, uqcm_map(q).joint.amps, atol=1e-13
    )


def test_clone_count_bounds():
    with pytest.raises(ValueError):
        clone_via_network(BlochQubit(1.0, 1.0), 0)
    with pytest.raises(ValueError):
        clone_via_network(BlochQubit(1.0, 1.0), 9)


def test_circuit_text_round_trip():
    circ = build_prep_circuit_1()
    text = circuit_to_text(circ)
    assert text.splitlines()[0] == "WIDTH 2"
    assert circuit_from_text(text) == circ

    circ = build_copy_stage(2)
    assert circuit_from_text(circuit_to_text(circ)) == circ


def test_float_width_or_wire_is_rejected_at_construction():
    """The text format writes width and wires as integers, so a circuit
    that exists always round-trips: a float is refused when it is built,
    and a numpy integer is kept as a Python int."""
    for build in (lambda: Circuit(2.0, ()), lambda: rotation(0.0, 0.3), lambda: cnot(0, 1.0)):
        with pytest.raises(ValueError, match="integer"):
            build()
    circ = Circuit(np.int64(2), (rotation(np.int64(1), 0.3), cnot(np.int64(1), 0)))
    text = circuit_to_text(circ)
    assert text.splitlines()[:2] == ["WIDTH 2", "R 1 0.3"]
    assert circuit_from_text(text) == circ


def test_numpy_angle_round_trips_and_a_string_angle_is_rejected():
    """A numpy float angle is kept as a Python float, so the text holds its
    repr and parses back; an angle that is not a real number is refused at
    construction, through ``rotation`` too, as None and a non-finite angle
    are."""
    circ = Circuit(1, (GateOp(ROTATION, (0,), np.float64(0.5)), GateOp(ROTATION, (0,), np.float32(0.25))))
    text = circuit_to_text(circ)
    assert text.splitlines()[1:] == ["R 0 0.5", "R 0 0.25"]
    assert circuit_from_text(text) == circ
    for theta in ("0.5", None, math.inf, 1j):
        for build in (lambda: GateOp(ROTATION, (0,), theta), lambda: rotation(0, theta)):
            with pytest.raises(ValueError, match="finite angle"):
                build()


def test_circuit_text_rejects_garbage():
    with pytest.raises(ValueError):
        circuit_from_text("WIDTH 2\nH 0\n")
    with pytest.raises(ValueError):
        circuit_from_text("R 0 0.5\n")
    with pytest.raises(ValueError, match="WIDTH <int>"):
        circuit_from_text("WIDTH 2 junk\nCX 0 1\n")
    with pytest.raises(ValueError):
        circuit_from_text("WIDTH 2\nR 0\n")
    with pytest.raises(ValueError, match="finite angle"):
        circuit_from_text("WIDTH 1\nR 0 nan\n")


def test_prep_circuit_angles_regression():
    """The three preparation angles are fixed by the target amplitudes
    (2, 1, 0, 1)/sqrt(6); pin them to guard the serialized form."""
    ops = build_prep_circuit_1().ops
    thetas = [op.theta for op in ops if op.kind == ROTATION]
    np.testing.assert_allclose(
        thetas,
        [
            0.5 * math.acos(1 / math.sqrt(5)),
            0.5 * math.acos(math.sqrt(5) / 3),
            0.5 * math.acos(2 / math.sqrt(5)),
        ],
        rtol=0,
        atol=1e-15,
    )
