"""Gate-network realization of the cloning transformation.

Two gate kinds suffice: a real single-qubit rotation R(theta) taking
|0> -> cos(theta)|0> + sin(theta)|1> and |1> -> -sin(theta)|0> + cos(theta)|1>,
and the two-qubit CNOT.  Wire order for the 1-to-(n+1) cloner is fixed as
(a_0, a_1..a_n, b_1..b_n): a_0 carries the input, the a wires end up holding
the clones and the b wires the copier.

A batch of K states, (K, 2**width) amplitudes, runs through a circuit in one
pass.  ``run_circuit`` checks the state's layout once and reshapes its
amplitudes once into a tensor with one axis per wire behind the batch axis;
every gate takes that tensor and returns the next one, and the result is
wrapped as a StateVector once, after the last gate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real

import numpy as np

from .linalg import StateVector, _size, _trusted, tensor
from .states import BlochQubit, MAX_CLONE_COUNT, _CLONE_COUNT_RULE, bloch_ket, prep_state

ROTATION = "rotation"
CNOT = "cnot"

# Preparation angles: theta_1 = acos(1/sqrt(5))/2, theta_2 = acos(sqrt(5)/3)/2,
# theta_3 = acos(2/sqrt(5))/2.  With the circuit below they turn |00> into
# (2|00> + |01> + |11>)/sqrt(6).
PREP_THETA_1 = 0.5 * math.acos(1.0 / math.sqrt(5.0))
PREP_THETA_2 = 0.5 * math.acos(math.sqrt(5.0) / 3.0)
PREP_THETA_3 = 0.5 * math.acos(2.0 / math.sqrt(5.0))


@dataclass(frozen=True)
class GateOp:
    """One gate: kind is ``rotation`` (wires=(wire,), theta set) or ``cnot``
    (wires=(control, target))."""

    kind: str
    wires: tuple[int, ...]
    theta: float | None = None

    def __post_init__(self):
        if self.kind not in (ROTATION, CNOT):
            raise ValueError(f"unknown gate kind {self.kind!r}")
        wires = tuple([_size(w, "wires must be integers >= 0", 0) for w in self.wires])
        if self.kind == ROTATION and (len(wires) != 1 or not isinstance(self.theta, Real) or not math.isfinite(self.theta)):
            raise ValueError(f"rotation takes one wire and a finite angle, got {self.theta!r}")
        if self.kind == CNOT:
            if len(wires) != 2 or self.theta is not None:
                raise ValueError("cnot takes exactly (control, target) and no angle")
            if wires[0] == wires[1]:
                raise ValueError("cnot control and target must differ")
        object.__setattr__(self, "wires", wires)
        # a numpy float would print as np.float64(...) in the circuit text
        object.__setattr__(self, "theta", None if self.theta is None else float(self.theta))


def rotation(wire: int, theta: float) -> GateOp:
    return GateOp(ROTATION, (wire,), theta)


def cnot(control: int, target: int) -> GateOp:
    return GateOp(CNOT, (control, target))


@dataclass(frozen=True)
class Circuit:
    """Gate list over ``width`` qubit wires, applied first to last."""

    width: int
    ops: tuple[GateOp, ...]

    def __post_init__(self):
        width = _size(self.width, "width must be an integer >= 1", 1)
        object.__setattr__(self, "width", width)
        object.__setattr__(self, "ops", tuple(self.ops))
        # every GateOp holds int wires >= 0: the highest must lie below the width
        _size(max((w for op in self.ops for w in op.wires), default=0), "wires must lie below the circuit width", 0, width - 1)


# Wires and angles are checked once, by GateOp and Circuit, and the layout
# once, by run_circuit; the gates trust them and act on the bare amplitude
# tensor: one axis per wire, behind ``lead`` batch axes.
def apply_rotation(t: np.ndarray, lead: int, wire: int, theta: float) -> np.ndarray:
    """Apply R(theta) on one wire."""
    c, s = math.cos(theta), math.sin(theta)
    r = np.array([[c, -s], [s, c]], dtype=np.complex128)
    out = np.tensordot(t, r, axes=([lead + wire], [1]))
    return np.moveaxis(out, -1, lead + wire)


def apply_cnot(t: np.ndarray, lead: int, control: int, target: int) -> np.ndarray:
    """Apply a CNOT: flip ``target`` on the control = 1 slice."""
    t = t.copy()
    one = [slice(None)] * t.ndim
    one[lead + control] = 1
    t[tuple(one)] = np.flip(t[tuple(one)], axis=lead + (target if target < control else target - 1))
    return t


def run_circuit(circuit: Circuit, psi: StateVector) -> StateVector:
    """Run every gate in order; the layout must be ``width`` qubit wires."""
    if len(psi.layout) != circuit.width or any(d != 2 for d in psi.layout.dims):
        raise ValueError(
            f"state layout {psi.layout.dims} does not match circuit width {circuit.width}"
        )
    lead = psi.amps.ndim - 1
    t = psi.amps.reshape(psi.amps.shape[:lead] + psi.layout.dims)
    for op in circuit.ops:
        if op.kind == ROTATION:
            t = apply_rotation(t, lead, op.wires[0], op.theta)
        else:
            t = apply_cnot(t, lead, op.wires[0], op.wires[1])
    return _trusted(StateVector, layout=psi.layout, amps=t.reshape(psi.amps.shape))


def build_prep_circuit_1() -> Circuit:
    """Two-qubit preparation circuit for the single-copy (n = 1) cloner.

    On wires (a_1, b_1) starting from |00>:
    R(theta_1) on a_1, CNOT a_1->b_1, R(theta_2) on b_1, CNOT b_1->a_1,
    R(theta_3) on a_1.
    """
    return Circuit(
        2,
        (
            rotation(0, PREP_THETA_1),
            cnot(0, 1),
            rotation(1, PREP_THETA_2),
            cnot(1, 0),
            rotation(0, PREP_THETA_3),
        ),
    )


def build_copy_stage(n: int) -> Circuit:
    """Copy stage of the 1-to-(n+1) cloner on wires (a_0, a_1.., b_1..).

    Four CNOT cascades: a_0 fans out onto every a_i, then onto every b_i,
    then every a_i drives a_0, then every b_i drives a_0 (ascending wire
    order inside each cascade).
    """
    n = _size(n, "need an integer n >= 1", 1)
    a = list(range(1, n + 1))
    b = list(range(n + 1, 2 * n + 1))
    ops = [cnot(0, w) for w in a + b] + [cnot(w, 0) for w in a + b]
    return Circuit(2 * n + 1, tuple(ops))


def clone_via_network(q: BlochQubit, n: int) -> StateVector:
    """Full circuit route: tensor the input qubit with the prepared copier
    state and run the copy stage.  Wires come out as (a_0..a_n, b_1..b_n)
    with the clones on the a wires.  A batched ``q`` runs the whole batch
    through the circuit at once."""
    n = _size(n, _CLONE_COUNT_RULE, 1, MAX_CLONE_COUNT)
    return run_circuit(build_copy_stage(n), tensor(bloch_ket(q), prep_state(n)))


def circuit_to_text(circuit: Circuit) -> str:
    """Serialize to the line format ``WIDTH n`` then one gate per line:
    ``R wire theta`` or ``CX control target``.  Angles print via repr so the
    text round-trips exactly."""
    lines = [f"WIDTH {circuit.width}"]
    for op in circuit.ops:
        if op.kind == ROTATION:
            lines.append(f"R {op.wires[0]} {op.theta!r}")
        else:
            lines.append(f"CX {op.wires[0]} {op.wires[1]}")
    return "\n".join(lines) + "\n"


def circuit_from_text(text: str) -> Circuit:
    """Parse the :func:`circuit_to_text` format."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    header = lines[0].split() if lines else []
    if len(header) != 2 or header[0] != "WIDTH":
        raise ValueError("circuit text must start with the line WIDTH <int>")
    width = int(header[1])
    ops = []
    for ln in lines[1:]:
        parts = ln.split()
        if parts[0] == "R" and len(parts) == 3:
            ops.append(rotation(int(parts[1]), float(parts[2])))
        elif parts[0] == "CX" and len(parts) == 3:
            ops.append(cnot(int(parts[1]), int(parts[2])))
        else:
            raise ValueError(f"unrecognized circuit line: {ln!r}")
    return Circuit(width, tuple(ops))
