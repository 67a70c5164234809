"""Closed-form predictions and the numerical checks that verify them.

Everything here is one of three things: a formula (input-independent
prediction), a measurement on simulated cloner output, or a comparison
helper between the two.  The simulation routes live in ``network`` and
``cloners``; this module never builds cloner output by formula where a
simulation is being tested.

Two-qubit closed forms are 4 x 4 tables over |00>,|01>,|10>,|11>, the
package's basis order (first qubit most significant).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator

import numpy as np

from .cloners import CloneOutput, gisin_massar_map, register_clone
from .linalg import (
    DensityOperator,
    StateVector,
    SubsystemLayout,
    TOL_SPECTRAL,
    _freeze,
    _size,
    _unbatched,
    hermitian_eigenvalues,
    outer,
    partial_transpose,
    pure_fidelity,
    purity,
    reduced_density,
)
from .states import _TWO_QUBITS, BlochQubit, bloch_ket, register_ket


@dataclass(frozen=True)
class ScalingFit:
    """Least-squares fit of rho_out = s*rho_id + (1-s)/d * identity; for a
    batch, ``s`` and ``residual`` are arrays with one entry per element."""

    s: float
    residual: float


def extract_scaling_factor(rho_out: DensityOperator, rho_id: DensityOperator) -> ScalingFit:
    """Best-fit scaling factor of an output against its ideal state, plus
    the max-norm residual of the fit.  Batches pair elementwise, and a
    single operator pairs with every element of the other batch."""
    if rho_out.dim != rho_id.dim:
        raise ValueError("output and ideal operators have mismatched dimensions")
    d = rho_id.dim
    eye = np.eye(d) / d
    direction = rho_id.mat - eye
    target = rho_out.mat - eye
    # Re Tr(a^dagger b) of each pair as the inner product of flattened matrices
    flat_dir = direction.reshape(direction.shape[:-2] + (-1,))
    denom = np.vecdot(flat_dir, flat_dir).real
    if (denom < 1e-30).any():
        raise ValueError("ideal state is maximally mixed; scaling factor is undefined")
    s = np.vecdot(flat_dir, target.reshape(target.shape[:-2] + (-1,))).real / denom
    residual = np.abs(target - s[..., None, None] * direction).max(axis=(-2, -1))
    return ScalingFit(s=_unbatched(s), residual=_unbatched(residual))


def scaling_factor_formula(n: int) -> float:
    """Scaling factor of the 1-to-(n+1) cloner: 1/3 + 2/(3(n+1))."""
    n = _size(n, "need an integer n >= 1", 1)
    return 1.0 / 3.0 + 2.0 / (3.0 * (n + 1))


def fidelity_formula(n: int) -> float:
    """Clone fidelity of the 1-to-(n+1) cloner: 2/3 + 1/(3(n+1))."""
    n = _size(n, "need an integer n >= 1", 1)
    return 2.0 / 3.0 + 1.0 / (3.0 * (n + 1))


#: Most inputs one ``mean_fidelity`` callback call receives: 4 rows of the
#: default 64 x 64 grid.  Larger blocks run faster but raise peak memory, as
#: each block's callback works on all of its inputs at once: a clone
#: marginal from ``cloners`` holds only the block's (K, d, d) marginals and
#: their pair products, but a callback that forms joint states holds a
#: block of them (512 KB for 256 inputs of the 1 -> 4 cloner).  The blocks
#: themselves are kept between calls (see ``_KEPT_GRID``), so only the
#: callback's work is redone per call.
_QUADRATURE_BLOCK = 256

#: Most inputs of a quadrature grid whose blocks, with their kets, are kept
#: from one ``mean_fidelity`` call to the next (48 bytes an input: 3 MB at
#: the bound; the default grid has 4,096 inputs).  A larger grid is built
#: block by block on every call and never held whole.
_KEPT_GRID = 2**16

@lru_cache(maxsize=None)
def _legendre_rule(n_cos: int) -> tuple[np.ndarray, np.ndarray]:
    """Polar angles acos(x) of the n_cos Gauss-Legendre nodes x, and their
    weights.  ``numpy.polynomial`` loads here, on first use, not at import."""
    nodes, weights = np.polynomial.legendre.leggauss(n_cos)
    thetas = np.array([math.acos(float(x)) for x in nodes])
    return _freeze(thetas), _freeze(weights)


def _grid_blocks(n_cos: int, n_phi: int) -> Iterator[BlochQubit]:
    """The quadrature grid as batched BlochQubits of whole rows, in node
    order: ``max(1, _QUADRATURE_BLOCK // n_phi)`` rows a block, the last
    block holding what is left."""
    thetas, _ = _legendre_rule(n_cos)
    rows = max(1, _QUADRATURE_BLOCK // n_phi)
    phis = np.tile(2.0 * math.pi * np.arange(n_phi) / n_phi, rows)
    for i in range(0, n_cos, rows):
        block = thetas[i:i + rows]
        yield BlochQubit(np.repeat(block, n_phi), phis[:block.size * n_phi])


@lru_cache(maxsize=1)
def _kept_grid(n_cos: int, n_phi: int) -> tuple[BlochQubit, ...]:
    """The blocks of one grid of at most ``_KEPT_GRID`` inputs, validated
    once; each computes its kets on first use and keeps them."""
    return tuple(_grid_blocks(n_cos, n_phi))


def mean_fidelity(
    clone_marginal_fn: Callable[[BlochQubit], DensityOperator],
    n_cos: int = 64,
    n_phi: int = 64,
) -> float:
    """Average <psi|rho(psi)|psi> over the Bloch sphere.

    Gauss-Legendre nodes in cos(theta) crossed with a uniform periodic grid
    in phi; both resolutions must be integers of at least 16.  For every
    machine in this package the integrand is low-order in cos(theta), so
    the quadrature is exact far below the 1e-6 tolerance the checks use.

    ``clone_marginal_fn`` is called once per block of whole grid rows, in
    node order: a batched BlochQubit holding each row's ``n_phi`` angles in
    turn.  A block holds at most 256 inputs, or one row when ``n_phi``
    exceeds 256, so the default 64 x 64 grid takes 16 calls.  The callback
    returns the batch of clone marginals, or one DensityOperator that then
    serves every input of the block.  A grid of at most 2**16 inputs is
    kept: calling again with the same grid hands the callback the same
    blocks, whose kets are already computed.
    """
    n_cos = _size(n_cos, "quadrature grid sizes must be integers >= 16", 16)
    n_phi = _size(n_phi, "quadrature grid sizes must be integers >= 16", 16)
    _, weights = _legendre_rule(n_cos)
    blocks = _kept_grid(n_cos, n_phi) if n_cos * n_phi <= _KEPT_GRID else _grid_blocks(n_cos, n_phi)
    row_sums = np.concatenate(
        [pure_fidelity(bloch_ket(q), clone_marginal_fn(q)).reshape(-1, n_phi).sum(axis=-1) for q in blocks]
    )
    total = 0.0
    for w, row_sum in zip(weights, row_sums):
        total += (w / 2.0) / n_phi * row_sum
    return float(total)


def _ppt_spectrum(rho: DensityOperator):
    """Whether the partial transpose of rho on subsystem 1 is positive,
    counting eigenvalues down to -1e-10 as zero, and its ascending
    eigenvalues, both from one eigensolve: a bool and a spectrum for one
    operator, an array of bools and the (K, d) stack of spectra for a
    batch.  Any layout of at least two subsystems; the verdict means
    separability only where ``ppt_separable`` accepts the layout."""
    w = hermitian_eigenvalues(partial_transpose(rho, 1))
    return _unbatched(w[..., 0] >= -TOL_SPECTRAL), w


def ppt_separable(rho: DensityOperator):
    """Peres-Horodecki test for a two-qubit state, where positivity of the
    partial transpose is conclusive.  Returns (separable, min eigenvalue):
    a bool and a float for one operator, two arrays for a batch."""
    if rho.layout.dims != (2, 2):
        raise ValueError(f"conclusive only for a (2, 2) layout, got {rho.layout.dims}")
    sep, w = _ppt_spectrum(rho)
    return sep, _unbatched(w[..., 0])


def _two_qubit(rows, denom: float, lead: tuple[int, ...]) -> DensityOperator:
    """Two-qubit operator: a 4 x 4 table over |00>,|01>,|10>,|11>, divided
    by ``denom``.  Each entry is a number or a flat array over the batch,
    which ``lead`` shapes (``()`` for one qubit)."""
    entries = np.broadcast_arrays(*(x for row in rows for x in row))
    mat = np.stack(entries, axis=-1).reshape(lead + (4, 4)).astype(np.complex128) / denom
    return DensityOperator(_TWO_QUBITS, mat)


def clone_pair_density_formula(n: int, q: BlochQubit) -> DensityOperator:
    """Closed-form two-clone density operator of the 1-to-(n+1) cloner, over
    |00>,|01>,|10>,|11>; a batched ``q`` gives the batch."""
    n = _size(n, "need an integer n >= 1", 1)
    amps = bloch_ket(q).amps
    a, b = amps.reshape(-1, 2).T  # arrays even for one qubit: one arithmetic for both
    aa, bb = abs(a) ** 2, abs(b) ** 2
    g = (n + 3.0) / (n + 1.0)
    lo = np.conj(a) * b * g  # alpha* beta terms of the lower triangle
    hi = np.conj(lo)
    p11 = ((3 * n + 5) * bb + (n - 1) * aa) / (n + 1.0)
    p00 = ((3 * n + 5) * aa + (n - 1) * bb) / (n + 1.0)
    rows = [
        [p00, hi, hi, 0.0],
        [lo, 1.0, 1.0, hi],
        [lo, 1.0, 1.0, hi],
        [0.0, lo, lo, p11],
    ]
    return _two_qubit(rows, 6.0, amps.shape[:-1])


def pt_spectrum_formula(n: int) -> np.ndarray:
    """Ascending eigenvalues of the partially transposed two-clone state:
    {1/6, 1/6, 1/3 +- sqrt(2(5+4n+n^2))/(6(n+1))}, independent of the input."""
    n = _size(n, "need an integer n >= 1", 1)
    r = math.sqrt(2.0 * (5.0 + 4.0 * n + n * n)) / (6.0 * (n + 1.0))
    return np.sort(np.array([1.0 / 6.0, 1.0 / 6.0, 1.0 / 3.0 - r, 1.0 / 3.0 + r]))


def rho_a1b1_density_formula(q: BlochQubit) -> DensityOperator:
    """Closed-form clone/copier two-qubit state (a_1, b_1) of the single-copy
    cloner, over |00>,|01>,|10>,|11>; a batched ``q`` gives the batch."""
    amps = bloch_ket(q).amps
    a, b = amps.reshape(-1, 2).T  # arrays even for one qubit: one arithmetic for both
    aa, bb = abs(a) ** 2, abs(b) ** 2
    ab = a * np.conj(b)  # alpha beta*
    ba = np.conj(ab)
    rows = [
        [4 * aa + bb, ba, 2 * ab, 2.0],
        [ab, aa, 0.0, 2 * ab],
        [2 * ba, 0.0, bb, ba],
        [2.0, 2 * ba, ab, 4 * bb + aa],
    ]
    return _two_qubit(rows, 6.0, amps.shape[:-1])


def rho_a1b1_pt_spectrum(q: BlochQubit) -> np.ndarray:
    """Simulated PT spectrum of the (clone a_1, copier b_1) pair of the
    single-copy cloner.  For real input amplitudes this equals
    {(1-sqrt(17))/12, 1/6, (1+sqrt(17))/12, 2/3}; the smallest eigenvalue
    stays negative for every input.  A batched ``q`` gives one ascending
    spectrum per row."""
    out = gisin_massar_map(q, 1)
    return _ppt_spectrum(reduced_density(out.joint, [1, 2]))[1]  # (a_1, b_1)


def idle_qubit_check(out: CloneOutput, q: BlochQubit):
    """Largest entrywise deviation of any single idle (copier) qubit from
    the law rho_b = (1/3) rho_id^T + (1/3) identity; for a batched output
    and ``q``, the array of those deviations, one per input."""
    ideal_t = outer(bloch_ket(q)).mat.swapaxes(-1, -2)
    expected = ideal_t / 3.0 + np.eye(2) / 3.0
    worst = 0.0
    for j, d in enumerate(out.copier_dims):
        if d != 2:
            raise ValueError("idle-qubit law applies to qubit copier wires only")
        got = reduced_density(out.joint, [out.clone_count + j]).mat
        worst = np.maximum(worst, np.abs(got - expected).max(axis=(-2, -1)))
    return _unbatched(worst)


def purity_xi(n: int) -> float:
    """Copier purity after producing n+1 clones:
    2(2n^2+7n+6) / (3(n+1)(n+2)^2)."""
    n = _size(n, "need an integer n >= 1", 1)
    return (2.0 * (2.0 * n * n + 7.0 * n + 6.0)) / (3.0 * (n + 1.0) * (n + 2.0) ** 2)


def purity_xi_simulated(out: CloneOutput):
    """Purity of the copier marginal of a simulated cloner output; for a
    batched output, the array of purities."""
    return purity(out.copier_marginal())


def mdim_formulas(m: int) -> tuple[float, float, float, float]:
    """Closed-form predictions (scaling, bures, entropy_clone,
    entropy_copier) for the M-dimensional cloner.

    Scaling s = (m+2)/(2(m+1)); Bures distance
    sqrt(2) (1 - sqrt((m+3)/(2(m+1))))^(1/2); clone entropy
    ln(2(m+1)) - (m+3)/(2(m+1)) ln(m+3); copier entropy
    ln(m+1) - 2 ln(2)/(m+1).  All entropies in nats."""
    m = _size(m, "need an integer m >= 2", 2)
    s = (m + 2.0) / (2.0 * (m + 1.0))
    bures = math.sqrt(2.0 * (1.0 - math.sqrt((m + 3.0) / (2.0 * (m + 1.0)))))
    s_clone = math.log(2.0 * (m + 1.0)) - (m + 3.0) / (2.0 * (m + 1.0)) * math.log(m + 3.0)
    s_copier = math.log(m + 1.0) - 2.0 * math.log(2.0) / (m + 1.0)
    return s, bures, s_clone, s_copier


def mdim_copier_formula(phi: StateVector) -> DensityOperator:
    """Closed-form copier marginal of the M-dimensional cloner:
    (rho_id^T + identity) / (m + 1), which is 2d^2 (rho_id^T + identity)
    for the cloner's coefficient d."""
    m = phi.dim
    mat = (outer(phi).mat.swapaxes(-1, -2) + np.eye(m)) / (m + 1.0)
    return DensityOperator(SubsystemLayout((m,)), mat)


@dataclass(frozen=True)
class SeparabilityInterval:
    """Open interval of alpha^2 on which the smallest eigenvalue of the
    partially transposed clone pair is negative, so the pair is inseparable.
    ``ppt_separable`` counts an eigenvalue down to -1e-10 as separable, so
    points less than about 2e-10 inside the interval still read separable
    there."""

    lower: float
    upper: float


def inseparability_boundary(method: str, resolution: float = 1e-8) -> SeparabilityInterval:
    """The alpha^2 roots of f, the smallest partially transposed eigenvalue
    of the cloned register pair, where the pair switches between separable
    and inseparable.  A resolution that is not finite, or is under
    4 * spacing(1.0) (about 8.9e-16), raises ValueError: the search stops
    once every bracket is at most a quarter of the resolution wide, and no
    bracket in [0.5, 1] narrows below the spacing of doubles there (half of
    spacing(1.0)).  Each boundary is the midpoint of its final bracket, so
    it lies within resolution / 8 of a sign change of f.

    One call over alpha^2 = 0.5, 0, 1 must read inseparable, separable,
    separable.  Then Illinois regula falsi (Dowell & Jarratt, BIT 11, 1971)
    narrows the brackets (0, 0.5) and (1, 0.5) together, one batched
    ``register_clone`` call of two points a step, and takes a bracket's
    midpoint when its secant point does not land strictly inside it."""
    if not (math.isfinite(resolution) and resolution >= 4 * np.spacing(1.0)):
        raise ValueError(f"resolution must be finite and at least 4 * spacing(1.0), got {resolution}")
    sep, f = ppt_separable(register_clone(method, np.sqrt([0.5, 0.0, 1.0])))
    if (~sep).tolist() != [True, False, False]:
        raise ArithmeticError("unexpected separability pattern; cannot bracket")
    # search k (lower, upper), as Python floats: its f >= 0 end at index 0,
    # its f < 0 end at index 1, and the index its last point replaced
    ends, f_ends, last = [[0.0, 0.5], [1.0, 0.5]], f[[[1, 0], [2, 0]]].tolist(), [-1, -1]
    while max(abs(b - a) for a, b in ends) > resolution / 4.0:
        x = [(a * fb - b * fa) / (fb - fa) for (a, b), (fa, fb) in zip(ends, f_ends)]
        x = [xk if min(a, b) < xk < max(a, b) else 0.5 * (a + b) for xk, (a, b) in zip(x, ends)]
        _, fx = ppt_separable(register_clone(method, np.sqrt(x)))
        for k, fxk in enumerate(fx.tolist()):
            side = int(fxk < 0)  # the end x replaces
            if side == last[k]:  # Illinois: an end kept twice in a row counts half its value
                f_ends[k][1 - side] /= 2.0
            ends[k][side], f_ends[k][side], last[k] = x[k], fxk, side
    return SeparabilityInterval(*[(a + b) / 2.0 for a, b in ends])


#: Closed-form register pair coefficients by method, (w, m, D, c): diagonal
#: ((w a^2 + 1)/D, m/D, m/D, (w b^2 + 1)/D) and c ab on the |00><11| corner.
#: Kept apart from ``cloners.REGISTER_CLONERS`` so the closed forms stay a
#: route of their own.
_REGISTER_PAIR_COEFFICIENTS = {"local": (24, 5, 36.0, 4.0 / 9.0), "nonlocal": (6, 1, 10.0, 3.0 / 5.0)}


def register_pair_formula(method: str, alpha) -> DensityOperator:
    """Closed-form density operator of a cloned register pair.

    Local, over |00>,|01>,|10>,|11>: diagonal ((24 a^2 + 1)/36, 5/36, 5/36,
    (24 b^2 + 1)/36) with 4ab/9 on the |00><11| corner.  Nonlocal: diagonal
    ((6 a^2 + 1)/10, 1/10, 1/10, (6 b^2 + 1)/10) with 3ab/5 on the corner.
    Amplitudes are real here, so the corner entries are symmetric.  An
    array of alphas gives the batch.
    """
    amps = register_ket(alpha).amps.real  # validates alpha
    alpha = amps[..., 0]
    a2 = alpha * alpha
    b2 = 1.0 - a2
    corner = alpha * amps[..., 3]
    if method not in _REGISTER_PAIR_COEFFICIENTS:
        raise ValueError(f"method must be 'local' or 'nonlocal', got {method!r}")
    weight, middle, denom, corner_scale = _REGISTER_PAIR_COEFFICIENTS[method]
    diag = [(weight * a2 + 1) / denom, middle / denom, middle / denom, (weight * b2 + 1) / denom]
    corner *= corner_scale
    rows = [
        [diag[0], 0.0, 0.0, corner],
        [0.0, diag[1], 0.0, 0.0],
        [0.0, 0.0, diag[2], 0.0],
        [corner, 0.0, 0.0, diag[3]],
    ]
    return _two_qubit(rows, 1.0, alpha.shape)
