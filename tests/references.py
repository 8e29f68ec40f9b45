"""Reference functions that tests compare the library against.

No CLI path, demo or library call needs these, so they live beside the
tests that read them: the trace inner product, a trace-orthonormal
Hermitian basis and Bloch coordinates in it, seeded random Hermitian matrices, the variance and the
log covariances of a state, its deviation operators and smallest
eigenvalue, a Gibbs state of one Hamiltonian, whether a measure is a point
measure, the reduced operators V(j) and W(j) of one composite constituent,
the kernel at a state with a given log operator, the Kossakowski-Lindblad
dissipator summed jump by jump, and a trajectory thinned to every k-th
step.
"""

from dataclasses import replace
from math import sqrt

import numpy as np

from seaqt import composite as cp
from seaqt import operators as op
from seaqt import sea
from seaqt import states as st
from seaqt.errors import DimensionMismatchError


def trace_inner_product(f, g) -> float:
    """Tr(FG), real for Hermitian inputs (tiny imaginary part discarded)."""
    f, g = op.as_complex(f), op.as_complex(g)
    op.require_same_dim(f, g)
    val = np.trace(f @ g)
    return float(val.real)


def hermitian_basis(dim: int) -> list[np.ndarray]:
    """Trace-orthonormal Hermitian basis: I/sqrt(dim) plus the generalized
    Gell-Mann family (symmetric, antisymmetric, then diagonal members, in a
    deterministic index order).

    Satisfies Tr(Q_i Q_n) = delta_in; len == dim**2.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    basis = [np.eye(dim, dtype=complex) / sqrt(dim)]
    for i in range(dim):
        for j in range(i + 1, dim):
            sym = np.zeros((dim, dim), dtype=complex)
            sym[i, j] = sym[j, i] = 1.0 / sqrt(2.0)
            basis.append(sym)
            asym = np.zeros((dim, dim), dtype=complex)
            asym[i, j] = -1j / sqrt(2.0)
            asym[j, i] = 1j / sqrt(2.0)
            basis.append(asym)
    for level in range(1, dim):
        diag = np.zeros(dim, dtype=complex)
        diag[:level] = 1.0
        diag[level] = -level
        basis.append(np.diag(diag) / sqrt(level * (level + 1)))
    return basis


def bloch_coordinates(a, basis: list[np.ndarray]) -> np.ndarray:
    """Coordinates q_i = Tr(A Q_i) in a trace-orthonormal basis."""
    a = op.as_complex(a)
    dim = a.shape[0]
    if len(basis) != dim * dim:
        raise DimensionMismatchError(
            f"basis has {len(basis)} elements, expected {dim * dim}")
    return np.array([trace_inner_product(a, q) for q in basis])


def random_hermitian(dim: int, rng) -> np.ndarray:
    """Unit-Frobenius-norm random Hermitian matrix (testing utility)."""
    x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = op.hermitize(x)
    return h / np.linalg.norm(h, ord="fro")


def variance(g, rho) -> float:
    """Tr(rho G^2) - Tr(rho G)^2 >= 0."""
    m = st._as_matrix(rho)
    g = op.as_complex(g)
    op.require_same_dim(g, m)
    return float(np.trace(m @ g @ g).real) - st.mean(g, rho) ** 2


def deviation(f, rho) -> np.ndarray:
    """Delta F = F - I Tr(rho F); satisfies Tr(rho Delta F) = 0."""
    m = st._as_matrix(rho)
    f = op.as_complex(f)
    op.require_same_dim(f, m)
    return f - np.eye(f.shape[0], dtype=complex) * np.trace(m @ f).real


def min_eigenvalue(rho) -> float:
    return float(np.linalg.eigvalsh(st._as_matrix(rho))[0])


def gibbs_seed(beta: float, h) -> st.StateOperator:
    """exp(-beta H)/Z, by ``states.gibbs_spectrum``."""
    _, w, vecs = st.gibbs_spectrum(-beta * op.require_hermitian(h, name="H"))
    return st.StateOperator((vecs * w) @ vecs.conj().T)


def is_dirac(mu) -> bool:
    """Whether the measure has a single support point."""
    return len(mu.support) == 1


def covariance_with_log(f, rho) -> float:
    """(F, ln rho) = Tr(F {Delta ln rho, rho}) in the entropy-regular form.

    Finite even when rho is singular; agrees with the direct formula
    Tr(rho {Delta F, Delta ln rho}) on full-rank states.
    """
    f = op.as_complex(f)
    op.require_same_dim(f, st._as_matrix(rho))
    b = st.rho_log_rho(rho)
    return 2.0 * (float(np.vdot(f, b).real) - float(np.trace(b).real) * st.mean(f, rho))


def log_variance(rho) -> float:
    """(ln rho, ln rho) = 2 [sum p (ln p)^2 - (sum p ln p)^2], always finite."""
    return st.regular_log_spectrum(st.matrix_and_spectrum(rho)[1].eigenvalues)[1]


def _reduced(m: np.ndarray, model: cp.CompositeModel, j: int,
             a: np.ndarray) -> np.ndarray:
    """Tr_{j'}((I(j) (x) rho(j')) a) for the one constituent j of the state
    matrix m."""
    cp._blocks(model, [j])
    kind = next(kind for kind in model._kinds if j in kind.members)
    gather = kind.gather[kind.members == j]
    return op.hermitize(cp._reduce(cp._marginals(m, gather)[1],
                                   cp._split(a, gather))[0])


def reduced_hamiltonian(rho, model: cp.CompositeModel, j: int) -> np.ndarray:
    """V(j) = Tr_{j'}((I(j) (x) rho(j')) H); for a separable constituent this
    is its private Hamiltonian shifted by the complement's mean energy."""
    return _reduced(st.matrix_and_spectrum(rho)[0], model, j, model.H)


def reduced_log(rho, model: cp.CompositeModel, j: int) -> np.ndarray:
    """W(j) = Tr_{j'}((I(j) (x) rho(j')) ln rho), defined on full-rank states.

    For an independent constituent this reduces to
    ln rho(j) - (sbar(j')/k) I.  Exact products of pure states carry no
    finite W(j); they are handled by the pure-product branch of the equation
    of motion.  Any other singular state raises (``composite.require_full_rank``).
    """
    cp.require_full_rank(rho, model)
    m, spec = st.matrix_and_spectrum(rho)
    return _reduced(m, model, j, st.spectral_log(spec))


def log_operator_kernel(rho, ops, log_op):
    """``sea.operator_log_kernel`` (K, g) at rho with the operators ``ops``,
    (n, d, d) or (..., n, d, d) per member of a stack, and the log column
    B = rho L of the log operator L."""
    rho = np.asarray(rho, dtype=complex)
    ops = np.asarray(ops, dtype=complex)
    n = ops.shape[-3]
    operands = np.empty((n + 1, *rho.shape), dtype=complex)
    operands[:n] = np.moveaxis(ops, -3, 0)
    operands[n] = log_op
    return sea.operator_log_kernel(rho, operands)


def kl_dissipator(jumps, rho) -> np.ndarray:
    """sum_j (A_j rho A_j+ - (1/2){A_j+ A_j, rho}), one jump at a time."""
    rho = np.asarray(rho, dtype=complex)
    out = np.zeros_like(rho)
    for a in jumps:
        ada = a.conj().T @ a
        out += a @ rho @ a.conj().T - 0.5 * (ada @ rho + rho @ ada)
    return out


def thinned(traj, k: int):
    """``traj`` with the samples of every k-th accepted step only: t = 0,
    each k-th step after it, and the last sample."""
    return replace(traj, samples=traj.samples[:-1:k] + traj.samples[-1:])
