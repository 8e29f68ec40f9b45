"""Dense Hermitian-operator algebra on finite-dimensional Hilbert spaces.

Everything here operates on plain complex numpy arrays.  Matrices are
dense; the target scale is a handful of qubits (total dimension <= 64),
where determinant-based dissipators dominate the cost and sparsity buys
nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from .errors import DimensionMismatchError, NotHermitianError

HERMITICITY_TOL = 1e-12
COMMUTATION_TOL = 1e-10       # relative, against max(1, ||H||_max)


@dataclass(frozen=True)
class UnitSystem:
    """Physical constants: hbar (action), k_B (entropy), c_stat (uncertainty).

    The source theory never fixes numerical values, so all default to 1.
    """

    hbar: float = 1.0
    k_B: float = 1.0
    c_stat: float = 1.0

    def __post_init__(self):
        if not (self.hbar > 0 and self.k_B > 0 and self.c_stat > 0):
            raise ValueError("unit constants must be strictly positive")


def as_complex(a) -> np.ndarray:
    return np.asarray(a, dtype=complex)


def hermitize(a: np.ndarray) -> np.ndarray:
    """Symmetrize (A + A†)/2, suppressing round-off asymmetry."""
    a = as_complex(a)
    return 0.5 * (a + a.conj().swapaxes(-1, -2))


def herm_defect(a: np.ndarray) -> float:
    """Relative max-norm deviation ||A - A†||_max / max(1, ||A||_max)."""
    a = as_complex(a)
    scale = max(1.0, float(np.abs(a).max(initial=0.0)))
    return float(np.abs(a - a.conj().T).max(initial=0.0)) / scale


def require_hermitian(a, name: str = "operator") -> np.ndarray:
    """Return the symmetrized matrix, rejecting input whose ``herm_defect``
    exceeds HERMITICITY_TOL."""
    a = as_complex(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NotHermitianError(f"{name} must be a square matrix, got shape {a.shape}")
    if herm_defect(a) > HERMITICITY_TOL:
        raise NotHermitianError(
            f"{name} is not Hermitian within tolerance {HERMITICITY_TOL:g}")
    return hermitize(a)


def require_same_dim(a: np.ndarray, b: np.ndarray) -> None:
    """The last two axes (the matrix shape) agree; leading stack axes are
    left to broadcasting."""
    if a.shape[-2:] != b.shape[-2:]:
        raise DimensionMismatchError(f"dimension mismatch: {a.shape} vs {b.shape}")


def commutator(a, b) -> np.ndarray:
    """[A, B] = AB - BA; anti-Hermitian for Hermitian inputs."""
    a, b = as_complex(a), as_complex(b)
    require_same_dim(a, b)
    return a @ b - b @ a


def commutation_check(x, h) -> tuple[bool, float]:
    """The one test of [X, H] = 0: (commutes, defect), with the defect
    max|[X, H]| held to COMMUTATION_TOL max(1, ||H||_max).  Shapes are
    checked as by ``commutator``."""
    defect = float(np.abs(commutator(x, h)).max())
    return defect <= COMMUTATION_TOL * max(1.0, float(np.abs(h).max())), defect


def anticommutator(a, b) -> np.ndarray:
    """{A, B} = AB + BA; Hermitian for Hermitian inputs."""
    a, b = as_complex(a), as_complex(b)
    require_same_dim(a, b)
    return a @ b + b @ a


def trace_inner_product(f, g) -> float:
    """Tr(FG), real for Hermitian inputs (tiny imaginary part discarded)."""
    f, g = as_complex(f), as_complex(g)
    require_same_dim(f, g)
    val = np.trace(f @ g)
    return float(val.real)


def frobenius_norm(a) -> float:
    return float(np.linalg.norm(as_complex(a), ord="fro"))


def least_squares(a, b):
    """Minimum-norm least-squares solution of a x = b.  Singular values
    below max(a.shape) eps s_max count as zero, the cutoff of numpy's
    ``lstsq(rcond=None)``."""
    return np.linalg.pinv(a, rcond=max(a.shape) * np.finfo(float).eps) @ b


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
    a = as_complex(a)
    dim = a.shape[0]
    if len(basis) != dim * dim:
        raise DimensionMismatchError(
            f"basis has {len(basis)} elements, expected {dim * dim}")
    return np.array([trace_inner_product(a, q) for q in basis])


def kron(a, b) -> np.ndarray:
    """Tensor product on the direct-product Hilbert space."""
    return np.kron(as_complex(a), as_complex(b))


def kron_all(ops) -> np.ndarray:
    out = as_complex(ops[0])
    for op in ops[1:]:
        out = np.kron(out, as_complex(op))
    return out


def split_factors(a: np.ndarray, dims, keep) -> np.ndarray:
    """A (D, D) operator on tensor factors ``dims`` as a (r, r, k, k) array:
    entry [s, t, a, b] is row (a, s), column (b, t), with a, b the indices
    of the factors in ``keep`` and s, t those of the rest, each in tensor
    order (leftmost factor slowest).  The one layout of the factors."""
    n, keep = len(dims), sorted(keep)
    rest = [i for i in range(n) if i not in keep]
    k = int(np.prod([dims[i] for i in keep]))
    r = len(a) // k
    axes = rest + [n + i for i in rest] + keep + [n + i for i in keep]
    return np.asarray(a).reshape(list(dims) * 2).transpose(axes).reshape(r, r, k, k)


def partial_trace(a, dims, keep) -> np.ndarray:
    """Trace out every tensor factor not listed in ``keep``.

    ``dims`` lists the factor dimensions in tensor order (leftmost factor is
    the slowest-varying index); ``keep`` is an iterable of factor indices.
    """
    a = as_complex(a)
    dims = list(dims)
    total = int(np.prod(dims))
    if a.shape != (total, total):
        raise DimensionMismatchError(
            f"matrix of shape {a.shape} inconsistent with factor dims {dims}")
    keep = _kept_factors(keep, len(dims))
    return np.einsum("ssab->ab", split_factors(a, dims, keep))


def _kept_factors(keep, n_factors: int) -> list[int]:
    """``keep`` ascending without repeats; empty or out of range raises."""
    keep = sorted(set(keep))
    if not keep:
        raise ValueError("keep must be nonempty")
    if keep[0] < 0 or keep[-1] >= n_factors:
        raise DimensionMismatchError(f"keep indices {keep} out of range for {n_factors} factors")
    return keep


def embed_factors(ops_by_position: dict[int, np.ndarray], dims) -> np.ndarray:
    """Operator acting as ops_by_position[j] on factor j and identity elsewhere."""
    factors = []
    for j, d in enumerate(dims):
        factors.append(as_complex(ops_by_position[j]) if j in ops_by_position
                       else np.eye(d, dtype=complex))
    return kron_all(factors)


def tensor_interleave(op_a: np.ndarray, positions_a, op_b: np.ndarray, dims) -> np.ndarray:
    """Combine an operator on factors ``positions_a`` with one on the
    complementary factors, restoring the original tensor order.

    ``op_a`` acts on the factors listed in ``positions_a`` (in ascending
    order); ``op_b`` acts on the remaining factors (also in ascending order).
    """
    total = int(np.prod(list(dims)))
    index = split_factors(np.arange(total * total).reshape(total, total), dims, positions_a)
    out = np.empty(total * total, dtype=complex)
    # entries op_a[a, b] op_b[s, t], multiplied in np.kron's operand order
    out[index] = np.multiply.outer(as_complex(op_a), as_complex(op_b)).transpose(2, 3, 0, 1)
    return out.reshape(total, total)
