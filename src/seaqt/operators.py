"""Dense Hermitian-operator algebra on finite-dimensional Hilbert spaces.

Everything here operates on plain complex numpy arrays.  Matrices are
dense; the target scale is a handful of qubits (total dimension <= 64),
where determinant-based dissipators dominate the cost and sparsity buys
nothing.

This bottom layer also holds the tolerance table: each threshold, floor,
margin and iteration cap that decides an outcome, with the one rule that
reads it and its scale.  A rejecting test is written so that NaN fails it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, NonCommutingGeneratorError, NotHermitianError

# The tolerance table.  Scales: "abs." absolute, "rel." relative to what follows.
HERMITICITY_TOL = 1e-12        # require_hermitian: rejects above; |A - A+|max rel. max(1,|A|max)
COMMUTATION_TOL = 1e-10        # commutation_check: max|[X, H]| above fails; rel. max(1, |H|max)
EIG_CLAMP_FLOOR = -1e-10       # states: eigenvalues in [floor, 0) clamp to 0, below reject; abs.
TRACE_TOL = 1e-6               # states: |Tr - 1| beyond it rejects, within renormalizes; abs.
LOG_ZERO_CUTOFF = 1e-15        # states: p <= cutoff sets p ln p and p (ln p)^2 to 0; abs.
LOG_FLOOR = 1e-12              # states.is_singular: p_min below; log_operator clamps here; abs.
PURE_TOL = 1e-10               # states.is_pure: weight off the top eigenvalue; abs., < MIX_FLOOR
MIX_FLOOR = 1e-8               # least eps of mix_with_identity: then neither pure nor singular
RANDOM_MIN_EIG = 1e-4          # states.random_full_rank: default smallest eigenvalue; abs.
GRAM_CONDITION_WARN = 1e8      # sea.validate_model: Gram condition number at I/d above it warns
EQUILIBRIUM_TOL = 1e-9         # sea.is_equilibrium: ||[rho, A]||_F; rel. max(1, ||A||_F)
EQUILIBRIUM_FIT_FACTOR = 1e3   # sea.is_equilibrium: ln p fit residual up to it x EQUILIBRIUM_TOL
SEPARABILITY_TOL = 1e-10       # composite.is_separable: split residual; rel. max(1, ||H||_F)
INDEPENDENCE_TOL = 1e-8        # composite.is_independent_state: distance to the product; abs.
RANK_TOL = 1e-10               # equilibrium.constant_set: singular values up to it are 0; abs.
FEASIBILITY_MARGIN = 1e-9      # equilibrium: a target this near a range edge is on it; abs.
EIGENSPACE_TOL = 1e-9          # equilibrium: eigenvalues near a pinned edge e; rel. max(1, |e|)
MEAN_RESIDUAL_TOL = 1e-10      # equilibrium.solve_multipliers: ||means - targets|| met; abs.
MAX_NEWTON_ITERATIONS = 200    # equilibrium.solve_multipliers: iterates, then NoConvergenceError
HESSIAN_REG = 1e-12            # equilibrium.solve_multipliers: Hessian ridge; rel. Tr(Hessian)
MAX_LINE_SEARCH_HALVINGS = 60  # equilibrium.solve_multipliers: step halvings per iterate
PHI_ROUNDOFF = 4 * np.finfo(float).eps  # solve_multipliers: dual round-off; rel. max(1, |phi|)
STABLE_ENTROPY_TOL = 1e-8      # equilibrium.classify: entropy shortfall of a stable one; abs.
MERGE_TOL = 1e-9               # ensemble.measure: support states this near merge; abs. Frobenius
WEIGHT_SUM_TOL = 1e-10         # ensemble.measure: |sum w - 1| beyond it rejects; abs.
RANGE_MARGIN = 1e-12           # ensemble maxent: a target lies this far inside its range; abs.
TARGET_TOL = 1e-10             # ensemble maxent: |sum q v - target| beyond it rejects; abs.
EQUAL_VALUES_TOL = 1e-15       # ensemble maxent: values spread less than it are equal; abs.
TIME_SLOP = 1e-15              # integrate: a time this near t_max or a grid time is at it; abs.
DT_MIN_SLACK = 1 + 1e-12       # integrate: a rejected step at dt <= dt_min x slack underflows
FSAL_MOVE_TOL = 1e-12          # integrate: a projection move up to it keeps FSAL; rel. ||rho||_F


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
    h = a + a.conj().swapaxes(-1, -2)
    h *= 0.5   # in place: one temporary fewer on the rhs path
    return h


def plus_adjoint(a: np.ndarray) -> np.ndarray:
    """A + A^dagger, per member of a (..., d, d) stack."""
    return a + a.conj().swapaxes(-1, -2)


def herm_defect(a: np.ndarray) -> float:
    """Relative max-norm deviation ||A - A†||_max / max(1, ||A||_max)."""
    a = as_complex(a)
    scale = max(1.0, float(np.abs(a).max(initial=0.0)))
    return float(np.abs(a - a.conj().T).max(initial=0.0)) / scale


def require_hermitian(a, name: str = "operator") -> np.ndarray:
    """Return the symmetrized matrix, rejecting input that is not square,
    has a non-finite entry, or whose ``herm_defect`` is not within
    HERMITICITY_TOL."""
    a = as_complex(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NotHermitianError(f"{name} must be a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise NotHermitianError(f"{name} has a non-finite entry")
    if not herm_defect(a) <= HERMITICITY_TOL:
        raise NotHermitianError(
            f"{name} is not Hermitian within tolerance {HERMITICITY_TOL:g}")
    return hermitize(a)


def require_same_dim(a: np.ndarray, b: np.ndarray) -> None:
    """The last two axes (the matrix shape) agree; leading stack axes are
    left to broadcasting."""
    if a.shape[-2:] != b.shape[-2:]:
        raise DimensionMismatchError(f"dimension mismatch: {a.shape} vs {b.shape}")


def centred(a: np.ndarray) -> np.ndarray:
    """Each (..., d, d) complex matrix of ``a`` less its trace mean on the
    diagonal, F - (Tr F / d) I, in place: the operands of the SEA kernel and
    of the Hamiltonian term, which no such shift changes."""
    diag = np.arange(a.shape[-1])
    a[..., diag, diag] -= a[..., diag, diag].real.mean(axis=-1, keepdims=True)
    return a


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


def require_commuting(x, h, name: str) -> None:
    """The one admission rule for an operator ``name`` declared conserved:
    ``NonCommutingGeneratorError`` unless ``commutation_check(x, h)`` passes."""
    commutes, defect = commutation_check(x, h)
    if not commutes:
        raise NonCommutingGeneratorError(
            f"{name} does not commute with H (defect {defect:.3e})")


def frobenius_norm(a) -> float:
    return float(np.linalg.norm(as_complex(a), ord="fro"))


def frobenius_norms(x: np.ndarray) -> np.ndarray:
    """Frobenius norm of each member of a (..., d, d) stack, bit for bit
    ``np.linalg.norm`` of that member."""
    f = x.reshape(*x.shape[:-2], -1)
    return np.sqrt(np.vecdot(f.real, f.real) + np.vecdot(f.imag, f.imag))


def least_squares(a, b):
    """Minimum-norm least-squares solution of a x = b.  Singular values
    below max(a.shape) eps s_max count as zero, the cutoff of numpy's
    ``lstsq(rcond=None)``."""
    return np.linalg.pinv(a, rcond=max(a.shape) * np.finfo(float).eps) @ b


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
