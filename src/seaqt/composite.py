"""Composite-system equation of motion with per-constituent dissipators.

Each elementary constituent J contributes a factor-local dissipator: the
projection-form kernel of the single-constituent law (``sea.dissipator_kernel``)
evaluated on the reduced state rho(J), with the reduced log operator W(J)
as an ordinary first column, then the reduced Hamiltonian V(J) and J's own
generators.  W(J) = Tr_J'((I(J) (x) rho(J')) ln rho), V(J) likewise with H,
and rho(J), rho(J') all come from one reshape of rho into (J, rest) tensor
indices, so the dim x dim embedding I(J) (x) rho(J') is never formed.  The
full dissipative term is {D(J), rho(J)} (x) rho(J') summed over
constituents.

W(J) needs ln(rho) of the full composite state, which exists only for
full-rank rho.  Exact products of pure states branch to Hamiltonian-only
evolution; any other state with an eigenvalue below the log floor
``states.LOG_FLOOR`` raises ``SingularCompositeStateError`` (the documented
workflow is to mix with epsilon >= 1e-8 of the identity before
integrating).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import operators as op
from . import sea
from . import states as st
from .errors import (DimensionMismatchError, NonCommutingGeneratorError,
                     NonPositiveTauError, SingularCompositeStateError)
from .operators import UnitSystem
from .states import StateOperator

SEPARABILITY_TOL = 1e-10
INDEPENDENCE_TOL = 1e-8


@dataclass(frozen=True)
class Constituent:
    """One elementary constituent: factor dimension, generators on the factor
    space, and its relaxation time constant."""

    dim: int
    generators: tuple = ()
    tau: float = 1.0


@dataclass(frozen=True)
class CompositeModel:
    constituents: tuple
    H: np.ndarray
    units: UnitSystem = field(default_factory=UnitSystem)

    @property
    def dims(self) -> list[int]:
        return [c.dim for c in self.constituents]

    @property
    def dim(self) -> int:
        return int(np.prod(self.dims))

    def lifted_generator(self, j: int, x: np.ndarray) -> np.ndarray:
        return op.embed_factors({j: x}, self.dims)


def validate_model(model: CompositeModel) -> CompositeModel:
    """Dimensional consistency, Hermiticity, tau > 0, and commutation of every
    lifted generator with the composite Hamiltonian."""
    h = op.require_hermitian(model.H, name="H")
    dims = model.dims
    if int(np.prod(dims)) != h.shape[0]:
        raise DimensionMismatchError(
            f"H has dim {h.shape[0]} but factors give {int(np.prod(dims))}")
    scale = max(1.0, float(np.abs(h).max()))
    new_constituents = []
    for j, c in enumerate(model.constituents):
        if c.tau <= 0:
            raise NonPositiveTauError(f"constituent {j}: tau must be positive")
        gens = []
        for i, x in enumerate(c.generators):
            x = op.require_hermitian(x, name=f"constituent {j} generator {i}")
            if x.shape[0] != c.dim:
                raise DimensionMismatchError(
                    f"constituent {j} generator {i} has dim {x.shape[0]}, expected {c.dim}")
            lifted = op.embed_factors({j: x}, dims)
            defect = float(np.abs(op.commutator(lifted, h)).max())
            if defect > sea.COMMUTATION_TOL * scale:
                raise NonCommutingGeneratorError(
                    f"lifted generator {i} of constituent {j} does not commute "
                    f"with H (defect {defect:.3e})")
            gens.append(x)
        new_constituents.append(Constituent(c.dim, tuple(gens), c.tau))
    return CompositeModel(tuple(new_constituents), h, model.units)


def _split(a: np.ndarray, dims, j: int) -> np.ndarray:
    """Operator a as a (d_J, r, d_J, r) tensor: constituent j first, then
    the rest in order."""
    n = len(dims)
    t = np.moveaxis(a.reshape(list(dims) * 2), (j, n + j), (0, n))
    return t.reshape(dims[j], a.shape[0] // dims[j], dims[j], a.shape[0] // dims[j])


def _unsplit(t: np.ndarray, dims, j: int) -> np.ndarray:
    """Inverse of ``_split``."""
    n = len(dims)
    rest = [d for i, d in enumerate(dims) if i != j]
    t = t.reshape([dims[j], *rest, dims[j], *rest])
    size = int(np.prod(dims))
    return np.moveaxis(t, (0, n), (j, n + j)).reshape(size, size)


def _marginals(rho: StateOperator, dims, j: int):
    """rho(J) and rho(J') from one contraction of the split state."""
    t = _split(rho.matrix, dims, j)
    return st.as_state(np.einsum("arbr->ab", t)), np.einsum("aras->rs", t)


def _reduce(rest: np.ndarray, a: np.ndarray, dims, j: int) -> np.ndarray:
    """Tr_{J'}((I(J) (x) rho(J')) a) without forming the embedding."""
    return op.hermitize(np.einsum("rs,ascr->ac", rest, _split(a, dims, j)))


def _check_index(model: CompositeModel, j: int) -> None:
    if not 0 <= j < len(model.constituents):
        raise IndexError(f"constituent index {j} out of range")


def _require_full_rank(rho: StateOperator) -> None:
    """The documented domain of W(J): no eigenvalue below the log floor."""
    p_min = rho.spectral.eigenvalues[-1]
    if p_min < st.LOG_FLOOR:
        raise SingularCompositeStateError(
            f"composite state has eigenvalue {p_min:.3e} below the log floor "
            f"{st.LOG_FLOOR:g}; mix with identity (epsilon >= 1e-8) before use")


def reduced_state(rho, model: CompositeModel, j: int) -> StateOperator:
    """Reduced state operator of constituent j (partial trace over the rest)."""
    _check_index(model, j)
    return _marginals(st.as_state(rho), model.dims, j)[0]


def subsystem_state(rho, model: CompositeModel, indices) -> StateOperator:
    sub = op.partial_trace(st._as_matrix(rho), model.dims, keep=sorted(indices))
    return StateOperator(op.hermitize(sub))


def reduced_hamiltonian(rho, model: CompositeModel, j: int) -> np.ndarray:
    """V(j) = Tr_{j'}((I(j) (x) rho(j')) H); for a separable constituent this
    is its private Hamiltonian shifted by the complement's mean energy."""
    _check_index(model, j)
    _, rest = _marginals(st.as_state(rho), model.dims, j)
    return _reduce(rest, model.H, model.dims, j)


def reduced_log(rho, model: CompositeModel, j: int) -> np.ndarray:
    """W(j) = Tr_{j'}((I(j) (x) rho(j')) ln rho), defined on full-rank states.

    For an independent constituent this reduces to
    ln rho(j) - (sbar(j')/k) I.  Exact products of pure states carry no
    finite W(j); they are handled by the pure-product branch of the equation
    of motion, and calling this directly on one raises.
    """
    rho = st.as_state(rho)
    _require_full_rank(rho)
    _, rest = _marginals(rho, model.dims, j)
    return _reduce(rest, st.log_operator(rho), model.dims, j)


def is_pure_product(rho, model: CompositeModel, reduced=None) -> bool:
    """True when the state is (numerically exactly) a product of pure factor
    states: all spectral weight on one global eigenvector and every reduced
    state pure.  ``reduced`` passes reduced states already at hand."""
    rho = st.as_state(rho)
    if float(np.sum(rho.spectral.eigenvalues[1:])) > st.PURE_TOL:
        return False
    if reduced is None:
        reduced = [reduced_state(rho, model, j) for j in range(len(model.constituents))]
    return all(float(np.sum(sub.spectral.eigenvalues[1:])) <= st.PURE_TOL
               for sub in reduced)


def _factor_terms(rho, model: CompositeModel):
    """[({D(J), rho(J)}, g(J), rho(J'))] per constituent; None on pure products.

    A StateOperator is held to the documented full-rank domain.  A raw
    matrix is an integrator trial point, whose tiny eigenvalues step
    negative by O(dt^2): ln rho is then clamped at the log floor, a
    continuous extension off the state manifold.
    """
    strict = isinstance(rho, StateOperator)
    rho = st.as_state(rho)
    dims = model.dims
    marginals = [_marginals(rho, dims, j) for j in range(len(dims))]
    if is_pure_product(rho, model, [r for r, _ in marginals]):
        return None
    if strict:
        _require_full_rank(rho)
    log_full = st.log_operator(rho)
    terms = []
    for j, (c, (rho_j, rest)) in enumerate(zip(model.constituents, marginals)):
        ops = [_reduce(rest, log_full, dims, j), _reduce(rest, model.H, dims, j),
               *c.generators]
        # normalized reduced spectrum, scaled back: see sea._projection_form
        spec = rho_j.spectral
        total = float(spec.eigenvalues.sum())
        acomm, g = sea.dissipator_kernel(spec.eigenvalues / total, spec.eigenvectors, ops)
        terms.append((total * acomm, g, rest))
    return terms


def dissipative_term(rho, model: CompositeModel) -> np.ndarray:
    """Sum_J (tau(J)/hbar^2) {D(J), rho(J)} (x) rho(J') on the full space.

    Zero (exactly) on pure products; raises on other singular states.  A
    (..., d, d) stack is evaluated member by member.
    """
    m = st._as_matrix(rho)
    if m.ndim > 2:
        return np.stack([dissipative_term(x, model)
                         for x in m.reshape(-1, *m.shape[-2:])]).reshape(m.shape)
    terms = _factor_terms(rho, model)
    out = np.zeros((model.dim, model.dim), dtype=complex)
    if terms is None:
        return out
    dims = model.dims
    for j, (c, (acomm, _, rest)) in enumerate(zip(model.constituents, terms)):
        out += c.tau / model.units.hbar**2 * _unsplit(
            np.einsum("ab,rs->arbs", acomm, rest), dims, j)
    return out


def composite_rhs(rho, model: CompositeModel) -> np.ndarray:
    """d rho/dt = -(i/hbar)[H, rho] - sum_J (tau(J)/hbar^2) {D(J), rho(J)} (x) rho(J').

    A (..., d, d) stack is evaluated member by member, each member as a raw
    matrix (an integrator trial point).
    """
    hbar = model.units.hbar
    return -1j / hbar * op.commutator(model.H, st._as_matrix(rho)) \
        - dissipative_term(rho, model)


def composite_entropy_production(rho, model: CompositeModel):
    """Total rate sum_J k tau(J) g(J) / hbar^2 and the per-constituent g(J) >= 0."""
    terms = _factor_terms(rho, model)
    if terms is None:
        return 0.0, [0.0] * len(model.constituents)
    u = model.units
    per = [g for _, g, _ in terms]
    total = sum(u.k_B * c.tau * g / u.hbar**2
                for c, g in zip(model.constituents, per))
    return total, per


def entropy_rate_pairing(rho, model: CompositeModel) -> float:
    """-k Tr(composite_rhs ln rho) on full-rank states."""
    rho = st.as_state(rho)
    _require_full_rank(rho)
    rhs = composite_rhs(rho, model)
    return -model.units.k_B * float(np.trace(rhs @ st.log_operator(rho)).real)


# ---------------------------------------------------------------------------
# Partitions, separability, independence
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SubsystemPartition:
    """Disjoint index blocks covering all constituents."""

    blocks: tuple

    def __post_init__(self):
        seen = set()
        for block in self.blocks:
            for idx in block:
                if idx in seen:
                    raise ValueError(f"constituent {idx} appears in two blocks")
                seen.add(idx)

    def validate_for(self, model: CompositeModel) -> None:
        covered = sorted(i for block in self.blocks for i in block)
        if covered != list(range(len(model.constituents))):
            raise ValueError(
                f"partition {self.blocks} does not cover constituents "
                f"0..{len(model.constituents) - 1}")

    def complement(self, block) -> list:
        inside = set(block)
        all_idx = sorted(i for b in self.blocks for i in b)
        return [i for i in all_idx if i not in inside]


def bipartite_split(model: CompositeModel, block) -> tuple[list, list, list]:
    keep = sorted(block)
    rest = [i for i in range(len(model.constituents)) if i not in keep]
    if not keep or not rest:
        raise ValueError("split needs a proper nonempty subsystem")
    return keep, rest, model.dims


def separability_residual(model: CompositeModel, block) -> float:
    """Frobenius distance from H to its best additive split H(K) + H(K').

    The private part is extracted by normalized partial trace; the scalar
    offset ambiguity cancels in the residual.
    """
    if not block:
        raise ValueError("block must be nonempty")
    keep = sorted(block)
    rest = [i for i in range(len(model.constituents)) if i not in keep]
    dims = model.dims
    if not rest:
        return 0.0
    d_keep = int(np.prod([dims[i] for i in keep]))
    d_rest = int(np.prod([dims[i] for i in rest]))
    total_mean = float(np.trace(model.H).real) / (d_keep * d_rest)
    h_keep = op.partial_trace(model.H, dims, keep=keep) / d_rest \
        - total_mean * np.eye(d_keep)
    h_rest = op.partial_trace(model.H, dims, keep=rest) / d_keep
    split = op.tensor_interleave(h_keep, keep, np.eye(d_rest, dtype=complex), dims) \
        + op.tensor_interleave(np.eye(d_keep, dtype=complex), keep, h_rest, dims)
    return float(np.linalg.norm(model.H - split, ord="fro"))


def is_separable(model: CompositeModel, partition: SubsystemPartition, block) -> tuple[bool, float]:
    partition.validate_for(model)
    residual = separability_residual(model, block)
    scale = max(1.0, float(np.linalg.norm(model.H, ord="fro")))
    return residual <= SEPARABILITY_TOL * scale, residual


def private_hamiltonian(model: CompositeModel, block) -> np.ndarray:
    """H(K) from the normalized partial trace, with the composite trace offset
    assigned to the complement block."""
    keep = sorted(block)
    rest = [i for i in range(len(model.constituents)) if i not in keep]
    dims = model.dims
    d_keep = int(np.prod([dims[i] for i in keep]))
    d_rest = int(np.prod([dims[i] for i in rest])) if rest else 1
    total_mean = float(np.trace(model.H).real) / (d_keep * d_rest)
    return op.hermitize(op.partial_trace(model.H, dims, keep=keep) / d_rest
                        - total_mean * np.eye(d_keep))


def is_independent_state(rho, model: CompositeModel,
                         partition: SubsystemPartition, block) -> tuple[bool, float]:
    """True when rho factors as rho(K) (x) rho(K') across the split."""
    partition.validate_for(model)
    keep = sorted(block)
    rest = [i for i in range(len(model.constituents)) if i not in keep]
    m = st._as_matrix(rho)
    rho_k = op.partial_trace(m, model.dims, keep=keep)
    rho_rest = op.partial_trace(m, model.dims, keep=rest)
    product = op.tensor_interleave(rho_k, keep, rho_rest, model.dims)
    dist = float(np.linalg.norm(m - product, ord="fro"))
    return dist <= INDEPENDENCE_TOL, dist


def reduced_rhs(rho, model: CompositeModel, partition: SubsystemPartition,
                block) -> np.ndarray:
    """Reduced equation of motion for subsystem K: partial trace of the
    Hamiltonian term plus the dissipative terms of K's own constituents,
    each embedded against the reduced state of the rest of K."""
    partition.validate_for(model)
    keep = sorted(block)
    m = st._as_matrix(rho)
    dims = model.dims
    hbar = model.units.hbar
    out = -1j / hbar * op.partial_trace(op.commutator(model.H, m), dims, keep=keep)
    terms = _factor_terms(rho, model)
    if terms is None:
        return out
    dims_k = [dims[i] for i in keep]
    for local_pos, j in enumerate(keep):
        others = [i for i in keep if i != j]
        rest_k = op.partial_trace(m, dims, keep=others) if others else np.ones((1, 1))
        term = np.einsum("ab,rs->arbs", terms[j][0], rest_k)
        out = out - model.constituents[j].tau / hbar**2 * _unsplit(term, dims_k, local_pos)
    return out


def composite_constant_check(c, model: CompositeModel,
                             tol: float = sea.SPAN_RESIDUAL_TOL) -> sea.ConstantReport:
    """C is a constant of the motion iff [C, H] = 0 and C lies in the span of
    {I, H, lifted generators} under the trace inner product."""
    lifted = [model.lifted_generator(j, x)
              for j, constituent in enumerate(model.constituents)
              for x in constituent.generators]
    return sea.span_check(c, model.H, lifted, tol)
