"""Composite-system equation of motion with per-constituent dissipators.

Each elementary constituent J contributes a factor-local dissipator: the
projection-form kernel of the single-constituent law (``sea.dissipator_kernel``)
evaluated on the reduced state rho(J), with the reduced log operator W(J)
as an ordinary first column, then the reduced Hamiltonian V(J) and J's own
generators.  W(J) = Tr_J'((I(J) (x) rho(J')) ln rho), and V(J) likewise
with H.  The full dissipative term is the sum over constituents of
(tau(J)/hbar^2) {D(J), rho(J)} (x) rho(J').

The constituents are evaluated in one stacked pass per kind, a kind being
a (factor dim, generator count) pair (a model of identical constituents is
one kind), over every member of a (..., dim, dim) state stack at once.  A
gather map, cached per tuple of kinds, splits any operator into (..., k, r,
r, d_J, d_J) tensors for the kind's k constituents (the rest's indices,
then J's) with one fancy index.  Contractions of the split rho give every
rho(J) and rho(J'), and of the split ln rho and H every W(J) and V(J), so
the dim x dim embedding I(J) (x) rho(J') is never formed.  One stacked eigh
decomposes the reduced states, one kernel call takes the operators (..., k,
n, d_J, d_J), and the inverse gather puts every {D(J), rho(J)} (x) rho(J')
back in the full space.

W(J) needs ln(rho) of the full composite state, which exists only for
full-rank rho.  Exact products of pure states get an exact-zero
dissipator, member by member; any other StateOperator with an eigenvalue
below the log floor ``states.LOG_FLOOR`` raises ``SingularCompositeStateError``
naming the member (the documented workflow is to mix with epsilon >= 1e-8
of the identity before integrating).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

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
    new_constituents = []
    for j, c in enumerate(model.constituents):
        if not c.tau > 0:
            raise NonPositiveTauError(f"constituent {j}: tau must be positive")
        gens = []
        for i, x in enumerate(c.generators):
            x = op.require_hermitian(x, name=f"constituent {j} generator {i}")
            if x.shape[0] != c.dim:
                raise DimensionMismatchError(
                    f"constituent {j} generator {i} has dim {x.shape[0]}, expected {c.dim}")
            commutes, defect = op.commutation_check(op.embed_factors({j: x}, dims), h)
            if not commutes:
                raise NonCommutingGeneratorError(
                    f"lifted generator {i} of constituent {j} does not commute "
                    f"with H (defect {defect:.3e})")
            gens.append(x)
        new_constituents.append(Constituent(c.dim, tuple(gens), c.tau))
    return CompositeModel(tuple(new_constituents), h, model.units)


class _Kind(NamedTuple):
    """The constituents of one (factor dim, generator count) kind, with their
    index maps into a flattened dim x dim operator."""

    n_gen: int
    members: np.ndarray   # the k constituent indices, ascending
    gather: np.ndarray    # (k, r, r, d_J, d_J): a.ravel()[gather] splits a
    scatter: np.ndarray   # (k, dim^2): t.ravel()[scatter] puts each member of
                          # a split (k, r, r, d_J, d_J) stack t back in place


@lru_cache(maxsize=32)   # a process meets a handful of layouts
def _index_maps(kinds: tuple) -> tuple[_Kind, ...]:
    """The index maps of constituents with (factor dim, generator count)
    pairs ``kinds``: one ``_Kind`` per distinct pair, in order of first
    appearance.

    Constituent J's gather map is the array of flat indices split by
    ``operators.split_factors`` with J kept.  A pure function of the tuple,
    cached: a model's maps are built once, and the frozen model is left as
    it is.
    """
    dims = [d for d, _ in kinds]
    size = int(np.prod(dims))
    index = np.arange(size * size).reshape(size, size)
    split = [op.split_factors(index, dims, [j]) for j in range(len(dims))]
    out = []
    for kind in dict.fromkeys(kinds):
        members = np.array([j for j, other in enumerate(kinds) if other == kind])
        gather = np.stack([split[j] for j in members])
        # each member's inverse permutation, offset to its row of the stack
        scatter = np.argsort(gather.reshape(len(members), -1), axis=1) \
            + size * size * np.arange(len(members))[:, None]
        for a in (members, gather, scatter):
            a.flags.writeable = False
        out.append(_Kind(kind[1], members, gather, scatter))
    return tuple(out)


def _maps(model: CompositeModel):
    return _index_maps(tuple((c.dim, len(c.generators)) for c in model.constituents))


def _marginals(m: np.ndarray, gather: np.ndarray):
    """rho(J) and rho(J') of the state matrix m, or of each member of a
    stack, for each constituent of a kind's (k, r, r, d_J, d_J) gather map."""
    t = m.reshape(*m.shape[:-2], -1).take(gather, axis=-1)
    return np.einsum("...ssab->...ab", t), np.einsum("...staa->...st", t)


def _reduce(rest: np.ndarray, a: np.ndarray, gather: np.ndarray) -> np.ndarray:
    """Tr_{J'}((I(J) (x) rho(J')) a) for each constituent of a kind's gather
    map, as (..., k, d_J, d_J): the split a, shared or one per member of a
    stack, contracted with rho(J') by one matmul, without the embedding."""
    *lead, r, _ = rest.shape
    d = gather.shape[-1]
    t = a.reshape(*a.shape[:-2], -1).take(gather.reshape(-1, r * r, d * d), axis=-1)
    return (rest.swapaxes(-1, -2).reshape(*lead, 1, r * r) @ t).reshape(*lead, d, d)


def _reduced(rho: StateOperator, model: CompositeModel, j: int,
             a: np.ndarray) -> np.ndarray:
    """Tr_{j'}((I(j) (x) rho(j')) a) for the one constituent j."""
    _blocks(model, [j])
    kind = next(kind for kind in _maps(model) if j in kind.members)
    gather = kind.gather[kind.members == j]
    return op.hermitize(_reduce(_marginals(rho.matrix, gather)[1], a, gather)[0])


def _require_full_rank(rho: StateOperator, exempt=False) -> None:
    """The documented domain of W(J): no eigenvalue below the log floor, in
    each member of a stack that the mask ``exempt`` does not flag."""
    p_min = rho.spectral.eigenvalues[..., -1]
    st._raise_for((p_min < st.LOG_FLOOR) & np.logical_not(exempt), p_min,
                  SingularCompositeStateError,
                  "composite state has eigenvalue {:.3e} below the log floor "
                  f"{st.LOG_FLOOR:g}; mix with identity (epsilon >= 1e-8) before use")


def reduced_state(rho, model: CompositeModel, j: int) -> StateOperator:
    """Reduced state operator of constituent j (partial trace over the rest)."""
    return subsystem_state(rho, model, [j])


def subsystem_state(rho, model: CompositeModel, indices) -> StateOperator:
    sub = op.partial_trace(st._as_matrix(rho), model.dims, keep=sorted(indices))
    return StateOperator(op.hermitize(sub))


def reduced_hamiltonian(rho, model: CompositeModel, j: int) -> np.ndarray:
    """V(j) = Tr_{j'}((I(j) (x) rho(j')) H); for a separable constituent this
    is its private Hamiltonian shifted by the complement's mean energy."""
    return _reduced(st.as_state(rho), model, j, model.H)


def reduced_log(rho, model: CompositeModel, j: int) -> np.ndarray:
    """W(j) = Tr_{j'}((I(j) (x) rho(j')) ln rho), defined on full-rank states.

    For an independent constituent this reduces to
    ln rho(j) - (sbar(j')/k) I.  Exact products of pure states carry no
    finite W(j); they are handled by the pure-product branch of the equation
    of motion, and calling this directly on one raises.
    """
    rho = st.as_state(rho)
    _require_full_rank(rho)
    return _reduced(rho, model, j, st.log_operator(rho))


def is_pure_product(rho, model: CompositeModel, reduced=None):
    """Whether the state is (numerically exactly) a product of pure factor
    states: all spectral weight on one global eigenvector and every reduced
    state pure.  A bool, or a mask over the members of a stack.  ``reduced``
    passes the reduced states already at hand, one per kind."""
    rho = st.as_state(rho)
    pure = st.is_pure(rho.spectral.eigenvalues)
    if np.count_nonzero(pure):
        if reduced is None:
            reduced = [st.as_state(_marginals(rho.matrix, kind.gather)[0])
                       for kind in _maps(model)]
        for sub in reduced:
            pure = pure & st.is_pure(sub.spectral.eigenvalues).all(axis=-1)
    return bool(pure) if pure.ndim == 0 else pure


def _factor_terms(rho, model: CompositeModel):
    """[(kind, {D(J), rho(J)}, g(J), rho(J'))] per kind, each stacked over
    the members of a state stack and the kind's k members; exact zeros for
    a member that is a pure product, and empty when every member is one.

    One pass per kind: the kind's gather map splits rho, ln rho and H for
    all k members at once, contractions reduce them to every rho(J),
    rho(J'), W(J) and V(J), one stacked eigh gives the reduced spectra and
    one kernel call the dissipators, from per-member operators
    (..., k, n, d_J, d_J).

    A StateOperator is held to the documented full-rank domain, member by
    member.  A raw matrix is an integrator trial point, whose tiny
    eigenvalues step negative by O(dt^2): ln rho is then clamped at the log
    floor, a continuous extension off the state manifold.
    """
    strict = isinstance(rho, StateOperator)
    rho = st.as_state(rho)
    kinds = _maps(model)
    marginals = [_marginals(rho.matrix, kind.gather) for kind in kinds]
    reduced = [st.as_state(rho_j) for rho_j, _ in marginals]
    pure = is_pure_product(rho, model, reduced)
    if np.count_nonzero(pure) == np.size(pure):
        return []
    if strict:
        _require_full_rank(rho, pure)
    log_full = st.log_operator(rho)
    terms = []
    for kind, rho_j, (_, rest) in zip(kinds, reduced, marginals):
        k, d = len(kind.members), kind.gather.shape[-1]
        ops = np.empty((*rest.shape[:-2], 2 + kind.n_gen, d, d), dtype=complex)
        ops[..., 0, :, :] = _reduce(rest, log_full, kind.gather)
        ops[..., 1, :, :] = _reduce(rest, model.H, kind.gather)
        ops[..., 2:, :, :] = np.reshape([model.constituents[j].generators
                                         for j in kind.members], (k, kind.n_gen, d, d))
        # normalized reduced spectra, scaled back: see sea._projection_form
        spec = rho_j.spectral
        total = spec.eigenvalues.sum(axis=-1)
        acomm, g = sea.dissipator_kernel(spec.eigenvalues / total[..., None],
                                         spec.eigenvectors, op.hermitize(ops))
        acomm[pure], g[pure] = 0.0, 0.0
        terms.append((kind, total[..., None, None] * acomm, g, rest))
    return terms


def _embed(terms, weights: np.ndarray, shape) -> np.ndarray:
    """sum_J weights[J] {D(J), rho(J)} (x) rho(J') on the full space, for
    the state or stack of ``shape``: per kind, one broadcast product forms
    the split tensors and the inverse gather puts them back."""
    *lead, dim, _ = shape
    out = np.zeros((*lead, dim * dim), dtype=complex)
    for kind, acomm, _, rest in terms:
        k, r = rest.shape[-3:-1]
        scaled = weights[kind.members, None, None] * acomm
        t = rest.reshape(*lead, k, r * r, 1) * scaled.reshape(*lead, k, 1, -1)
        out += t.reshape(*lead, -1).take(kind.scatter, axis=-1).sum(axis=-2)
    return out.reshape(shape)


def dissipative_term(rho, model: CompositeModel) -> np.ndarray:
    """Sum_J (tau(J)/hbar^2) {D(J), rho(J)} (x) rho(J') on the full space,
    per member of a (..., d, d) stack.  Zero (exactly) on pure products;
    raises on other singular StateOperators."""
    taus = np.array([c.tau for c in model.constituents])
    return _embed(_factor_terms(rho, model), taus / model.units.hbar**2,
                  st._as_matrix(rho).shape)


def composite_rhs(rho, model: CompositeModel) -> np.ndarray:
    """d rho/dt = -(i/hbar)[H, rho] - sum_J (tau(J)/hbar^2) {D(J), rho(J)} (x) rho(J').

    ``rho`` is one state or a (..., d, d) stack of them, evaluated member by
    member in one pass, each member as a raw matrix (an integrator trial
    point) or, in a StateOperator, held to the full-rank domain.
    """
    hbar = model.units.hbar
    return -1j / hbar * op.commutator(model.H, st._as_matrix(rho)) \
        - dissipative_term(rho, model)


def composite_entropy_production(rho, model: CompositeModel):
    """Total rate sum_J k tau(J) g(J) / hbar^2 and the per-constituent g(J) >= 0;
    for a (..., d, d) stack, arrays (...) and (..., n) instead of a float and a list."""
    per = np.zeros((*st._as_matrix(rho).shape[:-2], len(model.constituents)))
    for kind, _, g, _ in _factor_terms(rho, model):
        per[..., kind.members] = g
    u = model.units
    total = sum(u.k_B * c.tau * per[..., j] / u.hbar**2
                for j, c in enumerate(model.constituents))
    return (total, per) if per.ndim > 1 else (total, list(per))


def entropy_rate_pairing(rho, model: CompositeModel) -> float:
    """-k Tr(composite_rhs ln rho) on full-rank states."""
    rho = st.as_state(rho)
    _require_full_rank(rho)
    rhs = composite_rhs(rho, model)
    return -model.units.k_B * float(np.trace(rhs @ st.log_operator(rho)).real)


# ---------------------------------------------------------------------------
# Subsystems: a block K of constituents against the rest K', its complement.
# An empty K raises ValueError, an index out of range DimensionMismatchError.
# ---------------------------------------------------------------------------

def _blocks(model: CompositeModel, block) -> tuple[list, list]:
    """The constituents of ``block`` K and those of the rest K', each
    ascending; K is checked as ``operators.partial_trace`` checks ``keep``."""
    keep = op._kept_factors(block, len(model.constituents))
    return keep, [i for i in range(len(model.constituents)) if i not in keep]


def separability_residual(model: CompositeModel, block) -> float:
    """Frobenius distance from H to its best additive split H(K) + H(K').

    Each private part, from ``private_hamiltonian``, has the offset
    Tr(H)/dim taken out; the split adds it back once.
    """
    keep, rest = _blocks(model, block)
    if not rest:
        return 0.0
    h_keep, h_rest = private_hamiltonian(model, keep), private_hamiltonian(model, rest)
    offset = float(np.trace(model.H).real) / model.dim
    split = op.tensor_interleave(h_keep, keep, np.eye(len(h_rest)), model.dims) \
        + op.tensor_interleave(np.eye(len(h_keep)), keep, h_rest, model.dims) \
        + offset * np.eye(model.dim)
    return float(np.linalg.norm(model.H - split, ord="fro"))


def is_separable(model: CompositeModel, block) -> tuple[bool, float]:
    """Whether H splits additively as H(K) + H(K') across the cut between
    ``block`` K and the rest, with the residual of the best split."""
    residual = separability_residual(model, block)
    scale = max(1.0, float(np.linalg.norm(model.H, ord="fro")))
    return residual <= SEPARABILITY_TOL * scale, residual


def private_hamiltonian(model: CompositeModel, block) -> np.ndarray:
    """H(K) from the normalized partial trace, with the composite trace offset
    assigned to the complement block."""
    h_keep = op.partial_trace(model.H, model.dims, keep=sorted(block))
    d_keep = len(h_keep)
    offset = float(np.trace(model.H).real) / model.dim
    return op.hermitize(h_keep / (model.dim // d_keep) - offset * np.eye(d_keep))


def is_independent_state(rho, model: CompositeModel, block) -> tuple[bool, float]:
    """True when rho factors as rho(K) (x) rho(K') across the cut between
    ``block`` K and the rest, with the Frobenius distance to that product."""
    keep, rest = _blocks(model, block)
    product = op.tensor_interleave(subsystem_state(rho, model, keep).matrix, keep,
                                   subsystem_state(rho, model, rest).matrix, model.dims)
    dist = float(np.linalg.norm(st._as_matrix(rho) - product, ord="fro"))
    return dist <= INDEPENDENCE_TOL, dist


def reduced_rhs(rho, model: CompositeModel, block) -> np.ndarray:
    """Reduced equation of motion for subsystem ``block`` K: the partial
    trace over the rest K' of the Hamiltonian term and of the dissipative
    terms of K's own constituents, which leaves each {D(J), rho(J)} of K
    embedded against the reduced state of the rest of K."""
    keep, _ = _blocks(model, block)
    hbar = model.units.hbar
    out = -1j / hbar * op.commutator(model.H, st._as_matrix(rho))
    weights = np.array([c.tau if j in keep else 0.0
                        for j, c in enumerate(model.constituents)])
    out = out - _embed(_factor_terms(rho, model), weights / hbar**2, out.shape)
    return op.partial_trace(out, model.dims, keep=keep)


def composite_constant_check(c, model: CompositeModel) -> sea.ConstantReport:
    """C is a constant of the motion iff [C, H] = 0 and C lies in the span of
    {I, H, lifted generators} under the trace inner product."""
    lifted = [model.lifted_generator(j, x)
              for j, constituent in enumerate(model.constituents)
              for x in constituent.generators]
    return sea.span_check(c, model.H, lifted)
