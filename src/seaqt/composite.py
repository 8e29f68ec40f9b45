"""Composite-system equation of motion with per-constituent dissipators.

Each elementary constituent J contributes a factor-local dissipator: the
projection form of the single-constituent law evaluated on the reduced
state rho(J), with the reduced Hamiltonian V(J) and J's own generators as
the operators and the reduced log operator W(J) as the log column, B(J) =
rho(J) W(J) (``sea.operator_log_kernel``: the single system's covariance
body and Cramer step, ``sea.dissipator_kernel``).
W(J) = Tr_J'((I(J) (x) rho(J')) ln rho), and V(J) likewise with H.  The
full dissipative term is the sum over constituents of (tau(J)/hbar^2)
{D(J), rho(J)} (x) rho(J').

The constituents are evaluated in one stacked pass per kind, a kind being
a (factor dim, generator count) pair (a model of identical constituents is
one kind), over every member of a (..., dim, dim) state stack at once.  A
gather map splits any operator into (..., k, r, r, d_J, d_J) tensors for
the kind's k constituents (the rest's indices, then J's) with one fancy
index.  Contractions of the split rho give every rho(J) and rho(J'), and of
the split ln rho and H every W(J) and V(J), so the dim x dim embedding I(J)
(x) rho(J') is never formed.  The layout, H's split and the generators
are constants, cached on the model with its lifted generators.  One kernel
call per kind takes rho(J) and the operators (n + 1, ..., k, d_J, d_J):
V(J) and the generators centred at their trace means, then W(J), whose
products it builds at d_J, as they change with the state.  The inverse
gather puts every {D(J), rho(J)} (x) rho(J') back in the full space.  The
one eigendecomposition of a call is the global one that ln rho needs.  The
Hamiltonian term is x + x^dagger for x = (i/hbar) rho H, one product, as
in ``sea.sea_rhs``; an array is made Hermitian once, for both terms.

W(J) needs ln(rho) of the full composite state, which exists only for
full-rank rho; exact products of pure states get an exact-zero
dissipator, member by member, though the default integrator does not keep
such a state pure (ROADMAP item 1).  ``require_full_rank`` is the one
check of that domain.  The law is a function of the Hermitian matrix, the
same for a StateOperator and its matrix, and does not check: ln rho is
floored at the log floor, a continuous extension off the domain for
integrator trial points.  The documented workflow is to mix with epsilon
>= ``operators.MIX_FLOOR`` of the identity before integrating.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import operators as op
from . import sea
from . import states as st
from .errors import (DimensionMismatchError, NonPositiveTauError,
                     SingularCompositeStateError)
from .operators import UnitSystem


@dataclass(frozen=True)
class Constituent:
    """One elementary constituent: factor dimension, generators on the factor
    space, and its relaxation time constant."""

    dim: int
    generators: tuple = ()
    tau: float = 1.0


class _Kind(NamedTuple):
    """The constituents of one (factor dim, generator count) kind: their
    index maps into a flattened dim x dim operator, and the model's constant
    operators split for them."""

    n_gen: int
    members: np.ndarray     # the k constituent indices, ascending
    gather: np.ndarray      # (k, r, r, d_J, d_J): a.ravel()[gather] splits a
    scatter: np.ndarray     # (k, dim^2): t.ravel()[scatter] puts each member of
                            # a split (k, r, r, d_J, d_J) stack t back in place
    h_split: np.ndarray     # (k, r^2, d_J, d_J): H's ``_split``, blocks centred
    generators: np.ndarray  # (n_gen, k, d_J, d_J): the members' generators, centred


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

    @cached_property
    def generators(self) -> tuple:
        """Every constituent's generators embedded in the full space, in
        constituent order: the conserved operators beside H."""
        return tuple(op.embed_factors({j: x}, self.dims)
                     for j, c in enumerate(self.constituents) for x in c.generators)

    @cached_property
    def _hamiltonian_operand(self) -> np.ndarray:
        """(i/hbar) (H - (Tr H / dim) I), the operand of the Hamiltonian term:
        the commutator is the same, and the centred product keeps the
        precision that an energy offset would cost; built once per model."""
        return (1j / self.units.hbar) * op.centred(np.array(self.H, dtype=complex))

    @cached_property
    def _kinds(self) -> tuple[_Kind, ...]:
        """One ``_Kind`` per distinct (factor dim, generator count) pair of
        the constituents, in order of first appearance; built once per model,
        every array read-only.

        Constituent J's gather map is the array of flat indices split by
        ``operators.split_factors`` with J kept.  H is split by the kind's
        gather map, each d_J x d_J block centred at its trace mean, so that
        ``_reduce`` gives every V(J) centred at its own.
        """
        dims, size = self.dims, self.dim
        index = np.arange(size * size).reshape(size, size)
        keys = [(c.dim, len(c.generators)) for c in self.constituents]
        out = []
        for d, n_gen in dict.fromkeys(keys):
            members = np.array([j for j, key in enumerate(keys) if key == (d, n_gen)])
            k = len(members)
            gather = np.stack([op.split_factors(index, dims, [j]) for j in members])
            # each member's inverse permutation, offset to its row of the stack
            scatter = np.argsort(gather.reshape(k, -1), axis=1) \
                + size * size * np.arange(k)[:, None]
            gens = np.reshape([self.constituents[j].generators for j in members],
                              (k, n_gen, d, d)).swapaxes(0, 1)
            kind = _Kind(n_gen, members, gather, scatter, op.centred(_split(self.H, gather)),
                         op.centred(np.ascontiguousarray(gens, dtype=complex)))
            for a in kind[1:]:
                a.flags.writeable = False
            out.append(kind)
        return tuple(out)


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
            op.require_commuting(op.embed_factors({j: x}, dims), h,
                                 f"lifted generator {i} of constituent {j}")
            gens.append(x)
        new_constituents.append(Constituent(c.dim, tuple(gens), c.tau))
    return CompositeModel(tuple(new_constituents), h, model.units)


def _marginals(m: np.ndarray, gather: np.ndarray):
    """rho(J) and rho(J') of the state matrix m, or of each member of a
    stack, for each constituent of a kind's (k, r, r, d_J, d_J) gather map."""
    t = m.reshape(*m.shape[:-2], -1).take(gather, axis=-1)
    return np.einsum("...ssab->...ab", t), np.einsum("...staa->...st", t)


def _split(a: np.ndarray, gather: np.ndarray) -> np.ndarray:
    """The operator a, or each member of a stack, split by a kind's gather
    map as (..., k, r^2, d_J, d_J): the rest's index pair, then J's."""
    k, r, _, d, _ = gather.shape
    return a.reshape(*a.shape[:-2], -1).take(gather.reshape(k, r * r, d, d), axis=-1)


def _reduce(rest: np.ndarray, split: np.ndarray) -> np.ndarray:
    """Tr_{J'}((I(J) (x) rho(J')) a) for each constituent of a kind, as (...,
    k, d_J, d_J), from a's ``_split``, shared or one per member of a stack:
    one matmul with rho(J'), without the embedding."""
    *lead, r, _ = rest.shape
    d = split.shape[-1]
    return (rest.swapaxes(-1, -2).reshape(*lead, 1, r * r)
            @ split.reshape(*split.shape[:-2], d * d)).reshape(*lead, d, d)


def require_full_rank(rho, model: CompositeModel) -> None:
    """The one check of the law's documented domain: raise
    ``SingularCompositeStateError``, naming the member of a stack, for a
    state that ``states.is_singular`` flags and that is no pure product."""
    m, spec = st.matrix_and_spectrum(rho)
    p = spec.eigenvalues
    singular = st.is_singular(p)
    if np.count_nonzero(singular):
        singular = singular & np.logical_not(is_pure_product(m, model, spec))
    st._raise_for(singular, p[..., -1], SingularCompositeStateError,
                  "composite state has eigenvalue {:.3e} below the log floor; mix "
                  f"with identity (epsilon >= {op.MIX_FLOOR:g}) before use")


def reduced_state(rho, model: CompositeModel, j: int) -> np.ndarray:
    """Reduced state of constituent j: the Hermitian part of the partial
    trace over the rest, an array."""
    return subsystem_state(rho, model, [j])


def subsystem_state(rho, model: CompositeModel, indices) -> np.ndarray:
    return op.hermitize(op.partial_trace(st._as_matrix(rho), model.dims,
                                         keep=sorted(indices)))


def is_pure_product(rho, model: CompositeModel, spectrum=None):
    """Whether the state is (numerically exactly) a product of pure factor
    states: all spectral weight on one global eigenvector and every reduced
    state pure, the reduced states decomposed only when a member is
    globally pure.  A bool, or a mask over the members of a stack.
    ``spectrum`` passes the spectral form at hand, rho then being its
    Hermitian matrix."""
    if spectrum is None:
        rho, spectrum = st.matrix_and_spectrum(rho)
    pure = st.is_pure(spectrum.eigenvalues)
    if np.count_nonzero(pure):
        for kind in model._kinds:
            p_j = st.spectral_form(_marginals(rho, kind.gather)[0]).eigenvalues
            pure = pure & st.is_pure(p_j).all(axis=-1)
    return bool(pure) if pure.ndim == 0 else pure


def _factor_terms(m: np.ndarray, spec: st.SpectralForm, model: CompositeModel,
                  half: bool = True):
    """[(kind, {D(J), rho(J)}, g(J), rho(J'))] per kind at the Hermitian
    matrix m of spectral form ``spec``, each stacked over the members of a
    state stack and the kind's k members; exact zeros for a member that is
    a pure product, and empty when every member is one.  Without ``half``
    the dissipators are None and only the g(J) are made.

    One pass per kind: the kind's gather map splits m and ln m for all k
    members at once (H's split is the model's), contractions reduce them
    to every rho(J), rho(J'), W(J) and V(J), and one
    ``sea.operator_log_kernel`` call gives the dissipators, at rho(J) / Tr
    rho(J) and scaled by Tr rho(J), so that they stay traceless at a trial
    point off the state set.  ln m has its eigenvalues floored at the log
    floor: a continuous extension off the full-rank domain for integrator
    trial points, whose tiny eigenvalues step negative by O(dt^2).
    """
    kinds = model._kinds
    marginals = [_marginals(m, kind.gather) for kind in kinds]
    pure = is_pure_product(m, model, spec)
    any_pure = np.count_nonzero(pure)
    if any_pure == np.size(pure):
        return []
    log_full = st.spectral_log(spec)
    terms = []
    for kind, (rho_j, rest) in zip(kinds, marginals):
        n, d, gens = 1 + kind.n_gen, kind.gather.shape[-1], kind.generators
        ops = np.empty((n + 1, *rest.shape[:-2], d, d), dtype=complex)
        ops[0] = op.hermitize(_reduce(rest, kind.h_split))
        # each member's generators, (n - 1, 1, ..., 1, k, d, d) over the stack
        ops[1:n] = gens.reshape(n - 1, *[1] * (rest.ndim - 3), *gens.shape[1:])
        ops[n] = op.hermitize(_reduce(rest, _split(log_full, kind.gather)))
        k, g = sea.operator_log_kernel(rho_j, ops, half)
        acomm = None if k is None else op.plus_adjoint(k)
        if any_pure:
            g[pure] = 0.0
            if acomm is not None:
                acomm[pure] = 0.0
        terms.append((kind, acomm, g, rest))
    return terms


def _embed(terms, weights: np.ndarray, shape) -> np.ndarray:
    """sum_J weights[J] {D(J), rho(J)} (x) rho(J') on the full space, for
    the state or stack of ``shape``: per kind, one batched outer product
    forms the split tensors and the inverse gather puts them back."""
    *lead, dim, _ = shape
    out = np.zeros((*lead, dim * dim), dtype=complex)
    for kind, acomm, _, rest in terms:
        k, r = rest.shape[-3:-1]
        scaled = weights[kind.members, None, None] * acomm
        t = rest.reshape(*lead, k, r * r, 1) @ scaled.reshape(*lead, k, 1, -1)
        out += t.reshape(*lead, -1).take(kind.scatter, axis=-1).sum(axis=-2)
    return out.reshape(shape)


def dissipative_term(rho, model: CompositeModel, spectrum=None) -> np.ndarray:
    """Sum_J (tau(J)/hbar^2) {D(J), rho(J)} (x) rho(J') on the full space,
    per member of a (..., d, d) stack; exactly zero on pure products.
    ``spectrum`` passes the spectral form at hand, rho then being its
    Hermitian matrix."""
    if spectrum is None:
        rho, spectrum = st.matrix_and_spectrum(rho)
    taus = np.array([c.tau for c in model.constituents])
    return _embed(_factor_terms(rho, spectrum, model), taus / model.units.hbar**2, rho.shape)


def composite_rhs(rho, model: CompositeModel) -> np.ndarray:
    """d rho/dt = -(i/hbar)[H, rho] - sum_J (tau(J)/hbar^2) {D(J), rho(J)} (x) rho(J').

    ``rho`` is one state or a (..., d, d) stack of them, evaluated member by
    member in one pass; the Hermitian part of an array is taken once, for
    both terms.
    """
    m, spec = st.matrix_and_spectrum(rho)
    out = _hamiltonian_term(m, model)
    out -= dissipative_term(m, model, spec)
    return out


def _hamiltonian_term(m: np.ndarray, model: CompositeModel) -> np.ndarray:
    """-(i/hbar)[H, m] for a Hermitian m, per member of a stack, as x +
    x^dagger with x = (i/hbar) m H_c for the centred H_c: one product over
    the rows of the whole stack, as in ``sea.sea_rhs``."""
    d = m.shape[-1]
    return op.plus_adjoint((m.reshape(-1, d) @ model._hamiltonian_operand).reshape(m.shape))


def composite_entropy_production(rho, model: CompositeModel):
    """Total rate sum_J k tau(J) g(J) / hbar^2 and the per-constituent g(J) >= 0;
    for a (..., d, d) stack, arrays (...) and (..., n) instead of a float and a list."""
    m, spec = st.matrix_and_spectrum(rho)
    per = np.zeros((*m.shape[:-2], len(model.constituents)))
    for kind, _, g, _ in _factor_terms(m, spec, model, half=False):
        per[..., kind.members] = g
    u = model.units
    total = sum(u.k_B * c.tau * per[..., j] / u.hbar**2
                for j, c in enumerate(model.constituents))
    return (total, per) if per.ndim > 1 else (total, list(per))


def entropy_rate_pairing(rho, model: CompositeModel) -> float:
    """-k Tr(composite_rhs ln rho) on full-rank states (``states.entropy_rate``)."""
    require_full_rank(rho, model)
    spec = st.matrix_and_spectrum(rho)[1]
    return st.entropy_rate(spec, composite_rhs(rho, model), model.units.k_B)


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
    return residual <= op.SEPARABILITY_TOL * scale, residual


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
    product = op.tensor_interleave(subsystem_state(rho, model, keep), keep,
                                   subsystem_state(rho, model, rest), model.dims)
    dist = float(np.linalg.norm(st._as_matrix(rho) - product, ord="fro"))
    return dist <= op.INDEPENDENCE_TOL, dist


def reduced_rhs(rho, model: CompositeModel, block) -> np.ndarray:
    """Reduced equation of motion for subsystem ``block`` K: the partial
    trace over the rest K' of the Hamiltonian term and of the dissipative
    terms of K's own constituents, which leaves each {D(J), rho(J)} of K
    embedded against the reduced state of the rest of K."""
    keep, _ = _blocks(model, block)
    m, spec = st.matrix_and_spectrum(rho)
    out = _hamiltonian_term(m, model)
    weights = np.array([c.tau if j in keep else 0.0
                        for j, c in enumerate(model.constituents)])
    out -= _embed(_factor_terms(m, spec, model), weights / model.units.hbar**2, out.shape)
    return op.partial_trace(out, model.dims, keep=keep)
