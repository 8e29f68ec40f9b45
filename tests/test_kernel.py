"""The projection-form dissipator kernel against the cofactor expansion.

The reference (``cofactor_reference``) expands the operator-valued Gram
determinant along its operator row in the original basis; the library
evaluates the Schur-complement form in the eigenbasis of rho.  Both are
exact, so they must agree to round-off on every state, including
degenerate generator Grams, near-pure and rank-deficient states, where the
terms themselves are round-off sized.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

import cofactor_reference as ref
from seaqt import composite as cp
from seaqt import operators as op
from seaqt import sea
from seaqt import states as st

SETTINGS = settings(max_examples=60, deadline=None, database=None, derandomize=True)
TOL = 1e-10   # relative to the Hadamard-type bound of the expansion


def random_unitary(dim, rng):
    x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(x)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def expansion_bound(gram):
    """Bound on |g| and on every cofactor term of {D, rho}: with d the
    diagonal of the full Gram matrix (log column first), Hadamard's
    inequality on the scalar rows gives prod_a sqrt(d_a) (sum d)^(n+1)/2."""
    d = np.diag(gram)
    return float(np.prod(np.sqrt(d[1:])) * d.sum() ** (len(d) / 2))


def make_state(kind, dim, rng):
    if kind == "full":
        return st.random_full_rank(dim, seed=int(rng.integers(2**31)))
    if kind == "near_pure":
        psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        return st.mix_with_identity(st.pure_state(psi), 1e-8)
    rank = int(rng.integers(1, dim))
    x = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    m = x @ x.conj().T
    return st.validate(m / np.trace(m).real)


@SETTINGS
@given(seed=hs.integers(0, 2**31 - 1), dim=hs.sampled_from([2, 3, 4, 6, 16]),
       n_gen=hs.sampled_from([0, 1, 2]),
       kind=hs.sampled_from(["full", "near_pure", "rank_deficient"]))
def test_single_kernel_matches_cofactor_expansion(seed, dim, n_gen, kind):
    rng = np.random.default_rng(seed)
    u = random_unitary(dim, rng)
    h, *gens = [(u * rng.normal(size=dim)) @ u.conj().T for _ in range(n_gen + 1)]
    model = sea.SingleConstituentModel(H=op.hermitize(h),
                                       generators=tuple(op.hermitize(x) for x in gens))
    rho = make_state(kind, dim, rng)
    want_acomm, want_g = ref.single(rho, model.H, model.generators)
    ops = model.operator_list()
    gram = np.empty((len(ops) + 1,) * 2)
    gram[0, 0] = st.log_variance(rho)
    gram[1:, 1:] = ref.pair_table(rho.matrix, ops)
    gram[0, 1:] = gram[1:, 0] = [st.covariance_with_log(f, rho) for f in ops]
    bound = expansion_bound(gram)
    got_acomm = sea.dissipator_anticommutator(rho, model)
    assert np.abs(got_acomm - want_acomm).max() <= TOL * bound
    assert abs(sea.gram_determinant_g(rho, model) - want_g) <= TOL * bound


@SETTINGS
@given(seed=hs.integers(0, 2**31 - 1),
       dims=hs.sampled_from([(2, 2), (2, 2, 2), (2, 3), (3, 2, 2)]))
def test_composite_factors_match_cofactor_expansion(seed, dims):
    rng = np.random.default_rng(seed)
    dims, dim = list(dims), int(np.prod(dims))
    h = st.random_hermitian(dim, rng)
    taus = rng.uniform(0.2, 2.0, len(dims))
    model = cp.validate_model(cp.CompositeModel(
        tuple(cp.Constituent(d, tau=float(t)) for d, t in zip(dims, taus)), h))
    rho = st.random_full_rank(dim, seed=int(rng.integers(2**31)))
    _, per = cp.composite_entropy_production(rho, model)
    want_term = np.zeros_like(rho.matrix)
    for j, tau in enumerate(taus):
        acomm, g = ref.composite_factor(rho, model.H, dims, j)
        w, v = cp.reduced_log(rho, model, j), cp.reduced_hamiltonian(rho, model, j)
        bound = expansion_bound(ref.pair_table(cp.reduced_state(rho, model, j).matrix, [w, v]))
        assert abs(per[j] - g) <= TOL * bound
        rest = op.partial_trace(rho.matrix, dims, keep=[i for i in range(len(dims)) if i != j])
        want_term += tau * op.tensor_interleave(acomm, [j], rest, dims)
    scale = np.abs(want_term).max()
    assert np.abs(cp.dissipative_term(rho, model) - want_term).max() <= 1e-9 * scale


@pytest.mark.filterwarnings("ignore::seaqt.sea.GramConditionWarning")
def test_degenerate_qubit_gram_gives_round_off_term():
    # on a qubit every diagonal generator is affine in {I, H}: det G = 0
    model = sea.validate_model(sea.SingleConstituentModel(
        H=np.diag([0.0, 1.0]), generators=(np.diag([1.0, -1.0]),)))
    for seed in range(5):
        rho = st.random_full_rank(2, seed=seed)
        assert np.abs(sea.dissipator_anticommutator(rho, model)).max() <= 1e-14
        assert abs(sea.gram_determinant_g(rho, model)) <= 1e-14


def test_kernel_with_ordinary_log_column_matches_regular_form():
    # the composite calling convention (log column as the first operator)
    # agrees with the regular p ln p log column on a full-rank state
    rng = np.random.default_rng(11)
    rho = st.random_full_rank(4, seed=12)
    h, x = (op.hermitize(rng.normal(size=(4, 4))) for _ in range(2))
    p, u = rho.spectral.eigenvalues, rho.spectral.eigenvectors
    log_rho = (u * np.log(p)) @ u.conj().T
    got = sea.dissipator_kernel(p, u, [log_rho, h, x])
    plogp = p * np.log(p)
    log_column = (np.diag(2 * (plogp - plogp.sum() * p)), st.log_variance(rho))
    want = sea.dissipator_kernel(p, u, [h, x], log_column)
    assert np.abs(got[0] - want[0]).max() <= 1e-12
    assert got[1] == pytest.approx(want[1], rel=1e-10)
