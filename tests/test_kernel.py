"""The projection-form dissipator kernel against the cofactor expansion.

The reference (``cofactor_reference``) expands the operator-valued Gram
determinant along its operator row in the original basis; the library
evaluates the Schur-complement form from Frobenius products.  Both are
exact, so they must agree to round-off on every state, including
degenerate generator Grams, near-pure and rank-deficient states, where the
terms themselves are round-off sized.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

import cofactor_reference as ref
from references import (covariance_with_log, log_operator_kernel, log_variance,
                        random_hermitian, reduced_hamiltonian, reduced_log)
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


def law_bound(rho, model):
    """``expansion_bound`` of the full Gram matrix over (ln rho, H, X, ...)
    at the state rho."""
    ops = model.operator_list()
    gram = np.empty((len(ops) + 1,) * 2)
    gram[0, 0] = log_variance(rho)
    gram[1:, 1:] = ref.pair_table(rho.matrix, ops)
    gram[0, 1:] = gram[1:, 0] = [covariance_with_log(f, rho) for f in ops]
    return expansion_bound(gram)


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


# 100 examples: the regular sets keep about the 60 they drew before the two
# singular ones joined
@settings(SETTINGS, max_examples=100)
@given(seed=hs.integers(0, 2**31 - 1), dim=hs.sampled_from([2, 3, 4, 6, 16]),
       gen_set=hs.sampled_from(["", "X", "XY", "X=H", "Y=X"]),
       kind=hs.sampled_from(["full", "near_pure", "rank_deficient"]))
def test_single_kernel_matches_cofactor_expansion(seed, dim, gen_set, kind):
    # "X=H" and "Y=X" make the generator Gram exactly singular: the Cramer
    # form must give the round-off-level term without a floating-point error
    rng = np.random.default_rng(seed)
    u = random_unitary(dim, rng)
    h, x, y = [(u * rng.normal(size=dim)) @ u.conj().T for _ in range(3)]
    gens = {"": (), "X": (x,), "XY": (x, y), "X=H": (h,), "Y=X": (x, x)}[gen_set]
    model = sea.SingleConstituentModel(H=op.hermitize(h),
                                       generators=tuple(op.hermitize(g) for g in gens))
    rho = make_state(kind, dim, rng)
    with np.errstate(all="raise"):
        want_acomm, want_g = ref.single(rho, model.H, model.generators)
        bound = law_bound(rho, model)
        got_acomm = sea.dissipator_anticommutator(rho, model)
        got_g = sea.gram_determinant_g(rho, model)
    assert np.isfinite(got_acomm).all() and np.isfinite(got_g)
    assert np.abs(got_acomm - want_acomm).max() <= TOL * bound
    assert abs(got_g - want_g) <= TOL * bound


@SETTINGS
@given(seed=hs.integers(0, 2**31 - 1),
       dims=hs.sampled_from([(2, 2), (2, 2, 2), (2, 3), (3, 2, 2)]))
def test_composite_factors_match_cofactor_expansion(seed, dims):
    rng = np.random.default_rng(seed)
    dims, dim = list(dims), int(np.prod(dims))
    h = random_hermitian(dim, rng)
    taus = rng.uniform(0.2, 2.0, len(dims))
    model = cp.validate_model(cp.CompositeModel(
        tuple(cp.Constituent(d, tau=float(t)) for d, t in zip(dims, taus)), h))
    rho = st.random_full_rank(dim, seed=int(rng.integers(2**31)))
    _, per = cp.composite_entropy_production(rho, model)
    want_term = np.zeros_like(rho.matrix)
    for j, tau in enumerate(taus):
        acomm, g = ref.composite_factor(rho, model.H, dims, j)
        w, v = reduced_log(rho, model, j), reduced_hamiltonian(rho, model, j)
        bound = expansion_bound(ref.pair_table(cp.reduced_state(rho, model, j), [w, v]))
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
    # the composite's log column, B = rho L from an ordinary log operator L,
    # agrees with the regular B = rho ln rho on a full-rank state, and both
    # with the cofactor expansion
    rng = np.random.default_rng(11)
    rho = st.random_full_rank(4, seed=12)
    h, x = (op.hermitize(rng.normal(size=(4, 4))) for _ in range(2))
    p, u = rho.spectral.eigenvalues, rho.spectral.eigenvectors
    log_rho = (u * np.log(p)) @ u.conj().T
    got = log_operator_kernel(rho.matrix, [h, x], log_rho)
    model = sea.SingleConstituentModel(H=h, generators=(x,))
    want = sea._velocity(rho, model), sea.gram_determinant_g(rho, model)
    assert np.abs(got[0] - want[0]).max() <= 1e-12
    assert got[1] == pytest.approx(want[1], rel=1e-10)
    want_acomm, want_g = ref.single(rho, h, (x,))
    bound = expansion_bound(ref.pair_table(rho.matrix, [log_rho, h, x]))
    assert np.abs(op.plus_adjoint(got[0]) - want_acomm).max() <= TOL * bound
    assert abs(got[1] - want_g) <= TOL * bound


def spectrum_state(kind, dim, rng):
    """A random eigenbasis with a spectrum of the given kind: full rank, its
    smallest eigenvalue at 1e-12, or a trial point whose smallest eigenvalue
    -1e-11 ("clipped") or -1e-6 ("deep_clip") the spectral form clips to 0
    (returned as a raw matrix)."""
    u = random_unitary(dim, rng)
    p = rng.uniform(0.5, 1.5, dim)
    p /= p.sum()
    if kind != "full":
        shift = {"near_singular": 1e-12, "clipped": -1e-11, "deep_clip": -1e-6}[kind]
        p[0] += p[-1] - shift
        p[-1] = shift
    m = op.hermitize((u * p) @ u.conj().T)
    return st.validate(m) if kind in ("full", "near_singular") else m


@settings(SETTINGS, max_examples=48)
@given(seed=hs.integers(0, 2**31 - 1), dim=hs.sampled_from([2, 3, 4, 8]),
       n_gen=hs.integers(0, 2),
       kind=hs.sampled_from(["full", "near_singular", "clipped"]))
def test_original_basis_kernel_matches_cofactor_expansion(seed, dim, n_gen, kind):
    # the reference runs at the state the kernel sees: the clipped spectrum
    # at unit trace, the result scaled back by its sum
    rng = np.random.default_rng(seed)
    u = random_unitary(dim, rng)
    h, *gens = [op.hermitize((u * rng.normal(size=dim)) @ u.conj().T)
                for _ in range(n_gen + 1)]
    model = sea.SingleConstituentModel(H=h, generators=tuple(gens))
    rho = spectrum_state(kind, dim, rng)
    m, spec = st.matrix_and_spectrum(rho)
    total = spec.eigenvalues.sum()
    rho_q = st.StateOperator(st.spectral_matrices(spec.eigenvectors,
                                                  spec.eigenvalues / total)[0])
    with np.errstate(all="raise"):
        want_acomm, want_g = ref.single(rho_q, h, model.generators)
        bound = law_bound(rho_q, model)
        got_half = sea._half_product(m, spec, model)
        got_acomm = sea.dissipator_anticommutator(rho, model)
        got_g = sea.gram_determinant_g(rho, model)
    assert np.abs(op.plus_adjoint(got_half) - total * want_acomm).max() <= TOL * bound
    if st.is_pure(spec.eigenvalues):
        # a state on the purity cut gets an exact-zero dissipator by design
        assert not got_acomm.any()
    else:
        assert np.abs(got_acomm - total * want_acomm).max() <= TOL * bound
    assert abs(got_g - want_g) <= TOL * bound
    rhs = sea.sea_rhs(rho, model)
    assert np.array_equal(rhs, rhs.conj().T)
    assert abs(np.trace(rhs)) <= 1e-14 * max(1.0, np.abs(rhs).max())


@settings(SETTINGS, max_examples=60)
@given(seed=hs.integers(0, 2**31 - 1), dim=hs.sampled_from([2, 3, 4, 8]),
       n_gen=hs.integers(0, 2),
       kind=hs.sampled_from(["full", "near_singular", "clipped", "deep_clip", "stack"]))
def test_sea_rhs_matches_the_law_at_the_clipped_spectrum(seed, dim, n_gen, kind):
    # sea_rhs takes the dissipator's left factor from m itself where no
    # eigenvalue was clipped, and from the spectrum's rebuild where one was;
    # both give -(i/hbar)[H, m] - (tau/hbar^2) Tr {D, rho_q}, with the law
    # at rho_q, the clipped spectrum at unit trace.  "stack" mixes the
    # four kinds in one call.
    rng = np.random.default_rng(seed)
    u = random_unitary(dim, rng)
    h, *gens = [op.hermitize((u * rng.normal(size=dim)) @ u.conj().T)
                for _ in range(n_gen + 1)]
    model = sea.SingleConstituentModel(H=h, generators=tuple(gens),
                                       tau=float(rng.uniform(0.2, 1.0)))
    kinds = ["full", "near_singular", "clipped", "deep_clip"] if kind == "stack" else [kind]
    members = [st.matrix_and_spectrum(spectrum_state(k, dim, rng))[0] for k in kinds]
    got = sea.sea_rhs(np.stack(members) if kind == "stack" else members[0], model)
    hbar = model.units.hbar
    for m, rhs in zip(members, got.reshape(len(members), dim, dim)):
        spec = st.spectral_form(m)
        total = spec.eigenvalues.sum()
        rho_q = st.StateOperator(st.spectral_matrices(spec.eigenvectors,
                                                      spec.eigenvalues / total)[0])
        want = -1j / hbar * op.commutator(h, m)
        with np.errstate(all="raise"):
            if not st.is_pure(spec.eigenvalues):
                # a state on the purity cut gets an exact-zero dissipator
                want -= model.tau / hbar**2 * total * ref.single(rho_q, h, model.generators)[0]
            bound = law_bound(rho_q, model)
        assert np.abs(rhs - want).max() <= TOL * bound


@settings(SETTINGS, max_examples=24)
@given(seed=hs.integers(0, 2**31 - 1), dim=hs.sampled_from([2, 3, 4, 8]),
       n_gen=hs.integers(0, 2))
def test_kernel_with_an_operator_log_column_matches_per_member_expansions(seed, dim, n_gen):
    # the composite layout: a stack of states, each with its own log
    # operator L and operators (F_1, ...), L entering as the log column
    # B = rho L
    rng = np.random.default_rng(seed)
    states = [spectrum_state(kind, dim, rng)
              for kind in ("full", "near_singular", "full", "near_singular")]
    rho = np.stack([s.matrix for s in states])
    ops = np.stack([[st.log_operator(s), *(random_hermitian(dim, rng)
                                          for _ in range(n_gen + 1))] for s in states])
    half, g = log_operator_kernel(rho, ops[:, 1:], ops[:, 0])
    assert half.shape == rho.shape and g.shape == (len(states),)
    for i, s in enumerate(states):
        gram = ref.pair_table(s.matrix, list(ops[i]))
        acomms = [f @ s.matrix + s.matrix @ f - 2.0 * np.trace(s.matrix @ f).real * s.matrix
                  for f in ops[i]]
        bound = expansion_bound(gram)
        assert np.abs(op.plus_adjoint(half[i]) - ref.cofactor_expand(gram[1:], acomms)).max() \
            <= TOL * bound
        assert abs(g[i] - np.linalg.det(gram)) <= TOL * bound
