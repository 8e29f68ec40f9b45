import ast
import io
import tokenize
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from references import bloch_coordinates, hermitian_basis, trace_inner_product
from seaqt import composite as cp
from seaqt import equilibrium as eq
from seaqt import lindblad as lb
from seaqt import operators as op
from seaqt import sea
from seaqt import states as st
from seaqt.errors import (DimensionMismatchError, NonCommutingGeneratorError,
                          NotHermitianError)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
I2 = np.eye(2, dtype=complex)


def random_hermitian(dim, rng):
    x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (x + x.conj().T)


@pytest.mark.parametrize("shape", [(3, 3), (2, 4, 4), (2, 3, 5, 5)])
def test_centred_subtracts_each_trace_mean_in_place(shape):
    rng = np.random.default_rng(len(shape))
    a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    a = a + np.swapaxes(a, -1, -2).conj()
    before = a.copy()
    assert op.centred(a) is a
    d = shape[-1]
    shift = np.trace(before, axis1=-2, axis2=-1).real / d
    assert np.abs(before - a - shift[..., None, None] * np.eye(d)).max() <= 1e-14
    assert np.abs(np.trace(a, axis1=-2, axis2=-1)).max() <= 1e-13


class TestCommutators:
    def test_self_commutation_is_zero(self):
        rng = np.random.default_rng(0)
        a = random_hermitian(3, rng)
        assert np.allclose(op.commutator(a, a), 0)

    def test_pauli_commutator(self):
        assert np.allclose(op.commutator(SX, SY), 2j * SZ)

    def test_identity_commutes(self):
        rng = np.random.default_rng(1)
        b = random_hermitian(4, rng)
        assert np.allclose(op.commutator(np.eye(4), b), 0)

    # the SEA law forms {A, B} of Hermitian A, B as AB + (AB)^dagger
    def test_anticommutator_with_identity(self):
        rng = np.random.default_rng(2)
        a = random_hermitian(3, rng)
        assert np.allclose(op.plus_adjoint(a @ np.eye(3)), 2 * a)

    def test_pauli_anticommutators(self):
        assert np.allclose(op.plus_adjoint(SX @ SX), 2 * I2)
        assert np.allclose(op.plus_adjoint(SX @ SY), 0)

    def test_hermiticity_character(self):
        # {A,B} Hermitian, [A,B] anti-Hermitian, for Hermitian A, B
        rng = np.random.default_rng(3)
        a, b = random_hermitian(5, rng), random_hermitian(5, rng)
        anti = op.plus_adjoint(a @ b)
        comm = op.commutator(a, b)
        assert np.abs(anti - anti.conj().T).max() <= 1e-12 * max(1, np.abs(anti).max())
        assert np.abs(comm + comm.conj().T).max() <= 1e-12 * max(1, np.abs(comm).max())

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            op.commutator(SX, np.eye(3))


def _accepts(call) -> bool:
    try:
        call()
    except NonCommutingGeneratorError as exc:
        assert "does not commute with H" in str(exc)
        return False
    return True


# every entry point that requires [X, H] = 0, as (H, X) -> accepted; each
# rejects through operators.require_commuting
COMMUTATION_ENTRY_POINTS = {
    "sea.validate_model": lambda h, x: _accepts(
        lambda: sea.validate_model(sea.SingleConstituentModel(h, (x,)))),
    "composite.validate_model": lambda h, x: _accepts(
        lambda: cp.validate_model(cp.CompositeModel(
            (cp.Constituent(3, (x,)), cp.Constituent(2)), op.kron(h, I2)))),
    "equilibrium.constant_set": lambda h, x: _accepts(
        lambda: eq.constant_set([h, x])),
    "lindblad.double_commutator": lambda h, x: _accepts(
        lambda: lb.double_commutator(x, 1.0, h)),
}


@pytest.mark.parametrize("entry", sorted(COMMUTATION_ENTRY_POINTS))
@pytest.mark.parametrize("factor, accepted", [(0.5, True), (2.0, False)])
def test_commutation_threshold(entry, factor, accepted):
    # ||H||_max = 3 sets the threshold COMMUTATION_TOL max(1, 3); the
    # coupling P of levels 1 and 2 has max|[P, H]| = 3 - 1
    h = np.diag([0.0, 1.0, 3.0]).astype(complex)
    p = np.zeros((3, 3), dtype=complex)
    p[1, 2] = p[2, 1] = 1.0
    threshold = op.COMMUTATION_TOL * 3.0
    x = np.diag([1.0, 0.0, 0.0]) + factor * threshold / 2.0 * p
    assert op.commutation_check(x, h)[1] == pytest.approx(factor * threshold, rel=1e-12)
    assert COMMUTATION_ENTRY_POINTS[entry](h, x) is accepted


def test_only_operators_calls_commutation_check():
    # the rule [X, H] = 0 has one body: every other module admits an
    # operator through operators.require_commuting
    src = Path(op.__file__).parent
    found = [f"{path.name}:{node.lineno}" for path in sorted(src.glob("*.py"))
             if path.name != "operators.py"
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call)
             and ast.unparse(node.func).endswith("commutation_check")]
    assert found == []


class TestTraceInnerProduct:
    def test_identity_pair(self):
        assert trace_inner_product(np.eye(4), np.eye(4)) == pytest.approx(4.0)

    def test_pauli_orthogonality(self):
        assert trace_inner_product(SX, SY) == pytest.approx(0.0, abs=1e-14)

    def test_pauli_normalization(self):
        assert trace_inner_product(SZ, SZ) == pytest.approx(2.0)


class TestHermitianBasis:
    def test_dim_one(self):
        basis = hermitian_basis(1)
        assert len(basis) == 1
        assert np.allclose(basis[0], [[1.0]])

    def test_qubit_basis_is_scaled_paulis(self):
        basis = hermitian_basis(2)
        expected = [I2, SX, SY, SZ]
        for got, want in zip(basis, expected):
            assert np.allclose(got, want / np.sqrt(2))

    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
    def test_gram_matrix_is_identity(self, dim):
        basis = hermitian_basis(dim)
        assert len(basis) == dim * dim
        gram = np.array([[trace_inner_product(a, b) for b in basis] for a in basis])
        assert np.abs(gram - np.eye(dim * dim)).max() <= 1e-12


class TestBlochCoordinates:
    def test_half_identity(self):
        basis = hermitian_basis(2)
        coords = bloch_coordinates(I2 / 2, basis)
        assert np.allclose(coords, [1 / np.sqrt(2), 0, 0, 0])

    def test_basis_element_gives_unit_vector(self):
        basis = hermitian_basis(3)
        coords = bloch_coordinates(basis[4], basis)
        want = np.zeros(9)
        want[4] = 1.0
        assert np.allclose(coords, want)

    def test_round_trip_reconstruction(self):
        rng = np.random.default_rng(7)
        a = random_hermitian(4, rng)
        basis = hermitian_basis(4)
        coords = bloch_coordinates(a, basis)
        recon = sum(c * q for c, q in zip(coords, basis))
        assert np.abs(recon - a).max() < 1e-10

    def test_wrong_basis_size(self):
        with pytest.raises(DimensionMismatchError):
            bloch_coordinates(SX, hermitian_basis(3))


class TestKron:
    def test_identity_product(self):
        assert np.allclose(op.kron(I2, I2), np.eye(4))

    def test_sz_with_identity(self):
        assert np.allclose(op.kron(SZ, I2), np.diag([1, 1, -1, -1]))

    def test_trace_factorizes(self):
        rng = np.random.default_rng(11)
        a, b = random_hermitian(2, rng), random_hermitian(3, rng)
        assert np.trace(op.kron(a, b)) == pytest.approx(np.trace(a) * np.trace(b))


class TestPartialTrace:
    def test_product_state(self):
        rng = np.random.default_rng(13)
        rho1 = random_hermitian(2, rng)
        rho2 = random_hermitian(3, rng)
        rho2 /= np.trace(rho2)
        full = op.kron(rho1, rho2)
        assert np.allclose(op.partial_trace(full, [2, 3], keep=[0]), rho1)

    def test_bell_state_reduces_to_mixed(self):
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 1 / np.sqrt(2)
        rho = np.outer(bell, bell.conj())
        # index-summation oracle: rho1[i,j] = sum_k rho[ik, jk]
        oracle = np.zeros((2, 2), dtype=complex)
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    oracle[i, j] += rho[2 * i + k, 2 * j + k]
        reduced = op.partial_trace(rho, [2, 2], keep=[0])
        assert np.allclose(reduced, oracle)
        assert np.allclose(reduced, I2 / 2)

    def test_trace_preserved(self):
        rng = np.random.default_rng(17)
        a = random_hermitian(8, rng)
        for keep in ([0], [1], [2], [0, 2]):
            assert np.trace(op.partial_trace(a, [2, 2, 2], keep=keep)) == \
                pytest.approx(np.trace(a))

    def test_composition(self):
        # tracing factor 1 then factor 2 equals tracing both at once
        rng = np.random.default_rng(19)
        a = random_hermitian(12, rng)
        dims = [2, 3, 2]
        two_step = op.partial_trace(op.partial_trace(a, dims, keep=[0, 1]), [2, 3], keep=[0])
        one_step = op.partial_trace(a, dims, keep=[0])
        assert np.abs(two_step - one_step).max() <= 1e-12

    def test_kron_round_trip(self):
        rng = np.random.default_rng(23)
        a = random_hermitian(3, rng)
        full = op.kron(a, np.eye(4) / 4)
        assert np.abs(op.partial_trace(full, [3, 4], keep=[0]) - a).max() <= 1e-12

    def test_inconsistent_dims(self):
        with pytest.raises(DimensionMismatchError):
            op.partial_trace(np.eye(4), [2, 3], keep=[0])


class TestRequireHermitian:
    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            op.require_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_rejects_nan(self):
        with pytest.raises(NotHermitianError, match="^operator has a non-finite entry$"):
            op.require_hermitian([[0, np.nan], [0, 1]])


# The sites allowed a literal in [1e-19, 1e-8] outside the tolerance table:
# user settings (the integrator defaults), the output specification of the
# validate report, and the occupations of the divergence probe.
UNTABLED = {("integrate.py", "IntegratorConfig"), ("cli.py", "cmd_validate"),
            ("cli.py", "_divergence_probe")}


def small_literals():
    """(file, enclosing top-level statement, line) of every numeric literal
    in [1e-19, 1e-8] in the package source."""
    for path in sorted(Path(op.__file__).parent.glob("*.py")):
        text = path.read_text()
        statements = ast.parse(text).body
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            if tok.type != tokenize.NUMBER \
                    or not 1e-19 <= abs(ast.literal_eval(tok.string)) <= 1e-8:
                continue
            line = tok.start[0]
            yield path.name, next(s for s in statements
                                  if s.lineno <= line <= s.end_lineno), line


class TestToleranceTable:
    def test_every_small_literal_is_a_table_entry(self):
        stray = [f"{name}:{line}" for name, statement, line in small_literals()
                 if not (name == "operators.py" and isinstance(statement, ast.Assign))
                 and (name, getattr(statement, "name", None)) not in UNTABLED]
        assert stray == []

    @pytest.mark.parametrize("dim", [2, 64])
    def test_a_pure_state_mixed_at_the_floor_is_neither_pure_nor_singular(self, dim):
        rho = st.mix_with_identity(st.pure_state(np.eye(dim)[0]), op.MIX_FLOOR)
        assert not st.is_pure(rho.eigenvalues)
        assert not st.is_singular(rho.eigenvalues)

    def test_log_zero_cutoff_below_log_floor(self):
        assert op.LOG_ZERO_CUTOFF < op.LOG_FLOOR


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(seed=hs.integers(0, 2**31 - 1),
       dims=hs.lists(hs.integers(1, 3), min_size=2, max_size=4), data=hs.data())
def test_partial_trace_inverts_tensor_interleave(seed, dims, data):
    keep = sorted(data.draw(hs.sets(hs.integers(0, len(dims) - 1), min_size=1)))
    rng = np.random.default_rng(seed)
    k = int(np.prod([dims[i] for i in keep]))
    r = int(np.prod(dims)) // k
    a = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
    b = rng.normal(size=(r, r)) + 1j * rng.normal(size=(r, r))
    got = op.partial_trace(op.tensor_interleave(a, keep, b, dims), dims, keep)
    assert np.abs(got - np.trace(b) * a).max() <= 1e-12


class TestTensorInterleave:
    def test_matches_plain_kron_when_ordered(self):
        rng = np.random.default_rng(31)
        a, b = random_hermitian(2, rng), random_hermitian(3, rng)
        assert np.allclose(op.tensor_interleave(a, [0], b, [2, 3]), op.kron(a, b))

    def test_restores_interleaved_order(self):
        rng = np.random.default_rng(37)
        a, b = random_hermitian(3, rng), random_hermitian(2, rng)
        # operator acting as b on factor 0 and a on factor 1 of a 2x3 system
        got = op.tensor_interleave(a, [1], b, [2, 3])
        assert np.allclose(got, op.kron(b, a))

    def test_three_factor_middle(self):
        rng = np.random.default_rng(41)
        mid = random_hermitian(3, rng)
        rest = random_hermitian(4, rng)  # on factors 0 and 2 jointly (dims 2 and 2)
        got = op.tensor_interleave(mid, [1], rest, [2, 3, 2])
        # oracle by index arithmetic
        oracle = np.zeros((12, 12), dtype=complex)
        for i0 in range(2):
            for i1 in range(3):
                for i2 in range(2):
                    for j0 in range(2):
                        for j1 in range(3):
                            for j2 in range(2):
                                row = (i0 * 3 + i1) * 2 + i2
                                col = (j0 * 3 + j1) * 2 + j2
                                oracle[row, col] = mid[i1, j1] * rest[i0 * 2 + i2, j0 * 2 + j2]
        assert np.allclose(got, oracle)
