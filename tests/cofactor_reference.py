"""Reference implementation: the dissipator by cofactor expansion.

This is the direct evaluation of the operator-valued Gram determinant of
the steepest-entropy-ascent law: expand along the operator row, one signed
minor of the scalar rows per column.  The library evaluates the same
determinant in projection form (``sea.dissipator_kernel``); the tests pin
the two against each other.  Everything here is computed in the original
basis from full matrices, partial traces and tensor embeddings, so it
shares no code path with the kernel beyond ``states.rho_log_rho``.
"""

import numpy as np

from seaqt import operators as op
from seaqt import states as st
from references import log_variance


def pair_table(m, ops):
    """(F_a, F_b) = Tr(rho {F_a, F_b}) - 2 fbar_a fbar_b."""
    n = len(ops)
    means = [np.trace(m @ f).real for f in ops]
    table = np.empty((n, n))
    for a in range(n):
        fa_rho = ops[a] @ m + m @ ops[a]
        for b in range(n):
            table[a, b] = np.trace(fa_rho @ ops[b]).real - 2.0 * means[a] * means[b]
    return table


def cofactor_expand(rows, acomms):
    """Expand det[[A_0 ... A_n], rows] along its operator row."""
    cols = np.arange(len(acomms))
    out = np.zeros_like(acomms[0])
    for j in range(len(acomms)):
        out = out + (-1.0) ** j * np.linalg.det(rows[:, cols != j]) * acomms[j]
    return op.hermitize(out)


def single(rho, h, generators=()):
    """({D, rho}, g) for a single constituent, log column in the regular
    form {Delta ln rho, rho} = 2 (B - Tr(B) rho), B = rho ln rho."""
    m = rho.matrix
    ops = [h, *generators]
    b = st.rho_log_rho(rho)
    tr_b = np.trace(b).real
    log_pairs = np.array([2.0 * (np.trace(f @ b).real - np.trace(m @ f).real * tr_b)
                          for f in ops])
    table = pair_table(m, ops)
    n = len(ops)
    acomms = [2.0 * (b - tr_b * m)]
    acomms += [f @ m + m @ f - 2.0 * np.trace(m @ f).real * m for f in ops]
    acomm = cofactor_expand(np.hstack([log_pairs.reshape(n, 1), table]), acomms)
    gram = np.empty((n + 1, n + 1))
    gram[0, 0] = log_variance(rho)
    gram[0, 1:] = gram[1:, 0] = log_pairs
    gram[1:, 1:] = table
    return acomm, float(np.linalg.det(gram))


def composite_factor(rho, h, dims, j, generators=()):
    """({D(J), rho(J)}, g(J)) for constituent j of a full-rank composite
    state, with W(J) and V(J) from the full complement embedding."""
    m = rho.matrix
    p, u = rho.spectral.eigenvalues, rho.spectral.eigenvectors
    log_full = (u * np.log(p)) @ u.conj().T
    others = [i for i in range(len(dims)) if i != j]
    if others:
        rest = op.partial_trace(m, dims, keep=others)
        embed = op.tensor_interleave(np.eye(dims[j], dtype=complex), [j], rest, dims)
    else:
        embed = np.eye(dims[j], dtype=complex)
    rho_j = op.hermitize(op.partial_trace(m, dims, keep=[j]))
    w = op.hermitize(op.partial_trace(embed @ log_full, dims, keep=[j]))
    v = op.hermitize(op.partial_trace(embed @ h, dims, keep=[j]))
    ops = [w, v, *generators]
    gram = pair_table(rho_j, ops)
    acomms = [f @ rho_j + rho_j @ f - 2.0 * np.trace(rho_j @ f).real * rho_j
              for f in ops]
    return cofactor_expand(gram[1:], acomms), float(np.linalg.det(gram))
