"""Pauli matrices, the symmetric factorization of edge matrices, and tensor JSON.

Tensors are plain ``numpy`` arrays of ``complex128`` in C (row-major) order;
the row-major linearization is part of the serialization contract.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "symmetric_factor",
    "tensor_to_json",
    "tensor_from_json",
]

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def symmetric_factor(m):
    """Factor a complex symmetric matrix as ``m = a @ a.T``.

    For (numerically) real symmetric input this is the eigendecomposition
    ``m = v diag(w) v.T`` with ``a = v diag(sqrt(w))`` using principal complex
    square roots, which handles indefinite matrices. Genuinely complex
    symmetric input, defective or not, takes its Takagi factorization
    ``m = u diag(s) u.T`` with ``u`` unitary and ``s >= 0``, and ``a = u diag(sqrt(s))``.
    Input that is not square, finite and symmetric, or whose eigenvalues
    overflow, raises ``ValueError``.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("symmetric_factor expects a square matrix")
    if not np.isfinite(m).all():
        raise ValueError("matrix has a non-finite entry")
    if not np.allclose(m, m.T, rtol=1e-12, atol=1e-12):
        raise ValueError("matrix is not symmetric within 1e-12")
    if np.max(np.abs(m.imag)) <= 1e-12:
        w, v = np.linalg.eigh(m.real)
        if not np.isfinite(w).all():
            raise ValueError("matrix has a non-finite eigenvalue")
        a = v.astype(complex) @ np.diag(np.sqrt(w.astype(complex)))
    else:
        # with m = b + ic, a column x + iy of u solves m conj(u) = s u: (x, y) is an eigenvector of the real
        # symmetric [[b, c], [c, -b]] of eigenvalue s, whose eigenvalues are the pairs +-s
        n = len(m)
        w, v = np.linalg.eigh(np.block([[m.real, m.imag], [m.imag, -m.real]]))
        if not np.isfinite(w).all():
            raise ValueError("matrix has a non-finite eigenvalue")
        a = (v[:n, n:] + 1j * v[n:, n:]) * np.sqrt(np.maximum(w[n:], 0.0))
    if not np.allclose(a @ a.T, m, rtol=0, atol=1e-10 * max(1.0, float(np.max(np.abs(m))))):
        raise RuntimeError("symmetric factorization failed (no admissible square root found)")
    return a


def tensor_to_json(t) -> dict:
    t = np.ascontiguousarray(np.asarray(t, dtype=complex))
    flat = t.reshape(-1)
    return {
        "shape": [int(s) for s in t.shape],
        "re": flat.real.tolist(),
        "im": flat.imag.tolist(),
    }


def tensor_from_json(data: dict):
    shape = tuple(int(s) for s in data["shape"])
    flat = np.asarray(data["re"], dtype=float) + 1j * np.asarray(data["im"], dtype=float)
    return flat.reshape(shape)
