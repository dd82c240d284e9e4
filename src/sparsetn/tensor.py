"""Pauli matrices and tensor JSON.

Tensors are plain ``numpy`` arrays of ``complex128`` in C (row-major) order;
the row-major linearization is part of the serialization contract.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "tensor_to_json",
    "tensor_from_json",
]

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


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
