import numpy as np

from sparsetn.tensor import tensor_from_json, tensor_to_json


class TestSerialization:
    def test_round_trip(self):
        rng = np.random.default_rng(5)
        t = rng.standard_normal((2, 3, 2)) + 1j * rng.standard_normal((2, 3, 2))
        back = tensor_from_json(tensor_to_json(t))
        assert back.shape == t.shape
        np.testing.assert_array_equal(back, t)

    def test_row_major_linearization(self):
        t = np.arange(6, dtype=complex).reshape(2, 3)
        data = tensor_to_json(t)
        assert data["shape"] == [2, 3]
        assert data["re"] == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
