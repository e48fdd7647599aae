"""Round-trip and validation tests for the matrix text format."""
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invlab import (
    FormatError,
    Matrix,
    Vector,
    load_matrix,
    load_vector,
    matrix_to_text,
    save_matrix,
    save_vector,
)
from invlab.rng import Rng


def test_round_trip_exact(tmp_path):
    path = tmp_path / "m.txt"
    m = Matrix(Rng(3).normals(12).reshape(3, 4))
    save_matrix(path, m)
    back = load_matrix(path)
    assert np.array_equal(back.data, m.data)


def test_round_trip_extreme_values(tmp_path):
    path = tmp_path / "m.txt"
    for values in ([[1e-308, -1e308], [2.0**-53, -0.0]],
                   [[5e-324, -5e-324], [np.finfo(float).max, -0.0]]):  # smallest, largest
        m = Matrix(np.array(values))
        save_matrix(path, m)
        back = load_matrix(path)
        assert np.array_equal(back.data, m.data)
        # negative zero survives
        assert np.signbit(back.data[1, 1])


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.floats(allow_nan=False, allow_infinity=False, width=64),
        min_size=4,
        max_size=4,
    )
)
def test_round_trip_any_finite_floats(values):
    m = Matrix(np.array(values).reshape(2, 2))
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "h.txt"
        save_matrix(path, m)
        assert np.array_equal(load_matrix(path).data, m.data)


def test_header_shape(tmp_path):
    path = tmp_path / "m.txt"
    save_matrix(path, Matrix(np.ones((2, 3))))
    first = path.read_text().splitlines()[0]
    assert first.split() == ["2", "3"]


def test_matrix_to_text_matches_file(tmp_path):
    m = Matrix(Rng(4).normals(4).reshape(2, 2))
    path = tmp_path / "m.txt"
    save_matrix(path, m)
    assert path.read_text() == matrix_to_text(m)


def test_vector_round_trip(tmp_path):
    path = tmp_path / "v.txt"
    v = Vector(Rng(5).normals(6))
    save_vector(path, v)
    back = load_vector(path)
    assert np.array_equal(back.data, v.data)
    # stored as an n x 1 matrix
    assert path.read_text().splitlines()[0].split() == ["6", "1"]


def test_load_vector_rejects_matrix(tmp_path):
    path = tmp_path / "m.txt"
    save_matrix(path, Matrix(np.ones((2, 2))))
    with pytest.raises(FormatError):
        load_vector(path)


@pytest.mark.parametrize(
    "content",
    [
        "",  # empty
        "2\n1 2\n3 4\n",  # header missing a field
        "a b\n1 2\n",  # non-numeric header
        "2 2\n1 2\n",  # missing row
        "2 2\n1 2\n3\n",  # short row
        "2 2\n1 2\n3 4 5\n",  # long row
        "2 2\n1 2\n3 x\n",  # non-numeric entry
        "2 2\n1 2\n3 inf\n",  # non-finite entry
        "2 2\n1 2\n3 nan\n",  # non-finite entry
        "0 2\n",  # empty shape
        "2 2\n1 2\n3 4\n5 6\n",  # extra row
    ],
)
def test_load_matrix_rejects_malformed(tmp_path, content):
    path = tmp_path / "bad.txt"
    path.write_text(content)
    with pytest.raises(FormatError):
        load_matrix(path)


def test_load_matrix_missing_file(tmp_path):
    with pytest.raises(FormatError):
        load_matrix(tmp_path / "absent.txt")
