"""Plain-text matrix and vector files.

Line one is ``rows cols``; each following line is one row, entries
formatted with 17 significant digits so binary64 values round-trip
exactly. Vectors are stored as n x 1 matrices.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .core import Matrix, Vector
from .errors import DimensionMismatchError, FormatError


def format_float(x: float) -> str:
    """Round-trip-exact decimal form used across all text output."""
    return f"{x:.17g}"


def matrix_to_text(m: Matrix) -> str:
    lines = [f"{m.rows} {m.cols}"]
    lines += [" ".join(format_float(v) for v in row) for row in m.data.tolist()]
    return "\n".join(lines) + "\n"


def save_matrix(path: str | Path, m: Matrix) -> None:
    Path(path).write_text(matrix_to_text(m))


def load_matrix(path: str | Path) -> Matrix:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise FormatError(f"{path}: empty file")
    header = lines[0].split()
    if len(header) != 2:
        raise FormatError(f"{path}: header must be 'rows cols', got {lines[0]!r}")
    try:
        rows, cols = int(header[0]), int(header[1])
    except ValueError as exc:
        raise FormatError(f"{path}: non-integer header {lines[0]!r}") from exc
    if rows < 1 or cols < 1:
        raise FormatError(f"{path}: dimensions must be positive, got {rows}x{cols}")
    if len(lines) - 1 != rows:
        raise FormatError(f"{path}: expected {rows} data rows, found {len(lines) - 1}")
    data = np.empty((rows, cols))
    for i, line in enumerate(lines[1:]):
        parts = line.split()
        if len(parts) != cols:
            raise FormatError(f"{path}: row {i} has {len(parts)} entries, expected {cols}")
        try:
            data[i, :] = [float(p) for p in parts]
        except ValueError as exc:
            raise FormatError(f"{path}: bad number in row {i}: {exc}") from exc
    try:
        return Matrix(data)  # rejects non-finite entries
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def save_vector(path: str | Path, v: Vector) -> None:
    save_matrix(path, Matrix(v.data.reshape(-1, 1)))


def load_vector(path: str | Path) -> Vector:
    m = load_matrix(path)
    if m.cols != 1:
        raise FormatError(f"{path}: expected a single-column vector file, got {m.rows}x{m.cols}")
    return Vector(m.data[:, 0])


def require_same_order(a: Matrix, b: Vector, what: str) -> None:
    if a.rows != a.cols or a.rows != b.n:
        raise DimensionMismatchError(
            f"{what}: matrix is {a.rows}x{a.cols}, vector has length {b.n}"
        )
