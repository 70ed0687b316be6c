"""The OBJ text of pssurf.frame against Python's % formatting, byte for byte.

export_mesh spells vertex coordinates and face indices from digit tables,
a block of rows at a time; every line must equal 'v %.12g %.12g %.12g' and
'f %d %d %d' of the same numbers.
"""

import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pssurf import frame

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True,
                    database=None)

EDGE_VALUES = [
    # rounding to 12 digits carries into the next power of ten
    9.9999999999995, 9.9999999999995e-05, 999999999999.5,
    # exact binary ties at the 13th digit, rounded half to even
    1234567890.125, 1234567890.375, 12345678901.5, 123456789012.5,
    # the ends of the fixed-point range and beyond
    1e-4, 0.0001000000000000001, 9.99999999999e-5, 1e-5, 1.5e-7,
    1e12, 999999999999.0, 999999999999.4, 1e15, 1.7976931348623157e308,
    5e-324, 2.2250738585072014e-308, 1e-310,
    0.0, -0.0, float("nan"), float("inf"), float("-inf"),
    # whole numbers, powers of ten and an integer part with zeros
    1.0, 10.0, 100.0, 1e11, 120.0, 9128444560.0, 0.5, 2.5,
]


def _vertex_text(values):
    """frame's vertex lines for values, as rows of three (padded with 0.0),
    and the lines % writes."""
    v = np.asarray(values, dtype=float)
    v = np.concatenate([v, np.zeros(-len(v) % 3)]).reshape(-1, 3)
    out = io.BytesIO()
    frame._write_vertices(out, v)
    want = b"".join(b"v %.12g %.12g %.12g\n" % tuple(row) for row in v.tolist())
    return out.getvalue(), want


def _face_text(faces):
    out = io.BytesIO()
    frame._write_faces(out, faces)
    want = b"".join(b"f %d %d %d\n" % tuple(f) for f in faces.T.tolist())
    return out.getvalue(), want


def test_edge_values_spell_as_percent():
    values = EDGE_VALUES + [-x for x in EDGE_VALUES]
    values += [np.nextafter(x, t) for x in (1e-4, 1.0, 1e11, 1e12)
               for t in (0.0, np.inf)]
    got, want = _vertex_text(values)
    assert got == want
    assert b" 1234567890.12 " in got


@pytest.mark.parametrize("seed", range(2))
def test_values_across_exponents_spell_as_percent(seed):
    # 9,000 rows: more than one block, most blocks with values % spells
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(27_000) * 10.0 ** rng.uniform(-8, 14, 27_000)
    v[::97] = np.round(v[::97])
    got, want = _vertex_text(v)
    assert got == want


def test_block_of_one_exponent_spells_as_percent():
    # every value in the fixed-point range and away from a tie: no value is
    # left to %
    rng = np.random.default_rng(3)
    got, want = _vertex_text(rng.uniform(1.0, 2.0, 300))
    assert got == want


@SETTINGS
@given(st.lists(st.floats(allow_subnormal=True), min_size=1, max_size=30))
def test_floats_spell_as_percent(values):
    got, want = _vertex_text(values)
    assert got == want


@pytest.mark.parametrize("count", [1, 9, 10, 99, 9999, 10_000, 99_999,
                                   100_000, 123_456])
def test_indices_spell_as_percent(count):
    rng = np.random.default_rng(count)
    faces = rng.integers(1, count + 1, (3, 500))
    faces[:, :2] = [[1, count], [count, 1], [1, count]]
    got, want = _face_text(faces)
    assert got == want


@settings(SETTINGS, max_examples=50)
@given(st.lists(st.integers(1, 5000), min_size=3, max_size=30))
def test_small_index_sets_spell_as_percent(indices):
    faces = np.array(indices[:len(indices) // 3 * 3]).reshape(3, -1)
    got, want = _face_text(faces)
    assert got == want


def test_no_rows_write_nothing():
    assert _vertex_text([]) == (b"", b"")
    assert _face_text(np.zeros((3, 0), dtype=np.int64)) == (b"", b"")
