"""The CSV text of stored grids against Python's % formatting, byte for byte.

SolutionGrid.to_csv spells values from the digit tables of pssurf.digits,
a block of rows at a time; every data line must equal six '%.17g' of the
same numbers joined by commas.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pssurf import digits
from pssurf.solutions import SolutionGrid

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True,
                    database=None)
NAMES = ("u", "u_x", "u_t", "u_xx", "u_xt", "u_tt")
ROW = b",".join([b"%.17g"] * 6) + b"\n"

EDGE_VALUES = [
    # n = 10**16 itself, and whole numbers about 2**53
    1e16, 2.0 ** 53, 2.0 ** 53 + 2,
    np.nextafter(1e17, 0.0), 1e17, np.nextafter(1e17, np.inf),
    np.nextafter(1e-4, 0.0), 1e-4, np.nextafter(1e-4, 1.0),
    # rounding to 17 digits carries into the next power of ten
    0.99999999999999989, 9.9999999999999995e-05,
    5e-324, 1e-310, 2.2250738585072014e-308, 1.7976931348623157e308,
    0.0, -0.0, float("nan"), float("inf"), float("-inf"),
    1.0, 10.0, 0.5, 0.1, 1.5e-4, 123.0, 1e15, 1e-5,
]


@pytest.fixture(scope="module")
def csv_text(tmp_path_factory):
    """A function of values that returns the data lines to_csv writes for
    them, as rows of six (padded with 0.0), and the lines % writes."""
    path = tmp_path_factory.mktemp("csv") / "grid.csv"

    def spell(values):
        v = np.asarray(values, dtype=float)
        v = np.concatenate([v, np.zeros(-len(v) % 6)]).reshape(-1, 6)
        grid = SolutionGrid(x0=0.0, t0=0.0, hx=1.0, ht=1.0, nx=len(v), nt=1,
                            values={n: v[:, [j]] for j, n in enumerate(NAMES)})
        grid.to_csv(path)
        got = path.read_bytes().split(b"\n", 2)[2]
        return got, b"".join(ROW % tuple(row) for row in v.tolist())
    return spell


def test_edge_values_spell_as_percent(csv_text):
    values = EDGE_VALUES + [-x for x in EDGE_VALUES]
    got, want = csv_text(values)
    assert got == want
    assert b"9007199254740994," in got


def test_exact_ties_spell_as_percent(csv_text):
    # m / 1024 for odd m has an exact tie at its 18th digit: % rounds it
    # half to even
    rng = np.random.default_rng(5)
    m = rng.integers(10_240_000_000 // 2, 102_400_000_000 // 2, 3000) * 2 + 1
    got, want = csv_text(np.concatenate([m / 1024, -m / 1024]))
    assert got == want


@pytest.mark.parametrize("seed", range(2))
def test_values_across_exponents_spell_as_percent(csv_text, seed):
    # 10,000 rows: several blocks, most with values % spells
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(60_000) * 10.0 ** rng.uniform(-8, 20, 60_000)
    v[::97] = np.round(v[::97])
    got, want = csv_text(v)
    assert got == want


@SETTINGS
@given(st.lists(st.floats(allow_subnormal=True), min_size=1, max_size=30))
def test_floats_spell_as_percent(csv_text, values):
    got, want = csv_text(values)
    assert got == want


@pytest.mark.parametrize("precision, q", [(12, 5), (17, 10)])
def test_only_exact_ties_are_left_to_percent(precision, q):
    # x = m / 2**q in [1e7, 1e8), m odd, is an exact tie one digit past the
    # precision; its neighbours are not ties, and the digit tables spell
    # them, however close to the tie they lie
    rng = np.random.default_rng(precision)
    m = rng.integers(10 ** 7 << q - 1, 10 ** 8 << q - 1, 1000) * 2 + 1
    ties = m / 2.0 ** q
    values = np.stack([ties, np.nextafter(ties, 0.0),
                       np.nextafter(ties, np.inf)])
    fixed = digits._fixed_point(values, precision)[3]
    assert not fixed[0].any()
    assert fixed[1:].all()
    lead = np.zeros(values.shape[1], np.uint32)
    spell = b"%%.%dg" % precision
    for row in values:
        want = b"".join(spell % x for x in row.tolist()) + b"\n"
        assert digits.text_rows(row[None], precision, lead) == want


def test_no_rows_write_nothing(csv_text):
    assert csv_text([]) == (b"", b"")


def test_products_rounded_onto_a_tie_spell_by_the_sign_of_lo():
    # 13-digit decimals ending in 5: the rounded product x * 1e11 is a tie,
    # the exact product is not, and the sign of its error decides
    values = np.array([[8.287396983215, 7.194694245565, 6.147363765295,
                        5.913772573585]])
    hi = values * 1e11
    assert (np.abs(hi - np.rint(hi)) == 0.5).all()
    assert digits._fixed_point(values, 12)[3].all()
    got = digits.text_rows(values, 12, np.zeros(4, np.uint32))
    assert got == b"8.28739698322" b"7.19469424556" b"6.1473637653" \
                  b"5.91377257358\n"
    assert got == b"".join(b"%.12g" % x for x in values[0]) + b"\n"
