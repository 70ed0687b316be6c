"""The CSV text of stored grids against Python's % formatting, byte for byte.

SolutionGrid.to_csv spells values from the digit tables of pssurf.digits,
a block of rows at a time; every data line must equal six '%.17g' of the
same numbers joined by commas.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pssurf import digits
from pssurf.solutions import SolutionGrid, goursat_solve, sg_kink

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


# ------------------------------------------------------------ reading back

HEAD = b"x0=0.0 t0=0.0 hx=1.0 ht=1.0 nx=%d nt=1\nu,u_x,u_t,u_xx,u_xt,u_tt\n"


def _rows_of_six(values):
    v = np.asarray(values, dtype=float)
    return np.concatenate([v, np.zeros(-len(v) % 6)]).reshape(-1, 6)


def _read_both(path):
    """from_csv's grid, the one-pass reader's, and read_rows's values."""
    with open(path, "rb") as fh:
        nx = int(fh.readline().split(b"nx=")[1].split()[0])
        fh.readline()
        values = digits.read_rows(fh, nx, 6)
    return (SolutionGrid.from_csv(path), SolutionGrid._read_csv_serial(path),
            values)


def _same_bits(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


@pytest.fixture(scope="module")
def round_trip(tmp_path_factory):
    """A function of values that writes them with to_csv, as rows of six
    (padded with 0.0), and returns the rows written, the rows from_csv and
    the one-pass reader read back, and read_rows's values."""
    path = tmp_path_factory.mktemp("read") / "grid.csv"

    def write_and_read(values):
        v = _rows_of_six(values)
        grid = SolutionGrid(x0=0.0, t0=0.0, hx=1.0, ht=1.0, nx=len(v), nt=1,
                            values={n: v[:, [j]] for j, n in enumerate(NAMES)})
        grid.to_csv(path)
        with open(path, "rb") as fh:
            fh.readline()
            fh.readline()
            rows = digits.read_rows(fh, len(v), 6)
        back = [SolutionGrid.from_csv(path),
                SolutionGrid._read_csv_serial(path)]
        return v, *(np.column_stack([g[n].reshape(-1) for n in NAMES])
                    for g in back), rows
    return write_and_read


def _canonical(v):
    """v with every NaN as float("nan"): '%.17g' spells each NaN "nan"."""
    return np.where(np.isnan(v), float("nan"), v)


def test_edge_values_read_back_bit_for_bit(round_trip):
    values = EDGE_VALUES + [-x for x in EDGE_VALUES] + [
        np.nextafter(2.0 ** e, 0.0) for e in range(-20, 60)]
    v, back, serial, rows = round_trip(values)
    assert _same_bits(back, _canonical(v))
    assert _same_bits(back, serial)
    assert _same_bits(rows, back.reshape(-1))


@SETTINGS
@given(st.lists(st.one_of(
    st.integers(0, 2 ** 64 - 1).map(
        lambda b: float(np.array(b, np.uint64).view(float))),
    st.floats(allow_subnormal=True),
    st.sampled_from([0.0, -0.0, float("inf"), float("-inf"), float("nan"),
                     5e-324, -5e-324, 1e-5, 1.5e17, 2.0 ** 53 + 2])),
    min_size=1, max_size=60))
def test_any_bits_read_back_bit_for_bit(round_trip, values):
    # read_rows decides every file to_csv writes, and reads the values
    # written, as the one-pass reader reads them
    v, back, serial, rows = round_trip(values)
    assert rows is not None
    assert _same_bits(back, _canonical(v))
    assert _same_bits(back, serial)


def test_truncated_march_reads_back_bit_for_bit(tmp_path):
    kink = sg_kink(1.0)
    grid = goursat_solve(lambda u, ux: np.sin(u), lambda x: kink.u(x, -2.0),
                         lambda t: kink.u(-2.0, t),
                         (-2.0, 2.0, -2.0, 2.0, 0.02), u_bound=4.0)
    assert np.isnan(grid["u"]).mean() > 0.5
    path = tmp_path / "grid.csv"
    grid.to_csv(path)
    back = SolutionGrid.from_csv(path)
    serial = SolutionGrid._read_csv_serial(path)
    for name in NAMES:
        assert _same_bits(back[name], grid[name])
        assert _same_bits(back[name], serial[name])


def _decimals(rng, size):
    """Decimal text of five kinds, as bytes fields."""
    bits = rng.integers(0, 2 ** 64, size, dtype=np.uint64).view(float)
    fixed = rng.standard_normal(size) * 10.0 ** rng.uniform(-5, 17, size)
    short = rng.integers(1, 10 ** 6, size) / 10.0 ** rng.integers(0, 8, size)
    near = np.nextafter(short, np.where(rng.random(size) < 0.5, 0, np.inf))
    powers = 2.0 ** rng.integers(-20, 57, size)
    powers = np.where(rng.random(size) < 0.5, np.nextafter(powers, 0), powers)
    fields = [b"%.17g" % x for v in (bits, fixed, near, powers)
              for x in v.tolist()]
    # 17-digit decimals that '%.17g' does not write: n / 10**k, k <= 20
    for n, k in zip(rng.integers(10 ** 16, 10 ** 17, size).tolist(),
                    rng.integers(0, 21, size).tolist()):
        s = str(n).rjust(k + 1, "0")
        fields.append((s[:len(s) - k] + "." + s[len(s) - k:]).encode())
    return fields


@pytest.mark.parametrize("seed", range(2))
def test_read_rows_rounds_as_float(tmp_path, seed):
    rng = np.random.default_rng(seed)
    fields = _decimals(rng, 12_000)
    rng.shuffle(fields)
    text = b"".join(b",".join(fields[j:j + 6]) + b"\n"
                    for j in range(0, len(fields), 6))
    path = tmp_path / "rows.csv"
    path.write_bytes(text)
    with open(path, "rb") as fh:
        got = digits.read_rows(fh, len(fields) // 6, 6)
    assert got is not None
    assert _same_bits(got, np.array([float(f) for f in fields]))


# fields to_csv does not write, that read_rows reads
_OTHER_FIELDS = [b"0.1", b"+1", b"1.", b".5", b"-.5", b"1e5", b"-1.5E-7",
                 b"123456789012345678", b"0.1234567890123456789",
                 b"12345678901234567890", b"123456789.5", b"0000000000001.5",
                 b"Infinity", b"-nan", b"+inf", b"NaN", b"-0", b"0.000"]
# text that read_rows leaves to the one-pass reader, which takes it
_OTHER_TEXT = {
    "CRLF rows": lambda rows: rows.replace(b"\n", b"\r\n"),
    "comments": lambda rows: b"# a note\n" + rows.replace(
        b"\n", b" # a row\n", 1),
    "blank lines": lambda rows: rows.replace(b"\n", b"\n\n", 2),
    "spaces": lambda rows: rows.replace(b",", b" , ", 3),
}


def test_text_to_csv_does_not_write_reads_as_one_pass(tmp_path):
    fields = _OTHER_FIELDS + [b"0"] * (-len(_OTHER_FIELDS) % 6)
    rows = b"".join(b",".join(fields[j:j + 6]) + b"\n"
                    for j in range(0, len(fields), 6))
    path = tmp_path / "grid.csv"
    path.write_bytes(HEAD % (len(fields) // 6) + rows)
    back, serial, values = _read_both(path)
    assert values is not None
    assert _same_bits(values, [float(f) for f in fields])
    for name in NAMES:
        assert _same_bits(back[name], serial[name])


@pytest.mark.parametrize("edit", list(_OTHER_TEXT))
def test_other_text_is_left_to_one_pass(tmp_path, edit):
    rows = b"".join(b"%.17g,1.5,-2,0.25,3e-09,7\n" % (j / 7) for j in range(9))
    path = tmp_path / "grid.csv"
    path.write_bytes(HEAD % 9 + _OTHER_TEXT[edit](rows))
    back, serial, values = _read_both(path)
    assert values is None
    for name in NAMES:
        assert _same_bits(back[name], serial[name])


@pytest.mark.parametrize("field", [b"1_0", b"1..2", b"--1", b"", b"1e",
                                   b"0x10", b"nan(1)", b"1-2", b"-", b"."])
def test_fields_loadtxt_rejects_raise_its_error(tmp_path, field):
    path = tmp_path / "grid.csv"
    path.write_bytes(HEAD % 2 + b"1,2,3,4,5,6\n1,2," + field + b",4,5,6\n")
    with open(path, "rb") as fh:
        fh.readline()
        fh.readline()
        assert digits.read_rows(fh, 2, 6) is None
    with pytest.raises(ValueError) as serial:
        SolutionGrid._read_csv_serial(path)
    with pytest.raises(ValueError) as read:
        SolutionGrid.from_csv(path)
    assert str(read.value) == str(serial.value)
    assert "at line 4" in str(read.value)


@pytest.mark.parametrize("text, values", [
    (b"1,2,3,4,5,6\n-7,8,9,10,11,0\n",
     [1, 2, 3, 4, 5, 6, -7, 8, 9, 10, 11, 0]),
    (b"nan,inf,-inf,0.5,-0,1e-300\n", [np.nan, np.inf, -np.inf, 0.5, -0.0,
                                       1e-300]),
    (b"nan,nan,nan,nan,nan,nan\n-inf,inf,nan,nan,nan,nan\n",
     [np.nan] * 6 + [-np.inf, np.inf] + [np.nan] * 4),
])
def test_read_rows_of_integers_and_specials(tmp_path, text, values):
    path = tmp_path / "rows.csv"
    path.write_bytes(text)
    with open(path, "rb") as fh:
        got = digits.read_rows(fh, len(values) // 6, 6)
    assert _same_bits(got, np.array(values, dtype=float))
