import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from porechem.gridio import read_csv, write_csv, write_field

from oracles import field_text, read_field

# values whose text forms differ most: signed zeros and infinities, nan,
# the smallest and largest subnormals, and 17-digit round-trip cases
SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2250738585072009e-308,
           0.1, 1.0 / 3.0, -1e300, 123456789012345678.0]

values = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))


def _oracle(values, h, mask):
    """The field format, one value at a time."""
    nx, ny = values.shape
    out = values if mask is None else np.where(mask, values, np.nan)
    lines = [f"{nx} {ny}", repr(h)]
    lines += [" ".join(format(float(out[ix, iy]), ".17g") for ix in range(nx)) for iy in range(ny)]
    return ("\n".join(lines) + "\n").encode()


@settings(max_examples=60, deadline=None)
@given(
    st.tuples(st.integers(1, 9), st.integers(1, 9)).flatmap(
        lambda shape: st.tuples(
            arrays(float, shape, elements=values),
            st.none() | arrays(bool, shape),
        )
    ),
    st.sampled_from([1.0, 0.25, 1.0 / 3.0, 1.0 / 128.0]),
)
def test_write_field_matches_per_value_format(tmp_path_factory, data, h):
    vals, mask = data
    path = tmp_path_factory.mktemp("field") / "f.txt"
    write_field(path, vals, h, mask)
    assert path.read_bytes() == _oracle(vals, h, mask)
    back, h_back, back_mask = read_field(path)
    want = vals if mask is None else np.where(mask, vals, np.nan)
    assert h_back == h
    assert np.array_equal(back_mask, ~np.isnan(want))
    assert np.array_equal(back[back_mask], want[back_mask])
    assert np.array_equal(np.signbit(back[back_mask]), np.signbit(want[back_mask]))


# NaNs of other bit patterns than np.nan's: the sign bit set, a payload
OTHER_NANS = [-np.nan, np.array(0x7FF8000000000001).view(float).item()]
floats = st.one_of(values, st.sampled_from(OTHER_NANS))


def _few_values(shape):
    """Arrays of ``shape`` drawn mostly from a pool of at most four values,
    so that values repeat, as on most fields porechem writes."""
    return st.lists(floats, min_size=1, max_size=4).flatmap(
        lambda pool: arrays(float, shape, elements=st.sampled_from(pool) | floats)
    )


@settings(max_examples=80, deadline=None)
@given(
    st.tuples(st.integers(1, 9), st.integers(1, 9)).flatmap(
        lambda shape: st.tuples(_few_values(shape), st.none() | arrays(bool, shape))
    ),
    st.sampled_from([1.0, 1.0 / 3.0, 1.0 / 128.0]),
)
@example((np.array([[0.0, -0.0], [-0.0, 0.0]]), None), 0.5)
@example((np.array([[np.nan, -np.nan, OTHER_NANS[1], 5e-324, -5e-324, np.inf, -np.inf] * 2]), None), 1.0)
@example((np.full((1, 1), -0.0), np.zeros((1, 1), dtype=bool)), 1.0)
def test_write_field_gives_the_bytes_of_the_one_template_writer(tmp_path_factory, data, h):
    vals, mask = data
    path = tmp_path_factory.mktemp("field") / "f.txt"
    write_field(path, vals, h, mask)
    assert path.read_bytes() == field_text(vals, h, mask).encode()


def test_write_csv_round_trips_through_read_csv(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["n", "x", "y"], [(3, 0.1, -0.0), {"n": 4, "y": np.inf}])
    columns, rows = read_csv(path)
    assert columns == ["n", "x", "y"]
    assert [r["n"] for r in rows] == [3.0, 4.0] and [r["x"] for r in rows] == [0.1, None]
    assert str(rows[0]["y"]) == "-0.0" and rows[1]["y"] == np.inf
