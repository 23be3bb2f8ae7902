import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from porechem.gridio import write_field

from oracles import read_field

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
