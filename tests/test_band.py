import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bandflow.band import (
    BandedSymmetricMatrix,
    boundary_coupling_sq,
    make_banded,
    read_matrix,
    split_irreducible,
    write_matrix,
)


def random_banded(seed, n, m):
    rng = np.random.default_rng(seed)
    return BandedSymmetricMatrix(n, m, [rng.uniform(-1, 1, n - k) for k in range(m + 1)])


class TestMakeBanded:
    def test_two_by_two(self):
        h = make_banded(2, 1, {(0, 1): 1.0})
        assert np.array_equal(h.to_dense(), [[0.0, 1.0], [1.0, 0.0]])

    def test_diagonal_case(self):
        h = make_banded(3, 0, {(i, i): float(i) for i in range(3)})
        assert np.array_equal(h.to_dense(), np.diag([0.0, 1.0, 2.0]))

    def test_tridiagonal(self):
        h = make_banded(3, 1, {(0, 0): 1, (1, 1): 2, (2, 2): 3, (0, 1): 1, (1, 2): 1})
        expect = np.diag([1.0, 2.0, 3.0]) + np.diag([1.0, 1.0], 1) + np.diag([1.0, 1.0], -1)
        assert np.array_equal(h.to_dense(), expect)

    def test_lower_triangle_keys_accepted(self):
        h = make_banded(3, 1, {(1, 0): 2.0})
        assert h.get(0, 1) == 2.0 == h.get(1, 0)

    def test_out_of_band_rejected_with_indices(self):
        with pytest.raises(ValueError, match=r"\(0, 2\)"):
            make_banded(3, 1, {(0, 2): 1.0})

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            make_banded(2, 1, {(0, 1): float("nan")})

    def test_bad_dimensions(self):
        with pytest.raises(ValueError):
            make_banded(0, 0, {})
        with pytest.raises(ValueError):
            make_banded(3, 3, {})


class TestScalars:
    def test_diagonal_matrix(self):
        h = make_banded(3, 0, {(0, 0): 1.0, (1, 1): 2.0, (2, 2): 3.0})
        assert h.trace() == 6.0
        assert h.offdiag_norm_sq() == 0.0

    def test_symmetric_two_level(self):
        h = make_banded(2, 1, {(0, 1): 1.0})
        assert h.frobenius_norm_sq() == 2.0

    def test_tridiagonal_offdiag(self):
        h = make_banded(3, 1, {(0, 0): 1, (1, 1): 2, (2, 2): 3, (0, 1): 1, (1, 2): 1})
        assert h.offdiag_norm_sq() == 4.0

    @pytest.mark.parametrize("seed", range(4))
    def test_frobenius_counts_both_copies(self, seed):
        h = random_banded(seed, 9, 2)
        dense = h.to_dense()
        assert h.frobenius_norm_sq() == pytest.approx(np.sum(dense * dense), rel=1e-14)


class TestAccess:
    @pytest.mark.parametrize("seed", range(3))
    def test_symmetry_exact(self, seed):
        h = random_banded(seed, 10, 3)
        for n in range(10):
            for m in range(10):
                assert h.get(n, m) == h.get(m, n)

    def test_outside_band_is_exact_zero(self):
        h = random_banded(0, 8, 2)
        for n in range(8):
            for m in range(8):
                if abs(n - m) > 2:
                    assert h.get(n, m) == 0.0

    def test_band_views_are_read_only(self):
        h = random_banded(0, 5, 1)
        with pytest.raises(ValueError):
            h.band(0)[0] = 99.0

    def test_immutable_attributes(self):
        h = random_banded(0, 5, 1)
        with pytest.raises(AttributeError):
            h.dim = 7

    def test_row_layout(self):
        h = make_banded(3, 1, {(0, 0): 1, (1, 1): 2, (2, 2): 3, (0, 1): 4, (1, 2): 5})
        assert np.array_equal(h.rows(), [[1.0, 2.0, 3.0], [4.0, 5.0, 0.0]])
        with pytest.raises(ValueError):
            h.rows()[1, 2] = 6.0
        again = BandedSymmetricMatrix.from_rows(h.rows())
        assert np.array_equal(again.to_dense(), h.to_dense())

    def test_from_rows_rejects_nonzero_padding(self):
        with pytest.raises(ValueError, match="padding"):
            BandedSymmetricMatrix.from_rows([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])


class TestSplitIrreducible:
    def test_all_diagonal(self):
        h = make_banded(3, 1, {(0, 0): 5.0, (1, 1): 1.0, (2, 2): 3.0})
        blocks = split_irreducible(h)
        assert [(b.start, b.end) for b in blocks] == [(0, 1), (1, 2), (2, 3)]

    def test_fully_coupled(self):
        h = make_banded(3, 1, {(0, 0): 1, (1, 1): 2, (2, 2): 3, (0, 1): 1, (1, 2): 1})
        blocks = split_irreducible(h)
        assert [(b.start, b.end) for b in blocks] == [(0, 3)]

    def test_interior_zero_coupling(self):
        h = make_banded(
            4, 1, {(0, 0): 1, (1, 1): 2, (2, 2): 3, (3, 3): 4, (0, 1): 1, (2, 3): 1}
        )
        blocks = split_irreducible(h)
        assert [(b.start, b.end) for b in blocks] == [(0, 2), (2, 4)]

    def test_wide_band_boundary_needs_all_zero(self):
        # (0,2) crosses the would-be cut after index 1 at bandwidth 2
        h = make_banded(3, 2, {(0, 2): 0.5})
        assert [(b.start, b.end) for b in split_irreducible(h)] == [(0, 3)]


    def test_small_coupling_after_unit_coupling(self):
        # 1 + 1e-20 - 1 == 0: a difference of running sums would cut here
        h = make_banded(3, 1, {(0, 1): 1.0, (1, 2): 1e-10})
        assert [(b.start, b.end) for b in split_irreducible(h)] == [(0, 3)]

    @pytest.mark.parametrize("dim,bandwidth,entries", [
        (2, 1, {(0, 0): 1.0, (0, 1): 1e-170}),
        (3, 2, {(0, 0): 1.0, (0, 2): 1e-170, (1, 1): 2.0}),
    ])
    def test_coupling_whose_square_underflows(self, dim, bandwidth, entries):
        # 1e-170 ** 2 == 0.0, yet the matrix is coupled across every cut
        h = make_banded(dim, bandwidth, entries)
        assert [(b.start, b.end) for b in split_irreducible(h)] == [(0, dim)]


@st.composite
def mixed_banded(draw):
    """Banded matrices whose entries are exact zeros or of magnitude 1 or 1e-10."""
    n = draw(st.integers(1, 12))
    m = draw(st.integers(0, n - 1))
    value = st.sampled_from([0.0, 1.0, -0.75, 1e-10, -1.5e-10])
    bands = [draw(st.lists(value, min_size=n - k, max_size=n - k)) for k in range(m + 1)]
    return BandedSymmetricMatrix(n, m, bands)


class TestBoundaryCoupling:
    @settings(max_examples=200, deadline=None)
    @given(h=mixed_banded())
    def test_matches_per_cut_sum(self, h):
        cross = boundary_coupling_sq(h.rows())
        assert cross.shape == (h.dim - 1,)
        for c in range(1, h.dim):
            entries = [
                h.get(n, k)
                for n in range(c)
                for k in range(c, min(n + h.bandwidth, h.dim - 1) + 1)
            ]
            assert cross[c - 1] == pytest.approx(sum(v * v for v in entries), rel=1e-12)
            assert (cross[c - 1] == 0.0) == all(v == 0.0 for v in entries)


class TestTextFormat:
    @pytest.mark.parametrize("seed,n,m", [(0, 6, 1), (1, 9, 3), (2, 5, 0)])
    def test_round_trip_bit_exact(self, seed, n, m):
        h = random_banded(seed, n, m)
        buf = io.StringIO()
        write_matrix(h, buf)
        buf.seek(0)
        again = read_matrix(buf)
        assert again.dim == h.dim and again.bandwidth == h.bandwidth
        for k in range(m + 1):
            assert np.array_equal(again.band(k), h.band(k))

    def test_unspecified_entries_zero(self):
        again = read_matrix(io.StringIO("bandmat 3 1\n0 1 2.5\n"))
        assert again.get(0, 1) == 2.5
        assert again.get(0, 0) == 0.0 and again.get(1, 2) == 0.0

    def test_header_errors(self):
        with pytest.raises(ValueError, match="line 1"):
            read_matrix(io.StringIO("matbend 3 1\n"))

    def test_entry_error_carries_line_number(self):
        with pytest.raises(ValueError, match="line 3"):
            read_matrix(io.StringIO("bandmat 3 1\n0 0 1.0\n0 1 oops\n"))

    def test_duplicate_entry_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            read_matrix(io.StringIO("bandmat 3 1\n0 1 1.0\n1 0 2.0\n"))

    def test_out_of_band_entry_rejected(self):
        with pytest.raises(ValueError, match="band"):
            read_matrix(io.StringIO("bandmat 3 1\n0 2 1.0\n"))
