"""Property-based tests: ocean operators, accumulator, status files."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.covariance import AnomalyAccumulator
from repro.core.state import FieldLayout, FieldSpec
from repro.ocean.masking import LandFiller
from tests.ocean.test_masking import wet_neighbours
from repro.util.randomfields import GaussianRandomField2D
from repro.workflow.statefiles import StatusDirectory, TaskStatus


@st.composite
def masks(draw):
    ny = draw(st.integers(4, 10))
    nx = draw(st.integers(4, 10))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    mask = rng.random((ny, nx)) > 0.3
    return mask


class TestLandFillerProperties:
    @given(masks(), st.floats(-100.0, 100.0))
    @settings(max_examples=60, deadline=None)
    def test_constant_field_is_fixed_point(self, mask, value):
        filler = LandFiller(mask)
        fld = np.full(mask.shape, value)
        out = filler(fld)
        # every filled cell equals the constant; wet cells untouched
        assert np.allclose(out[mask], value)
        fillable = (~mask) & (wet_neighbours(mask) > 0)
        assert np.allclose(out[fillable], value)

    @given(masks(), st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_fill_bounded_by_neighbour_range(self, mask, seed):
        """Filled values interpolate: they never exceed the wet range."""
        rng = np.random.default_rng(seed)
        fld = rng.standard_normal(mask.shape)
        out = LandFiller(mask)(fld)
        if mask.any():
            lo, hi = fld[mask].min(), fld[mask].max()
            filled = (~mask) & (wet_neighbours(mask) > 0)
            if filled.any():
                assert out[filled].min() >= lo - 1e-12
                assert out[filled].max() <= hi + 1e-12

    @given(masks(), st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_wet_cells_never_modified(self, mask, seed):
        rng = np.random.default_rng(seed)
        fld = rng.standard_normal(mask.shape)
        out = LandFiller(mask)(fld)
        assert np.array_equal(out[mask], fld[mask])


class TestAccumulatorProperties:
    @given(
        st.integers(2, 20),  # members
        st.integers(2, 10),  # state dim
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_covariance_invariant_under_arrival_order(self, n, dim, seed):
        rng = np.random.default_rng(seed)
        layout = FieldLayout([FieldSpec("a", (dim,), scale=1.7)])
        members = {k: rng.standard_normal(dim) for k in range(n)}
        order = rng.permutation(n)

        acc1 = AnomalyAccumulator(layout, np.zeros(dim))
        for k in range(n):
            acc1.add_member(k, members[k])
        acc2 = AnomalyAccumulator(layout, np.zeros(dim))
        for k in order:
            acc2.add_member(int(k), members[int(k)])

        v1, v2 = acc1.view(), acc2.view()
        m1, m2 = v1.columns * v1.scale, v2.columns * v2.scale
        assert np.allclose(m1 @ m1.T, m2 @ m2.T, atol=1e-10)


class TestStatusDirectoryProperties:
    @given(
        st.lists(
            st.tuples(
                st.sets(st.integers(0, 200), min_size=1, max_size=8),
                st.sampled_from(list(TaskStatus)),
            ),
            max_size=12,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_batch_records_answer_per_member(self, batches):
        import tempfile

        # hypothesis replays examples within one test call, so a per-example
        # fresh directory (not a pytest fixture) is required
        with tempfile.TemporaryDirectory() as tmp:
            self._check(tmp, batches)

    @staticmethod
    def _check(tmp, batches):
        """Batch k is attempt k + 1: the latest record naming a member wins."""
        status = StatusDirectory(tmp)
        latest = {}
        for attempt, (members, code) in enumerate(batches, start=1):
            status.write_batch("pemodel", sorted(members), code, attempt)
            latest.update(dict.fromkeys(members, code))
        assert status.completed_indices("pemodel") == latest


class TestRandomFieldProperties:
    @given(
        st.integers(8, 24),
        st.integers(8, 24),
        st.floats(0.0, 6.0),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_fields_finite_and_zero_mean_ish(self, ny, nx, ls, seed):
        grf = GaussianRandomField2D((ny, nx), ls, rng=np.random.default_rng(seed))
        fields = grf.sample_many(50)
        assert np.all(np.isfinite(fields))
        # A field is Y^T Z X with Z white, so its domain mean is a^T Z b
        # (a, b the row means of Y, X) and the mean of 50 fields has standard
        # deviation |a||b| / sqrt(50) -- 0.14 when the length scale makes a
        # small grid one patch.  A fixed 0.5 was 3.5 of those: one run in ~70.
        y, x = grf.bases
        sigma = np.linalg.norm(y.mean(axis=1)) * np.linalg.norm(x.mean(axis=1))
        assert abs(fields.mean()) < 6.0 * sigma / np.sqrt(50) + 1e-12
