import json

import numpy as np
import pytest

from bgsindy import (Axis, Dataset, DatasetError, DiscoveredModel, SampleSet, add_noise,
                     load_dataset, reference_model, save_dataset, subsample)


def make_dataset(nx=16, nt=12, nf=1, boundary="periodic", seed=0):
    rng = np.random.default_rng(seed)
    fields = {name: rng.standard_normal((nx, nt))
              for name in ["u", "v"][:nf]}
    return Dataset((Axis(0.0, 0.1, nx),), Axis(0.0, 0.01, nt), fields,
                   {name: boundary for name in fields}, {"origin": "test"})


class TestDatasetValidation:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(DatasetError, match="shape"):
            Dataset((Axis(0, 0.1, 8),), Axis(0, 0.1, 4),
                    {"u": np.zeros((8, 5))}, {"u": "periodic"})

    def test_nonfinite_rejected(self):
        arr = np.zeros((8, 4))
        arr[3, 2] = np.nan
        with pytest.raises(DatasetError, match="non-finite"):
            Dataset((Axis(0, 0.1, 8),), Axis(0, 0.1, 4), {"u": arr}, {"u": "periodic"})

    def test_bad_axis(self):
        with pytest.raises(DatasetError):
            Axis(0.0, -1.0, 8)
        with pytest.raises(DatasetError):
            Axis(0.0, 1.0, 3)

    def test_fields_immutable(self):
        ds = make_dataset()
        with pytest.raises(ValueError):
            ds.fields["u"][0, 0] = 5.0

    def test_caller_array_stays_writeable_and_private(self):
        u = np.zeros((8, 4))
        ds = Dataset((Axis(0, 0.1, 8),), Axis(0, 0.1, 4), {"u": u}, {"u": "periodic"})
        assert u.flags.writeable
        assert not np.shares_memory(u, ds.fields["u"])
        u[0, 0] = 5.0
        assert ds.fields["u"][0, 0] == 0.0

    def test_read_only_array_held_without_copy(self):
        u = np.zeros((8, 4))
        u.flags.writeable = False
        ds = Dataset((Axis(0, 0.1, 8),), Axis(0, 0.1, 4), {"u": u}, {"u": "periodic"})
        assert ds.fields["u"] is u


class TestModelJson:
    def test_round_trip(self):
        model = reference_model("modified-ks")
        back = DiscoveredModel.from_json_dict(json.loads(json.dumps(model.to_json_dict())))
        assert back.terms == model.terms
        assert np.array_equal(back.coefficients, model.coefficients)

    @pytest.mark.parametrize("edit, named", [
        (lambda d: {}, "'terms'"),
        (lambda d: {**d, "terms": {}}, "'terms'"),
        (lambda d: {k: v for k, v in d.items() if k != "target_field"}, "'target_field'"),
        (lambda d: {**d, "residual": "0"}, "'residual'"),
        (lambda d: {**d, "terms": [5]}, "model term"),
        (lambda d: {**d, "terms": [{"powers": {"u": 1}}]}, "'coefficient'"),
        (lambda d: {**d, "terms": [{"powers": {"u": "2"}, "coefficient": 1.0}]}, "'u'"),
        (lambda d: {**d, "terms": [{"powers": [], "coefficient": 1.0}]}, "'powers'"),
        (lambda d: {**d, "terms": [{"deriv": {"field": "u"}, "coefficient": 1.0}]},
         "'orders'"),
        (lambda d: {**d, "terms": [{"deriv": {"field": "u", "orders": [1.5]},
                                    "coefficient": 1.0}]}, "'orders'")],
        ids=["empty", "terms-object", "no-target", "residual-string", "term-number",
             "no-coefficient", "power-string", "powers-array", "no-orders", "float-order"])
    def test_missing_or_mistyped_entry_named(self, edit, named):
        d = edit(reference_model("kdv").to_json_dict())
        with pytest.raises(DatasetError, match=named):
            DiscoveredModel.from_json_dict(d)


class TestPersistence:
    def test_round_trip_bit_exact(self, tmp_path):
        ds = make_dataset(nf=2)
        save_dataset(ds, tmp_path / "d")
        back = load_dataset(tmp_path / "d")
        for name in ds.fields:
            assert back.fields[name].tobytes() == ds.fields[name].tobytes()
        assert back.boundary == ds.boundary
        assert back.metadata == ds.metadata
        assert back.space_axes == ds.space_axes
        assert back.time_axis == ds.time_axis

    def test_truncated_binary_rejected(self, tmp_path):
        ds = make_dataset()
        save_dataset(ds, tmp_path / "d")
        payload = (tmp_path / "d.bin").read_bytes()
        (tmp_path / "d.bin").write_bytes(payload[:-16])
        with pytest.raises(DatasetError, match="size mismatch"):
            load_dataset(tmp_path / "d")

    def test_malformed_header_rejected(self, tmp_path):
        # text that is no JSON, or a header entry that is missing, mistyped
        # or points past the payload: the error names it
        ds = make_dataset()
        save_dataset(ds, tmp_path / "d")
        header = json.loads((tmp_path / "d.json").read_text())
        field = header["fields"][0]
        cases = [("{not json", "malformed"),
                 ([header], "JSON object"),
                 ({**header, "fields": [{k: v for k, v in field.items() if k != "shape"}]},
                  "'shape'"),
                 ({**header, "fields": [{**field, "shape": "16, 12"}]}, "'shape'"),
                 ({**header, "fields": [{**field, "shape": [12, 16]}]}, "shape"),
                 ({**header, "fields": [{**field, "offset_bytes": 8}]}, "offset_bytes"),
                 ({**header, "axes": {**header["axes"], "space": [
                     {**header["axes"]["space"][0], "spacing": "0.1"}]}}, "'spacing'"),
                 ({**header, "dtype": "f32le"}, "'dtype'"),
                 ({k: v for k, v in header.items() if k != "boundary"}, "'boundary'"),
                 ({**header, "metadata": []}, "'metadata'")]
        for text, named in cases:
            if not isinstance(text, str):
                text = json.dumps(text)
            (tmp_path / "d.json").write_text(text)
            with pytest.raises(DatasetError, match=named):
                load_dataset(tmp_path / "d")

    def test_nonfinite_payload_rejected(self, tmp_path):
        ds = make_dataset()
        save_dataset(ds, tmp_path / "d")
        bad = np.full(ds.total_points, np.inf)
        (tmp_path / "d.bin").write_bytes(bad.astype("<f8").tobytes())
        with pytest.raises(DatasetError, match="non-finite"):
            load_dataset(tmp_path / "d")

    def test_kdv_dataset_round_trip(self, kdv_dataset, tmp_path):
        # published sizing: 260 space points, 3001 slices at 0.001 spacing
        assert kdv_dataset.shape == (260, 3001)
        assert np.isclose(kdv_dataset.time_axis.spacing, 1e-3)
        save_dataset(kdv_dataset, tmp_path / "kdv")
        back = load_dataset(tmp_path / "kdv")
        assert back.fields["u"].tobytes() == kdv_dataset.fields["u"].tobytes()


class TestSubsample:
    def test_all_strategy_identity(self):
        # n None takes every grid point in grid order; the seed is not read
        ds = make_dataset()
        s = subsample(ds, seed=3)
        assert np.array_equal(s.indices, np.arange(ds.total_points))

    def test_determinism(self, kdv_dataset):
        a = subsample(kdv_dataset, 1000, seed=42)
        b = subsample(kdv_dataset, 1000, seed=42)
        assert np.array_equal(a.indices, b.indices)

    def test_out_of_range_n(self):
        ds = make_dataset()
        with pytest.raises(DatasetError):
            subsample(ds, ds.total_points + 1)

    def test_time_window(self):
        ds = make_dataset(nt=12)
        s = subsample(ds, time_window=(4, 8))
        _, ti = np.unravel_index(s.indices, ds.shape)
        assert ti.min() == 4 and ti.max() == 7
        assert s.n == 16 * 4

    @pytest.mark.parametrize("window, lo, hi", [((None, 5), 0, 5), ((7, None), 7, 12)])
    def test_time_window_open_ends(self, window, lo, hi):
        ds = make_dataset(nt=12)
        _, ti = np.unravel_index(subsample(ds, time_window=window).indices, ds.shape)
        assert ti.min() == lo and ti.max() == hi - 1

    @pytest.mark.parametrize("n", [None, 200], ids=["all", "uniform-random"])
    def test_margins_and_window_bound_every_draw(self, n):
        ds = make_dataset(nx=40, nt=30)
        s = subsample(ds, n, seed=5, time_window=(2, 20), margins=(3, 4))
        xi, ti = np.unravel_index(s.indices, ds.shape)
        assert xi.min() >= 3 and xi.max() < 37
        assert ti.min() >= 4 and ti.max() < 20
        assert s.n == (34 * 16 if n is None else n)

    def test_margins_must_leave_points(self):
        ds = make_dataset(nx=10, nt=12)
        with pytest.raises(DatasetError, match="margins"):
            subsample(ds, 1, margins=(5, 0))


class TestSampleSet:
    SHAPE = (4, 5)      # 20 grid points

    @pytest.mark.parametrize("indices, message", [
        ([7, 2, 7], "duplicate"),           # unsorted, duplicates not adjacent
        ([3, -1, 0], "out of range"),
        ([0, 20, 5], "out of range"),       # 20 is the grid total
        ([], "empty"),
    ])
    def test_invalid_indices_rejected(self, indices, message):
        with pytest.raises(DatasetError, match=message):
            SampleSet(np.array(indices, dtype=np.int64), self.SHAPE)

    def test_shuffled_permutation_accepted(self):
        idx = np.random.default_rng(3).permutation(20)
        s = SampleSet(idx, self.SHAPE)
        assert np.array_equal(s.indices, idx)   # kept in the given order
        assert s.n == 20

    def test_caller_array_stays_writeable(self):
        idx = np.arange(20, dtype=np.int64)[::-1].copy()
        s = SampleSet(idx, self.SHAPE)
        assert idx.flags.writeable
        assert not s.indices.flags.writeable
        idx[0] = 0                              # the set keeps its own values
        assert s.indices[0] == 19


class TestAddNoise:
    def test_gamma_zero_identity(self):
        ds = make_dataset()
        assert add_noise(ds, "u", 0.0, seed=1) is ds

    def test_determinism_and_scale(self, kdv_dataset):
        a = add_noise(kdv_dataset, "u", 0.25, seed=5)
        b = add_noise(kdv_dataset, "u", 0.25, seed=5)
        assert np.array_equal(a.fields["u"], b.fields["u"])
        delta = a.fields["u"] - kdv_dataset.fields["u"]
        target = 0.25 * kdv_dataset.fields["u"].std()
        # >= 1e5 points: sample std within 2% of the requested amplitude
        assert abs(delta.std() / target - 1.0) < 0.02

    def test_shape_and_other_fields_untouched(self):
        ds = make_dataset(nf=2)
        noisy = add_noise(ds, "u", 0.1, seed=2)
        assert noisy.fields["u"].shape == ds.fields["u"].shape
        assert np.array_equal(noisy.fields["v"], ds.fields["v"])

    def test_unknown_field(self):
        ds = make_dataset()
        with pytest.raises(DatasetError):
            add_noise(ds, "w", 0.1)

    def test_negative_gamma(self):
        ds = make_dataset()
        with pytest.raises(DatasetError):
            add_noise(ds, "u", -0.1)
