import copy
from dataclasses import replace

import numpy as np
import pytest

from bgsindy import (Axis, Dataset, DatasetError, Library, LibrarySpec, SampleSet,
                     TermDescriptor, add_noise, build_library, reduce_independent,
                     subsample)
from bgsindy.benchmarks import (build_reduced_library, discovery_recipe, run_discovery,
                                sweep_recipe)
from bgsindy.differentiation import bump_filter, bump_kernel
from bgsindy import library as library_module
from bgsindy.differentiation import spectral_diff
from bgsindy.library import (_space_derivatives, row_half_widths, row_margins,
                             terms_for_spec)
from bgsindy.regression import compress
from bgsindy.simulate import default_config, generate_benchmark, reference_model


def small_dataset(nx=32, nt=20, seed=0):
    rng = np.random.default_rng(seed)
    dx = 2 * np.pi / nx
    x = dx * np.arange(nx)
    t = 0.05 * np.arange(nt)
    u = np.sin(x)[:, None] * np.cos(t)[None, :] + 0.1 * rng.standard_normal((nx, nt))
    return Dataset((Axis(0.0, dx, nx),), Axis(0.0, 0.05, nt),
                   {"u": u}, {"u": "periodic"})


def random_library(n=200, m=6, seed=0, term_names=None):
    rng = np.random.default_rng(seed)
    matrix = rng.standard_normal((n, m))
    target = rng.standard_normal(n)
    terms = tuple(TermDescriptor(((f"u", p + 1),)) if p < m else None
                  for p in range(m))
    ds = small_dataset(nx=8, nt=max(4, n // 8 + 1))
    total = ds.total_points
    samples = subsample(ds, min(n, total), seed)
    return Library(terms, matrix, target, samples, "u",
                   LibrarySpec(poly_degree=m, deriv_order=0))


class TestTermDescriptor:
    def test_render_examples(self):
        assert TermDescriptor((("u", 1),), ("u", (1,))).name == "u u_x"
        assert TermDescriptor((("v", 3),)).name == "v^3"
        assert TermDescriptor((("u", 5),), ("u", (1,))).name == "u^5 u_x"
        assert TermDescriptor((("u", 2),), ("u", (3,))).name == "u^2 u_{xxx}"
        assert TermDescriptor((), ("v", (0, 2))).name == "v_yy"
        assert TermDescriptor().name == "1"

    def test_ordering_total_and_stable(self):
        terms = terms_for_spec(LibrarySpec(poly_degree=2, deriv_order=4), ["u"], 1)
        assert terms[0] == TermDescriptor()
        assert terms == sorted(terms)
        assert len(set(terms)) == len(terms)

    def test_json_round_trip(self):
        t = TermDescriptor((("u", 2), ("v", 1)), ("v", (1, 1)))
        assert TermDescriptor.from_json_dict(t.to_json_dict()) == t


class TestBuildLibrary:
    def test_kdv_spec_15_terms(self):
        ds = small_dataset()
        s = subsample(ds)
        lib = build_library(ds, s, LibrarySpec(poly_degree=2, deriv_order=4), "u")
        assert lib.n_terms == 15
        assert lib.terms[0] == TermDescriptor()

    def test_121_terms(self):
        ds = small_dataset()
        s = subsample(ds, 100)
        lib = build_library(ds, s, LibrarySpec(poly_degree=10, deriv_order=10), "u")
        assert lib.n_terms == 121

    def test_rd2d_spec_20_terms(self):
        rng = np.random.default_rng(0)
        n = 16
        fields = {"u": rng.standard_normal((n, n, 8)),
                  "v": rng.standard_normal((n, n, 8))}
        ds = Dataset((Axis(-1.5, 3 / n, n), Axis(-1.5, 3 / n, n)),
                     Axis(0.0, 0.05, 8), fields,
                     {"u": "periodic", "v": "periodic"})
        s = subsample(ds, 500)
        lib = build_library(ds, s, LibrarySpec(poly_degree=3, deriv_order=2), "u")
        assert lib.n_terms == 20
        names = [t.name for t in lib.terms]
        assert names.count("u_xy") == 1 and names.count("v_yy") == 1
        assert "1" in names

    @pytest.mark.parametrize("names", [["u"], ["u", "v", "w"]])
    def test_2d_grid_needs_two_fields(self, names):
        # the grid picks the family: a 2D library reads exactly two fields
        axis = Axis(0.0, 0.25, 8)
        ds = Dataset((axis, axis), Axis(0.0, 0.05, 4),
                     {f: np.ones((8, 8, 4)) for f in names}, dict.fromkeys(names, "periodic"))
        with pytest.raises(DatasetError, match="exactly two fields"):
            build_library(ds, subsample(ds, 10), LibrarySpec(), "u")

    def test_rd2d_terms_follow_the_bounds(self):
        # monomials of total degree <= poly_degree, then every derivative of
        # each field of total order 1..deriv_order
        low = {t.name for t in terms_for_spec(LibrarySpec(poly_degree=2, deriv_order=1),
                                              ["u", "v"], 2)}
        assert low == {"1", "u", "v", "u^2", "u v", "v^2", "u_x", "u_y", "v_x", "v_y"}
        published = terms_for_spec(LibrarySpec(poly_degree=3, deriv_order=2), ["v", "u"], 2)
        monomials = [TermDescriptor((("u", i), ("v", d - i)))
                     for d in range(4) for i in range(d + 1)]
        derivatives = [TermDescriptor((), (f, o)) for f in ("u", "v")
                       for o in ((1, 0), (0, 1), (2, 0), (1, 1), (0, 2))]
        assert published == sorted(monomials + derivatives)
        assert len(published) == 20

    def test_pointwise_recomputation(self):
        # column j at sample i equals u_i^p * (q-th derivative)_i
        ds = small_dataset()
        s = subsample(ds, 50, seed=3)
        lib = build_library(ds, s, LibrarySpec(poly_degree=2, deriv_order=2), "u")
        from bgsindy.differentiation import spectral_diff
        u = ds.fields["u"].ravel()[s.indices]
        d2 = spectral_diff(ds.fields["u"], 0, ds.space_axes[0].spacing, 2)
        col = lib.terms.index(TermDescriptor((("u", 2),), ("u", (2,))))
        assert np.allclose(lib.matrix[:, col], u ** 2 * d2.ravel()[s.indices],
                           rtol=1e-12)

    def test_column_order_matches_terms(self):
        ds = small_dataset()
        s = subsample(ds, 64, seed=1)
        a = build_library(ds, s, LibrarySpec(poly_degree=2, deriv_order=4), "u")
        b = build_library(ds, s, LibrarySpec(poly_degree=2, deriv_order=4), "u")
        assert a.terms == b.terms
        assert np.array_equal(a.matrix, b.matrix)


class TestColumnMajorMatrix:
    """The library matrix is one column-major array, equal to np.column_stack
    of the columns the builder evaluates."""

    @staticmethod
    def build_and_record(monkeypatch, *args):
        """The library, and a copy of every term value in evaluation order."""
        seen = []
        evaluate = TermDescriptor.evaluate

        def recording(term, powers, derivs):
            out = evaluate(term, powers, derivs)
            seen.append(out.copy())
            return out

        with monkeypatch.context() as m:
            m.setattr(TermDescriptor, "evaluate", recording)
            lib = build_library(*args)
        return lib, seen

    def test_grid_local_rows(self, monkeypatch):
        ds = small_dataset()
        s = subsample(ds, 100, seed=2)
        lib, cols = self.build_and_record(
            monkeypatch, ds, s, LibrarySpec(poly_degree=10, deriv_order=10), "u")
        assert lib.matrix.flags.f_contiguous
        assert np.array_equal(lib.matrix, np.column_stack(cols))

    def test_test_function_rows(self, kdv_dataset, monkeypatch):
        widths = row_half_widths(kdv_dataset, "u", KDV_ROWS)
        margins = row_margins(kdv_dataset, "u", widths)
        s = subsample(kdv_dataset, 5000, 4, margins=margins)
        lib, full = self.build_and_record(monkeypatch, kdv_dataset, s, KDV_ROWS, "u", widths)
        inner = tuple(c - m for c, m in
                      zip(np.unravel_index(s.indices, kdv_dataset.shape), margins))
        periodic = library_module._periodic_axes(kdv_dataset, "u")
        cols = [bump_filter(c, widths, KDV_ROWS.test_function_degree, periodic)[inner]
                for c in full]
        assert lib.matrix.flags.f_contiguous
        assert np.array_equal(lib.matrix, np.column_stack(cols))

    def test_rd2d(self, monkeypatch):
        rng = np.random.default_rng(5)
        fields = {"u": rng.standard_normal((16, 16, 8)), "v": rng.standard_normal((16, 16, 8))}
        ds = Dataset((Axis(-1.5, 3 / 16, 16), Axis(-1.5, 3 / 16, 16)), Axis(0.0, 0.05, 8),
                     fields, {"u": "periodic", "v": "periodic"})
        s = subsample(ds, 500, seed=1)
        lib, cols = self.build_and_record(
            monkeypatch, ds, s, LibrarySpec(poly_degree=3, deriv_order=2), "v")
        assert lib.matrix.flags.f_contiguous
        assert np.array_equal(lib.matrix, np.column_stack(cols))


class TestSharedTransforms:
    """Derivatives that share one forward transform per array and axis
    against `spectral_diff` taken order by order, axis by axis."""

    @staticmethod
    def per_order(ds, fname, orders):
        out = ds.fields[fname]
        for ax, o in enumerate(orders):
            if o:
                out = spectral_diff(out, ax, ds.space_axes[ax].spacing, o)
        return out

    @staticmethod
    def counted(monkeypatch):
        calls = []
        original = library_module.axis_spectrum

        def counting(values, axis):
            calls.append(axis)
            return original(values, axis)

        monkeypatch.setattr(library_module, "axis_spectrum", counting)
        return calls

    def test_1d_orders_1_to_10_bit_equal_one_transform(self, monkeypatch):
        ds = small_dataset(nx=64, nt=12)
        keys = [("u", (o,)) for o in range(1, 11)]
        calls = self.counted(monkeypatch)
        got = dict(_space_derivatives(ds, keys))
        assert calls == [0]
        for key in keys:
            assert np.array_equal(got[key], self.per_order(ds, *key))

    def test_rd2d_orders_bit_equal_including_mixed(self, monkeypatch):
        rng = np.random.default_rng(5)
        nx, ny = 16, 12
        ds = Dataset((Axis(-1.5, 3 / nx, nx), Axis(-1.5, 3 / ny, ny)), Axis(0.0, 0.05, 6),
                     {"u": rng.standard_normal((nx, ny, 6)),
                      "v": rng.standard_normal((nx, ny, 6))},
                     {"u": "periodic", "v": "periodic"})
        keys = sorted((f, o) for f in ("u", "v")
                      for o in ((1, 0), (0, 1), (2, 0), (1, 1), (0, 2)))
        calls = self.counted(monkeypatch)
        got = dict(_space_derivatives(ds, keys))
        # per field: u along y, u along x, u_x along y
        assert sorted(calls) == [0, 0, 1, 1, 1, 1]
        for key in keys:
            assert np.array_equal(got[key], self.per_order(ds, *key))


class TestSumsAtSamples:
    """Grid-local rows take periodic derivatives at their samples; the values
    match the full-grid transform, sampled."""

    @staticmethod
    def counted(monkeypatch, name):
        calls = []
        original = getattr(library_module, name)

        def counting(values, axis, *args):
            calls.append(axis)
            return original(values, axis, *args)

        monkeypatch.setattr(library_module, name, counting)
        return calls

    @staticmethod
    def assert_match(got, full, indices):
        assert got.keys() == full.keys()
        for key, values in got.items():
            ref = full[key].ravel()[indices]
            assert np.abs(values - ref).max() <= 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize("nx", [64, 63])
    def test_1d_orders_1_to_10_from_one_transform(self, monkeypatch, nx):
        ds = small_dataset(nx=nx, nt=12)
        keys = [("u", (o,)) for o in range(1, 11)]
        idx = subsample(ds, 40, 2).indices
        full = _space_derivatives(ds, keys)
        spectra = self.counted(monkeypatch, "axis_spectrum")
        inverses = self.counted(monkeypatch, "spectral_diff")
        got = _space_derivatives(ds, keys, idx)
        assert spectra == [0] and inverses == []
        self.assert_match(got, full, idx)

    def test_rd2d_orders_including_mixed(self, monkeypatch):
        rng = np.random.default_rng(5)
        nx, ny = 16, 12
        ds = Dataset((Axis(-1.5, 3 / nx, nx), Axis(-1.5, 3 / ny, ny)), Axis(0.0, 0.05, 6),
                     {"u": rng.standard_normal((nx, ny, 6)),
                      "v": rng.standard_normal((nx, ny, 6))},
                     {"u": "periodic", "v": "periodic"})
        keys = sorted((f, o) for f in ("u", "v")
                      for o in ((1, 0), (0, 1), (2, 0), (1, 1), (0, 2)))
        idx = subsample(ds, 60, 3).indices
        full = _space_derivatives(ds, keys)
        spectra = self.counted(monkeypatch, "axis_spectrum")
        inverses = self.counted(monkeypatch, "spectral_diff")
        got = _space_derivatives(ds, keys, idx)
        # per field: u along y, u along x, u_x along y; the only full-grid
        # inverse is u_x, the first step of u_xy
        assert sorted(spectra) == [0, 0, 1, 1, 1, 1]
        assert inverses == [0, 0]
        self.assert_match(got, full, idx)

    def test_operation_count_chooses_the_path(self):
        cheaper = library_module._sums_at_points_cheaper
        # modified KS (100k rows of 128 x 50001) and rd2d (256 x 256 x 101)
        assert cheaper(100_000, (128, 50_001), 0)
        assert cheaper(100_000, (256, 256, 101), 0)
        assert cheaper(100_000, (256, 256, 101), 1)
        # burgers-hyper (4048 x 1001), also on a 51-slice horizon at 5000 rows
        assert not cheaper(100_000, (4048, 1001), 0)
        assert not cheaper(5000, (4048, 51), 0)

    def test_discovery_matches_transform_path(self, monkeypatch):
        config = replace(default_config("modified-ks"), counts=(64,), t_final=20.0)
        ds = generate_benchmark("modified-ks", config)
        recipe = discovery_recipe("modified-ks")
        recipe["sample"]["n"] = 4000
        recipe["library"].update(poly_degree=4, deriv_order=6)
        assert library_module._sums_at_points_cheaper(4000, ds.shape, 0)
        model, trace, _ = run_discovery(ds, recipe)
        monkeypatch.setattr(library_module, "_sums_at_points_cheaper", lambda *a: False)
        ref_model, ref_trace, _ = run_discovery(ds, recipe)
        assert trace.selected_iteration == ref_trace.selected_iteration
        assert ([it.removed for it in trace.iterations]
                == [it.removed for it in ref_trace.iterations])
        assert model.terms == ref_model.terms
        np.testing.assert_allclose(model.coefficients, ref_model.coefficients, rtol=1e-10)


class TestRecipes:
    def test_discovery_recipe_returns_fresh_dicts(self):
        for bench in ("kdv", "burgers-hyper", "modified-ks", "rd2d"):
            first = discovery_recipe(bench)
            expected = copy.deepcopy(first)
            first["library"]["poly_degree"] = 9
            first["sample"]["seed"] = 7
            first["pruner"]["tau"] = 5.0
            if first["sample"]["time_window"] is not None:
                first["sample"]["time_window"][0] = 0
            assert discovery_recipe(bench) == expected


KDV_ROWS = LibrarySpec(poly_degree=2, deriv_order=4, test_function_degree=4)


def sweep_library(dataset, gamma, n, seed):
    recipe = sweep_recipe("kdv")
    recipe["sample"] = {**recipe["sample"], "n": n, "seed": seed}
    return build_reduced_library(add_noise(dataset, "u", gamma, seed), recipe)


class TestTestFunctionRows:
    @staticmethod
    def reference_misfit(dataset, spec):
        """|Phi xi_ref - u_t| / |u_t| on 20k rows, and the half-widths."""
        ref = reference_model("kdv")
        widths = row_half_widths(dataset, "u", spec)
        s = subsample(dataset, 20_000, 3,
                      margins=row_margins(dataset, "u", widths))
        lib = build_library(dataset, s, spec, "u", widths)
        xi = np.array([ref.coefficient_of(t) if t in ref.terms else 0.0
                       for t in lib.terms])
        misfit = np.linalg.norm(lib.matrix @ xi - lib.target)
        return misfit / np.linalg.norm(lib.target), widths

    def test_reference_coefficients_satisfy_clean_kdv(self, kdv_dataset):
        # the filtered rows obey u_t = -u u_x - eps u_xxx up to the
        # finite-difference truncation of the columns; grid-local rows on
        # the same data miss by about a quarter of |u_t|, because the
        # dispersive waves are barely resolved at the grid scale
        rel, widths = self.reference_misfit(kdv_dataset, KDV_ROWS)
        assert min(widths) >= 1
        assert rel < 1e-2
        grid_rel, _ = self.reference_misfit(kdv_dataset,
                                            LibrarySpec(poly_degree=2, deriv_order=4))
        assert grid_rel > 0.1

    def test_support_inside_grid_on_non_periodic_axes(self, kdv_dataset):
        lib = sweep_library(kdv_dataset, 0.05, 5000, seed=11)
        widths = lib.diagnostics["test_function"]["half_widths"]
        shape = kdv_dataset.shape
        coords = np.unravel_index(lib.sample_set.indices, shape)
        for c, m, n in zip(coords, widths, shape):   # Dirichlet x, then t
            assert m >= 1
            assert c.min() >= m and c.max() < n - m
        # a row centred closer to the wall than its half-width is refused
        edge = SampleSet(np.ravel_multi_index(([widths[0] - 1], [shape[1] // 2]), shape),
                         shape)
        with pytest.raises(DatasetError, match="support"):
            build_library(kdv_dataset, edge, KDV_ROWS, "u", tuple(widths))

    def test_periodic_axis_wraps(self):
        ds = small_dataset(nx=64, nt=60)
        spec = LibrarySpec(poly_degree=1, deriv_order=1, test_function_degree=4)
        widths = (3, 5)
        assert row_margins(ds, "u", widths) == (0, 5)
        # rows on the first and last x points are valid: their support wraps
        idx = np.ravel_multi_index(([0, 63], [30, 30]), ds.shape)
        lib = build_library(ds, SampleSet(idx, ds.shape),
                            spec, "u", widths)
        u = ds.fields["u"]
        wrapped = np.concatenate([u[-3:], u, u[:3]], axis=0)
        kx, kt = bump_kernel(3, 4), bump_kernel(5, 4)
        col = lib.terms.index(TermDescriptor((("u", 1),)))
        for row, x in enumerate((0, 63)):
            patch = wrapped[x:x + 7, 25:36]
            assert abs(lib.matrix[row, col] - kx @ patch @ kt) < 1e-12

    def test_same_seed_byte_identical(self, kdv_dataset):
        a = sweep_library(kdv_dataset, 0.05, 5000, seed=4)
        b = sweep_library(kdv_dataset, 0.05, 5000, seed=4)
        assert a.terms == b.terms
        assert a.matrix.tobytes() == b.matrix.tobytes()
        assert a.target.tobytes() == b.target.tobytes()


class TestReduceIndependent:
    def test_duplicate_column_removed(self):
        lib = random_library(m=4)
        matrix = np.column_stack([lib.matrix, lib.matrix[:, 1]])
        terms = lib.terms + (TermDescriptor((("u", 9),)),)
        dup = Library(terms, matrix, lib.target, lib.sample_set, "u", lib.spec)
        red = reduce_independent(dup)
        assert red.n_terms == 4
        assert red.diagnostics["independence"]["qr_rank"] == 4

    def test_constructed_dependency_rank(self):
        # oracle: appending c = a + b must reduce the numerical rank to M; any
        # one of a, b, c is a valid drop, and on unit-norm columns the pivoted
        # QR drops c; the builder's column-major matrix and a row-major
        # copy give the same ranks, dropped term and reduced matrix, which is
        # column-major
        lib = random_library(m=5)
        extra = lib.matrix[:, 0] + lib.matrix[:, 1]
        matrix = np.column_stack([lib.matrix, extra])
        sv = np.linalg.svd(matrix, compute_uv=False)
        assert sv.min() / sv.max() < 1e-12          # SVD oracle agrees
        terms = lib.terms + (TermDescriptor((("u", 9),)),)
        reduced = [reduce_independent(Library(terms, np.array(matrix, order=order),
                                              lib.target, lib.sample_set, "u", lib.spec))
                   for order in "FC"]
        for red in reduced:
            assert red.n_terms == 5
            assert red.matrix.flags.f_contiguous
            assert red.diagnostics["independence"] == {
                "tol": 1e-10, "qr_rank": 5, "svd_rank": 5, "dropped": ["u^9"]}
        assert np.array_equal(reduced[0].matrix, reduced[1].matrix)

    def test_full_rank_identity(self):
        lib = random_library(m=6)
        red = reduce_independent(lib)
        assert red.n_terms == 6
        assert np.array_equal(red.matrix, lib.matrix)

    def test_library_matrix_left_unchanged(self):
        # the QR factors a private copy in place: the library's own
        # column-major matrix keeps its values
        lib = random_library(m=5)
        matrix = np.array(np.column_stack([lib.matrix, lib.matrix[:, 2]]), order="F")
        saved = matrix.copy()
        terms = lib.terms + (TermDescriptor((("u", 9),)),)
        red = reduce_independent(Library(terms, matrix, lib.target, lib.sample_set, "u",
                                         lib.spec))
        assert np.array_equal(matrix, saved)
        assert red.n_terms == 5

    def test_idempotent(self):
        lib = random_library(m=5)
        matrix = np.column_stack([lib.matrix, lib.matrix[:, 2]])
        terms = lib.terms + (TermDescriptor((("u", 9),)),)
        dup = Library(terms, matrix, lib.target, lib.sample_set, "u", lib.spec)
        once = reduce_independent(dup)
        twice = reduce_independent(once)
        assert once.terms == twice.terms
        assert np.array_equal(once.matrix, twice.matrix)

    @pytest.mark.parametrize("scale", [1e4, 1e-2])
    def test_kept_columns_do_not_depend_on_the_units_of_u(self, kdv_dataset, scale):
        # KdV in other units of u: every column of the 15 stays, and the
        # discovered structure is still the exact one
        data = replace(kdv_dataset, fields={"u": kdv_dataset.fields["u"] * scale})
        model, _, lib = run_discovery(data, discovery_recipe("kdv"))
        assert lib.n_terms == 15
        assert lib.diagnostics["independence"]["dropped"] == []
        assert {t.name for t in model.terms} == {"u u_x", "u_{xxx}"}

    def test_degenerate_all_zero(self):
        lib = random_library(m=3)
        zero = Library(lib.terms[:3], np.zeros_like(lib.matrix[:, :3]), lib.target,
                       lib.sample_set, "u", lib.spec)
        with pytest.raises(DatasetError, match="degenerate"):
            reduce_independent(zero)


class TestCompressed:
    def test_taken_once_and_holds_no_n_row_array(self):
        lib = random_library(n=300, m=6)
        r, qty, _ = lib.compressed
        assert lib.compressed[0] is r and lib.compressed[1] is qty
        # views of the (M + 1) x (M + 1) R of [phi | y], not of the N-row buffer
        assert r.base.shape == (lib.n_terms + 1, lib.n_terms + 1)
        assert qty.base is r.base
        expect = compress(lib.matrix, lib.target)
        assert np.array_equal(r, expect[0]) and np.array_equal(qty, expect[1])

    def test_replaced_or_reduced_library_compresses_afresh(self):
        lib = random_library(n=300, m=6)
        r, qty, _ = lib.compressed
        doubled = replace(lib, matrix=2 * lib.matrix)
        expect = compress(2 * lib.matrix, lib.target)
        assert np.array_equal(doubled.compressed[0], expect[0])
        assert np.array_equal(doubled.compressed[1], expect[1])
        assert not np.array_equal(doubled.compressed[0], r)
        reduced = reduce_independent(lib)
        assert reduced.compressed[0] is not r
        assert np.array_equal(reduced.compressed[0], r)
