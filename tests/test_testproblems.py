"""Tomography generators, training images, noise, and PGM files."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import read_pgm, spherical_matrix_reference
from mixkry.errors import (ArgumentError, DegenerateDataError,
                           ParameterDomainError)
from mixkry.testproblems import (_spherical_matrix, _sum_rows, add_noise,
                                 circle_mask, crosswell_tomo,
                                 gen_training_images, spherical_tomo,
                                 write_pgm)


# -- spherical means ------------------------------------------------------------


def test_spherical_shapes_and_consistency():
    prob = spherical_tomo(size=24, n_angles=6, n_circles=8, seed=3)
    m, n = 48, 576
    assert prob.A.shape == (m, n)
    assert prob.b_clean.shape == (m,)
    assert prob.s_true.shape == (n,)
    np.testing.assert_allclose(prob.b_clean, prob.A.matvec(prob.s_true),
                               atol=1e-14)
    assert prob.grid.n == n


def test_spherical_rows_are_arc_quadrature():
    """Row sums equal A applied to the all-ones image: the rows really are
    quadrature weights, all nonnegative."""
    prob = spherical_tomo(size=20, n_angles=5, n_circles=6, seed=0)
    M = prob.A.mat.to_scipy().toarray()
    assert np.all(M >= 0.0)
    np.testing.assert_allclose(M.sum(axis=1), prob.A.matvec(np.ones(400)),
                               atol=1e-12)
    # each arc carries positive weight once it intersects the disk
    assert np.count_nonzero(M.sum(axis=1)) >= 25


def test_spherical_arc_length_scale():
    """Integrating the all-ones image gives the in-disk arc length.

    With the arc center on the disk boundary, the piece of the radius-r
    semicircle inside the disk subtends |t| <= arccos(r), so its length is
    2 r arccos(r).
    """
    prob = spherical_tomo(size=64, n_angles=1, n_circles=8, seed=0)
    M = prob.A.mat.to_scipy().toarray()
    for ic in (0, 1, 2, 5):
        radius = (ic + 1) / 8
        expect = 2.0 * radius * np.arccos(radius)
        assert M[ic].sum() == pytest.approx(expect, rel=0.02)


def test_spherical_outside_mask_columns_vanish():
    prob = spherical_tomo(size=20, n_angles=4, n_circles=5, seed=1)
    M = prob.A.mat.to_scipy().toarray()
    outside = ~circle_mask(20).ravel()
    col_mass = np.abs(M).sum(axis=0)
    # bilinear clipping can bleed into the single ring of cells hugging the
    # disk, but cells clearly outside carry nothing
    h = 1.0 / 20
    iy, ix = np.mgrid[0:20, 0:20]
    cx = (ix + 0.5) * h - 0.5
    cy = (iy + 0.5) * h - 0.5
    far = ((cx**2 + cy**2) > (0.5 + 2 * h) ** 2).ravel()
    assert np.all(col_mass[far] == 0.0)
    assert outside.any()


def test_spherical_linearity_and_determinism():
    p1 = spherical_tomo(size=20, n_angles=3, n_circles=4, seed=9)
    p2 = spherical_tomo(size=20, n_angles=3, n_circles=4, seed=9)
    assert np.array_equal(p1.b_clean, p2.b_clean)
    assert np.array_equal(p1.s_true, p2.s_true)
    rng = np.random.default_rng(0)
    x, y = rng.standard_normal((2, 400))
    lhs = p1.A.matvec(2.0 * x - 3.0 * y)
    rhs = 2.0 * p1.A.matvec(x) - 3.0 * p1.A.matvec(y)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_spherical_size_guard():
    with pytest.raises(ArgumentError):
        spherical_tomo(size=8)
    with pytest.raises(ArgumentError):
        spherical_tomo(size=32, n_angles=0)
    # radius 1 from a boundary point only grazes the disk's far side
    with pytest.raises(ArgumentError, match="no arc crosses"):
        spherical_tomo(size=16, n_angles=1, n_circles=1)


def assert_same_assembly(size, n_angles, n_circles, seed=7):
    """The vectorized assembly reproduces the per-arc loop byte for byte:
    same CSR arrays (so the same duplicate sums) and the same data."""
    prob = spherical_tomo(size, n_angles, n_circles, seed=seed)
    ref = spherical_matrix_reference(size, n_angles, n_circles)
    for name in ("data", "indices", "indptr"):
        got, want = getattr(prob.A.mat.to_scipy(), name), getattr(ref, name)
        assert got.dtype == want.dtype, name
        assert got.tobytes() == want.tobytes(), name
    assert prob.b_clean.tobytes() == (ref @ prob.s_true).tobytes()


@pytest.mark.parametrize("size", [16, 17, 32, 48])
def test_spherical_matches_per_arc_reference(size):
    assert_same_assembly(size, 16, 24)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(size=st.integers(16, 40), n_angles=st.integers(1, 20),
       n_circles=st.integers(1, 30))
def test_spherical_matches_per_arc_reference_property(size, n_angles,
                                                      n_circles):
    """Any geometry: byte-identical to the loop, or, when no arc crosses
    the disk (one circle of radius 1 only grazes it), rejected at the
    boundary."""
    if spherical_matrix_reference(size, n_angles, n_circles).nnz == 0:
        with pytest.raises(ArgumentError, match="no arc crosses"):
            spherical_tomo(size, n_angles, n_circles)
    else:
        assert_same_assembly(size, n_angles, n_circles)


def traced_assembly(size, n_angles, n_circles):
    """``_spherical_matrix`` of the geometry and its tracemalloc peak."""
    tracemalloc.start()
    try:
        A = _spherical_matrix(size, n_angles, n_circles)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return A, peak


def test_spherical_assembly_memory_is_one_angle():
    """At the default 32 / 16 x 24 geometry the assembly holds one angle's
    triplets at a time: its traced peak stays below 2 MiB for a 0.3 MiB
    matrix (all 16 angles' triplets at once peak above 10 MiB)."""
    A, peak = traced_assembly(32, 16, 24)
    assert A.nnz > 0
    assert peak < 2 * 2**20


def test_assembly_data_is_float64_when_empty():
    """An assembly with no entries (one angle and one circle on a 16 grid
    give none) still stores float64 data, although np.bincount of an empty
    input returns intp whatever its weights."""
    A = _spherical_matrix(16, 1, 1)
    assert A.nnz == 0
    assert A.data.dtype == np.float64


def test_spherical_full_scale_dimensions():
    """Full-scale geometry: 90 angles x 64 radii on a 128 grid gives the
    5760 x 16384 system.  Its assembly peaks below 40 MiB for a 16.5 MiB
    matrix: no triplets in int64 columns beside their concatenation."""
    A, peak = traced_assembly(128, 90, 64)
    assert A.shape == (5760, 16384)
    assert 0 < A.nnz < 5760 * 16384 * 0.05
    assert A.indices.dtype == A.indptr.dtype == np.int32
    assert peak < 40 * 2**20


# values whose sums depend on the order of addition, and zeros
_TRIPLET_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e16, -1e16, 0.1]),
    st.floats(-10.0, 10.0, allow_nan=False))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data(), n_rows=st.integers(1, 6), n_cols=st.integers(1, 8),
       index=st.sampled_from([np.int32, np.int64]))
def test_sum_rows_matches_group_sum_in_triplet_order(data, n_rows, n_cols,
                                                     index):
    """Unsorted triplets with duplicates, zero values and empty rows: the
    same data, columns and per-row counts, bit for bit, as a group sum that
    adds each cell's values in triplet order (``np.add.at``), every touched
    cell kept also when it sums to 0."""
    triplets = data.draw(st.lists(st.tuples(
        st.integers(0, n_rows - 1), st.integers(0, n_cols - 1),
        _TRIPLET_VALUES), max_size=40))
    rows = np.array([t[0] for t in triplets], dtype=np.int64)
    cols = np.array([t[1] for t in triplets], dtype=np.int64)
    vals = np.array([t[2] for t in triplets], dtype=float)
    uniq, slot = np.unique(rows * n_cols + cols, return_inverse=True)
    sums = np.zeros(uniq.size)
    np.add.at(sums, slot, vals)

    got, got_cols, counts = _sum_rows(rows, cols, vals, n_rows, n_cols,
                                      index)
    assert got.tobytes() == sums.tobytes()
    assert got_cols.dtype == index
    assert got_cols.tobytes() == (uniq % n_cols).astype(index).tobytes()
    assert np.array_equal(counts,
                          np.bincount(uniq // n_cols, minlength=n_rows))


# -- crosswell -------------------------------------------------------------------


def test_crosswell_horizontal_ray_hand_case():
    """One source and one receiver at matching depth: the ray crosses each
    of the 8 columns in one row with length exactly 1/8."""
    prob = crosswell_tomo(size=8, n_sources=1, n_receivers=1, seed=0)
    M = prob.A.mat.to_scipy().toarray()
    assert M.shape == (1, 64)
    nz = M[0][M[0] != 0.0]
    assert nz.size == 8
    np.testing.assert_allclose(nz, 0.125, atol=1e-15)
    assert M[0].sum() == pytest.approx(1.0, abs=1e-14)
    # the hit cells all sit in the row at the source depth
    cells = np.flatnonzero(M[0])
    assert np.all(cells // 8 == cells[0] // 8)


def test_crosswell_row_sums_are_ray_lengths():
    prob = crosswell_tomo(size=16, n_sources=4, n_receivers=6, seed=0)
    M = prob.A.mat.to_scipy().toarray()
    row = 0
    for isrc in range(4):
        sy = (isrc + 0.5) / 4
        for ircv in range(6):
            ry = (ircv + 0.5) / 6
            length = np.hypot(1.0, ry - sy)
            assert M[row].sum() == pytest.approx(length, abs=1e-12)
            row += 1


def test_crosswell_sparsity_order():
    """A straight ray meets O(size) cells, not O(size^2)."""
    prob = crosswell_tomo(size=32, n_sources=3, n_receivers=3, seed=0)
    per_row = np.diff(prob.A.mat.to_scipy().indptr)
    assert np.all(per_row <= 2 * 32)
    assert np.all(per_row >= 32)


def test_crosswell_full_scale_dimensions():
    prob = crosswell_tomo(size=50, n_sources=20, n_receivers=50, seed=11)
    assert prob.A.shape == (1000, 2500)
    assert prob.s_true.min() == pytest.approx(0.0)
    assert prob.s_true.max() == pytest.approx(1.0)


def test_crosswell_assembly_memory_is_one_ray():
    """At size 128 with 10 x 20 rays the operator is assembled one ray at a
    time: a block's (row, column) bins take 128^2 x 9 B, and the traced
    peak of the whole problem stays below 8 MiB (all 200 rays in one block
    peak near 30 MiB)."""
    tracemalloc.start()
    try:
        prob = crosswell_tomo(128, 10, 20)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert prob.A.shape == (200, 16384)
    assert peak < 8 * 2**20


def test_crosswell_determinism_and_guards():
    p1 = crosswell_tomo(size=16, n_sources=2, n_receivers=3, seed=5)
    p2 = crosswell_tomo(size=16, n_sources=2, n_receivers=3, seed=5)
    assert np.array_equal(p1.s_true, p2.s_true)
    assert np.array_equal(p1.b_clean, p2.b_clean)
    with pytest.raises(ArgumentError):
        crosswell_tomo(size=2)
    with pytest.raises(ArgumentError):
        crosswell_tomo(size=16, n_sources=0)


# -- training images --------------------------------------------------------------


def test_training_images_shape_range_mask():
    images = gen_training_images(9, 32, seed=4)
    assert images.shape == (9, 32, 32)
    assert images.min() >= 0.0
    assert images.max() <= 1.0
    outside = ~circle_mask(32)
    for img in images:
        assert np.all(img[outside] == 0.0)


def test_training_images_have_freckles():
    """The stamped disks saturate at exactly 1.0 inside the mask."""
    images = gen_training_images(5, 64, seed=2)
    hits = sum(np.any(img == 1.0) for img in images)
    assert hits >= 4


def test_training_images_deterministic_and_distinct():
    a = gen_training_images(3, 24, seed=8)
    b = gen_training_images(3, 24, seed=8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a[0], a[1])


def test_training_images_validation():
    with pytest.raises(ArgumentError):
        gen_training_images(0, 16, seed=0)
    with pytest.raises(ArgumentError):
        gen_training_images(3, 2, seed=0)


def test_circle_mask_geometry():
    mask = circle_mask(64)
    frac = mask.mean()
    assert frac == pytest.approx(np.pi / 4, abs=0.02)
    assert mask[32, 32]
    assert not mask[0, 0]


# -- noise and image files ---------------------------------------------------------


def test_add_noise_exact_level():
    rng = np.random.default_rng(0)
    b = rng.standard_normal(200) * 3.0
    for level in (0.01, 0.03, 0.1):
        bn, sigma = add_noise(b, level, seed=1)
        got = np.linalg.norm(bn - b) / np.linalg.norm(b)
        assert got == pytest.approx(level, rel=1e-14)
        assert sigma == pytest.approx(level * np.linalg.norm(b) / np.sqrt(200),
                                      rel=1e-14)


def test_add_noise_deterministic():
    b = np.ones(50)
    b1, s1 = add_noise(b, 0.05, seed=3)
    b2, s2 = add_noise(b, 0.05, seed=3)
    b3, _ = add_noise(b, 0.05, seed=4)
    assert np.array_equal(b1, b2) and s1 == s2
    assert not np.array_equal(b1, b3)


def test_add_noise_guards():
    with pytest.raises(ArgumentError):
        add_noise(np.ones(5), 0.0, seed=0)
    with pytest.raises(DegenerateDataError):
        add_noise(np.zeros(5), 0.1, seed=0)


@pytest.mark.parametrize("level", [np.nan, np.inf, -np.inf])
def test_add_noise_rejects_non_finite_level(level):
    """A NaN level is not <= 0, and an infinite one passes > 0: neither may
    return all-NaN data with sigma = NaN or inf."""
    with pytest.raises(ParameterDomainError, match="noise level"):
        add_noise(np.ones(5), level, seed=0)


def test_pgm_roundtrip(tmp_path):
    rng = np.random.default_rng(6)
    img = rng.uniform(-2.0, 5.0, (12, 17))
    path = tmp_path / "img.pgm"
    lo, hi = write_pgm(path, img)
    assert (lo, hi) == (img.min(), img.max())
    back = read_pgm(path)
    assert back.shape == (12, 17)
    assert back.dtype == np.uint16
    expect = np.round((img - lo) / (hi - lo) * 65535.0)
    np.testing.assert_allclose(back.astype(float), expect, atol=0)


def test_pgm_header_format(tmp_path):
    path = tmp_path / "flat.pgm"
    write_pgm(path, np.zeros((3, 4)))
    raw = path.read_bytes()
    assert raw.startswith(b"P5\n4 3\n65535\n")
    assert len(raw) == len(b"P5\n4 3\n65535\n") + 3 * 4 * 2


def test_pgm_fixed_scale_and_guards(tmp_path):
    """The scale is the image's own range, returned as (lo, hi)."""
    img = np.array([[0.0, 0.5], [1.0, 2.0]])
    path = tmp_path / "scaled.pgm"
    assert write_pgm(path, img) == (0.0, 2.0)
    back = read_pgm(path)
    assert back[1, 1] == 65535
    assert back[0, 0] == 0
    assert back[1, 0] == 32768  # round(65535 / 2)
    with pytest.raises(ArgumentError):
        write_pgm(tmp_path / "bad.pgm", np.zeros(5))
    (tmp_path / "text.pgm").write_bytes(b"P2\n1 1\n255\n0")
    with pytest.raises(ArgumentError):
        read_pgm(tmp_path / "text.pgm")
