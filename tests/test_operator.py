"""Unit tests for the scale-binned imaging operator and its adjoint.

Key invariants: kernels are exactly symmetric with calibrated total mass,
the forward map is linear, the adjoint satisfies the weighted inner-product
identity to near machine precision, and both maps agree with a per-bin
spatial convolution by the full, uncropped kernels.
"""

import numpy as np
import pytest
from scipy.signal import convolve2d

from invdiff import (
    KernelBank,
    Observation,
    PsdrTensor,
    SigmaGrid,
    adjoint,
    build_kernel_bank,
    default_config,
    forward,
    kernel_radius,
    omega,
    op_norm_estimate,
)

GRID = SigmaGrid(boundaries=(0.0, 2.0, 5.0, 10.0), support_set=(1, 2, 3))

# radii 14 and 62: square, wide and tall images where the wide bin (and on
# the 12-row image both bins) reach past the image on one or both axes; the
# 23 x 13 image plans an odd pad on both axes, (45, 25)
ORACLE_GRID = SigmaGrid(boundaries=(0.0, 2.0, 10.0), support_set=(1, 2))
ORACLE_SHAPES = ((20, 20), (12, 90), (70, 33), (23, 13))
ODD_PAD_SHAPE, ODD_PAD = (23, 13), (45, 25)


def _rel_err(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


def _outer_product_kernels(grid, psf_sigma, quad_order=16):
    """Kernels summed node by node from full (2r+1)^2 outer products."""
    nodes, wts = np.polynomial.legendre.leggauss(quad_order)
    out = []
    b = grid.boundaries
    for k in range(grid.n_bins):
        lo, hi = b[k], b[k + 1]
        r = kernel_radius(hi, psf_sigma)
        half, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
        offsets = np.arange(-r, r + 1)
        acc = np.zeros((2 * r + 1, 2 * r + 1))
        for x, w in zip(nodes, wts):
            row = omega(float(mid + half * x) + psf_sigma, offsets)
            acc += (w * half) * np.outer(row, row)
        out.append(np.maximum(acc / np.sqrt(hi - lo), 0.0))
    return out


@pytest.fixture(scope="module")
def bank():
    return build_kernel_bank(GRID, psf_sigma=0.0, quad_order=16)


class TestSigmaGrid:
    def test_basic_properties(self):
        g = SigmaGrid(boundaries=(0.0, 2.0, 5.0, 10.0), support_set=(3, 1, 1))
        assert g.n_bins == 3
        np.testing.assert_allclose(g.widths, [2.0, 3.0, 5.0])
        assert g.sigma_max == 10.0
        assert g.support_set == (1, 3)  # sorted, deduplicated
        np.testing.assert_array_equal(g.support_mask, [True, False, True])

    def test_validation(self):
        with pytest.raises(ValueError, match="at least two"):
            SigmaGrid(boundaries=(0.0,), support_set=(1,))
        with pytest.raises(ValueError, match="finite"):
            SigmaGrid(boundaries=(0.0, np.inf), support_set=(1,))
        with pytest.raises(ValueError, match="first boundary"):
            SigmaGrid(boundaries=(1.0, 2.0), support_set=(1,))
        with pytest.raises(ValueError, match="strictly increasing"):
            SigmaGrid(boundaries=(0.0, 2.0, 2.0), support_set=(1,))
        with pytest.raises(ValueError, match="not be empty"):
            SigmaGrid(boundaries=(0.0, 2.0), support_set=())
        with pytest.raises(ValueError, match="lie in"):
            SigmaGrid(boundaries=(0.0, 2.0), support_set=(2,))


class TestPsdrTensor:
    def test_validation(self):
        PsdrTensor(data=np.zeros((2, 3, 4)))
        with pytest.raises(ValueError, match="M x N x K"):
            PsdrTensor(data=np.zeros((2, 3)))
        with pytest.raises(ValueError, match="finite"):
            PsdrTensor(data=np.full((2, 2, 1), np.nan))
        with pytest.raises(ValueError, match="non-negative"):
            PsdrTensor(data=np.full((2, 2, 1), -1.0))


class TestObservation:
    def test_plain_constructor(self):
        d = np.arange(6.0).reshape(2, 3)
        obs = Observation.plain(d)
        np.testing.assert_array_equal(obs.weights, 1.0)
        np.testing.assert_array_equal(obs.mask, 1.0)

    def test_validation(self):
        d = np.ones((3, 3))
        with pytest.raises(ValueError, match="2D"):
            Observation(data=np.ones(3), weights=np.ones(3), mask=np.ones(3))
        with pytest.raises(ValueError, match="match the data shape"):
            Observation(data=d, weights=np.ones((2, 3)), mask=np.ones((3, 3)))
        with pytest.raises(ValueError, match="finite"):
            Observation(data=d * np.inf, weights=np.ones((3, 3)), mask=np.ones((3, 3)))
        with pytest.raises(ValueError, match="non-negative"):
            Observation(data=d, weights=-np.ones((3, 3)), mask=np.ones((3, 3)))
        with pytest.raises(ValueError, match="one weight"):
            Observation(data=d, weights=np.zeros((3, 3)), mask=np.ones((3, 3)))
        with pytest.raises(ValueError, match="binary"):
            Observation(data=d, weights=np.ones((3, 3)), mask=np.full((3, 3), 0.5))


class TestKernelBank:
    def test_radius_formula(self):
        assert kernel_radius(2.0, 0.0) == 14
        assert kernel_radius(2.0, 1.0) == 20
        assert kernel_radius(0.0, 0.0) == 2

    def test_kernel_shapes_and_sign(self, bank):
        for k, r in zip(bank.kernels, bank.radii):
            assert k.shape == (2 * r + 1, 2 * r + 1)
            assert (k >= 0).all()

    def test_kernels_exactly_symmetric(self, bank):
        for k in bank.kernels:
            np.testing.assert_array_equal(k, k.T)
            np.testing.assert_array_equal(k, k[::-1, :])
            np.testing.assert_array_equal(k, k[:, ::-1])

    def test_kernel_mass_is_sqrt_bin_width(self, bank):
        for k, w in zip(bank.kernels, GRID.widths):
            assert abs(k.sum() - np.sqrt(w)) <= 1e-6

    @pytest.mark.parametrize("psf_sigma", [0.0, 2.0])
    def test_matches_outer_product_oracle(self, psf_sigma):
        b = build_kernel_bank(GRID, psf_sigma=psf_sigma)
        for got, want in zip(b.kernels, _outer_product_kernels(GRID, psf_sigma)):
            assert got.shape == want.shape
            assert _rel_err(got, want) <= 1e-14

    def test_default_grid_matches_outer_product_oracle(self):
        cfg = default_config()
        grid = cfg.sigma_grid()
        b = build_kernel_bank(grid, cfg.psf_sigma, cfg.quad_order)
        assert b.radii[-1] == 422
        want = _outer_product_kernels(grid, cfg.psf_sigma, cfg.quad_order)
        for got, ref in zip(b.kernels, want):
            assert _rel_err(got, ref) <= 1e-14

    def test_quadrature_converged(self):
        b16 = build_kernel_bank(GRID, psf_sigma=0.0, quad_order=16)
        b32 = build_kernel_bank(GRID, psf_sigma=0.0, quad_order=32)
        assert np.abs(b16.kernels[0] - b32.kernels[0]).max() <= 1e-6
        for k in (1, 2):
            assert np.abs(b16.kernels[k] - b32.kernels[k]).max() <= 1e-12

    def test_psf_widens_kernels(self, bank):
        blurred = build_kernel_bank(GRID, psf_sigma=2.0, quad_order=16)
        for k in range(GRID.n_bins):
            assert blurred.radii[k] > bank.radii[k]
            assert blurred.kernels[k].max() < bank.kernels[k].max()
            # mass is preserved by the blur
            assert blurred.kernels[k].sum() == pytest.approx(
                bank.kernels[k].sum(), abs=2e-6
            )

    def test_plan_cached_per_shape(self, bank):
        p1 = bank.plan((24, 24))
        p2 = bank.plan((24, 24))
        assert p1 is p2
        p3 = bank.plan((24, 32))
        assert p3 is not p1
        assert p1["ghat"].shape[0] == GRID.n_bins

    def test_default_plan_pad_is_cropped_to_the_image(self):
        # kernels reach 422 px on the default grid; cropping them to the
        # 128-px image keeps the FFT panel at 256 x 256
        cfg = default_config()
        b = build_kernel_bank(cfg.sigma_grid(), cfg.psf_sigma, cfg.quad_order)
        assert max(b.radii) > 128
        assert b.plan((128, 128))["pad"] == (256, 256)

    def test_validation(self):
        with pytest.raises(ValueError, match="psf_sigma"):
            build_kernel_bank(GRID, psf_sigma=-1.0)
        with pytest.raises(ValueError, match="quad_order"):
            build_kernel_bank(GRID, quad_order=0)


class TestForward:
    def test_impulse_reproduces_kernel(self, bank):
        m = n = 41
        for k in range(GRID.n_bins):
            a = np.zeros((m, n, GRID.n_bins))
            a[m // 2, n // 2, k] = 1.0
            img = forward(a, bank)
            r = bank.radii[k]
            ker = bank.kernels[k]
            lo = max(0, m // 2 - r)
            hi = min(m, m // 2 + r + 1)
            crop = img[lo:hi, lo:hi]
            kcrop = ker[
                r - (m // 2 - lo) : r + (hi - m // 2),
                r - (n // 2 - lo) : r + (hi - n // 2),
            ]
            np.testing.assert_allclose(crop, kcrop, atol=1e-12)

    def test_linear(self, bank):
        rng = np.random.default_rng(5)
        for _ in range(5):
            a = rng.random((16, 16, 3))
            b = rng.random((16, 16, 3))
            al, be = rng.uniform(0.0, 2.0, 2)  # keep the combination non-negative
            lhs = forward(al * a + be * b, bank)
            np.testing.assert_allclose(
                lhs, al * forward(a, bank) + be * forward(b, bank), atol=1e-10
            )

    def test_zero_input(self, bank):
        np.testing.assert_array_equal(forward(np.zeros((8, 8, 3)), bank), 0.0)

    def test_accepts_tensor_wrapper(self, bank):
        rng = np.random.default_rng(9)
        raw = rng.random((12, 12, 3))
        np.testing.assert_array_equal(
            forward(PsdrTensor(data=raw), bank), forward(raw, bank)
        )

    def test_matches_convolve2d_oracle(self):
        b = build_kernel_bank(ORACLE_GRID)
        assert b.radii == (14, 62)
        # an odd padded width needs irfft's explicit length
        assert b.plan(ODD_PAD_SHAPE)["pad"] == ODD_PAD
        rng = np.random.default_rng(3)
        for shape in ORACLE_SHAPES:
            a = rng.random(shape + (2,))
            want = sum(
                convolve2d(a[:, :, k], g, mode="same") for k, g in enumerate(b.kernels)
            )
            assert _rel_err(forward(a, b), want) <= 1e-12, shape

    def test_rejects_bad_input(self, bank):
        with pytest.raises(ValueError, match="does not match"):
            forward(np.zeros((8, 8, 2)), bank)


class TestAdjoint:
    def test_inner_product_identity(self, bank):
        # <A a, d>_w == <a, A* d> for tensors supported on the mask
        rng = np.random.default_rng(0)
        m = n = 24
        worst = 0.0
        for _ in range(10):
            w = rng.uniform(0.1, 2.0, (m, n))
            mask = (rng.random((m, n)) > 0.2).astype(float)
            obs = Observation(data=rng.random((m, n)), weights=w, mask=mask)
            a = rng.random((m, n, GRID.n_bins)) * mask[:, :, None]
            d = rng.standard_normal((m, n))
            lhs = float(np.sum(w * w * forward(a, bank) * d))
            rhs = float(np.sum(a * adjoint(d, obs, bank)))
            worst = max(worst, abs(lhs - rhs) / (np.linalg.norm(a) * np.linalg.norm(d)))
        assert worst <= 1e-12

    def test_masked_rows_are_zeroed(self, bank):
        m = n = 16
        mask = np.ones((m, n))
        mask[3:7, 2:9] = 0.0
        obs = Observation(data=np.ones((m, n)), weights=np.ones((m, n)), mask=mask)
        out = adjoint(np.ones((m, n)), obs, bank)
        assert np.abs(out[3:7, 2:9, :]).max() == 0.0
        assert out[0, 0, :].min() > 0.0

    def test_matches_convolve2d_oracle(self):
        b = build_kernel_bank(ORACLE_GRID)
        assert b.plan(ODD_PAD_SHAPE)["pad"] == ODD_PAD
        rng = np.random.default_rng(4)
        for shape in ORACLE_SHAPES:
            obs = Observation(
                data=rng.random(shape),
                weights=rng.uniform(0.5, 1.5, shape),
                mask=(rng.random(shape) > 0.2).astype(float),
            )
            d = rng.standard_normal(shape)
            t = obs.weights**2 * d
            want = np.stack(
                [obs.mask * convolve2d(t, g, mode="same") for g in b.kernels], axis=2
            )
            assert _rel_err(adjoint(d, obs, b), want) <= 1e-12, shape

    def test_rejects_shape_mismatch(self, bank):
        obs = Observation.plain(np.ones((8, 8)))
        with pytest.raises(ValueError, match="!= observation"):
            adjoint(np.ones((8, 9)), obs, bank)


class TestOpNormEstimate:
    def test_bounded_by_mass_and_weight(self, bank):
        # the spectral norm never exceeds sqrt(top scale boundary) times the
        # largest weight (kernel masses sum the bin widths telescopically)
        rng = np.random.default_rng(21)
        for _ in range(3):
            w = rng.uniform(0.0, 3.0, (20, 20))
            w[0, 0] = 3.0
            obs = Observation(data=np.zeros((20, 20)), weights=w, mask=np.ones((20, 20)))
            est = op_norm_estimate(obs, bank, iters=40)
            assert 0.0 < est <= np.sqrt(GRID.sigma_max) * w.max() + 1e-9

    def test_bound_never_increases_with_iterations(self, bank):
        # the returned bound is a running minimum over the iterates
        obs = Observation(
            data=np.zeros((20, 20)),
            weights=np.random.default_rng(2).uniform(0.5, 1.5, (20, 20)),
            mask=np.ones((20, 20)),
        )
        e20 = op_norm_estimate(obs, bank, iters=20)
        e60 = op_norm_estimate(obs, bank, iters=60)
        assert e60 <= e20

    @pytest.mark.parametrize("case", ["unit", "uniform", "weight_hole", "mask_hole"])
    def test_upper_bound_against_dense_oracle(self, case):
        # radii 8, 14 and 26 on a 24 x 22 image; the holes leave all but the
        # first columns unweighted or outside the mask
        from norm_oracle import dense_norm

        grid = SigmaGrid(boundaries=(0.0, 1.0, 2.0, 4.0), support_set=(1, 2, 3))
        bank3 = build_kernel_bank(grid)
        assert bank3.radii == (8, 14, 26)
        shape = (24, 22)
        weights, mask = np.ones(shape), np.ones(shape)
        if case == "uniform":
            weights = np.random.default_rng(3).uniform(0.1, 2.0, shape)
        elif case == "weight_hole":
            weights[:, 4:] = 0.0
        elif case == "mask_hole":
            mask[:, 3:] = 0.0
        obs = Observation(data=np.zeros(shape), weights=weights, mask=mask)
        sigma = dense_norm(obs, bank3)
        for it in (1, 2, 5, 20):
            assert op_norm_estimate(obs, bank3, it) >= sigma * (1 - 1e-12), it
        assert op_norm_estimate(obs, bank3, 200) <= sigma * (1 + 1e-8)

    def test_weight_hole_beyond_every_kernel_stays_tight(self):
        # radii 8 and 14: the unweighted columns past 4 + 2 * 14 carry only
        # FFT round-off, so their ratios must be left out of the bound
        from norm_oracle import dense_norm

        bank2 = build_kernel_bank(SigmaGrid(boundaries=(0.0, 1.0, 2.0), support_set=(1, 2)))
        weights = np.zeros((6, 80))
        weights[:, :4] = 1.0
        obs = Observation(data=np.zeros((6, 80)), weights=weights, mask=np.ones((6, 80)))
        sigma = dense_norm(obs, bank2)
        assert sigma * (1 - 1e-12) <= op_norm_estimate(obs, bank2, 60) <= sigma * (1 + 1e-8)

    def test_zero_mask_gives_zero(self, bank):
        obs = Observation(
            data=np.zeros((12, 12)), weights=np.ones((12, 12)), mask=np.zeros((12, 12))
        )
        assert op_norm_estimate(obs, bank, iters=25) == 0.0

    def test_rejects_few_iterations(self, bank):
        obs = Observation.plain(np.zeros((8, 8)))
        with pytest.raises(ValueError, match="iters"):
            op_norm_estimate(obs, bank, iters=0)
