"""Unit tests for peak detection and detection scoring.

The matcher is cross-checked against an optimal-assignment oracle
(scipy's linear_sum_assignment) on well-separated instances where greedy
and optimal matching must coincide.
"""

import numpy as np
import pytest

from invdiff import (
    DetectionResult,
    MatchReport,
    SigmaGrid,
    aggregate_map,
    find_sources,
    match_and_score,
)


class TestAggregateMap:
    def test_weights_supported_bins_by_sqrt_width(self):
        g = SigmaGrid(boundaries=(0.0, 1.0, 5.0, 14.0), support_set=(1, 3))
        a = np.zeros((2, 2, 3))
        a[0, 0] = [2.0, 100.0, 3.0]  # middle bin is unsupported
        out = aggregate_map(a, g)
        assert out.shape == (2, 2)
        assert out[0, 0] == pytest.approx(2.0 * 1.0 + 3.0 * 3.0)
        assert out[1, 1] == 0.0

    def test_rejects_bin_mismatch(self):
        g = SigmaGrid(boundaries=(0.0, 1.0), support_set=(1,))
        with pytest.raises(ValueError, match="does not match"):
            aggregate_map(np.zeros((2, 2, 3)), g)


class TestFindSources:
    def test_single_peak(self):
        img = np.zeros((9, 9))
        img[4, 5] = 2.0
        det = find_sources(img)
        assert len(det) == 1
        assert (det.rows[0], det.cols[0]) == (4, 5)
        assert det.scores[0] == 2.0

    def test_results_ordered_by_score_then_position(self):
        img = np.zeros((20, 20))
        img[2, 2] = 5.0
        img[10, 10] = 7.0
        img[17, 3] = 5.0
        det = find_sources(img, min_separation=2)
        assert list(det.scores) == [7.0, 5.0, 5.0]
        assert list(det.rows) == [10, 2, 17]

    def test_relative_threshold_drops_weak_peaks(self):
        img = np.zeros((20, 20))
        img[3, 3] = 10.0
        img[15, 15] = 0.6
        det = find_sources(img, rel_threshold=0.05, min_separation=2)
        assert len(det) == 2
        det = find_sources(img, rel_threshold=0.5, min_separation=2)
        assert len(det) == 1

    def test_chebyshev_suppression(self):
        img = np.zeros((20, 20))
        img[5, 5] = 3.0
        img[5, 9] = 2.0  # within Chebyshev distance 4 of the stronger peak
        assert len(find_sources(img, min_separation=4)) == 1
        assert len(find_sources(img, min_separation=3)) == 2

    def test_plateau_counts_once_under_suppression(self):
        img = np.zeros((12, 12))
        img[6, 6] = img[6, 7] = 1.5  # two-pixel plateau
        det = find_sources(img, min_separation=1)
        assert len(det) == 1
        assert (det.rows[0], det.cols[0]) == (6, 6)  # position tie broken low

    def test_border_peak_found(self):
        img = np.zeros((8, 8))
        img[0, 0] = 1.0
        det = find_sources(img)
        assert len(det) == 1 and (det.rows[0], det.cols[0]) == (0, 0)

    def test_flat_zero_map_gives_nothing(self):
        assert len(find_sources(np.zeros((10, 10)))) == 0

    def test_negative_only_map_gives_nothing(self):
        assert len(find_sources(-np.ones((10, 10)))) == 0

    def test_local_maxima_match_ndimage_maximum_filter(self):
        # with no threshold and no suppression every positive 3x3 local
        # maximum is a detection; oracle: scipy.ndimage's maximum filter on
        # seeded random maps with plateaus, thin maps and zero maps
        from scipy import ndimage

        rng = np.random.default_rng(11)
        shapes = [(1, 1), (1, 7), (6, 1), (2, 2), (5, 9), (16, 16), (13, 4)]
        for trial in range(120):
            shape = shapes[trial % len(shapes)]
            img = rng.integers(0, 1 + trial % 4, size=shape).astype(np.float64)
            ref = img >= ndimage.maximum_filter(img, size=3, mode="constant", cval=-np.inf)
            want = np.argwhere(ref & (img > 0))
            det = find_sources(img, rel_threshold=0.0, min_separation=0)
            got = det.positions()
            np.testing.assert_array_equal(got[np.lexsort(got.T[::-1])], want)

    def test_validation(self):
        with pytest.raises(ValueError, match="2D"):
            find_sources(np.zeros(5))
        with pytest.raises(ValueError, match="finite"):
            find_sources(np.full((4, 4), np.nan))
        with pytest.raises(ValueError, match="rel_threshold"):
            find_sources(np.zeros((4, 4)), rel_threshold=1.5)
        with pytest.raises(ValueError, match="min_separation"):
            find_sources(np.zeros((4, 4)), min_separation=-1)

    def test_positions_and_csv(self, tmp_path):
        img = np.zeros((10, 10))
        img[2, 3] = 4.0
        img[8, 1] = 1.0
        det = find_sources(img, min_separation=2)
        np.testing.assert_array_equal(det.positions(), [[2, 3], [8, 1]])
        path = tmp_path / "det.csv"
        det.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "m,n,score"
        assert lines[1].startswith("2,3,")
        assert len(lines) == 3


def _det(points, scores=None):
    pts = np.asarray(points, dtype=int).reshape(-1, 2)
    sc = np.asarray(scores if scores is not None else np.ones(len(pts)), dtype=float)
    return DetectionResult(rows=pts[:, 0], cols=pts[:, 1], scores=sc)


class TestMatchAndScore:
    def test_perfect_match(self):
        truths = np.array([[3.0, 4.0], [10.0, 10.0]])
        rep = match_and_score(_det([[3, 4], [10, 10]]), truths, radius=4.0)
        assert (rep.tp, rep.fp, rep.fn) == (2, 0, 0)
        assert rep.precision == rep.recall == rep.f1 == 1.0

    def test_radius_boundary_inclusive(self):
        truths = np.array([[0.0, 0.0]])
        rep = match_and_score(_det([[3, 4]]), truths, radius=5.0)  # dist exactly 5
        assert rep.tp == 1
        rep = match_and_score(_det([[3, 4]]), truths, radius=4.9)
        assert (rep.tp, rep.fp, rep.fn) == (0, 1, 1)

    def test_one_truth_cannot_absorb_two_detections(self):
        truths = np.array([[5.0, 5.0]])
        rep = match_and_score(_det([[5, 5], [6, 5]], scores=[2.0, 1.0]), truths, 4.0)
        assert (rep.tp, rep.fp, rep.fn) == (1, 1, 0)
        # the stronger detection won the truth
        assert tuple(rep.pairs[0][:2]) == (5.0, 5.0)

    def test_strongest_detection_claims_contested_truth(self):
        # both detections sit nearer truth A; the stronger takes A, the
        # weaker falls back to B
        truths = np.array([[0.0, 0.0], [0.0, 6.0]])
        rep = match_and_score(
            _det([[0, 1], [0, 2]], scores=[1.0, 5.0]), truths, radius=6.0
        )
        assert rep.tp == 2
        strong = [p for p in rep.pairs if (p[0], p[1]) == (0, 2)][0]
        assert (strong[2], strong[3]) == (0.0, 0.0)

    def test_empty_conventions(self):
        none = _det(np.empty((0, 2)))
        truths = np.array([[1.0, 1.0]])
        rep = match_and_score(none, truths, 4.0)
        assert (rep.precision, rep.recall, rep.f1) == (1.0, 0.0, 0.0)
        rep = match_and_score(_det([[1, 1]]), np.empty((0, 2)), 4.0)
        assert (rep.precision, rep.recall, rep.f1) == (0.0, 1.0, 0.0)
        rep = match_and_score(none, np.empty((0, 2)), 4.0)
        assert (rep.precision, rep.recall, rep.f1) == (1.0, 1.0, 1.0)

    def test_f1_formula(self):
        truths = np.array([[0.0, 0.0], [20.0, 20.0]])
        rep = match_and_score(_det([[0, 0], [5, 5], [9, 9]]), truths, radius=2.0)
        assert (rep.tp, rep.fp, rep.fn) == (1, 2, 1)
        p, r = 1 / 3, 1 / 2
        assert rep.f1 == pytest.approx(2 * p * r / (p + r))

    def test_greedy_equals_optimal_when_separated(self):
        # with truths spaced more than twice the radius apart, each
        # detection has at most one candidate truth, so greedy matching is
        # provably optimal; cross-check with an assignment oracle
        from scipy.optimize import linear_sum_assignment

        rng = np.random.default_rng(31)
        for _ in range(20):
            n_truth = rng.integers(3, 8)
            truths = []
            while len(truths) < n_truth:
                cand = rng.uniform(0, 100, 2)
                if all(np.linalg.norm(cand - t) > 9.0 for t in truths):
                    truths.append(cand)
            truths = np.array(truths)
            dets = []
            for t in truths:
                if rng.random() < 0.8:  # drop some
                    dets.append(t + rng.uniform(-2.5, 2.5, 2))
            for _ in range(rng.integers(0, 3)):  # spurious
                dets.append(rng.uniform(0, 100, 2))
            if not dets:
                continue
            det_arr = np.round(np.asarray(dets)).astype(int)
            rep = match_and_score(
                _det(det_arr, scores=rng.uniform(1, 2, len(det_arr))), truths, 4.0
            )
            # oracle: maximize matched count via assignment on the
            # within-radius bipartite graph
            d2 = np.linalg.norm(
                det_arr[:, None, :] - truths[None, :, :], axis=2
            )
            cost = np.where(d2 <= 4.0, 0.0, 1e6)
            ri, ci = linear_sum_assignment(cost)
            want_tp = int((cost[ri, ci] < 1e5).sum())
            assert rep.tp == want_tp

    def test_validation(self):
        with pytest.raises(ValueError, match="radius"):
            match_and_score(_det([[0, 0]]), np.array([[0.0, 0.0]]), radius=-1.0)
        with pytest.raises(ValueError, match="count, 2"):
            match_and_score(_det([[0, 0]]), np.zeros((2, 3)), radius=2.0)

    def test_report_csv(self, tmp_path):
        truths = np.array([[3.0, 4.0]])
        rep = match_and_score(_det([[3, 4]], scores=[2.0]), truths, 4.0)
        path = tmp_path / "metrics.csv"
        rep.to_csv(path)
        text = path.read_text()
        assert "precision,1" in text.replace(".0", "")
        assert "f1" in text
        assert "det_m" in text  # pair table header
