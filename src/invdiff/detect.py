"""Source detection on reconstructed tensors and detection scoring.

The scale-resolved reconstruction is collapsed into a single per-pixel
activity map (bin values weighted by the square root of each bin's width,
summed over the supported bins), local maxima above a relative threshold
become candidate detections, nearby candidates are suppressed greedily, and
detected positions are matched against ground truth within a fixed radius
to produce precision/recall/F1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operator import SigmaGrid, check_real, tensor_data
from .tensorio import write_csv


@dataclass(frozen=True)
class DetectionResult:
    """Detected source pixels with their map scores, strongest first."""

    rows: np.ndarray
    cols: np.ndarray
    scores: np.ndarray

    def __len__(self) -> int:
        return self.rows.size

    def positions(self) -> np.ndarray:
        """(count, 2) array of (row, col) pairs."""
        return np.stack([self.rows, self.cols], axis=1) if len(self) else np.empty((0, 2), dtype=np.int64)

    def to_csv(self, path) -> None:
        write_csv(path, (
            "m,n,score",
            ((int(m), int(n), float(s)) for m, n, s in zip(self.rows, self.cols, self.scores)),
        ))


@dataclass(frozen=True)
class MatchReport:
    """Detection-vs-truth comparison.

    pairs holds one row per matched detection:
    (det_row, det_col, truth_row, truth_col, distance).
    """

    tp: int
    fp: int
    fn: int
    precision: float
    recall: float
    f1: float
    pairs: np.ndarray

    def to_csv(self, path) -> None:
        write_csv(
            path,
            ("metric,value", (
                ("tp", self.tp), ("fp", self.fp), ("fn", self.fn),
                ("precision", self.precision), ("recall", self.recall), ("f1", self.f1),
            )),
            ("pair_det_m,pair_det_n,pair_truth_m,pair_truth_n,pair_dist", (
                (int(dm), int(dn), int(tm), int(tn), float(dist))
                for dm, dn, tm, tn, dist in self.pairs
            )),
        )


def aggregate_map(a, grid: SigmaGrid) -> np.ndarray:
    """Collapse a scale-resolved tensor into a per-pixel activity map.

    Supported bins are summed with weights sqrt(bin width), matching how
    bin values were normalized, so the map approximates each pixel's total
    bound mass attributable to signal scales.
    """
    data = tensor_data(a)
    if data.ndim != 3 or data.shape[2] != grid.n_bins:
        raise ValueError(
            f"tensor shape {data.shape} does not match the {grid.n_bins}-bin grid"
        )
    w = np.where(grid.support_mask, np.sqrt(grid.widths), 0.0)
    return data @ w


def find_sources(
    activity: np.ndarray,
    rel_threshold: float = 0.05,
    min_separation: int = 4,
) -> DetectionResult:
    """Local maxima of the activity map above a relative threshold.

    A pixel is a candidate when it is a 3x3 local maximum (plateaus count)
    and its value is at least rel_threshold times the map peak. Candidates
    are visited strongest first (ties broken by row, then column) and any
    candidate within Chebyshev distance min_separation of an already kept
    one is suppressed. An all-zero map yields no detections.
    """
    img = check_real("activity", activity)
    if np.ndim(img) != 2:
        raise ValueError(f"activity map must be 2D, got shape {np.shape(img)}")
    rel_threshold = check_real("rel_threshold", rel_threshold, "non-negative")
    if rel_threshold > 1.0:
        raise ValueError(f"rel_threshold must be in [0, 1], got {rel_threshold}")
    min_separation = check_real("min_separation", min_separation, "non-negative")
    peak = img.max(initial=0.0)
    empty = DetectionResult(
        rows=np.empty(0, dtype=np.int64),
        cols=np.empty(0, dtype=np.int64),
        scores=np.empty(0),
    )
    if peak <= 0.0:
        return empty
    # 3x3 neighbourhood maximum: a max over row shifts, then column shifts
    pad = np.pad(img, 1, constant_values=-np.inf)
    rows = np.maximum(np.maximum(pad[:-2], pad[1:-1]), pad[2:])
    local_max = img >= np.maximum(np.maximum(rows[:, :-2], rows[:, 1:-1]), rows[:, 2:])
    cand = local_max & (img >= rel_threshold * peak) & (img > 0)
    ms, ns = np.nonzero(cand)
    if ms.size == 0:
        return empty
    scores = img[ms, ns]
    order = np.lexsort((ns, ms, -scores))
    ms, ns, scores = ms[order], ns[order], scores[order]
    keep_m, keep_n, keep_s = [], [], []
    for m, n, s in zip(ms, ns, scores):
        suppressed = any(
            max(abs(m - km), abs(n - kn)) <= min_separation
            for km, kn in zip(keep_m, keep_n)
        )
        if not suppressed:
            keep_m.append(int(m))
            keep_n.append(int(n))
            keep_s.append(float(s))
    return DetectionResult(
        rows=np.asarray(keep_m, dtype=np.int64),
        cols=np.asarray(keep_n, dtype=np.int64),
        scores=np.asarray(keep_s),
    )


def match_and_score(
    detections: DetectionResult,
    truths: np.ndarray,
    radius: float = 4.0,
) -> MatchReport:
    """Greedy one-to-one matching of detections to true positions.

    Detections are taken strongest first; each claims the nearest unmatched
    truth within the Euclidean radius (distance ties broken by truth row,
    then column). Unmatched detections are false positives, unmatched
    truths false negatives. Precision (recall) is defined as 1.0 when there
    are no detections (no truths), so empty-on-empty scores F1 = 1.0.
    Non-finite truth coordinates are rejected: a NaN distance would claim a
    detection ahead of a true source at distance 0.
    """
    radius = check_real("radius", radius, "non-negative")
    t = np.atleast_1d(check_real("truths", truths))
    if t.size == 0:
        t = np.empty((0, 2))
    if t.ndim != 2 or t.shape[1] != 2:
        raise ValueError(f"truths must be (count, 2), got shape {t.shape}")
    n_det = len(detections)
    n_tru = t.shape[0]
    taken = np.zeros(n_tru, dtype=bool)
    pairs = []
    by_strength = np.argsort(-np.asarray(detections.scores), kind="stable")
    for i in by_strength:
        dm, dn = float(detections.rows[i]), float(detections.cols[i])
        best = None
        for j in range(n_tru):
            if taken[j]:
                continue
            dist = float(np.hypot(dm - t[j, 0], dn - t[j, 1]))
            if dist > radius:
                continue
            key = (dist, t[j, 0], t[j, 1])
            if best is None or key < best[0]:
                best = (key, j, dist)
        if best is not None:
            _, j, dist = best
            taken[j] = True
            pairs.append((dm, dn, t[j, 0], t[j, 1], dist))
    tp = len(pairs)
    fp = n_det - tp
    fn = n_tru - tp
    precision = 1.0 if n_det == 0 else tp / n_det
    recall = 1.0 if n_tru == 0 else tp / n_tru
    if precision + recall == 0.0:
        f1 = 0.0
    else:
        f1 = 2.0 * precision * recall / (precision + recall)
    pairs_arr = np.asarray(pairs) if pairs else np.empty((0, 5))
    return MatchReport(
        tp=tp, fp=fp, fn=fn,
        precision=float(precision), recall=float(recall), f1=float(f1),
        pairs=pairs_arr,
    )
