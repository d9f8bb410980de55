"""Independent answer oracles, one per served kind.

None of these shares code with the program under test: they use plain
numpy over the structure's *inputs* (or the finest level of the stored
triangulation) and, for line queries, scipy's Qhull facets.  Each
``check`` returns a boolean mask of the answers it rejects, so a caller
can count mismatches and the self-check can show that a corrupted
answer is flagged and nothing else is.
"""

from __future__ import annotations

import numpy as np

#: point-in-triangle slack, in units of (twice) triangle area
_TRI_TOL = 1e-9
#: line-hull clipping: a clip interval this close to empty is ambiguous
_CLIP_TOL = 1e-7
#: tangent-plane checks (containment of the line, support of the hull)
_PLANE_TOL = 1e-7
#: every ``_BRUTE_STRIDE``-th interval query is also counted by brute force
_BRUTE_STRIDE = 64


class PointlocOracle:
    """Brute-force point-in-triangle over the finest stored triangulation.

    The answer of a point-location query is an index into the finest
    level of the Kirkpatrick DAG (``-1`` for outside).  The oracle reads
    that level's triangles from the snapshot arrays and tests every
    query against every triangle.
    """

    kind = "pointloc"

    def __init__(self, arrays: dict, meta: dict) -> None:
        level = np.asarray(arrays["level"])
        finest = np.asarray(arrays["payload"])[level == int(meta["height"]), :6]
        self.tris = finest.reshape(-1, 3, 2)

    def containing(self, queries: np.ndarray) -> np.ndarray:
        """``(m, T)`` mask: does triangle ``t`` contain query ``i``."""
        a, b, c = self.tris[:, 0], self.tris[:, 1], self.tris[:, 2]
        out = np.zeros((queries.shape[0], self.tris.shape[0]), dtype=bool)
        for lo in range(0, queries.shape[0], 256):
            q = queries[lo : lo + 256, None, :]
            inside = np.ones((q.shape[0], self.tris.shape[0]), dtype=bool)
            for p0, p1 in ((a, b), (b, c), (c, a)):
                cross = (p1[:, 0] - p0[:, 0]) * (q[..., 1] - p0[:, 1]) - (
                    p1[:, 1] - p0[:, 1]
                ) * (q[..., 0] - p0[:, 0])
                inside &= cross >= -_TRI_TOL
            out[lo : lo + 256] = inside
        return out

    def check(self, queries: np.ndarray, answers: np.ndarray) -> np.ndarray:
        inside = self.containing(queries)
        answers = np.asarray(answers, dtype=np.int64)
        valid = (answers >= 0) & (answers < self.tris.shape[0])
        hit = np.zeros(answers.shape[0], dtype=bool)
        rows = np.flatnonzero(valid)
        hit[rows] = inside[rows, answers[rows]]
        outside_ok = (answers == -1) & ~inside.any(axis=1)
        return ~(hit | outside_ok)

    def corrupt(self, queries: np.ndarray, answers: np.ndarray, j: int) -> np.ndarray:
        """A copy of ``answers`` whose ``j``-th entry names a wrong triangle."""
        out = np.array(answers, dtype=np.int64, copy=True)
        inside = self.containing(queries[j : j + 1])[0]
        wrong = np.flatnonzero(~inside)
        out[j] = wrong[len(wrong) // 2]
        return out


class IntervalOracle:
    """Interval intersection counting against the stored intervals.

    Every answer is checked against a sort-based count (intervals with
    ``left <= b`` minus those with ``right < a``); every
    ``_BRUTE_STRIDE``-th query is also counted by brute force over all
    intervals, which keeps the sort-based count itself honest.
    """

    kind = "interval"

    def __init__(self, lefts: np.ndarray, rights: np.ndarray) -> None:
        self.lefts = np.asarray(lefts, dtype=np.float64)
        self.rights = np.asarray(rights, dtype=np.float64)
        self._lefts_sorted = np.sort(self.lefts)
        self._rights_sorted = np.sort(self.rights)

    def counts(self, queries: np.ndarray) -> np.ndarray:
        a, b = queries[:, 0], queries[:, 1]
        le_b = np.searchsorted(self._lefts_sorted, b, side="right")
        lt_a = np.searchsorted(self._rights_sorted, a, side="left")
        return (le_b - lt_a).astype(np.int64)

    def check(self, queries: np.ndarray, answers: np.ndarray) -> np.ndarray:
        answers = np.asarray(answers, dtype=np.int64)
        bad = answers != self.counts(queries)
        for i in range(0, queries.shape[0], _BRUTE_STRIDE):
            a, b = queries[i]
            brute = int(np.count_nonzero((self.lefts <= b) & (self.rights >= a)))
            bad[i] |= int(answers[i]) != brute
        return bad

    def corrupt(self, queries: np.ndarray, answers: np.ndarray, j: int) -> np.ndarray:
        out = np.array(answers, dtype=np.int64, copy=True)
        out[j] += 1
        return out


class LinepolyOracle:
    """Clip each line against the Qhull facets of the point set.

    A line meets the convex polytope iff the parameter interval left
    after clipping against every facet half-space is non-empty.  For a
    line that misses, both reported tangent planes must contain the
    line, touch the hull at the reported tangent vertex, and leave every
    point on one side.  Lines whose clip interval is within
    ``_CLIP_TOL`` of empty are ambiguous in floating point and counted
    separately; they are not flagged.
    """

    kind = "linepoly"

    def __init__(self, points: np.ndarray) -> None:
        from scipy.spatial import ConvexHull

        self.points = np.asarray(points, dtype=np.float64)
        self.equations = ConvexHull(self.points).equations

    def clip_margin(self, queries: np.ndarray) -> np.ndarray:
        """Length of the clipped parameter interval (negative = misses)."""
        p0 = queries[:, 0:3]
        u = queries[:, 3:6] / np.linalg.norm(queries[:, 3:6], axis=1, keepdims=True)
        normals, offsets = self.equations[:, :3], self.equations[:, 3]
        num = -(p0 @ normals.T + offsets)  # constraint: den * t <= num
        den = u @ normals.T
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = num / den
        t_hi = np.where(den > 0, ratio, np.inf).min(axis=1)
        t_lo = np.where(den < 0, ratio, -np.inf).max(axis=1)
        parallel_out = ((den == 0) & (num < 0)).any(axis=1)
        return np.where(parallel_out, -np.inf, t_hi - t_lo)

    def ambiguous(self, queries: np.ndarray) -> int:
        """How many lines graze the hull too closely to call either way."""
        return int(np.count_nonzero(np.abs(self.clip_margin(queries)) <= _CLIP_TOL))

    def check(self, queries: np.ndarray, answers: np.ndarray) -> np.ndarray:
        answers = np.asarray(answers, dtype=np.float64).reshape(-1, 11)
        margin = self.clip_margin(queries)
        ambiguous = np.abs(margin) <= _CLIP_TOL
        says_hit = answers[:, 0] == 1.0
        bad = says_hit != (margin > 0)
        bad |= (answers[:, 0] != 0.0) & (answers[:, 0] != 1.0)
        for i in np.flatnonzero(~says_hit & ~bad & ~ambiguous):
            bad[i] = not self._planes_ok(queries[i], answers[i])
        for i in np.flatnonzero(says_hit & ~bad):
            bad[i] = not (np.isnan(answers[i, 3:]).all() and (answers[i, 1:3] == -1).all())
        return bad & ~ambiguous

    def _planes_ok(self, query: np.ndarray, row: np.ndarray) -> bool:
        p0, u = query[0:3], query[3:6] / np.linalg.norm(query[3:6])
        for side in (0, 1):
            vertex = int(row[1 + side])
            plane = row[3 + 4 * side : 7 + 4 * side]
            normal, offset = plane[:3], plane[3]
            if not np.isfinite(plane).all() or not 0 <= vertex < self.points.shape[0]:
                return False
            if abs(np.linalg.norm(normal) - 1.0) > _PLANE_TOL:
                return False
            if abs(normal @ u) > _PLANE_TOL or abs(normal @ p0 - offset) > _PLANE_TOL:
                return False
            if abs(normal @ self.points[vertex] - offset) > _PLANE_TOL:
                return False
            side_of = self.points @ normal - offset
            if side_of.max() > _PLANE_TOL and side_of.min() < -_PLANE_TOL:
                return False
        return True

    def corrupt(self, queries: np.ndarray, answers: np.ndarray, j: int) -> np.ndarray:
        out = np.array(answers, dtype=np.float64, copy=True).reshape(-1, 11)
        out[j, 0] = 1.0 - out[j, 0]
        return out


def for_kind(kind: str, inputs: dict, snapshot):
    """The oracle for one kind, over its structure inputs and snapshot."""
    if kind == "pointloc":
        return PointlocOracle(snapshot.arrays, snapshot.meta)
    if kind == "interval":
        return IntervalOracle(inputs["lefts"], inputs["rights"])
    return LinepolyOracle(inputs["points"])


def _row_bytes(answers: np.ndarray) -> np.ndarray:
    return answers.reshape(len(answers), -1).view(np.uint8)


def byte_mismatches(served: np.ndarray, direct: np.ndarray) -> np.ndarray:
    """Per-answer byte-identity check of served against direct answers."""
    served, direct = np.ascontiguousarray(served), np.ascontiguousarray(direct)
    if served.shape != direct.shape or served.dtype != direct.dtype:
        return np.ones(len(served), dtype=bool)
    return (_row_bytes(served) != _row_bytes(direct)).any(axis=1)


def corruption_selfcheck(oracle, queries: np.ndarray, answers: np.ndarray, j: int) -> dict:
    """Corrupt answer ``j`` and show that exactly it is flagged.

    ``answers`` must already pass ``oracle.check``.  Both the oracle and
    the byte-identity comparison must flag index ``j`` and no other.
    """
    bad = oracle.corrupt(queries, answers, j)
    by_oracle = np.flatnonzero(oracle.check(queries, bad)).tolist()
    by_bytes = np.flatnonzero(byte_mismatches(bad, answers)).tolist()
    return {
        "kind": oracle.kind,
        "corrupted": int(j),
        "flagged_oracle": by_oracle,
        "flagged_direct": by_bytes,
        "ok": by_oracle == [j] and by_bytes == [j],
    }
