"""Phase-plane geometry: points, the unit lattice, domains.

The phase plane carries the Euclidean metric |lambda|^2 = p^2 + theta^2,
which every domain's distance and neighborhood use.  The unit lattice has
cell area one; "sharp" points are the lattice translated by the cell
midpoint (1/2, 1/2).
"""

from __future__ import annotations

from dataclasses import dataclass
import json
import sys

import numpy as np


@dataclass(frozen=True)
class PhasePoint:
    p: float
    theta: float

    @property
    def label(self) -> complex:
        """Complex coordinate p + i*theta."""
        return complex(self.p, self.theta)

    @property
    def norm(self) -> float:
        return float(np.hypot(self.p, self.theta))

    def __iter__(self):
        return iter((self.p, self.theta))

    def __add__(self, other):
        other = as_point(other)
        return PhasePoint(self.p + other.p, self.theta + other.theta)

    def __sub__(self, other):
        other = as_point(other)
        return PhasePoint(self.p - other.p, self.theta - other.theta)


def as_point(x) -> PhasePoint:
    if isinstance(x, PhasePoint):
        return x
    p, theta = x
    return PhasePoint(float(p), float(theta))


def sharp_point(k: int = 0, j: int = 0) -> PhasePoint:
    """Cell-midpoint translate (k + 1/2, j + 1/2) of the lattice."""
    return PhasePoint(k + 0.5, j + 0.5)


def _pts(x) -> tuple[np.ndarray, bool]:
    if isinstance(x, PhasePoint):
        return np.array([[x.p, x.theta]]), True
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 1:
        return arr.reshape(1, 2), True
    return arr.reshape(-1, 2), False


class PhaseDomain:
    """Closed region of the phase plane: a distance plus a bounding box.

    Subclasses implement `_distance_xy` over (n, 2) arrays; `contains` and
    `distance` accept one point or an array.  Membership is the distance rule
    of `neighborhood_masks`, dist <= 1e-12, for every domain.  Instances are
    immutable after construction and safe to share.
    """

    def __init__(self, bbox):
        self.bbox = tuple(float(b) for b in bbox)
        # a NaN bound fails both orderings, so it is refused; an infinite bound is kept
        if len(self.bbox) != 4 or not (self.bbox[0] <= self.bbox[1] and self.bbox[2] <= self.bbox[3]):
            raise ValueError(f"bad bounding box {bbox}")

    def is_bounded(self) -> bool:
        return all(np.isfinite(self.bbox))

    def _distance_xy(self, pts: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _ball(self) -> tuple[PhaseDomain, float]:
        """(base, r) with this domain the closed r-neighborhood of base: (self, 0) but for a Neighborhood."""
        return self, 0.0

    def _contains_xy(self, pts: np.ndarray) -> np.ndarray:
        base, r = self._ball()
        return neighborhood_masks(base, pts[:, 0], pts[:, 1], [r])[0]

    def contains(self, x):
        pts, scalar = _pts(x)
        res = self._contains_xy(pts)
        return bool(res[0]) if scalar else res

    def contains_grid(self, ps, ts) -> np.ndarray:
        """Membership of the product grid ps x ts as a (len(ps), len(ts)) mask."""
        base, r = self._ball()
        return neighborhood_masks(base, np.reshape(ps, (-1, 1)), np.reshape(ts, (1, -1)), [r])[0]

    def distance(self, x):
        """Euclidean distance to the domain (0 inside)."""
        pts, scalar = _pts(x)
        d = self._distance_xy(pts)
        return float(d[0]) if scalar else d


class Rect(PhaseDomain):
    def __init__(self, pmin, pmax, tmin, tmax):
        super().__init__((pmin, pmax, tmin, tmax))

    def _distance_xy(self, pts):
        pmin, pmax, tmin, tmax = self.bbox
        dp = np.maximum(np.maximum(pmin - pts[:, 0], pts[:, 0] - pmax), 0.0)
        dt = np.maximum(np.maximum(tmin - pts[:, 1], pts[:, 1] - tmax), 0.0)
        return np.hypot(dp, dt)


class Disk(PhaseDomain):
    def __init__(self, center=(0.0, 0.0), radius=1.0):
        cx, cy = as_point(center)
        if radius < 0:
            raise ValueError("disk radius must be >= 0")
        self.center = (float(cx), float(cy))
        self.radius = float(radius)
        super().__init__((cx - radius, cx + radius, cy - radius, cy + radius))

    def _distance_xy(self, pts):
        r = np.hypot(pts[:, 0] - self.center[0], pts[:, 1] - self.center[1])
        return np.maximum(r - self.radius, 0.0)


class Polygon(PhaseDomain):
    """Closed polygon: distance 0 inside, by ray casting."""

    def __init__(self, vertices):
        verts = np.asarray(vertices, dtype=float)
        if verts.ndim != 2 or verts.shape[0] < 3 or verts.shape[1] != 2:
            raise ValueError("polygon needs at least 3 (p, theta) vertices")
        self.vertices = verts
        bbox = (verts[:, 0].min(), verts[:, 0].max(), verts[:, 1].min(), verts[:, 1].max())
        super().__init__(bbox)

    def _distance_xy(self, pts):
        """One pass over the edges: ray-crossing parity and the running
        minimum of the point-to-segment distance, on (N,) vectors."""
        x, y = pts[:, 0], pts[:, 1]
        inside = np.zeros(len(pts), dtype=bool)
        d = np.full(len(pts), np.inf)
        for (x1, y1), (x2, y2) in zip(self.vertices, np.roll(self.vertices, -1, axis=0)):
            abx, aby = x2 - x1, y2 - y1
            inside ^= ((y1 > y) != (y2 > y)) & (x < x1 + (y - y1) * abx / (aby if aby != 0 else 1e-300))
            t = np.clip(((x - x1) * abx + (y - y1) * aby) / max(abx * abx + aby * aby, 1e-300), 0.0, 1.0)
            np.minimum(d, np.hypot(x - (x1 + t * abx), y - (y1 + t * aby)), out=d)
        return np.where(inside, 0.0, d)


class UnionDomain(PhaseDomain):
    def __init__(self, parts):
        parts = list(parts)
        if not parts:
            raise ValueError("union of no domains")
        self.parts = parts
        boxes = np.array([p.bbox for p in parts])
        bbox = (boxes[:, 0].min(), boxes[:, 1].max(), boxes[:, 2].min(), boxes[:, 3].max())
        super().__init__(bbox)

    def _distance_xy(self, pts):
        out = np.full(len(pts), np.inf)
        for part in self.parts:
            np.minimum(out, part.distance(pts), out=out)
        return out


class Neighborhood(PhaseDomain):
    """Closed r-neighborhood of a base domain: membership is dist(., base) <= r."""

    def __init__(self, base: PhaseDomain, r: float):
        if r < 0:
            raise ValueError("neighborhood radius must be >= 0")
        self.base = base
        self.r = float(r)
        pmin, pmax, tmin, tmax = base.bbox
        super().__init__((pmin - r, pmax + r, tmin - r, tmax + r))

    def _ball(self):
        return self.base, self.r

    def _distance_xy(self, pts):
        return np.maximum(self.base.distance(pts) - self.r, 0.0)


def neighborhood_masks(base: PhaseDomain, p, t, radii) -> list[np.ndarray]:
    """Membership of the points (p, t) in the closed r-neighborhoods of base,
    dist(., base) <= r + 1e-12, one mask per radius, over the broadcast shape of
    the arrays p and t: 1-D p and t give a point list, ps[:, None] and ts[None, :] a grid.

    The base lies in its bbox and is not empty, so dist(x, bbox) <= dist(x, base)
    <= dist(x, the bbox's farthest corner), each squared a p part plus a theta part.
    Upper bound <= r - 1e-9 is inside (none is for r <= 1e-9), lower bound > r + 1e-9
    outside, and one base distance decides the ring between, taken even when the
    ring is empty, so an empty base (a user-defined domain that is empty) raises.  The
    slack is far above a distance's roundoff, so every mask is the rule itself.
    """
    pmin, pmax, tmin, tmax = base.bbox
    lo_p, lo_t = np.maximum(pmin - p, p - pmax).clip(0) ** 2, np.maximum(tmin - t, t - tmax).clip(0) ** 2
    hi_p, hi_t = np.maximum(p - pmin, pmax - p) ** 2, np.maximum(t - tmin, tmax - t) ** 2
    masks = [hi_p <= (r - 1e-9) * abs(r - 1e-9) - hi_t for r in radii]  # sign-keeping square
    # the ring: within reach (lower bound <= r + 1e-9) and not inside, for some radius
    ring = np.logical_or.reduce([(lo_p <= (r + 1e-9) ** 2 - lo_t) > m for m, r in zip(masks, radii)])
    d = base.distance(np.column_stack([np.broadcast_to(x, ring.shape)[ring] for x in (p, t)]))
    for mask, r in zip(masks, radii):
        mask[ring] = d <= r + 1e-12
    return masks


def lattice_points_in(domain: PhaseDomain, sharp: bool = False) -> np.ndarray:
    """The indices (k, j) of all lattice points (k, j) in the domain, or of all
    sharp points (k + 1/2, j + 1/2) with sharp=True, as a sorted (n, 2) integer array."""
    if not domain.is_bounded():
        raise ValueError("lattice enumeration needs a bounded domain")
    off = 0.5 if sharp else 0.0
    pmin, pmax, tmin, tmax = domain.bbox
    ks = np.arange(int(np.ceil(pmin - off - 1e-9)), int(np.floor(pmax - off + 1e-9)) + 1)
    js = np.arange(int(np.ceil(tmin - off - 1e-9)), int(np.floor(tmax - off + 1e-9)) + 1)
    if ks.size == 0 or js.size == 0:
        return np.empty((0, 2), dtype=int)
    i, j = np.nonzero(domain.contains_grid(ks + off, js + off))
    return np.column_stack([ks[i], js[j]])


_DOMAIN_KEYS = {"disk": {"center", "radius"}, "rect": {"pmin", "pmax", "tmin", "tmax"},
                "polygon": {"vertices"}, "union": {"parts"}}


_FLOAT_MAX = sys.float_info.max


def _json_number(x, what: str) -> float:
    """x as a float when it is a finite JSON number, an int or a float but no bool;
    ValueError otherwise.  A NaN fails the comparison, and an integer past the float
    range is refused before float() would overflow."""
    if type(x) not in (int, float) or not abs(x) <= _FLOAT_MAX:
        raise ValueError(f"{what} must be a finite number, got {x!r}")
    return float(x)


def _json_pair_list(x, what: str) -> list:
    """x when it is a list of two-element lists; ValueError otherwise."""
    if not isinstance(x, (list, tuple)) or not all(isinstance(v, (list, tuple)) and len(v) == 2 for v in x):
        raise ValueError(f"{what} must be a list of [a, b] number pairs, got {x!r}")
    return x


def _json_pairs(x, what: str) -> list[tuple[float, float]]:
    """x as a list of (a, b) when it is a list of two-number lists; ValueError otherwise."""
    return [(_json_number(a, what), _json_number(b, what)) for a, b in _json_pair_list(x, what)]


def domain_from_json(spec) -> PhaseDomain:
    """Build a domain from {"type": "disk"|"rect"|"polygon"|"union", ...}; a key
    its type does not read, a value of the wrong shape or a number that is not
    finite is a ValueError."""
    if isinstance(spec, (str, bytes)):
        spec = json.loads(spec)
    if not isinstance(spec, dict):
        raise ValueError(f"a domain is a JSON object, got {spec!r}")
    kind = spec.get("type")
    if kind not in _DOMAIN_KEYS:
        raise ValueError(f"unknown domain type {kind!r}")
    extra = set(spec) - _DOMAIN_KEYS[kind] - {"type"}
    if extra:
        raise ValueError(f"{kind} domain does not read {sorted(extra)}")
    if kind == "disk":
        return Disk(_json_pairs([spec["center"]], "disk center")[0], _json_number(spec["radius"], "disk radius"))
    if kind == "rect":
        return Rect(*(_json_number(spec[key], f"rect {key}") for key in ("pmin", "pmax", "tmin", "tmax")))
    if kind == "polygon":
        return Polygon(_json_pairs(spec["vertices"], "polygon vertices"))
    if not isinstance(spec["parts"], list):
        raise ValueError(f"union parts must be a list of domains, got {spec['parts']!r}")
    return UnionDomain([domain_from_json(s) for s in spec["parts"]])
