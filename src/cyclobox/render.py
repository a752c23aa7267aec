"""Static SVG renderings: point clouds, vertex sets, poles, random polytopes.

Points are drawn at their complex-plane embedding sum a_j exp(2*pi*i*j/q),
centered in the viewport with the imaginary axis pointing up.  The embedding
is `core.embed_rows`, the one `cyclobox poles` uses; each cloud of a scene is
embedded once, in one call.  Output is a deterministic function of the scene
(including its seed), so repeated runs are byte-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels, rng
from .core import BoxSpec, GuardError, east_pole, embed_rows, north_pole, require_float_range

__all__ = ["SceneSpec", "render_scene"]

_KINDS = ("box_points", "poles_circle", "random_polytopes", "pyramids")
# coefficients a scene may draw; a poles_circle render at the limit peaks near 0.93 GB RSS
SCENE_COEFF_MAX = 1 << 24
TOTAL_BITS_MAX = 64  # a sampled scene's total of 2^64 points or more is noted as side^dim


@dataclass(frozen=True)
class SceneSpec:
    kind: str
    q: int
    N: int = 1
    K: int = 3
    count: int = 10
    budget: int = 100_000
    seed: int = 0
    allow_sampling: bool = True
    size: int = 640

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown scene kind {self.kind!r}; choose from {_KINDS}")
        if self.q < 3:
            raise ValueError("q must be >= 3")
        if self.N < 1 or self.K < 2 or self.count < 0 or self.budget < 1 or self.size < 1:
            raise ValueError("bad scene parameters")
        rng.require_seed(self.seed)
        require_float_range(self.N * (self.q - 1), f"drawing coordinates: N times q-1={self.q - 1}")
        require_float_range(self.size, "size")


def _cloud(scene: SceneSpec, desc: list, side: int, fixed: int, full, sample) -> np.ndarray:
    """All side^(q-1) points as full() if they fit the budget, else sample(budget), noted
    in desc.  `fixed` marks (the vertices, apexes and edges of the polytopes) are drawn
    beside them and must fit the budget on their own, and the points and marks, at q-1
    coefficients each, must fit SCENE_COEFF_MAX.  Both are decided before side^(q-1) is
    formed: it is at least 2^((q-1)(bitlen(side)-1)), so a wide q is over budget at once."""
    dim, budget = scene.q - 1, scene.budget
    fits = dim * (side.bit_length() - 1) < budget.bit_length() and side ** dim <= budget
    points = side ** dim if fits else budget
    if fixed > budget:
        raise GuardError(f"scene draws {fixed} polytope marks, budget {budget}")
    if (points + fixed) * dim > SCENE_COEFF_MAX:
        raise GuardError(f"scene draws {points + fixed} points and marks at {dim} coefficients "
                         f"each, past the limit of {SCENE_COEFF_MAX} coefficients")
    if fits:
        return full()
    if not scene.allow_sampling:
        raise GuardError(f"scene has {side}^{dim} points, budget {budget}; sampling not allowed")
    desc.append(f"sampled={budget}_of_{_total(side, dim)}")
    return sample(budget)


def _total(side: int, dim: int) -> str:
    """side^dim in decimal below 2^TOTAL_BITS_MAX, else as "side^dim"; decided from
    bit lengths first, so a huge total is never formed."""
    small = dim * (side.bit_length() - 1) < TOTAL_BITS_MAX
    if small and side ** dim < 1 << TOTAL_BITS_MAX:
        return str(side ** dim)
    return f"{side}^{dim}"


def _fmt(v: float) -> str:
    return f"{v:.3f}"


class _Canvas:
    def __init__(self, scene: SceneSpec, radius: float):
        self.size = scene.size
        pad = 0.05 * scene.size
        self.scale = (scene.size / 2 - pad) / radius if radius > 0 else 1.0
        self.parts = []

    def xy(self, z: complex):
        return (
            self.size / 2 + self.scale * z.real,
            self.size / 2 - self.scale * z.imag,
        )

    def circle(self, z: complex, r: float, cls: str):
        x, y = self.xy(z)
        self.parts.append(
            f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(r)}" class="{cls}"/>'
        )

    def ring(self, radius: float):
        c = self.size / 2
        self.parts.append(
            f'<circle cx="{_fmt(c)}" cy="{_fmt(c)}" r="{_fmt(self.scale * radius)}" class="ring"/>'
        )

    def line(self, z1: complex, z2: complex, cls: str):
        x1, y1 = self.xy(z1)
        x2, y2 = self.xy(z2)
        self.parts.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" class="{cls}"/>'
        )

    def text(self, z: complex, label: str):
        x, y = self.xy(z)
        self.parts.append(f'<text x="{_fmt(x + 6)}" y="{_fmt(y - 6)}">{label}</text>')


_STYLE = (
    "circle.pt{fill:#c0392b;stroke:none}"
    "circle.vx{fill:#2057c0;stroke:none}"
    "circle.pole{fill:#0a8a3c;stroke:#044;stroke-width:0.5}"
    "circle.apex{fill:#e67e22;stroke:none}"
    "circle.ring{fill:none;stroke:#888;stroke-width:1}"
    "line.edge{stroke:#444;stroke-width:0.8;stroke-opacity:0.75}"
    "line.lateral{stroke:#b26;stroke-width:0.6;stroke-opacity:0.7}"
    "text{font:10px sans-serif;fill:#333}"
)


def _marker_radius(n_points: int) -> float:
    # keep dense clouds readable: radius shrinks like 1/log(#points)
    return max(0.7, 6.0 / math.log10(n_points + 10.0))


def render_scene(scene: SceneSpec) -> str:
    """Render a scene to an SVG 1.1 document (returned as text)."""
    q = scene.q
    desc = [f"kind={scene.kind}", f"q={q}", f"N={scene.N}", f"seed={scene.seed}"]
    clouds = []   # (complex values, css class, marker scale)
    edges = []    # (z1, z2, css class)
    labels = []   # (z, text)
    ring_radius = None
    polytopes = scene.kind in ("random_polytopes", "pyramids")
    pairs = kernels.all_edges(scene.K, ()) if polytopes else ()
    # a polytope draws K vertices and its edges; a pyramid adds an apex and K lateral edges
    per_polytope = scene.K + len(pairs) + (scene.kind == "pyramids") * (1 + scene.K)
    fixed = scene.count * per_polytope if polytopes else 0

    if scene.kind == "poles_circle":
        vxs = embed_rows(_cloud(scene, desc, 2, 0,
                                lambda: kernels.vertex_matrix(q - 1, scene.N),
                                lambda n: kernels.scaled(rng.vertex_signs(
                                    scene.seed, 1 << 33, n, q - 1), scene.N)), q)
        clouds.append((vxs, "vx", 1.0))
        z_np, z_ep = embed_rows([north_pole(q, scene.N), east_pole(q, scene.N)], q)
        poles = np.array([z_np, z_ep, -z_np, -z_ep])
        clouds.append((poles, "pole", 2.4))
        labels.extend(zip(poles, ("NP", "EP", "SP", "WP")))
        ring_radius = max(float(np.max(np.abs(vxs))), float(abs(poles[0])))

    else:
        BoxSpec(q, scene.N)  # box scenes require an odd prime
        pts = _cloud(scene, desc, 2 * scene.N + 1, fixed,
                     lambda: kernels.box_matrix(q - 1, scene.N),
                     lambda n: rng.box_offsets(scene.seed, 1 << 32, n, q - 1, scene.N))
        vx_mask = np.all(np.abs(pts) == scene.N, axis=1)
        zs = embed_rows(pts, q)
        clouds.append((zs[~vx_mask], "pt", 1.0))
        clouds.append((zs[vx_mask], "vx", 1.6))

    if polytopes:
        desc.append(f"K={scene.K}")
        desc.append(f"count={scene.count}")
        signs = rng.vertex_signs(scene.seed, 1 << 34, scene.count * scene.K, q - 1)
        vertices = embed_rows(kernels.scaled(signs, scene.N), q).reshape(scene.count, scene.K)
        apexes = None
        if scene.kind == "pyramids":
            apexes = embed_rows(rng.box_offsets(scene.seed, 1 << 35, scene.count, q - 1, scene.N), q)
            clouds.append((apexes, "apex", 2.0))
        for t, zs in enumerate(vertices):
            for j, k, _ in pairs:
                edges.append((zs[j], zs[k], "edge"))
            if apexes is not None:
                for j in range(scene.K):
                    edges.append((apexes[t], zs[j], "lateral"))

    total_pts = sum(len(zs) for zs, _, _ in clouds)
    radius = max((float(np.max(np.abs(zs))) for zs, _, _ in clouds if len(zs)), default=1.0)
    if ring_radius is not None:
        radius = max(radius, ring_radius)

    canvas = _Canvas(scene, radius)
    if ring_radius is not None:
        canvas.ring(ring_radius)
    for z1, z2, cls in edges:
        canvas.line(z1, z2, cls)
    base_r = _marker_radius(total_pts)
    for zs, cls, scale in clouds:
        for z in zs:
            canvas.circle(z, base_r * scale, cls)
    for z, name in labels:
        canvas.text(z, name)

    body = "\n".join(canvas.parts)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{scene.size}" height="{scene.size}" '
        f'viewBox="0 0 {scene.size} {scene.size}">\n'
        f"<desc>{' '.join(desc)}</desc>\n"
        f"<style>{_STYLE}</style>\n"
        f'<rect width="{scene.size}" height="{scene.size}" fill="#fff"/>\n'
        f"{body}\n</svg>\n"
    )
