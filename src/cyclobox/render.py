"""Static SVG renderings: point clouds, vertex sets, poles, random polytopes.

Points are drawn at their complex-plane embedding sum a_j exp(2*pi*i*j/q),
centered in the viewport with the imaginary axis pointing up.  Output is a
deterministic function of the scene (including its seed), so repeated runs
are byte-identical.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import kernels, rng
from .core import BoxSpec, GuardError, east_pole, north_pole

__all__ = ["SceneSpec", "render_scene"]

_KINDS = ("box_points", "poles_circle", "random_polytopes", "pyramids")


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
        if self.N < 1 or self.K < 2 or self.count < 0 or self.budget < 1:
            raise ValueError("bad scene parameters")


def _roots(q: int) -> np.ndarray:
    j = np.arange(1, q)
    return np.exp(2j * np.pi * j / q)


def _embed_rows(coeffs: np.ndarray, q: int) -> np.ndarray:
    return coeffs.astype(np.float64) @ _roots(q)


def _box_cloud(scene: SceneSpec, prime_required: bool = True):
    """Box point coefficient matrix, full if it fits the budget, else sampled."""
    q, N = scene.q, scene.N
    total = (2 * N + 1) ** (q - 1)
    if total <= scene.budget:
        pts = np.array(
            list(itertools.product(range(-N, N + 1), repeat=q - 1)), dtype=np.int64
        )
        return pts, False
    if not scene.allow_sampling:
        raise GuardError(
            f"scene has {total} points, budget {scene.budget}; sampling not allowed"
        )
    pts = rng.box_offsets(scene.seed, 1 << 32, scene.budget, q - 1, N)
    return pts, True


def _vertex_cloud(scene: SceneSpec):
    q, N = scene.q, scene.N
    total = 2 ** (q - 1)
    if total <= scene.budget:
        return kernels.vertex_matrix(q - 1, N), False
    if not scene.allow_sampling:
        raise GuardError(
            f"scene has {total} vertices, budget {scene.budget}; sampling not allowed"
        )
    return kernels.scaled(rng.vertex_signs(scene.seed, 1 << 33, scene.budget, q - 1), N), True


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
    clouds = []   # (coeff matrix, css class, marker scale)
    edges = []    # (z1, z2, css class)
    labels = []   # (z, text)
    ring_radius = None

    if scene.kind == "box_points":
        BoxSpec(q, scene.N)  # box scenes require an odd prime
        pts, sampled = _box_cloud(scene)
        vx_mask = np.all(np.abs(pts) == scene.N, axis=1)
        clouds.append((pts[~vx_mask], "pt", 1.0))
        clouds.append((pts[vx_mask], "vx", 1.6))
        if sampled:
            desc.append(f"sampled={len(pts)}_of_{(2 * scene.N + 1) ** (q - 1)}")

    elif scene.kind == "poles_circle":
        vxs, sampled = _vertex_cloud(scene)
        clouds.append((vxs, "vx", 1.0))
        if sampled:
            desc.append(f"sampled={len(vxs)}_of_{2 ** (q - 1)}")
        np_c = kernels.coeff_array(north_pole(q, scene.N))
        ep_c = kernels.coeff_array(east_pole(q, scene.N))
        poles = np.stack([np_c, ep_c, -np_c, -ep_c])
        clouds.append((poles, "pole", 2.4))
        zs = _embed_rows(poles, q)
        for z, name in zip(zs, ("NP", "EP", "SP", "WP")):
            labels.append((z, name))
        ring_radius = max(
            float(np.max(np.abs(_embed_rows(vxs, q)))), float(abs(zs[0]))
        )

    elif scene.kind in ("random_polytopes", "pyramids"):
        BoxSpec(q, scene.N)
        pts, sampled = _box_cloud(scene)
        vx_mask = np.all(np.abs(pts) == scene.N, axis=1)
        clouds.append((pts[~vx_mask], "pt", 1.0))
        clouds.append((pts[vx_mask], "vx", 1.6))
        if sampled:
            desc.append(f"sampled={len(pts)}_of_{(2 * scene.N + 1) ** (q - 1)}")
        desc.append(f"K={scene.K}")
        desc.append(f"count={scene.count}")
        signs = rng.vertex_signs(scene.seed, 1 << 34, scene.count * scene.K, q - 1)
        base = kernels.scaled(signs, scene.N).reshape(scene.count, scene.K, q - 1)
        apexes = None
        if scene.kind == "pyramids":
            apexes = rng.box_offsets(scene.seed, 1 << 35, scene.count, q - 1, scene.N)
            clouds.append((apexes, "apex", 2.0))
        for t in range(scene.count):
            zs = _embed_rows(base[t], q)
            for j in range(scene.K):
                for k in range(j + 1, scene.K):
                    edges.append((zs[j], zs[k], "edge"))
            if apexes is not None:
                za = complex(_embed_rows(apexes[t : t + 1], q)[0])
                for j in range(scene.K):
                    edges.append((za, zs[j], "lateral"))

    total_pts = sum(len(c) for c, _, _ in clouds)
    all_z = np.concatenate([_embed_rows(c, q) for c, _, _ in clouds if len(c)])
    radius = float(np.max(np.abs(all_z))) if len(all_z) else 1.0
    if ring_radius is not None:
        radius = max(radius, ring_radius)

    canvas = _Canvas(scene, radius)
    if ring_radius is not None:
        canvas.ring(ring_radius)
    for z1, z2, cls in edges:
        canvas.line(z1, z2, cls)
    base_r = _marker_radius(total_pts)
    for coeffs, cls, scale in clouds:
        for z in _embed_rows(coeffs, q):
            canvas.circle(complex(z), base_r * scale, cls)
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
