import hashlib
import re
import sys

import pytest

from cyclobox import kernels, render
from cyclobox.core import GuardError
from cyclobox.render import SceneSpec, render_scene

CIRCLE_RE = re.compile(r'<circle cx="([-\d.]+)" cy="([-\d.]+)" r="([-\d.]+)" class="(\w+)"/>')


def circles(svg):
    return [
        (float(m.group(1)), float(m.group(2)), m.group(4))
        for m in CIRCLE_RE.finditer(svg)
    ]


class TestScenes:
    def test_box_points_count_and_symmetry(self):
        svg = render_scene(SceneSpec("box_points", q=5, N=1))
        pts = circles(svg)
        assert len(pts) == 81
        center = 640 / 2
        cloud = [(x - center, y - center) for x, y, _ in pts]
        # every rendered point has its reflection through the center,
        # up to the 3-decimal coordinate quantum
        for x, y in cloud:
            assert any(
                abs(x + x2) <= 2e-3 and abs(y + y2) <= 2e-3 for x2, y2 in cloud
            ), (x, y)
        assert sum(1 for _, _, cls in pts if cls == "vx") == 16

    def test_poles_circle_markers(self):
        svg = render_scene(SceneSpec("poles_circle", q=13))
        pts = circles(svg)
        poles = [(x, y) for x, y, cls in pts if cls == "pole"]
        assert len(poles) == 4
        vx = [(x, y) for x, y, cls in pts if cls == "vx"]
        assert len(vx) == 2 ** 12
        # first pole is NP: on the vertical axis, above center
        np_x, np_y = poles[0]
        assert abs(np_x - 320.0) < 0.01
        assert np_y < 320.0
        assert "ring" in svg
        for name in ("NP", "EP", "SP", "WP"):
            assert f">{name}</text>" in svg

    def test_repeat_runs_byte_identical(self):
        scene = SceneSpec("random_polytopes", q=7, N=2, K=3, count=26, seed=11)
        assert render_scene(scene) == render_scene(scene)

    def test_pyramids_have_lateral_edges(self):
        svg = render_scene(SceneSpec("pyramids", q=5, N=1, K=3, count=4, seed=2))
        assert svg.count('class="lateral"') == 12
        assert svg.count('class="edge"') == 12
        assert sum(1 for _, _, cls in circles(svg) if cls == "apex") == 4

    def test_budget_sampling_and_guard(self):
        sampled = render_scene(SceneSpec("box_points", q=7, N=2, budget=500, seed=1))
        assert "sampled=500_of_15625" in sampled
        assert len(circles(sampled)) == 500
        with pytest.raises(GuardError):
            render_scene(
                SceneSpec("box_points", q=7, N=2, budget=500, allow_sampling=False)
            )

    def test_vertex_budget_guard(self):
        with pytest.raises(GuardError, match="sampling not allowed"):
            render_scene(SceneSpec("poles_circle", q=23, budget=1000, allow_sampling=False))

    def test_validation(self):
        with pytest.raises(ValueError):
            SceneSpec("nope", q=5)
        with pytest.raises(ValueError):
            SceneSpec("box_points", q=2)
        with pytest.raises(ValueError):
            render_scene(SceneSpec("box_points", q=9))  # box scenes need a prime


class TestSceneLimits:
    def test_size_up_to_the_float_limit(self):
        edge = int(sys.float_info.max)
        svg = render_scene(SceneSpec("box_points", q=3, size=edge))
        assert f'width="{edge}"' in svg and "inf" not in svg
        with pytest.raises(GuardError, match="float limit"):
            SceneSpec("box_points", q=3, size=edge + 1)

    @pytest.mark.parametrize("kind,marks", [
        ("random_polytopes", 10 * (3 + 3)),         # 10 triangles: 3 vertices, 3 edges
        ("pyramids", 10 * (3 + 3 + 1 + 3)),         # and an apex with 3 lateral edges
    ])
    def test_polytope_marks_fit_the_budget(self, kind, marks):
        svg = render_scene(SceneSpec(kind, q=5, K=3, count=10, budget=marks))
        assert svg.count('class="edge"') == 30
        with pytest.raises(GuardError, match="polytope marks"):
            render_scene(SceneSpec(kind, q=5, K=3, count=10, budget=marks - 1))

    def test_polytope_edges(self):
        K = 362  # C(362, 2) = 65341 edges; C(363, 2) = 65703
        assert len(kernels.all_edges(K, ())) <= kernels.EDGE_MAX < K * (K + 1) // 2
        with pytest.raises(GuardError, match="C\\(K,2\\) edges"):
            render_scene(SceneSpec("random_polytopes", q=5, K=K + 1, count=1))

    def test_coefficients_per_point(self):
        # 81 box points and the fixed marks, 4 coefficients each, at SCENE_COEFF_MAX
        fixed = render.SCENE_COEFF_MAX // 4 - 81
        scene = SceneSpec("box_points", q=5, budget=fixed + 1)
        assert render._cloud(scene, [], 3, fixed, lambda: "full", None) == "full"
        with pytest.raises(GuardError, match="coefficients"):
            render._cloud(scene, [], 3, fixed + 1, lambda: "full", None)
        # a wide q is refused from bit lengths, before 3^(q-1) is formed
        with pytest.raises(GuardError, match="coefficients"):
            render_scene(SceneSpec("box_points", q=100000007))

    def test_a_huge_sampled_total_is_written_as_a_power(self):
        svg = render_scene(SceneSpec("poles_circle", q=20011, budget=10))
        assert "sampled=10_of_2^20010" in svg
        assert sum(1 for _, _, cls in circles(svg) if cls == "vx") == 10
        assert render._total(3, 40) == str(3 ** 40)  # just below 2^64
        assert render._total(3, 41) == "3^41"
        assert render._total(2, 63) == str(2 ** 63) and render._total(2, 64) == "2^64"

    def test_seed_range_is_the_sampler_range(self):
        assert "seed=18446744073709551615" in render_scene(
            SceneSpec("box_points", q=3, seed=2 ** 64 - 1))
        for seed in (-1, 2 ** 64):
            with pytest.raises(ValueError, match="64 unsigned bits"):
                SceneSpec("box_points", q=3, seed=seed)


class TestWideBoxes:
    @pytest.mark.parametrize("q,budget", [(13, 10 ** 5), (23, 1000)])
    def test_vertex_scene_beyond_int64_is_the_unit_scene(self, q, budget):
        # the viewport scales by the box radius, so N only shows in the description
        N = 2 ** 63
        big = render_scene(SceneSpec("poles_circle", q=q, N=N, budget=budget))
        unit = render_scene(SceneSpec("poles_circle", q=q, N=1, budget=budget))
        assert big.replace(f"N={N}", "N=1") == unit


class TestOutputPinned:
    # SHA-256 of each scene's SVG as rendered from an itertools.product box cloud,
    # so the box-point order and every coordinate stay byte-identical
    @pytest.mark.parametrize("scene,digest", [
        (SceneSpec("box_points", q=5, N=1),
         "ddecba961efea090a82bcdd98619683ddb0c0c498c107372bfcaf34088ffbc99"),
        (SceneSpec("poles_circle", q=7),
         "69fe429a10e1a633c19aad79e9af3a53f35054c39d509ca861c8d57823d4a338"),
        (SceneSpec("random_polytopes", q=5, N=1, K=3, count=4, seed=3),
         "646a95d3502ae42f413d374d783e4e026471da9132145455e2f1602edee31448"),
        (SceneSpec("pyramids", q=5, N=2, K=3, count=3, seed=7),
         "98ee566e0d604f0080873c401abaccd4b13a49bc0dd30ada054b9e16dcfe46c0"),
    ])
    def test_svg_bytes(self, scene, digest):
        assert hashlib.sha256(render_scene(scene).encode()).hexdigest() == digest
