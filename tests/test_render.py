import re

import pytest

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

    def test_validation(self):
        with pytest.raises(ValueError):
            SceneSpec("nope", q=5)
        with pytest.raises(ValueError):
            SceneSpec("box_points", q=2)
        with pytest.raises(ValueError):
            render_scene(SceneSpec("box_points", q=9))  # box scenes need a prime


class TestWideBoxes:
    @pytest.mark.parametrize("q,budget", [(13, 10 ** 5), (23, 1000)])
    def test_vertex_scene_beyond_int64_is_the_unit_scene(self, q, budget):
        # the viewport scales by the box radius, so N only shows in the description
        N = 2 ** 63
        big = render_scene(SceneSpec("poles_circle", q=q, N=N, budget=budget))
        unit = render_scene(SceneSpec("poles_circle", q=q, N=1, budget=budget))
        assert big.replace(f"N={N}", "N=1") == unit
