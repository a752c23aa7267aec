"""Golden payloads: the JSON of a fixed list of small reports, hashed.

Each report runs at worker_count 1 and its `reports.to_json` text is hashed
with SHA-256.  Where a report takes an epsilon, it is one at which some
samples hit and some miss, so a change in interval membership or in the
distance kernel moves the digest.  A digest changes only when a report's
scientific payload changes on purpose; record the new digest with the reason.
"""

import hashlib
import json
from fractions import Fraction as F

import pytest

from cyclobox import concentration as con
from cyclobox import moments as mom
from cyclobox import visibility as vis
from cyclobox.concentration import SamplerConfig
from cyclobox.core import BoxSpec, CyclotomicInt, north_pole_point
from cyclobox.reports import to_json

SEED = 7
P = 101
BOX = BoxSpec(P, 1)
BOX7 = BoxSpec(7, 1)
ORIGIN = CyclotomicInt.zero(P)
POLE = north_pole_point(BOX)


def _box_pair_mean(box, cfg):
    mean = vis.box_pair_mean_report(box, cfg)
    return {"box_pair_mean": f"{mean.numerator}/{mean.denominator}"}


def _oracles(box):
    return (mom.oracle_moments(box) + mom.oracle_moments(box, CyclotomicInt.zero(box.p))
            + mom.oracle_moments(box, north_pole_point(box)))


# name -> workers -> report(s); sample counts past one chunk where that is cheap
REPORTS = {
    "t4_origin": lambda w: con.theorem4_report(
        ORIGIN, BOX, F(1, 500), SamplerConfig(SEED, 30_000, w)),
    "t4_north_pole": lambda w: con.theorem4_report(
        POLE, BOX, F(1, 100), SamplerConfig(SEED, 30_000, w)),
    "isosceles": lambda w: con.isosceles_report(
        POLE, BOX, F(1, 50), SamplerConfig(SEED, 2000, w)),
    "t5": lambda w: con.vertex_pair_report(BOX, F(1, 50), SamplerConfig(SEED, 12_000, w)),
    "polytope_k4": lambda w: con.polytope_report(BOX, 4, 20.0, SamplerConfig(SEED, 2000, w)),
    "pyramid_k3": lambda w: con.pyramid_report(
        ORIGIN, BOX, 3, F(1, 20), SamplerConfig(SEED, 2000, w)),
    "right_angle": lambda w: con.right_angle_report(
        POLE, BOX, 0.1, SamplerConfig(SEED, 2000, w)),
    "visibility_k3": lambda w: vis.visibility_concentration_report(
        BoxSpec(11, 3), 3, F(1, 10), SamplerConfig(SEED, 500, w)),
    "box_pair_mean_n2e40": lambda w: _box_pair_mean(
        BoxSpec(7, 2 ** 40), SamplerConfig(SEED, 500, w)),
    "t5_n2e31": lambda w: con.vertex_pair_report(
        BoxSpec(P, 2 ** 31), F(1, 50), SamplerConfig(SEED, 2000, w)),
    "t4_exhaustive_p7": lambda w: con.theorem4_report(
        north_pole_point(BOX7), BOX7, F(1, 10), SamplerConfig(SEED, 1, w), exhaustive=True),
    "t5_exhaustive_p7": lambda w: con.vertex_pair_report(
        BOX7, F(1, 10), SamplerConfig(SEED, 1, w), exhaustive=True),
    "oracle_moments_p5": lambda w: _oracles(BoxSpec(5, 1)),
    # box draws that cross blocks of rng.box_offsets_at, with partial last blocks
    "box_pair_mean_p1009_n1e4": lambda w: _box_pair_mean(
        BoxSpec(1009, 10 ** 4), SamplerConfig(SEED, 300, w)),
    "visibility_k3_p101_n1e4": lambda w: vis.visibility_concentration_report(
        BoxSpec(101, 10 ** 4), 3, F(1, 20), SamplerConfig(SEED, 500, w)),
}

DIGESTS = {
    "t4_origin": "1fa0752ac6300059c0d1f5f0217771d92d186b9b707a385b1801598e56127e54",
    "t4_north_pole": "415387eb3a06ea480f1d558d915d7f1545255b5f0c554673c47f12b887444def",
    "isosceles": "fb34a829b30351dd874264778fd1f3e42242d01bc8edc0f6c8648840ba19dd48",
    "t5": "6695a063f6580259aecd6061266fda577f519740b23d75607ffc0dd88044737c",
    "polytope_k4": "f6062da0191fec79ebc1aeb61563f73fe4ea2dfc36572742753cb529f39d3d6f",
    "pyramid_k3": "e9bca3649ce25a040cc05d31c192be4a8e76c55de2e3856edecedc831166666e",
    "right_angle": "7a2bcba5d200c30494b69283fadb9e674047735bf138faf917b03221be6f190a",
    "visibility_k3": "228fe6212442de6d332116a95719dc272b04bf866590b16cbcfe82826ea6e954",
    "box_pair_mean_n2e40": "09768000b24e1c8eebb9d718fbf24de8c81ab74c06cca42abfeadd2a6037f3c9",
    "t5_n2e31": "f098e1ae0c986915ba2c364903d3c03ea89899807f49fda4845052e71fc0d4f5",
    "t4_exhaustive_p7": "3419d2d9096e9f00b303c35645a8a56651458f376b8ea8241484336d9f133ca1",
    "t5_exhaustive_p7": "b7a4452f4c7f172db7e9311ddc0ee42fcb5031f0183e1a9be019ed26724ad62b",
    "oracle_moments_p5": "25cdeb49afd6f281d9fa140a0cef3e1269ae04a5d2939c04c6cc603758b412c7",
    "box_pair_mean_p1009_n1e4": "bfed9f379f098053f6791c59140310061feee5f1cb56e64c771828924347ab36",
    "visibility_k3_p101_n1e4": "23042070433847578245da6b5974167f121418ad4408890c904773f568b161d9",
}


def _without_workers(text: str):
    payload = json.loads(text)
    for d in payload if isinstance(payload, list) else [payload]:
        d.pop("worker_count", None)
    return payload


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_payload_digest(name):
    text = to_json(REPORTS[name](1))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == DIGESTS[name]


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_payload_worker_count_invariance(name):
    assert _without_workers(to_json(REPORTS[name](2))) == _without_workers(to_json(REPORTS[name](1)))
