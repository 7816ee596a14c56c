"""Pinned simulator outputs: the seeded streams must not move.

Each case is one input of the first ten operations of the monte-carlo
benchmark at seed 0 (``bench/workloads.py``, ``MonteCarlo.build(0, ...)``):
tail model or ``definetti``, replicate count, seed, arrival rate and law.
The digest is the sha256 of ``SimulatedCurve.to_csv()``. The cases cover
tail models ``none``, ``geometric`` and ``harmonic`` and the de Finetti
simulator, up to 62 blocks of 16384 replicates with a partial last block.
A faster simulator must reproduce every digest; a change here changes
every seeded output.
"""

import hashlib
import json

import pytest

from shockpgf import (
    MixingDistribution,
    ShockModelParams,
    simulate_de_finetti,
    simulate_failure_times,
)

T_GRID = (0.5, 1.0, 2.0, 4.0)
Z_GRID = (0.25, 0.5, 0.75)

CASES = [
    ('definetti', 10000, 3433407905, 1.0, '{"atoms": [{"y": "9/14", "p": "8/21"}, {"y": "4/5", "p": "1/21"}, {"y": "19/23", "p": "5/21"}], "segments": [{"lo": "1/3", "hi": "4/5", "density": "5/7"}]}',
     '088851a8ba758124293418c0e14492f0a6ce317d525f0e70a7e59ace5994dc85'),
    ('geometric', 10000, 2937688618, 2.0, '{"atoms": [{"y": 0.375, "p": 0.375}, {"y": 1.0, "p": 0.375}], "segments": [{"lo": 0.0, "hi": 0.25, "density": 1.0}]}',
     '59e44b33dfb3f675e0b48b1d86d15a680adef0ade9be5831ad0e5dc3be813e34'),
    ('harmonic', 100000, 432508404, 2.0, '{"atoms": [], "segments": [{"lo": 0.0, "hi": 1.0, "density": 0.375}, {"lo": 1.0, "hi": 1.125, "density": 5.0}]}',
     '75e1d1be7bb61158824460126e7b30b4abd506fe70aa4387f516ef307e75332c'),
    ('none', 100000, 3921352636, 2.0, '{"atoms": [{"y": 0.875, "p": 0.125}, {"y": 1.0, "p": 0.125}], "segments": [{"lo": 0.25, "hi": 0.5, "density": 3.0}]}',
     '23e08701653fefe9b94418b9a38bf003c6a4f88bccf354481e1f1897ca723901'),
    ('geometric', 100000, 3934166345, 1.0, '{"atoms": [{"y": 0.5625, "p": 0.125}, {"y": 1.0, "p": 0.125}], "segments": [{"lo": 0.0, "hi": 0.25, "density": 3.0}]}',
     '8db6d7c928eebe6fd5fcc4e1b81747f8d88eea6a38e9943b86bf097df140a7b4'),
    ('definetti', 100000, 2367674807, 1.0, '{"atoms": [{"y": "4/15", "p": "8/25"}, {"y": "2/5", "p": "1/25"}, {"y": "9/10", "p": "6/25"}], "segments": [{"lo": "1/8", "hi": "2/5", "density": "32/55"}, {"lo": "1/2", "hi": "8/15", "density": "36/5"}]}',
     'dd39a928ed91f381845c4361a5558df8fe4c503b2cf205f1e125bf573826a693'),
    ('definetti', 300000, 3253884088, 1.0, '{"atoms": [{"y": "11/25", "p": "4/19"}, {"y": "5/8", "p": "5/19"}], "segments": [{"lo": "2/17", "hi": "5/28", "density": "3808/551"}, {"lo": "3/7", "hi": "2/3", "density": "42/95"}]}',
     '8a6cde753b4c985fa110ae9777a311e97c86f70478cfec908963e0c0200da5da'),
    ('harmonic', 1000000, 3618339112, 2.0, '{"atoms": [], "segments": [{"lo": 0.0, "hi": 1.0, "density": 0.5}, {"lo": 1.0, "hi": 1.25, "density": 2.0}]}',
     'b02ad2605637f2edabd4658a87a2d3af3f6522b4c2669c67d6f787b380c67ad8'),
    ('none', 1000000, 1182021441, 2.0, '{"atoms": [{"y": 0.6875, "p": 0.125}, {"y": 1.0, "p": 0.125}], "segments": [{"lo": 0.25, "hi": 0.375, "density": 6.0}]}',
     'a0e864b660e070b28be2dd15d6a4842b4c64005bfae8714f3d208474b19db9d4'),
    ('none', 1000000, 353789296, 1.0, '{"atoms": [{"y": 0.75, "p": 0.125}, {"y": 1.0, "p": 0.125}], "segments": [{"lo": 0.25, "hi": 0.375, "density": 6.0}]}',
     '7591370f2c5c11aa737ca9924afff0ea214f4eb0b137031f110bafd80e1e6a1f'),
]


@pytest.mark.parametrize("model,n,seed,lam,doc,digest", CASES,
                         ids=[f"{c[0]}-{c[1]}-{c[2]}" for c in CASES])
def test_seeded_output_is_pinned(model, n, seed, lam, doc, digest):
    q = MixingDistribution.from_json_dict(json.loads(doc))
    if model == "definetti":
        sim = simulate_de_finetti(q, Z_GRID, n, seed)
    else:
        params = ShockModelParams(lam=lam, time_grid=T_GRID)
        sim = simulate_failure_times(q, params, n, seed, tail_model=model)
    assert hashlib.sha256(sim.to_csv().encode()).hexdigest() == digest
