import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

import dncap as d
from dncap import solvers
from oracles import scalar_partition_root

# numpy's pairwise sum adds runs of up to 8 entries in order and splits at 128
PAIRWISE_EDGES = (1, 7, 8, 9, 127, 128, 129, 300)


@st.composite
def partition_problems(draw):
    """(weights, ln counts) of one support: a drawn size, weights p/q with
    p <= 60 and q <= 7, and counts up to 2^5000."""
    size = draw(st.sampled_from(PAIRWISE_EDGES))
    bits = draw(st.integers(0, 5000))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    weights = [rng.randint(1, 60) / rng.randint(1, 7) for _ in range(size)]
    log_counts = [math.log(rng.randint(1, 2 ** rng.randint(0, bits)))
                  for _ in range(size)]
    return weights, log_counts


def _bits(roots):
    return [tuple(x.hex() if isinstance(x, float) else x for x in root)
            for root in roots]


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(problems=st.lists(partition_problems(), min_size=1, max_size=8))
# Z(0) = 1 + e^{-4.187345}, a total whose np.log is one ulp off math.log
@example(problems=[([1.0, 1.0], [0.0, -4.187345]), ([2.0], [3.0])])
# support sizes 1, 8, 1, 8: each run of equal size is reduced apart
@example(problems=[([2.0], [1.0]), ([k / 2 for k in range(1, 9)], [0.0] * 8),
                   ([3.0], [2.5]), ([k / 3 for k in range(1, 9)], [1.0] * 8)])
def test_batched_partition_root_matches_scalar_solves_bit_for_bit(problems):
    batch = _bits(solvers.partition_root(problems))
    assert batch == _bits(scalar_partition_root(*p) for p in problems)
    assert batch == _bits(solvers.partition_root([p])[0] for p in problems)


def test_newton_cap_names_its_steps(monkeypatch):
    # the size-1 row settles in one step, the mixed one needs more
    monkeypatch.setattr(solvers, "NEWTON_MAX_ITER", 2)
    with pytest.raises(d.EstimatorError, match="^Newton did not settle in 2 steps$"):
        solvers.partition_root([([1.0], [5.0]), ([1.0, 7.5, 0.1], [3.0, 9.0, 0.0])])


def test_certification_cap_names_the_root(monkeypatch):
    monkeypatch.setattr(solvers, "CERTIFY_MAX_ITER", 0)
    value = scalar_partition_root([1.0, 2.0], [0.0, 0.0])[0]
    with pytest.raises(d.EstimatorError,
                       match=f"^no certified bracket around the root {value}$"):
        solvers.partition_root([([1.0, 2.0], [0.0, 0.0])])
