"""Shared fixtures; the expensive pipeline artifacts are session-scoped."""

from dataclasses import replace
from itertools import combinations

import pytest

from salemforge import mcmullen
from salemforge.coxeter import salem_factor
from salemforge.mcmullen import mcmullen_data
from salemforge.mau import mau_build, mau_seed
from salemforge.roots import int_combination, turns_mod1
from salemforge.toric import Cone, Fan


def projective_fan(d, u=None):
    """The fan of P^d: rays e_1..e_d and -(e_1 + ... + e_d), every
    d-subset a cone, each ray mapped to ray . u when u is given; the
    first cone's generators are the identity, or u."""
    rays = [tuple(int(i == j) for j in range(d)) for i in range(d)]
    rays.append((-1,) * d)
    if u is not None:
        rays = [tuple(sum(r[t] * u[t][j] for t in range(d)) for j in range(d))
                for r in rays]
    return Fan(dim=d, max_cones=tuple(map(Cone, combinations(rays, d))))


def doubled(seq, source, target):
    """seq with entry target's argument replaced by 2 theta_source mod 1,
    a planted relation; any stored audit is kept as it was."""
    entries = list(seq.entries)
    entries[target] = replace(entries[target], argument_turns=turns_mod1(
        int_combination([2], [entries[source].argument_turns]),
        seq.precision_bits))
    return replace(seq, entries=tuple(entries))


@pytest.fixture(autouse=True)
def cold_pair_data_cache():
    """Each test starts with no cached (n, precision) pair data, so a test
    that counts calls or expects a refusal runs the code, not a cache hit."""
    mcmullen._pair_core.cache_clear()


@pytest.fixture(scope="session")
def phi14():
    return salem_factor(19).salem_candidate


@pytest.fixture(scope="session")
def data19():
    return mcmullen_data(19, precision_bits=256)


@pytest.fixture(scope="session")
def seq4():
    """The length-4 certified sequence at 512 bits (the build pipeline run)."""
    return mau_build(4, precision_bits=512)


@pytest.fixture(scope="session")
def seq19_739():
    """Seeded sequence coupling the n=19 pair with the n=739 pair."""
    return mau_seed([19, 739], precision_bits=512)


@pytest.fixture(scope="session")
def seq8():
    """The length-8 sequence: sources n = 739, 3259, 19 107 739 and
    730 201 596 227 659, none of them densified."""
    return mau_build(8, precision_bits=512)
