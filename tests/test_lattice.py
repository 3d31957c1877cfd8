import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gibbs_ground import Lattice, build_hypercube, mask_from_sites, nearest_neighbor_pairs, sites_from_mask
from gibbs_ground.errors import ConstraintError, SizeCapError
from gibbs_ground.lattice import Caps, height_field, pair_mask

from .oracles import site_coords


@pytest.mark.parametrize(
    "d, L, n_sites, n_pairs",
    [
        (1, 4, 4, 3),
        (2, 3, 9, 12),
        (3, 2, 8, 12),
        (1, 1, 1, 0),
        (2, 2, 4, 4),
    ],
)
def test_hypercube_counts(d, L, n_sites, n_pairs):
    lat = build_hypercube(d, L)
    assert lat.n_sites == n_sites
    pairs = nearest_neighbor_pairs(lat)
    assert len(pairs) == n_pairs
    # the generic edge count of the open hypercube
    assert len(pairs) == d * L ** (d - 1) * (L - 1)


def test_chain_pairs():
    lat = build_hypercube(1, 3)
    assert nearest_neighbor_pairs(lat) == [(0, 1), (1, 2)]


def test_index_coordinate_bijection():
    lat = build_hypercube(3, 2)
    coords = site_coords(lat)
    # first coordinate varies fastest: site i sits at the base-L digits of i
    assert coords[:3] == [(0, 0, 0), (1, 0, 0), (0, 1, 0)]
    for i, c in enumerate(coords):
        assert sum(x * lat.side**k for k, x in enumerate(c)) == i
    # the neighbors of the origin, one step along each axis in turn
    assert nearest_neighbor_pairs(lat)[:3] == [(0, 1), (0, 2), (0, 4)]


def test_lattice_is_its_dimension_and_side():
    assert [f.name for f in dataclasses.fields(Lattice)] == ["dimension", "side"]
    assert build_hypercube(2, 3) == Lattice(2, 3)
    assert Lattice(3, 4).n_sites == 64


def test_pairs_and_heights_match_the_coordinate_oracle():
    # every (d, L) under the default lattice cap, L^d <= 64
    shapes = [(d, L) for L in range(1, 65) for d in range(1, 65) if L**d <= Caps().lattice_sites]
    assert len(shapes) == 140
    for d, L in shapes:
        lat = build_hypercube(d, L)
        coords = site_coords(lat)
        assert lat.n_sites == len(coords)
        index = {c: i for i, c in enumerate(coords)}
        want = [
            (i, index[c[:k] + (c[k] + 1,) + c[k + 1 :]])
            for i, c in enumerate(coords)
            for k in range(d)
            if c[k] + 1 < L
        ]
        assert nearest_neighbor_pairs(lat) == want, (d, L)
        assert height_field(lat) == [sum(c) for c in coords], (d, L)


def test_site_cap():
    with pytest.raises(SizeCapError, match="24"):
        build_hypercube(1, 25, site_cap=24)
    with pytest.raises(ConstraintError):
        build_hypercube(0, 3)


def test_caps_check_their_fields():
    assert Caps() == Caps(lattice_sites=64, quantum_sites=14, enumeration_sites=24, dense_sites=12)
    assert Caps(lattice_sites=64, dense_sites=1).dense_sites == 1
    # configuration masks are uint64 words
    with pytest.raises(ConstraintError, match="caps.lattice_sites must be at most 64"):
        Caps(lattice_sites=65)
    for name in ("lattice_sites", "quantum_sites", "enumeration_sites", "dense_sites"):
        with pytest.raises(ConstraintError, match=f"caps.{name} must be at least 1"):
            Caps(**{name: 0})


def test_linear_height():
    lat = build_hypercube(2, 3)
    heights = height_field(lat)
    assert heights == [sum(c) for c in site_coords(lat)]
    assert heights[0] == 0 and heights[5] == 3  # (0, 0) and (2, 1)
    for x, y in nearest_neighbor_pairs(lat):
        assert abs(heights[x] - heights[y]) == 1
        # lexicographically smaller site sits lower
        assert heights[y] - heights[x] == 1


def test_pairs_are_nearest_neighbors():
    lat = build_hypercube(2, 3)
    coords = site_coords(lat)
    for x, y in nearest_neighbor_pairs(lat):
        cx, cy = coords[x], coords[y]
        diffs = [abs(a - b) for a, b in zip(cx, cy)]
        assert sorted(diffs) == [0, 1]
        assert cx < cy


def test_masks_roundtrip():
    assert mask_from_sites([0, 2, 5]) == 0b100101
    assert sites_from_mask(0b100101) == (0, 2, 5)
    assert mask_from_sites([]) == 0
    with pytest.raises(ConstraintError):
        mask_from_sites([1, 1])


@given(st.sets(st.integers(min_value=0, max_value=30)))
def test_mask_bijection_property(sites):
    mask = mask_from_sites(sites)
    assert set(sites_from_mask(mask)) == sites
    assert mask.bit_count() == len(sites)


def test_pair_mask_is_the_symmetric_difference():
    assert pair_mask(2, 5) == pair_mask(5, 2) == 0b100100
    # a repeated site flips nothing: s_x s_x and sigma^x_x sigma^x_x are I
    assert pair_mask(3, 3) == 0
