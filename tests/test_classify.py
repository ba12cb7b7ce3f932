import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from trinoids.classify import (
    Membership,
    TripleTag,
    bobenko_membership_batch,
    classify_triple,
    inequality_slacks,
    tetrahedron_membership_batch,
)
from trinoids.params import bobenko_delta, reduced_angle

PI = math.pi


def tetrahedron_contains(r_triple, eps_face: float = 0.0) -> Membership:
    """Membership of one reduced triple: the batch test on one row."""
    return Membership(tetrahedron_membership_batch([r_triple], eps_face)[0])


def bobenko_admissible(deltas, eps: float = 0.0) -> Membership:
    """Membership of one triple of fractional parts: the batch test on one row."""
    return Membership(bobenko_membership_batch([deltas], eps)[0])


class TestTetrahedron:
    def test_examples(self):
        assert tetrahedron_contains((PI / 2, PI / 2, PI / 2)) is Membership.INTERIOR
        assert tetrahedron_contains((PI / 10, PI / 10, PI / 10)) is Membership.OUTSIDE
        assert tetrahedron_contains((0.9 * PI, 0.9 * PI, 0.1 * PI)) is Membership.OUTSIDE

    def test_vertices_and_faces(self):
        for v in [(PI, 0, 0), (0, PI, 0), (0, 0, PI), (PI, PI, PI)]:
            assert tetrahedron_contains(v) is Membership.BOUNDARY
        # face point: r1 + r2 + r3 = pi exactly
        assert tetrahedron_contains((PI / 2, PI / 4, PI / 4), eps_face=1e-12) is Membership.BOUNDARY

    def test_barycentric_oracle_grid(self):
        grid = np.linspace(0.0, PI, 21)
        pts = np.array(np.meshgrid(grid, grid, grid)).reshape(3, -1).T
        eps = 1e-12
        a = tetrahedron_membership_batch(pts, eps)
        b = oracles.barycentric_membership_batch(pts, eps)
        assert np.array_equal(a, b)

    def test_barycentric_scalar_agrees(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            r = rng.uniform(0, PI, 3)
            assert tetrahedron_contains(r, 1e-12) is oracles.barycentric_membership(r, 1e-12)


class TestBobenko:
    def test_examples(self):
        # sum 3/4 > 1/2 and each mixed combination 1/4 < 1/2
        assert bobenko_admissible((0.25, 0.25, 0.25)) is Membership.INTERIOR
        assert bobenko_admissible((0.05, 0.05, 0.05)) is Membership.OUTSIDE
        assert bobenko_admissible((0.45, 0.45, 0.05)) is Membership.OUTSIDE

    def test_equivalence_with_tetrahedron(self):
        rng = np.random.default_rng(1)
        n = 100_000
        bps = rng.uniform(0.01, 5.0, (n, 3))
        # exclude half-integers: degenerate reduced angles
        keep = np.all(np.abs(bps - np.round(2 * bps) / 2) > 1e-4, axis=1)
        bps = bps[keep]
        deltas = np.abs(bps - np.floor(bps + 0.5))
        r = 2 * PI * deltas
        a = bobenko_membership_batch(deltas)
        b = tetrahedron_membership_batch(r)
        assert np.array_equal(a, b)


class TestClassifyTriple:
    def test_examples(self):
        assert classify_triple(PI / 2, PI / 2, PI / 2).tag is TripleTag.GENERIC_ADMISSIBLE
        assert classify_triple(7 * PI / 3, PI / 2, PI / 2).tag is TripleTag.GENERIC_ADMISSIBLE
        assert classify_triple(2 * PI, PI / 2, PI / 2).tag is TripleTag.DEGENERATE_MULTIPLE_OF_PI
        assert classify_triple(PI / 10, PI / 10, PI / 10).tag is TripleTag.INADMISSIBLE

    def test_degenerate_with_tolerance(self):
        out = classify_triple(3 * PI, 1.0, 1.0, eps_face=1e-12)
        assert out.tag is TripleTag.DEGENERATE_MULTIPLE_OF_PI
        near_pi = 3.14159265358979  # parses below pi
        out = classify_triple(near_pi, 1.0, 1.0, eps_face=1e-12)
        assert out.tag is TripleTag.DEGENERATE_MULTIPLE_OF_PI

    def test_boundary_tag(self):
        out = classify_triple(PI / 2, PI / 4, PI / 4, eps_face=1e-12)
        assert out.tag is TripleTag.PARALLEL_BOUNDARY

    def test_domain(self):
        with pytest.raises(ValueError):
            classify_triple(PI, 1.0, 1.0)
        with pytest.raises(ValueError):
            classify_triple(-1.0, 1.0, 1.0)
        for bad in [math.inf, math.nan]:
            with pytest.raises(ValueError):
                classify_triple(bad, 1.0, 1.2)
            with pytest.raises(ValueError):
                classify_triple(1.0, 1.2, bad)

    def test_outputs_carry_slacks(self):
        out = classify_triple(PI / 2, PI / 2, PI / 2)
        assert out.reduced == pytest.approx((PI / 2,) * 3)
        assert np.allclose(out.slacks, inequality_slacks(*out.reduced, PI))

    @settings(max_examples=200)
    @given(
        st.floats(min_value=0.05, max_value=12.0),
        st.floats(min_value=0.05, max_value=12.0),
        st.floats(min_value=0.05, max_value=12.0),
    )
    def test_reduction_and_permutation_invariance(self, p1, p2, p3):
        r = [reduced_angle(p) for p in (p1, p2, p3)]
        margin = 1e-6
        assume(all(margin < x < PI - margin for x in r))
        assume(np.min(np.abs(inequality_slacks(*r, PI))) > margin)
        tag = classify_triple(p1, p2, p3).tag
        assert classify_triple(p1 + 2 * PI, p2, p3).tag is tag
        assert classify_triple(p2, p3, p1).tag is tag
        assert classify_triple(p3, p2, p1).tag is tag

    def test_cor1_correspondence_tags(self):
        # delta formulation matches the reduced-angle tag through the chain
        rng = np.random.default_rng(2)
        count = 0
        while count < 300:
            phis = rng.uniform(0.1, 10.0, 3)
            r = [reduced_angle(p) for p in phis]
            if any(x < 1e-3 or x > PI - 1e-3 for x in r):
                continue
            if np.min(np.abs(inequality_slacks(*r, PI))) < 1e-6:
                continue
            count += 1
            deltas = [bobenko_delta(p / (2 * PI)) for p in phis]
            tag = classify_triple(*phis).tag
            member = bobenko_admissible(deltas)
            expected = {
                Membership.INTERIOR: TripleTag.GENERIC_ADMISSIBLE,
                Membership.BOUNDARY: TripleTag.PARALLEL_BOUNDARY,
                Membership.OUTSIDE: TripleTag.INADMISSIBLE,
            }[member]
            assert tag is expected


EPS = [0.0, 1e-12, 1e-3]


def bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.uint64)


@pytest.fixture(scope="module")
def phis():
    """Random triples over (0, 4 pi)^3, then multiples of pi and a face point."""
    near_multiples = [k * PI + d for k in (2, 3, 4) for d in (-1e-12, 0.0, 1e-12)]
    edges = [(p, 1.0, 1.2) for p in near_multiples] + [(PI / 2, PI / 4, 9 * PI / 4)]
    return np.vstack([np.random.default_rng(20).uniform(0.0, 4 * PI, (20_000, 3)), edges])


@pytest.fixture(scope="module")
def grid():
    axis = np.linspace(0.0, PI, 41)
    return np.array(np.meshgrid(axis, axis, axis)).reshape(3, -1).T


class TestSameAsOriginal:
    """Every entry point returns exactly what the original classifier returned.

    The reference in oracles.py writes each slack formula and membership rule
    out separately, as the classifier did before they were shared.  Slacks
    and reduced angles are compared bit for bit.
    """

    @pytest.mark.parametrize("eps", EPS)
    def test_classify_triple(self, phis, eps):
        for p in phis.tolist():
            out = classify_triple(*p, eps_face=eps)
            tag, reduced, slacks = oracles.classify_triple(*p, eps_face=eps)
            assert out.tag is tag
            assert np.array_equal(bits(out.reduced), bits(reduced))
            assert np.array_equal(bits(out.slacks), bits(slacks))

    def test_tetrahedron_slacks(self, grid):
        new = [inequality_slacks(*r, PI) for r in grid.tolist()]
        old = [oracles.tetrahedron_slacks(*r) for r in grid.tolist()]
        assert np.array_equal(bits(new), bits(old))

    @pytest.mark.parametrize("eps", EPS)
    def test_batch_memberships(self, phis, grid, eps):
        reduced = np.vectorize(reduced_angle)(phis)
        special = [
            (math.inf, math.inf, 1.0),
            (math.nan, 1.0, 1.0),
            (-math.inf, 1.0, 1.0),
            (math.nan, math.nan, math.nan),
            (-1.0, 1.0, 1.0),
            (4.0, 4.0, 4.0),
        ]
        pts = np.vstack([grid, reduced, special])
        for new, old, scale in [
            (tetrahedron_membership_batch, oracles.tetrahedron_membership_batch, 1.0),
            (bobenko_membership_batch, oracles.bobenko_membership_batch, 2 * PI),
        ]:
            with np.errstate(invalid="ignore"):
                got = new(pts / scale, eps / scale)
                want = old(pts / scale, eps / scale)
            assert got.dtype == np.int8
            assert np.array_equal(got, want)
