import math

import numpy as np
import pytest

from pivotal import geometry
from pivotal.geometry import (
    Box,
    ConvexBody,
    ConvexPolygon,
    CroftonReport,
    Disk,
    Segment,
    area,
    boundary_integral,
    boundary_nodes,
    bounding_box,
    crofton_binomial_check,
    crofton_poisson_check,
    distance,
    integrate_parallel,
    intensity_on_parallel_set,
    parallel_mass,
    parallel_region,
    perimeter,
    steiner_derivative_check,
    steiner_mass,
)
from pivotal.point_process import CountFunctional, Statistic, ball_region, total_mass
from pivotal.quadrature import QuadratureError
from pivotal.rng import RngStream

DISK = Disk(np.array([0.0, 0.0]), 1.0)
SQUARE = Box(np.array([0.0, 0.0]), np.array([1.0, 1.0]))
PENT = ConvexPolygon(np.array([[0.0, 0.0], [2.0, 0.0], [2.5, 1.0], [1.0, 2.0], [-0.5, 1.0]]))
SEG = Segment(np.array([0.0, 0.0]), np.array([2.0, 0.0]))
SHAPES = [DISK, SQUARE, PENT, SEG]


def contains(body, t, x) -> bool:
    return bool(parallel_region(body, t)(np.atleast_2d(x))[0])


class TestMembership:
    def test_inside_for_all_radii(self):
        for body in SHAPES:
            x = (bounding_box(body)[:, 0] + bounding_box(body)[:, 1]) / 2.0
            if len(body.vertices) == 2:
                x = body.vertices.mean(axis=0)
            for t in (0.0, 0.1, 2.0):
                assert contains(body, t, x)

    def test_disk_radial(self):
        assert contains(DISK, 0.5, [1.4, 0.0])
        assert not contains(DISK, 0.5, [1.6, 0.0])

    def test_segment_stadium(self):
        assert contains(SEG, 0.5, [1.0, 0.4])
        assert not contains(SEG, 0.5, [1.0, 0.6])
        assert contains(SEG, 0.5, [-0.3, 0.3])  # round cap
        assert not contains(SEG, 0.5, [-0.4, 0.4])

    def test_monotone_in_t(self):
        gen = RngStream(90).generator()
        pts = gen.uniform(-2, 4, size=(300, 2))
        for body in SHAPES:
            d = distance(body, pts)
            for t1, t2 in [(0.1, 0.5), (0.5, 1.5)]:
                inside1 = d <= t1
                inside2 = d <= t2
                assert np.all(inside2 | ~inside1)

    def test_distance_is_1_lipschitz(self):
        gen = RngStream(91).generator()
        for body in SHAPES:
            x = gen.uniform(-3, 5, size=(200, 2))
            y = gen.uniform(-3, 5, size=(200, 2))
            gap = np.abs(distance(body, x) - distance(body, y))
            assert np.all(gap <= np.linalg.norm(x - y, axis=1) + 1e-12)


class TestMasses:
    def test_disk_base(self):
        assert parallel_mass(DISK, 0.0) == pytest.approx(math.pi, abs=1e-14)

    def test_square_offset(self):
        assert parallel_mass(SQUARE, 1.0) == pytest.approx(1.0 + 4.0 + math.pi, abs=1e-13)

    def test_stadium(self):
        assert parallel_mass(SEG, 0.5) == pytest.approx(2.0 + math.pi / 4.0, abs=1e-13)

    def test_steiner_consistency_all_shapes(self):
        ones = lambda p: np.ones(p.shape[0])
        for body in SHAPES:
            for t in (0.15, 0.4, 1.0):
                patch = integrate_parallel(body, t, ones)
                assert abs(patch - steiner_mass(body, t)) <= 1e-8

    @pytest.mark.parametrize("n", [5, 16, 32])
    def test_unit_rule_is_the_mapped_rule(self, n):
        x, w = np.polynomial.legendre.leggauss(n)
        u, wu = geometry._unit_rule(n)
        assert u.tolist() == (0.5 * (x + 1.0)).tolist() and wu.tolist() == (0.5 * w).tolist()

    def test_any_patch_order(self):
        # patch quadrature takes any number of nodes, not only the orders
        # gauss_legendre accepts
        ones = lambda p: np.ones(p.shape[0])
        for npoints in (5, 12):
            assert integrate_parallel(SQUARE, 0.3, ones, npoints) == pytest.approx(
                steiner_mass(SQUARE, 0.3), abs=1e-12)

    def test_scalar_integrand_raises(self):
        # a function of one point is not retried point by point
        with pytest.raises(TypeError, match="shape"):
            integrate_parallel(DISK, 0.3, lambda p: 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_integrand_raises(self, bad):
        f = lambda p: np.where(p[:, 0] > 0.5, bad, 1.0)
        with pytest.raises(QuadratureError, match="non-finite"):
            integrate_parallel(DISK, 0.3, f)
        with pytest.raises(QuadratureError, match="non-finite"):
            parallel_mass(DISK, 0.3, f)

    def test_nonconstant_density(self):
        # h(x, y) = x + 2 over the unit square at t = 0: exact value 2.5
        val = parallel_mass(SQUARE, 0.0, h=lambda p: p[:, 0] + 2.0, tol=1e-10)
        assert val == pytest.approx(2.5, abs=1e-10)

    def test_segment_convention(self):
        assert area(SEG) == 0.0
        assert perimeter(SEG) == 4.0  # both sides of length 2

    @pytest.mark.parametrize("t", [0.3, 1.1])
    def test_segment_stadium_moment(self, t):
        # x^2 over the stadium of [0, L] x {0}: the strip plus both end caps
        L = 2.0
        want = 2 * t * L**3 / 3 + math.pi * t**2 * L**2 / 2 + 4 * L * t**3 / 3 + math.pi * t**4 / 4
        assert integrate_parallel(SEG, t, lambda p: p[:, 0] ** 2) == pytest.approx(want, abs=1e-10)


class TestBoundary:
    def test_disk_offset_length(self):
        ones = lambda p: np.ones(p.shape[0])
        assert boundary_integral(DISK, 0.5, ones) == pytest.approx(3.0 * math.pi, abs=1e-12)

    def test_square_base_perimeter(self):
        ones = lambda p: np.ones(p.shape[0])
        assert boundary_integral(SQUARE, 0.0, ones) == pytest.approx(4.0, abs=1e-12)

    def test_polygon_offset_length(self):
        ones = lambda p: np.ones(p.shape[0])
        for t in (0.2, 0.7):
            assert boundary_integral(PENT, t, ones) == pytest.approx(
                perimeter(PENT) + 2.0 * math.pi * t, abs=1e-10
            )

    def test_length_is_mass_derivative(self):
        # d/dt [area + perimeter t + pi t^2] = perimeter + 2 pi t, exactly
        ones = lambda p: np.ones(p.shape[0])
        for body in (DISK, SQUARE, PENT, SEG):
            for t in (0.3, 0.8):
                assert boundary_integral(body, t, ones) == pytest.approx(
                    perimeter(body) + 2.0 * math.pi * t, abs=1e-10
                )

    def test_scalar_integrand_raises(self):
        with pytest.raises(TypeError, match="shape"):
            boundary_integral(DISK, 0.3, lambda p: 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_integrand_raises(self, bad):
        with pytest.raises(QuadratureError, match="non-finite"):
            boundary_integral(DISK, 0.3, lambda p: np.where(p[:, 1] > 0.0, bad, 1.0))

    def test_segment_bare_boundary_is_both_sides(self):
        # the boundary of K_0 is the segment twice: 2 * int_0^2 x^2 dx
        assert boundary_integral(SEG, 0.0, lambda p: p[:, 0] ** 2) == pytest.approx(16.0 / 3.0, abs=1e-12)

    @pytest.mark.parametrize("t", [0.3, 1.1])
    def test_segment_offset_moment(self, t):
        # x^2 over both offset sides and both end-cap arcs of [0, L] x {0}
        L = 2.0
        want = 2 * L**3 / 3 + math.pi * t * L**2 + 4 * L * t**2 + math.pi * t**3
        assert boundary_integral(SEG, t, lambda p: p[:, 0] ** 2) == pytest.approx(want, abs=1e-10)

    @pytest.mark.parametrize("t", [0.0, 0.3, 1.1])
    def test_nodes_lie_at_distance_t(self, t):
        for body in SHAPES:
            pts, _ = boundary_nodes(body, t)
            assert np.max(np.abs(distance(body, pts) - t)) <= 1e-12


class TestSteinerDerivative:
    def test_disk_annulus(self):
        chk = steiner_derivative_check(DISK, lambda p: np.ones(p.shape[0]), 0.5, delta=1e-3)
        assert chk.fd_value == pytest.approx(3.0 * math.pi, abs=1e-5)
        assert chk.gap <= 1e-5

    def test_square_quadratic_weight(self):
        chk = steiner_derivative_check(SQUARE, lambda p: p[:, 0] ** 2, 0.2, delta=1e-3)
        assert chk.gap <= 1e-5

    def test_zero_function(self):
        chk = steiner_derivative_check(PENT, lambda p: np.zeros(p.shape[0]), 0.4, delta=1e-3)
        assert chk == type(chk)(0.0, 0.0, 0.0)

    def test_two_sided_derivatives_agree(self):
        # convex bodies have no exceptional radii: left and right difference
        # quotients of the parallel mass converge to the same boundary value
        ones = lambda p: np.ones(p.shape[0])
        t, d = 0.6, 1e-4
        for body in SHAPES:
            right = (steiner_mass(body, t + d) - steiner_mass(body, t)) / d
            left = (steiner_mass(body, t) - steiner_mass(body, t - d)) / d
            assert abs(right - left) == pytest.approx(2.0 * math.pi * d, abs=1e-8)
            assert boundary_integral(body, t, ones) == pytest.approx(
                (right + left) / 2.0, abs=1e-7
            )


COUNT = Statistic(eval=lambda phi: float(len(phi)), bound=1e9, name="count")


class TestCroftonPoisson:
    def test_disk_count(self):
        rep = crofton_poisson_check(COUNT, DISK, 0.5, 6000, RngStream(92))
        assert rep.rhs == pytest.approx(2.0 * math.pi * 1.5, abs=1e-9)  # zero-variance side
        assert abs(rep.z) <= 4.0

    def test_segment_base_radius(self):
        rep = crofton_poisson_check(COUNT, SEG, 0.0, 6000, RngStream(93))
        assert rep.rhs == pytest.approx(4.0, abs=1e-12)  # 2 * length, the two-normal weight
        assert abs(rep.z) <= 4.0

    def test_constant_statistic(self):
        g = Statistic(eval=lambda phi: 2.5, bound=2.5)
        rep = crofton_poisson_check(g, DISK, 0.5, 200, RngStream(94))
        assert rep.lhs == 0.0 and rep.rhs == 0.0 and rep.z == 0.0

    def test_full_dimensional_base_radius(self):
        # t = 0 for a body with interior: one-sided difference against the
        # bare boundary integral (2 pi for the unit disk)
        rep = crofton_poisson_check(COUNT, DISK, 0.0, 6000, RngStream(102))
        assert rep.rhs == pytest.approx(2.0 * math.pi, abs=1e-10)
        assert abs(rep.z) <= 4.0

    def test_nonconstant_density(self):
        h = lambda p: 1.0 + 0.5 * p[:, 0] ** 2
        # the envelope holds on the largest disk sampled, radius 1 + t + delta
        rep = crofton_poisson_check(COUNT, DISK, 0.4, 6000, RngStream(95),
                                    h=h, sup_density=1.0 + 0.5 * 1.41**2)
        # rhs is deterministic for the counting statistic; left side must agree
        assert rep.rhs_stderr <= 1e-12
        assert abs(rep.z) <= 4.0

    def test_segment_quadratic_density(self):
        # the end caps carry h = 1 + x^2 beyond the ends, where it is largest
        h = lambda p: 1.0 + p[:, 0] ** 2
        g = CountFunctional([None], lambda c: c[:, 0].astype(float), bound=1e9)
        rep = crofton_poisson_check(g, SEG, 0.4, 20_000, RngStream(106), h=h, sup_density=1.0 + 2.41**2)
        t, L = 0.4, 2.0
        exact = 2 * L + 2 * math.pi * t + 2 * L**3 / 3 + math.pi * t * L**2 + 4 * L * t**2 + math.pi * t**3
        assert rep.rhs == pytest.approx(exact, abs=1e-10)
        assert abs(rep.z) <= 4.0

    def test_unbounded_rejected(self):
        g = Statistic(eval=lambda phi: float(len(phi)))
        with pytest.raises(ValueError):
            crofton_poisson_check(g, DISK, 0.5, 100, RngStream(96))

    @pytest.mark.parametrize("reps", [0, 1])
    def test_too_few_reps_rejected(self, reps):
        # one replicate has no standard error (it would read 0.0)
        with pytest.raises(ValueError):
            crofton_poisson_check(COUNT, DISK, 0.5, reps, RngStream(96))

    def test_golden_values(self):
        rep = crofton_poisson_check(COUNT, DISK, 0.5, 60, RngStream(38))
        assert rep == CroftonReport(
            lhs=10.0, lhs_stderr=2.6037782196164776, rhs=9.42477796076938,
            rhs_stderr=2.3126196243485683e-16, z=0.22091821603582956, delta=0.01, reps=60)
        rep = crofton_poisson_check(COUNT, SEG, 0.0, 60, RngStream(39))
        assert rep == CroftonReport(
            lhs=1.6666666666666667, lhs_stderr=1.6666666666666665, rhs=3.9999999999999987,
            rhs_stderr=0.0, z=-1.3999999999999995, delta=0.01, reps=60)
        rep = crofton_poisson_check(COUNT, DISK, 0.4, 60, RngStream(40), h=lambda p: 1.0 + 0.5 * p[:, 0] ** 2,
                                    sup_density=2.0)
        assert rep == CroftonReport(
            lhs=10.0, lhs_stderr=3.0991159665316332, rhs=13.106724550776626,
            rhs_stderr=0.0, z=-1.002455082135409, delta=0.01, reps=60)


class TestCroftonBinomial:
    def test_single_point_quotient_rule(self):
        # m = 1, g = 1{point in B}: E g = lambda_t(B) / lambda(K_t)
        B = ball_region([0.0, 0.0], 0.5)
        g = Statistic(eval=lambda phi: float(phi.count_in(B)), bound=1.0)
        t = 0.2
        rep = crofton_binomial_check(g, DISK, t, 1, 20_000, RngStream(97))
        truth = -1.0 / (2.0 * (1.0 + t) ** 3)
        assert abs(rep.rhs - truth) <= 4.0 * rep.rhs_stderr + 1e-12
        assert abs(rep.z) <= 4.0

    def test_counting_statistic_multiple_points(self):
        B = ball_region([0.0, 0.0], 0.5)
        g = Statistic(eval=lambda phi: float(phi.count_in(B)), bound=20.0)
        rep = crofton_binomial_check(g, DISK, 0.5, 5, 20_000, RngStream(98))
        truth = -5.0 / (2.0 * 1.5**3)
        assert abs(rep.rhs - truth) <= 4.0 * rep.rhs_stderr + 1e-12
        assert abs(rep.z) <= 4.0

    def test_constant_statistic(self):
        g = Statistic(eval=lambda phi: 1.0, bound=1.0)
        rep = crofton_binomial_check(g, DISK, 0.3, 3, 500, RngStream(99))
        assert rep.lhs == 0.0 and rep.rhs == 0.0

    def test_validation(self):
        g = Statistic(eval=lambda phi: 1.0, bound=1.0)
        with pytest.raises(ValueError):
            crofton_binomial_check(g, DISK, 0.3, 0, 100, RngStream(100))
        with pytest.raises(ValueError):
            crofton_binomial_check(g, SEG, 0.0, 2, 100, RngStream(100))
        unbounded = Statistic(eval=lambda phi: float(len(phi)))
        with pytest.raises(ValueError):
            crofton_binomial_check(unbounded, DISK, 0.3, 2, 100, RngStream(100))
        for reps in (0, 1):
            with pytest.raises(ValueError):
                crofton_binomial_check(g, DISK, 0.3, 2, reps, RngStream(100))

    def test_negative_t_rejected_before_sampling(self, monkeypatch):
        calls = []
        monkeypatch.setattr(geometry, "binomial_blocks", lambda *a, **kw: calls.append(a))
        g = Statistic(eval=lambda phi: 1.0, bound=1.0)
        with pytest.raises(ValueError, match="nonnegative"):
            crofton_binomial_check(g, DISK, -0.005, 5, 20_000, RngStream(100))
        assert calls == []

    def test_golden_values(self):
        B = ball_region([0.0, 0.0], 0.5)
        g1 = Statistic(eval=lambda phi: float(phi.count_in(B)), bound=1.0)
        assert crofton_binomial_check(g1, DISK, 0.2, 1, 40, RngStream(42)) == CroftonReport(
            lhs=1.2499999999999998, lhs_stderr=4.174671797325463, rhs=-0.29166666666666674,
            rhs_stderr=0.10140571807407933, z=0.36918160791132915, delta=0.01, reps=40)
        g5 = Statistic(eval=lambda phi: float(phi.count_in(B)), bound=5.0)
        assert crofton_binomial_check(g5, DISK, 0.2, 5, 40, RngStream(46)) == CroftonReport(
            lhs=13.749999999999995, lhs_stderr=10.680004681646915, rhs=-1.0416666666666667,
            rhs_stderr=0.4413117425710018, z=1.3838060223186968, delta=0.01, reps=40)


# the suites' Crofton statistics: count, count in a ball, constant
CROFTON_FUNCTIONALS = {
    "count": CountFunctional([None], lambda c: c[:, 0].astype(float), bound=1e9),
    "count_in_ball": CountFunctional([ball_region([0.0, 0.0], 0.5)], lambda c: c[:, 0].astype(float), bound=20.0),
    "const": CountFunctional([], lambda c: np.full(c.shape[0], 2.5), bound=2.5),
    "hit_two": CountFunctional([ball_region([0.3, 0.0], 0.6)], lambda c: (c[:, 0] >= 2).astype(float), bound=1.0),
}


@pytest.mark.parametrize("name", CROFTON_FUNCTIONALS)
class TestCroftonVectorisedPath:
    """Both Crofton checks give equal reports on the block path of a
    CountFunctional and on the per-configuration path of the same f."""

    def test_poisson(self, name, as_generic):
        g = CROFTON_FUNCTIONALS[name]
        h = lambda p: 1.0 + 0.5 * p[:, 0] ** 2
        for body, t, kw in ((DISK, 0.5, {}), (SEG, 0.0, {}), (PENT, 0.3, {"h": h, "sup_density": 8.0}),
                            (SEG, 0.4, {"h": h, "sup_density": 8.0})):
            assert crofton_poisson_check(g, body, t, 80, RngStream(103), **kw) == \
                crofton_poisson_check(as_generic(g), body, t, 80, RngStream(103), **kw)

    def test_binomial(self, name, as_generic):
        g = CROFTON_FUNCTIONALS[name]
        for m, t in ((1, 0.2), (5, 0.5)):
            assert crofton_binomial_check(g, DISK, t, m, 60, RngStream(104)) == \
                crofton_binomial_check(as_generic(g), DISK, t, m, 60, RngStream(104))


class TestIntensityOnParallelSet:
    def test_mass_matches_steiner(self):
        mu = intensity_on_parallel_set(DISK, 0.5)
        assert total_mass(mu) == pytest.approx(steiner_mass(DISK, 0.5), abs=1e-12)

    def test_restriction_consistency(self):
        # points sampled on K_{t+d} restricted to K_t follow the K_t law
        from pivotal.point_process import sample_poisson
        mu = intensity_on_parallel_set(SEG, 0.6).scaled(3.0)
        eta = sample_poisson(mu, RngStream(101))
        d = distance(SEG, eta.points)
        assert np.all(d <= 0.6 + 1e-12)


class TestShapeValidation:
    def test_polygon_must_be_ccw_convex(self):
        with pytest.raises(ValueError):
            ConvexPolygon(np.array([[0.0, 0.0], [1.0, 2.0], [2.0, 0.0]]))  # clockwise
        with pytest.raises(ValueError):
            ConvexPolygon(np.array([[0, 0], [1, 0], [2, 0], [1, 1.0]]))  # collinear edge

    def test_segment_degenerate(self):
        with pytest.raises(ValueError):
            Segment(np.array([1.0, 1.0]), np.array([1.0, 1.0]))

    def test_segment_far_from_the_origin(self):
        # distinct ends are told apart by length, not relative to their coordinates
        assert perimeter(Segment([1e5, 0.0], [1e5 + 0.5, 0.0])) == 1.0
        with pytest.raises(ValueError):
            Segment([1e5, 0.0], [1e5 + 1e-15, 0.0])

    def test_3d_rejected(self):
        with pytest.raises(ValueError):
            Disk(np.zeros(3), 1.0)
        with pytest.raises(ValueError):
            Box(np.zeros(3), np.array([1.0, 2.0, 3.0]))

    def test_box_orientation(self):
        with pytest.raises(ValueError):
            Box(np.array([1.0, 0.0]), np.array([0.0, 1.0]))

    @pytest.mark.parametrize("vertices, radius", [
        ([[0.0, 0.0]], 0.0),  # a single vertex needs r > 0
        ([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], 0.0),  # (k, 3)
        ([[0.0, 0.0], [2.0, 0.0]], -0.1),  # negative radius
        ([[0.0, 0.0], [0.0, 0.0]], 0.5),  # a repeated vertex
        ([[0.0, 0.0], [1.0, 2.0], [2.0, 0.0]], 0.0),  # clockwise
        (np.empty((0, 2)), 1.0),  # no vertex
        ([[0.0, 0.0], [np.nan, 0.0]], 0.0),
        ([[0.0, 0.0]], np.nan),
        ([[0.0, 0.0]], np.inf),
    ])
    def test_convex_body_rejects(self, vertices, radius):
        with pytest.raises(ValueError):
            ConvexBody(np.asarray(vertices, dtype=float), radius)

    def test_star_polygon_rejected(self):
        # a pentagram turns left at every vertex, but twice around in all
        angles = np.pi / 2 + 2 * np.pi * np.arange(5) / 5
        pentagon = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        assert area(ConvexPolygon(pentagon)) > 0
        with pytest.raises(ValueError, match="strictly convex"):
            ConvexPolygon(pentagon[[0, 2, 4, 1, 3]])

    def test_constructors_copy_their_input(self):
        center, vertices = np.zeros(2), PENT.vertices.copy()
        disk, pent = Disk(center, 1.0), ConvexPolygon(vertices)
        assert center.flags.writeable and vertices.flags.writeable
        center[0] = vertices[0, 0] = 9.0
        assert disk.vertices.tolist() == [[0.0, 0.0]] and pent.vertices[0, 0] == 0.0
        assert not disk.vertices.flags.writeable

    def test_bodies_compare_by_identity(self):
        a, b = Disk([0.0, 0.0], 1.0), Disk([0.0, 0.0], 1.0)
        assert a == a and a != b
        assert len({a, b, a}) == 2

    def test_constructors_build_one_outline(self):
        assert (DISK.vertices.tolist(), DISK.radius) == ([[0.0, 0.0]], 1.0)
        assert SQUARE.vertices.tolist() == [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
        assert (SEG.vertices.tolist(), SEG.radius) == ([[0.0, 0.0], [2.0, 0.0]], 0.0)
        assert all(type(body) is ConvexBody for body in SHAPES)


class TestStadium:
    """A segment of length L dilated by r: reachable only as a ConvexBody."""

    L, R = 2.0, 0.3
    BODY = ConvexBody([[0, 0], [2, 0]], 0.3)

    def test_area_and_perimeter(self):
        assert area(self.BODY) == pytest.approx(2 * self.L * self.R + math.pi * self.R**2, abs=1e-14)
        assert perimeter(self.BODY) == pytest.approx(2 * self.L + 2 * math.pi * self.R, abs=1e-14)

    def test_patch_quadrature_is_the_area(self):
        ones = lambda p: np.ones(p.shape[0])  # noqa: E731
        assert integrate_parallel(self.BODY, 0.0, ones) == pytest.approx(area(self.BODY), abs=1e-12)

    def test_is_the_segment_grown_by_r(self):
        for t in (0.0, 0.25, 1.0):
            assert steiner_mass(self.BODY, t) == pytest.approx(steiner_mass(SEG, self.R + t), abs=1e-12)
            f = lambda p: 1.0 + p[:, 0] ** 2  # noqa: E731
            assert boundary_integral(self.BODY, t, f) == pytest.approx(boundary_integral(SEG, self.R + t, f),
                                                                       abs=1e-10)
        assert contains(self.BODY, 0.0, [1.0, 0.29]) and not contains(self.BODY, 0.0, [1.0, 0.31])
