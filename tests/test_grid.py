"""Grid, quadrature and discrete Laplacian contracts."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import fdelab as F
from fdelab.grid import apply_A, largest, smallest

from conftest import inner_product_weighted, solve_poisson


def interval(n, length=1.0):
    return F.build_domain(F.DomainSpec(geometry="interval", nodes=n, length=length))


def ball(n, ndim=3, radius=1.0):
    return F.build_domain(F.DomainSpec(geometry="ball", nodes=n, dimension=ndim,
                                       radius=radius))


@st.composite
def domain_specs(draw):
    nodes = draw(st.integers(8, 160))
    extent = draw(st.floats(0.1, 10.0))
    if draw(st.booleans()):
        return F.DomainSpec(geometry="interval", nodes=nodes, length=extent)
    return F.DomainSpec(geometry="ball", nodes=nodes, radius=extent,
                        dimension=draw(st.integers(1, 6)))


@settings(max_examples=80, deadline=None)
@given(spec=domain_specs(), data=st.data())
def test_random_domain_has_spd_A_positive_quadrature_and_exact_apply_A(spec, data):
    g = F.build_domain(spec)
    n = g.n
    assert (g.quad_weights > 0).all()
    # A column by column through apply_A: symmetric, and positive definite
    A = np.column_stack([apply_A(g, e) for e in np.eye(n)])
    assert np.array_equal(A, A.T)
    np.linalg.cholesky(A)     # raises LinAlgError unless A is SPD
    f = data.draw(arrays(np.float64, n, elements=st.floats(-1e3, 1e3)))
    bound = 8 * np.finfo(float).eps * (np.abs(A) @ np.abs(f))
    assert (np.abs(apply_A(g, f) - A @ f) <= bound).all()


def test_rejects_bad_specs():
    with pytest.raises(F.ConfigError, match="nodes must be at least 8"):
        F.DomainSpec(geometry="interval", nodes=7)
    with pytest.raises(F.ConfigError, match="length must be positive"):
        F.DomainSpec(geometry="interval", nodes=16, length=0.0)
    with pytest.raises(F.ConfigError, match="radius must be positive"):
        F.DomainSpec(geometry="ball", nodes=16, radius=-1.0)
    with pytest.raises(F.ConfigError, match="dimension must be a positive integer"):
        F.DomainSpec(geometry="ball", nodes=16, dimension=0)
    with pytest.raises(F.ConfigError, match="geometry must be interval or ball"):
        F.DomainSpec(geometry="annulus", nodes=16)


@pytest.mark.parametrize("nodes", [8, 33])
def test_every_accepted_ball_builds(nodes):
    # DomainSpec refuses from N = 344 on, where Gamma(N/2) overflows, naming
    # the dimension; every ball it accepts builds without an exception or a
    # numpy warning (a shell volume underflowing to 0 or overflowing)
    for N in [1, 2, 3, 50, 100, 200, 300, 342, 343, 344, 345, 400, 1000]:
        for radius in np.geomspace(1e-3, 1e3, 121):
            try:
                spec = F.DomainSpec(geometry="ball", nodes=nodes, dimension=N,
                                    radius=float(radius))
            except F.ConfigError as exc:
                assert N <= 343 or str(exc).startswith("dimension = ")
                continue
            assert N <= 343
            assert F.build_domain(spec).n == nodes


# finite floats of every size, subnormals, signed zeros and infinities
_EXTREMES = st.sampled_from([np.inf, -np.inf, 5e-324, -5e-324, 3.37e-310,
                             -2.2e-308, 0.0, -0.0, 1.7e308, -1.7e308])
_FLOATS = st.one_of(_EXTREMES, st.floats(allow_nan=False, width=64))
_SHAPES = st.one_of(st.tuples(st.integers(1, 40)),
                    st.tuples(st.integers(1, 6), st.integers(1, 12)))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_largest_and_smallest_are_max_and_min_with_nan(data):
    # a field (n,) or a stack (B, n): the flat argmax / argmin covers both
    a = data.draw(arrays(np.float64, data.draw(_SHAPES), elements=_FLOATS))
    big, small = largest(a), smallest(a)
    assert type(big) is float and type(small) is float
    assert big == np.max(a) and small == np.min(a)   # a zero of either sign
    # a NaN anywhere is the answer, as it is np.max's and np.min's
    a.flat[data.draw(st.integers(0, a.size - 1))] = np.nan
    assert math.isnan(largest(a)) and math.isnan(smallest(a))


def test_interval_coords_and_uniform_trapezoid_weights():
    g = interval(9)
    h = 1.0 / 10
    assert np.allclose(g.coords, h * np.arange(1, 10), rtol=0, atol=1e-15)
    # uniform trapezoid on a uniform grid: every interior weight equals h
    assert np.allclose(g.quad_weights, h, rtol=0, atol=1e-15)
    assert abs(np.sum(g.quad_weights) - (1.0 - h)) < 1e-15


def test_weight_sum_approaches_volume():
    # boundary cells are unowned, so the deficit is one h (first order)
    for n in (64, 128, 256, 1023):
        g = interval(n)
        assert abs(np.sum(g.quad_weights) - 1.0) <= 1.01 * g.h
    vol = 4.0 * np.pi / 3.0
    deficits = []
    for n in (64, 128, 256):
        g = ball(n)
        deficits.append(abs(F.integrate(g, np.ones(n)) - vol))
    assert deficits[0] > deficits[1] > deficits[2]
    assert deficits[2] < vol * 2.0 * g.h


def test_field_length_mismatch():
    g = interval(16)
    with pytest.raises(ValueError, match="field has shape"):
        F.apply_laplacian(g, np.ones(15))
    with pytest.raises(ValueError, match="field has shape"):
        F.integrate(g, np.ones(17))
    with pytest.raises(ValueError, match="field has shape"):
        inner_product_weighted(g, np.ones(16), np.ones(16), np.ones(15))


def test_laplacian_on_first_eigenfunction():
    errs = []
    for n in (64, 128, 256):
        g = interval(n)
        f = np.sin(np.pi * g.coords)
        errs.append(np.max(np.abs(F.apply_laplacian(g, f) + np.pi ** 2 * f)))
    order = np.log2(errs[0] / errs[1]), np.log2(errs[1] / errs[2])
    assert min(order) > 1.8


def test_laplacian_exact_on_quadratic():
    g = interval(32)
    f = g.coords * (1.0 - g.coords)
    assert np.max(np.abs(F.apply_laplacian(g, f) + 2.0)) < 1e-11


def test_radial_laplacian_ball_eigenfunction():
    errs = []
    for n in (64, 128, 256):
        g = ball(n)
        f = np.sin(np.pi * g.coords) / g.coords
        errs.append(np.max(np.abs(F.apply_laplacian(g, f) + np.pi ** 2 * f)))
    assert np.log2(errs[0] / errs[1]) > 1.8
    assert np.log2(errs[1] / errs[2]) > 1.8


def test_radial_laplacian_exact_on_quadratic():
    for ndim in (1, 2, 3):
        g = ball(24, ndim=ndim)
        f = 1.0 - g.coords ** 2
        assert np.max(np.abs(F.apply_laplacian(g, f) + 2.0 * ndim)) < 1e-10


def test_ball_dim1_matches_symmetric_interval_reduction():
    # N = 1: the radial term vanishes; operator is u'' with u'(0) = 0, u(R) = 0
    g = ball(64, ndim=1)
    f = np.cos(0.5 * np.pi * g.coords)   # even about r = 0, Dirichlet at r = 1
    err = np.max(np.abs(F.apply_laplacian(g, f) + (0.5 * np.pi) ** 2 * f))
    assert err < 2e-3
    assert np.allclose(g.quad_weights[1:], 2.0 * g.h)     # |S^0| = 2
    assert np.isclose(g.quad_weights[0], 3.0 * g.h)       # core cell [0, 3h/2]


def test_solve_poisson_exact_quadratic():
    g = interval(32)
    got = solve_poisson(g, np.full(32, 2.0))
    assert np.max(np.abs(got - g.coords * (1.0 - g.coords))) < 1e-13


def test_solve_poisson_eigenfunction():
    g = interval(256)
    f = np.sin(np.pi * g.coords)
    got = solve_poisson(g, np.pi ** 2 * f)
    assert np.max(np.abs(got - f)) < 2e-5   # O(h^2)


def test_solve_poisson_backward_residual():
    for g in (interval(512), ball(512)):
        rng = np.random.RandomState(7)
        rhs = rng.standard_normal(g.n)
        got = solve_poisson(g, rhs)
        resid = np.linalg.norm(-np.asarray(F.apply_laplacian(g, got)) - rhs)
        anorm = np.max(np.abs(g.lap_diag / g.quad_weights)) * 3
        assert resid / (anorm * np.linalg.norm(got) + np.linalg.norm(rhs)) < 1e-12


def test_green_matrix_symmetric_under_quadrature():
    g = interval(24)
    cols = np.stack([solve_poisson(g, np.eye(24)[i]) for i in range(24)], axis=1)
    weighted = g.quad_weights[:, None] * cols
    assert np.max(np.abs(weighted - weighted.T)) < 1e-12 * np.max(np.abs(weighted))


def test_integrate_examples():
    g = interval(256)
    assert abs(F.integrate(g, np.ones(256)) - 1.0) < 1.01 * g.h
    assert abs(F.integrate(g, np.sin(np.pi * g.coords)) - 2.0 / np.pi) < 1e-4
    gb = ball(256)
    # deficit is the unowned outer half shell, ~ |S^2| R^2 h / 2
    assert abs(F.integrate(gb, np.ones(256)) - 4 * np.pi / 3) < 1.01 * 2 * np.pi * gb.h


def test_inner_product_positive_definite():
    g = interval(64)
    rng = np.random.RandomState(0)
    f = rng.standard_normal(64)
    assert inner_product_weighted(g, f, f, np.ones(64)) > 0
    assert inner_product_weighted(g, np.zeros(64), np.zeros(64), np.ones(64)) == 0


@pytest.mark.parametrize("make", [interval, ball])
def test_laplacian_symmetry_and_negativity(make):
    g = make(96)
    rng = np.random.RandomState(3)
    for _ in range(20):
        f = rng.standard_normal(g.n)
        w = rng.standard_normal(g.n)
        lhs = inner_product_weighted(g, -np.asarray(F.apply_laplacian(g, f)), w,
                                     np.ones(g.n))
        rhs = inner_product_weighted(g, f, -np.asarray(F.apply_laplacian(g, w)),
                                     np.ones(g.n))
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs))
        assert inner_product_weighted(g, np.asarray(F.apply_laplacian(g, f)), f,
                                      np.ones(g.n)) <= 0


@pytest.mark.parametrize("make", [interval, ball])
def test_poisson_inverts_laplacian(make):
    g = make(128)
    rng = np.random.RandomState(5)
    f = rng.standard_normal(g.n)
    back = solve_poisson(g, np.asarray(F.apply_laplacian(g, f)))
    assert np.max(np.abs(back + f)) <= 1e-10 * np.max(np.abs(f))


def test_dirichlet_energy_matches_difference_quotients():
    g = interval(64)
    f = np.sin(2 * np.pi * g.coords)
    ext = np.concatenate(([0.0], f, [0.0]))
    expect = np.sum(np.diff(ext) ** 2) / g.h
    assert np.isclose(F.dirichlet_energy(g, f), expect, rtol=1e-12)


def test_grid_convergence_order_classical_eigenvalues():
    # lowest classical eigenvalues converge at second order for both geometries
    for make, exact in ((interval, np.pi ** 2), (ball, np.pi ** 2)):
        errs = []
        for n in (64, 128, 256):
            g = make(n)
            eigs = F.weighted_eigensystem(g, np.ones(n), p=2.0, K=1)
            errs.append(abs(eigs.eigenvalues[0] - exact) / exact)
        assert np.log2(errs[0] / errs[1]) > 1.8
        assert np.log2(errs[1] / errs[2]) > 1.8


def test_grid_convergence_order_integrals():
    # quadrature of boundary-vanishing integrands converges at second order
    errs = []
    for n in (64, 128, 256):
        g = interval(n)
        errs.append(abs(F.integrate(g, np.sin(np.pi * g.coords)) - 2.0 / np.pi))
    assert np.log2(errs[0] / errs[1]) > 1.8
    assert np.log2(errs[1] / errs[2]) > 1.8
    errs = []
    for n in (64, 128, 256):
        g = ball(n)
        f = np.sin(np.pi * g.coords) / g.coords   # int over the ball = 4
        errs.append(abs(F.integrate(g, f) - 4.0))
    assert np.log2(errs[0] / errs[1]) > 1.8
    assert np.log2(errs[1] / errs[2]) > 1.8
