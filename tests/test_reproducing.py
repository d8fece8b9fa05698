import csv
import io
import math
import re
import warnings

import numpy as np
import pytest

from plurikernel import (
    DomainError,
    DomainSpec,
    QuadratureRule,
    ValidationError,
    demailly_density,
    kernel_value,
    reproduce,
    riesz_correction_1d,
    rule_to_csv,
    sphere_quadrature,
)
from plurikernel import reproducing
from plurikernel.domains import levi_density
from plurikernel.expressions import ScalarField
from plurikernel.utils import sample_ball

TWO_PI = 2 * math.pi


def test_mass_identity_circle():
    rule = sphere_quadrature(1, 64)
    assert rule.total_mass == pytest.approx(TWO_PI, abs=1e-12)


def test_mass_identity_sphere():
    # 2^{n-1}(n-1)! Vol(S^3) = 2 * 2 pi^2 = (2 pi)^2
    rule = sphere_quadrature(2, 32)
    assert rule.total_mass == pytest.approx(TWO_PI ** 2, abs=1e-8)
    rule64 = sphere_quadrature(2, 64)
    assert rule64.total_mass == pytest.approx(TWO_PI ** 2, abs=1e-8)


def test_rule_invariants():
    for n, m in ((1, 16), (2, 12)):
        rule = sphere_quadrature(n, m)
        assert np.all(rule.weights > 0)
        dom = DomainSpec.disc() if n == 1 else DomainSpec.unit_ball(2)
        for xi in rule.nodes[:: max(1, len(rule) // 20)]:
            assert abs(dom.psi(xi)) < 1e-12


def test_reproduction_error_decays():
    # smooth integrand: error should at least halve when m doubles
    f = lambda nodes: np.real(nodes[:, 0] ** 2)
    z = np.array([0.45, 0.3j])
    exact = float(np.real(z[0] ** 2))
    errs = []
    for m in (8, 16, 32):
        rule = sphere_quadrature(2, m)
        errs.append(abs(reproduce(f, z, rule) - exact))
    assert errs[1] <= 0.5 * errs[0] or errs[1] < 1e-12
    assert errs[2] <= 0.5 * errs[1] or errs[2] < 1e-12


def test_reproduce_examples():
    rule = sphere_quadrature(2, 64)
    assert reproduce(lambda nodes: np.ones(len(nodes)), [0, 0], rule) == pytest.approx(
        1.0, abs=1e-8)
    assert reproduce(lambda nodes: np.real(nodes[:, 0]), [0, 0], rule) == pytest.approx(
        0.0, abs=1e-8)
    assert reproduce(lambda nodes: np.real(nodes[:, 0]), [0.3, 0.0], rule) == pytest.approx(
        0.3, abs=1e-6)


def test_reproduce_pluriharmonic_basis(rng):
    rule = sphere_quadrature(2, 64)
    basis = {
        "1": (lambda N: np.ones(len(N)), lambda z: 1.0),
        "re z1": (lambda N: np.real(N[:, 0]), lambda z: float(np.real(z[0]))),
        "im z1": (lambda N: np.imag(N[:, 0]), lambda z: float(np.imag(z[0]))),
        "re z1 z2": (lambda N: np.real(N[:, 0] * N[:, 1]),
                     lambda z: float(np.real(z[0] * z[1]))),
        "re z1^2": (lambda N: np.real(N[:, 0] ** 2),
                    lambda z: float(np.real(z[0] ** 2))),
    }
    for _ in range(10):
        z = sample_ball(rng, 2, 0.8)
        for name, (f, exact) in basis.items():
            assert reproduce(f, z, rule) == pytest.approx(exact(z), abs=1e-5), name


def test_reproduce_positivity(rng):
    rule = sphere_quadrature(2, 16)
    f = lambda nodes: np.abs(nodes[:, 0]) ** 2
    for _ in range(5):
        z = sample_ball(rng, 2, 0.9)
        assert reproduce(f, z, rule) >= 0.0


def test_reproduce_refuses_per_node_callable():
    # f gets blocks of node rows, never one node: a per-node field returns the
    # wrong shape, and its own errors are not retried
    for n in (1, 2):
        rule = sphere_quadrature(n, 32)
        calls = []

        def first_node(xi):
            calls.append(np.shape(xi))
            return np.real(xi[0])

        with pytest.raises(ValidationError, match=rf"gave shape \({n},\)"):
            reproduce(first_node, [0.2] * n, rule)
        assert len(calls) == 1
        calls.clear()
        with pytest.raises(TypeError):
            reproduce(lambda xi: calls.append(1) or float(np.real(xi[0])), [0.2] * n, rule)
        assert len(calls) == 1
        with pytest.raises(ValidationError, match=r"gave shape \(\)"):
            reproduce(lambda xi: 1.0, [0.2] * n, rule)


def _meshgrid_rule(res):
    """The Hopf rule's nodes and weights built on res^3 meshgrids, the reference."""
    x, wx = np.polynomial.legendre.leggauss(res)
    eta = (x + 1.0) * (math.pi / 4.0)
    weta = wx * (math.pi / 4.0)
    theta = TWO_PI * np.arange(res) / res
    wtheta = TWO_PI / res
    E, T1, T2 = np.meshgrid(eta, theta, theta, indexing="ij")
    WE = np.meshgrid(weta, theta, theta, indexing="ij")[0]
    nodes = np.stack([(np.cos(E) * np.exp(1j * T1)).ravel(),
                      (np.sin(E) * np.exp(1j * T2)).ravel()], axis=1)
    weights = (2.0 * np.cos(E) * np.sin(E) * WE * wtheta * wtheta).ravel()
    return nodes, weights


def _whole_array_reproduce(f, z, rule):
    """reproduce's formula on the whole rule at once, summed per slab in slab order: the reference.

    <xi, z> is sum_m xi_m conj(z_m) elementwise in coordinate order, and
    |1 - <xi, z>|^2 is Re^2 + Im^2 of 1 - <xi, z>."""
    inner = rule.nodes[:, 0] * np.conj(z[0])
    for m in range(1, rule.n):
        inner = inner + rule.nodes[:, m] * np.conj(z[m])
    d = 1.0 - inner
    om = (1.0 - float(np.vdot(z, z).real)) / (d.real ** 2 + d.imag ** 2)
    terms = np.asarray(f(rule.nodes), dtype=float) * om ** rule.n
    slab_sums = np.sum(terms.reshape(len(rule.slab_weights), -1), axis=1)
    return float(np.sum(slab_sums * rule.slab_weights)) / TWO_PI ** rule.n


def test_factor_built_rule_equals_meshgrid_rule():
    for res in (4, 5, 8, 32, 33):
        rule = sphere_quadrature(2, res)
        nodes, weights = _meshgrid_rule(res)
        assert np.array_equal(rule.nodes, nodes), res
        assert np.array_equal(rule.weights, weights), res


def _block_sizes(rule):
    """One slab per block, three (a short last block unless 3 divides the slab count),
    the default, and the whole rule in one block."""
    return 1, 3 * rule._slab_size, reproducing._BLOCK, len(rule)


def _assert_block_size_free(f, z, rule, monkeypatch):
    """reproduce gives the same bits for every block size of ``_block_sizes``."""
    value = reproduce(f, z, rule)
    for size in _block_sizes(rule):
        with monkeypatch.context() as m:
            m.setattr(reproducing, "_BLOCK", size)
            assert reproduce(f, z, rule) == value, size


def test_reproduce_in_blocks_equals_whole_array_formula(rng, monkeypatch):
    rule = sphere_quadrature(2, 64)          # 262,144 nodes: 16 blocks of four slabs
    fields = (lambda N: np.real(N[:, 0] * N[:, 1]),
              lambda N: np.imag(N[:, 1] ** 2) + 3 * np.real(N[:, 0]))
    for _ in range(4):
        z = sample_ball(rng, 2, 0.9)
        for f in fields:
            assert reproduce(f, z, rule) == _whole_array_reproduce(f, z, rule)
            _assert_block_size_free(f, z, rule, monkeypatch)


def test_circle_in_blocks_equals_whole_array_formula(rng, monkeypatch):
    rule = sphere_quadrature(1, 100_003)     # 7 blocks, the last one short
    small = sphere_quadrature(1, 1_009)      # one-node blocks of the large rule take seconds
    fields = (lambda N: np.real(N[:, 0] ** 3), lambda N: np.imag(np.exp(N[:, 0])))
    for _ in range(4):
        z = sample_ball(rng, 1, 0.95)
        for f in fields:
            assert reproduce(f, z, rule) == _whole_array_reproduce(f, z, rule)
            _assert_block_size_free(f, z, small, monkeypatch)


def test_rank_two_product_rounds_as_a_sum(rng):
    # reproduce forms Re and Im of p0 + p1 per block as [x, 1] @ [1, y]: x*1 and 1*y are
    # exact and the sum rounds once, in whatever order the BLAS adds, so only a zero's
    # sign may differ from x + y; another rounding fails here, not as an ulp drift
    k, w = 3, 64

    def spread():
        v = rng.choice([-1.0, 1.0], (2, k, w)) * 10.0 ** rng.uniform(-300, 300, (2, k, w))
        v[:, 0, :8] = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, 1e300, -1e-300]
        return v

    x, y = spread(), spread()
    left, right = np.ones((2, k, w, 2)), np.ones((2, k, 2, w))
    left[..., 0], right[:, :, 1] = x, y
    re_im = np.matmul(left, right)
    sums = x[:, :, :, None] + y[:, :, None, :]
    assert np.array_equal(re_im, sums)
    with np.errstate(over="ignore"):
        den, den_sums = ((1.0 - a[0]) ** 2 + a[1] ** 2 for a in (re_im, sums))
    assert den.tobytes() == den_sums.tobytes()


def test_coordinates_past_the_second_in_blocks_equal_whole_array_formula(rng, monkeypatch):
    # a hand-built rule in C^3: three circle-type coordinates over four slabs, the
    # third coordinate added after the product that forms the first two
    e = np.exp(1j * TWO_PI * np.arange(5) / 5)
    radii = rng.dirichlet(np.ones(3), 4) ** 0.5
    rule = QuadratureRule(slab_coords=tuple(r[:, None] * e for r in radii.T),
                          slab_weights=rng.uniform(0.5, 1.5, 4), n=3, resolution=5)
    fields = (lambda N: np.real(N[:, 0] * N[:, 1] * N[:, 2]),
              lambda N: np.imag(N[:, 2] ** 2) + np.abs(N[:, 0]) ** 2)
    for z in (np.zeros(3), [0.3, -0.2j, 0.1 + 0.4j], sample_ball(rng, 3, 0.9)):
        z = np.asarray(z, dtype=complex)
        for f in fields:
            for size in _block_sizes(rule):
                with monkeypatch.context() as m:
                    m.setattr(reproducing, "_BLOCK", size)
                    assert reproduce(f, z, rule) == _whole_array_reproduce(f, z, rule), size


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("n, res, index", [(1, 40_009, 36_000), (2, 64, 40 * 4096 + 777)],
                         ids=["circle", "sphere_slab_40"])
def test_non_finite_value_in_a_later_block(bad, n, res, index):
    rule = sphere_quadrature(n, res)
    node = rule.nodes[index]

    def f(N):
        return np.where((N == node).all(axis=1), bad, np.real(N[:, 0]))

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=f"^f is not finite at the node {re.escape(str(node))}$"):
            reproduce(f, [0.2] * n, rule)


def test_opposite_infinities_in_one_slab_name_the_first():
    # the slab's sum is inf - inf = nan; the error names the first node that is not finite
    rule = sphere_quadrature(2, 64)
    first, second = rule.nodes[40 * 4096 + 777], rule.nodes[40 * 4096 + 1234]

    def f(N):
        return np.where((N == first).all(axis=1), -math.inf,
                        np.where((N == second).all(axis=1), math.inf, np.real(N[:, 0])))

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=f"^f is not finite at the node {re.escape(str(first))}$"):
            reproduce(f, [0.2, 0.1j], rule)


def test_finite_values_whose_sum_overflows_raise_domain_error():
    # the kernel reaches ((1 + 0.9) / (1 - 0.9))^2 = 361 at z = (0.9, 0), so 1e308 times it
    # overflows in a slab's sum; large weights make the weighted sum overflow instead
    sphere, circle = sphere_quadrature(2, 32), sphere_quadrature(1, 64)
    heavy = QuadratureRule(slab_coords=circle.slab_coords, slab_weights=np.full(64, 1e308),
                           n=1, resolution=64)
    cases = ((sphere, lambda N: np.full(len(N), 1e308), [0.9, 0], "on slab"),
             (heavy, lambda N: np.full(len(N), 10.0), [0.5], "in the weighted sum"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for rule, f, z, where in cases:
            with pytest.raises(DomainError, match=f"^f times the kernel overflows {where}"):
                reproduce(f, z, rule)


def test_rule_refuses_factors_of_the_wrong_shape():
    e5, e3 = (np.exp(1j * TWO_PI * np.arange(m) / m) for m in (5, 3))
    bad = [((0.6 * e5[None, :], 0.8 * e3[None, :]), np.ones(1), 2),   # widths 5 and 3
           ((0.6 * e5[None, :],), np.ones(1), 2),                      # one array for n = 2
           ((0.6 * e5[None, :], 0.8 * e5[None, :]), np.ones(2), 2),    # 1 row for 2 slabs
           ((0.6 * e5, 0.8 * e5), np.ones(5), 2),                      # 1-d coordinates
           ((e5[:, None],), np.ones((5, 1)), 1)]                       # 2-d weights
    for coords, weights, n in bad:
        with pytest.raises(ValidationError):
            QuadratureRule(slab_coords=coords, slab_weights=weights, n=n, resolution=5)


def test_rule_length_read_from_its_factors():
    # a rule built directly counts the nodes its factors hold, whatever its resolution says
    e = np.exp(1j * TWO_PI * np.arange(5) / 5)
    circle = QuadratureRule(slab_coords=(e[:, None],), slab_weights=np.full(5, TWO_PI / 5),
                            n=1, resolution=7)
    sphere = sphere_quadrature(2, 6)
    slab = QuadratureRule(slab_coords=tuple(c[2:3] for c in sphere.slab_coords),
                          slab_weights=sphere.slab_weights[2:3], n=2, resolution=6)
    assert len(circle) == len(circle.nodes) == len(circle.weights) == 5
    assert np.array_equal(circle.nodes[:, 0], e)
    assert len(slab) == len(slab.nodes) == len(slab.weights) == 36
    assert np.array_equal(slab.nodes, sphere.nodes[72:108])


def test_reproduce_leaves_node_arrays_unbuilt():
    for n, res in ((1, 64), (2, 16)):
        rule = sphere_quadrature(n, res)
        assert len(rule) == res ** (2 * n - 1)
        assert rule.total_mass == res ** (2 * n - 2) * float(np.sum(rule.slab_weights))
        assert rule.total_mass == pytest.approx(TWO_PI ** n, abs=1e-12)
        reproduce(lambda N: np.real(N[:, 0]), [0.3] * n, rule)
        with pytest.raises(ValidationError):
            reproduce(lambda xi: np.real(xi[0]), [0.3] * n, rule)
        rule_to_csv(rule, io.StringIO())
        assert "nodes" not in rule.__dict__ and "weights" not in rule.__dict__
        assert rule.nodes is rule.nodes and rule.weights is rule.weights


def test_field_warning_on_one_block_changes_nothing():
    rule = sphere_quadrature(2, 64)          # 16 blocks
    z = np.array([0.3, 0.2j])
    blocks = []

    def field(nodes):
        return np.real(nodes[..., 0] * nodes[..., 1])

    def f(nodes):
        blocks.append(len(nodes))
        if len(blocks) == 3:
            warnings.warn("third block")
        return field(nodes)

    with pytest.warns(UserWarning, match="third block"):
        value = reproduce(f, z, rule)
    assert value == reproduce(field, z, rule)
    assert blocks == [16384] * 16        # one call per block of four 4,096-node slabs


def _matrix_product_reproduce(f, z, rule):
    """The formula as it was computed through nodes @ conj(z) and np.abs, and sum |terms| / (2 pi)^n."""
    om = (1.0 - float(np.vdot(z, z).real)) / np.abs(1.0 - rule.nodes @ np.conj(z)) ** 2
    terms = np.asarray(f(rule.nodes), dtype=float) * om ** rule.n * rule.weights
    return float(np.sum(terms)) / TWO_PI ** rule.n, float(np.sum(np.abs(terms))) / TWO_PI ** rule.n


def test_factor_denominators_agree_with_matrix_product(rng):
    # <xi, z> from the slab factors rounds unlike nodes @ conj(z), by at most 1e-14 of sum |terms|
    fields = {1: (lambda N: np.real(N[:, 0] ** 3), lambda N: np.imag(np.exp(N[:, 0]))),
              2: (lambda N: np.real(N[:, 0] * N[:, 1]), lambda N: np.imag(N[:, 1] ** 2) + np.real(N[:, 0]))}
    for n, resolutions in ((1, (64, 97)), (2, (16, 21))):
        points = [np.zeros(n), np.eye(n)[0] * 0.6, np.eye(n)[-1] * -0.45j]
        points += [sample_ball(rng, n, 0.9) for _ in range(3)]
        for res in resolutions:
            rule = sphere_quadrature(n, res)
            for z in points:
                for f in fields[n]:
                    old, scale = _matrix_product_reproduce(f, z, rule)
                    assert abs(reproduce(f, z, rule) - old) <= 1e-14 * scale, (n, res, z)


def test_field_returning_a_view_of_its_argument(monkeypatch):
    # the workspace is reused between blocks: a field's value may be a view of its
    # argument, which holds until reproduce has used it
    rule = sphere_quadrature(2, 16)
    seen = []

    def first_real(w):
        seen.append((w.flags.writeable, w[:, 0].flags.c_contiguous, w[:, 1].flags.c_contiguous))
        return w[:, 0].real

    field = ScalarField("re(z1)", 2)       # its value is a view of the argument too
    for size in _block_sizes(rule):
        with monkeypatch.context() as m:
            m.setattr(reproducing, "_BLOCK", size)
            for z in ([0.3, 0.2j], [-0.1 + 0.5j, 0.4]):
                copied = reproduce(lambda w: w[:, 0].real.copy(), z, rule)
                assert reproduce(first_real, z, rule) == reproduce(field.real_part, z, rule) == copied
    assert set(seen) == {(False, True, True)}


def test_circle_field_on_node_column_is_vectorised():
    # np.abs(w) ** 2 on the circle's (M, 1) nodes is (M, 1): one call, the
    # value of the reference on its column
    rule = sphere_quadrature(1, 256)
    calls = []

    def abs2(w):
        calls.append(np.shape(w))
        return np.abs(w) ** 2

    for z in (0.0, 0.3, 0.6 * np.exp(0.7j)):
        calls.clear()
        vectorised = reproduce(abs2, [z], rule)
        assert calls == [(256, 1)]
        assert vectorised == _whole_array_reproduce(lambda w: np.abs(w[:, 0]) ** 2, [z], rule)


def test_rule_arrays_are_read_only():
    rule = sphere_quadrature(2, 8)
    assert not rule.nodes.flags.writeable and not rule.weights.flags.writeable

    def doubling(nodes):
        nodes *= 2.0
        return np.real(nodes[..., 0])

    with pytest.raises(ValueError):
        reproduce(doubling, [0.1, 0.0], rule)
    assert np.array_equal(rule.nodes, sphere_quadrature(2, 8).nodes)


def test_node_factors_match_demailly_density(rng):
    dom = DomainSpec.unit_ball(2)
    rule = sphere_quadrature(2, 8)
    z = sample_ball(rng, 2, 0.6)
    for xi in rule.nodes[:: len(rule) // 10]:
        factor = abs(kernel_value(DomainSpec.unit_ball(2), xi, z).value) ** 2 * levi_density(dom, xi)
        assert factor == pytest.approx(demailly_density(dom, z, xi), abs=1e-5)


def test_riesz_square_modulus():
    # f = |w|^2: Lap f = 4; int_0^1 (-log r) 4 r dr * 2pi / 2pi = 1
    rule = sphere_quadrature(1, 64)
    dec = riesz_correction_1d(lambda w: np.abs(w) ** 2,
                              lambda w: 4.0 * np.ones_like(np.real(w)),
                              [0.0], rule)
    assert dec.boundary_term == pytest.approx(1.0, abs=1e-10)
    assert dec.correction == pytest.approx(1.0, abs=1e-6)
    assert dec.value == pytest.approx(0.0, abs=1e-6)


def test_riesz_quartic_modulus():
    # f = |w|^4: Lap f = 16 |w|^2; int_0^1 (-log r) 16 r^3 dr = 1
    rule = sphere_quadrature(1, 64)
    dec = riesz_correction_1d(lambda w: np.abs(w) ** 4,
                              lambda w: 16.0 * np.abs(w) ** 2,
                              [0.0], rule)
    assert dec.boundary_term == pytest.approx(1.0, abs=1e-10)
    assert dec.correction == pytest.approx(1.0, abs=1e-8)
    assert dec.value == pytest.approx(0.0, abs=1e-8)


def test_riesz_harmonic_no_correction():
    rule = sphere_quadrature(1, 64)
    dec = riesz_correction_1d(lambda w: np.real(w),
                              lambda w: np.zeros_like(np.real(w)),
                              [0.3], rule)
    assert dec.correction == 0.0
    assert dec.value == pytest.approx(0.3, abs=1e-9)


def test_riesz_requires_circle_rule():
    rule = sphere_quadrature(2, 8)
    with pytest.raises(ValidationError):
        riesz_correction_1d(lambda w: np.abs(w) ** 2, lambda w: 4.0, [0.0], rule)


def test_quadrature_validation():
    with pytest.raises(ValidationError):
        sphere_quadrature(3, 16)
    with pytest.raises(ValidationError):
        sphere_quadrature(2, 3)
    # at most 2^24 nodes: resolution 2^24 on the circle, 256 on the sphere of C^2
    for n, res in ((1, 2 ** 24 + 1), (1, 10 ** 11), (2, 257)):
        with pytest.raises(ValidationError, match="cap of 2"):
            sphere_quadrature(n, res)
    with pytest.raises(ValidationError, match="n in"):
        sphere_quadrature(3, 1000)
    rule = sphere_quadrature(2, 8)
    with pytest.raises(ValidationError):
        reproduce(lambda n: np.ones(len(n)), [1.2, 0.0], rule)


def _node_array_csv(rule):
    """The rule's CSV written from its node and weight arrays, the reference."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([f"{part}_z{j + 1}" for j in range(rule.n) for part in ("re", "im")]
                    + ["weight"])
    for xi, w in zip(rule.nodes, rule.weights):
        row = []
        for j in range(rule.n):
            row += [repr(float(xi[j].real)), repr(float(xi[j].imag))]
        writer.writerow(row + [repr(float(w))])
    return buf.getvalue()


def test_rule_csv_equals_node_array_csv():
    for n in (1, 2):
        for res in (6, 33):
            buf = io.StringIO()
            rule_to_csv(sphere_quadrature(n, res), buf)
            assert buf.getvalue() == _node_array_csv(sphere_quadrature(n, res)), (n, res)


def test_rule_csv_roundtrip():
    rule = sphere_quadrature(2, 6)
    buf = io.StringIO()
    rule_to_csv(rule, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "re_z1,im_z1,re_z2,im_z2,weight"
    assert len(lines) == len(rule) + 1
    first = [float(x) for x in lines[1].split(",")]
    assert first[0] == pytest.approx(float(rule.nodes[0, 0].real))
    assert first[4] == pytest.approx(float(rule.weights[0]))
    total = sum(float(line.split(",")[4]) for line in lines[1:])
    assert total == pytest.approx(rule.total_mass, rel=1e-15)
