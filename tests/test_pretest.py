"""Tests for pre-trends acceptance and its polyhedral form."""

import ast
import dataclasses
import importlib
import inspect
import pkgutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.stats import norm

import condid
from condid import pretest
from condid.errors import InvalidArgumentError
from condid.event_study import EstimateBundle
from condid.gaussian import CovarianceMatrix
from condid.pretest import (
    build_ns_polyhedron,
    critical_value,
    event_product,
    ns_event,
    passes_pretest,
)

from _oracles import EquicorrelatedSpec, NoMatmul, equicorrelated_matrix


def bundle_with(beta_post, beta_pre, sigma):
    return EstimateBundle(
        beta_post=beta_post, beta_pre=np.asarray(beta_pre, dtype=float), sigma=sigma
    )


def random_bundle(rng, k):
    a = rng.standard_normal((k + 1, k + 1))
    sigma = CovarianceMatrix(a @ a.T + (k + 1) * np.eye(k + 1))
    return bundle_with(rng.standard_normal(), rng.standard_normal(k) * 2.0, sigma)


class TestBuildPolyhedron:
    def test_k1_hand_computed(self):
        sigma = CovarianceMatrix([[0.016, 0.008], [0.008, 0.016]])
        con = build_ns_polyhedron(sigma, alpha=0.05)
        assert con.a_matrix.shape == (2, 2)
        np.testing.assert_array_equal(con.a_matrix[:, 0], [0.0, 0.0])
        np.testing.assert_array_equal(con.a_matrix[:, 1], [1.0, -1.0])
        # 1.959964 * sqrt(0.016) = 0.24792...
        np.testing.assert_allclose(con.b_vector, 0.24792, atol=2e-4)

    def test_k2_structure(self):
        sigma = equicorrelated_matrix(EquicorrelatedSpec(dim=3, diag=2.0, offdiag=1.0))
        con = build_ns_polyhedron(sigma, alpha=0.05)
        assert con.a_matrix.shape == (4, 3)
        np.testing.assert_array_equal(con.a_matrix[:, 0], np.zeros(4))
        np.testing.assert_array_equal(con.a_matrix[:2, 1:], np.eye(2))
        np.testing.assert_array_equal(con.a_matrix[2:, 1:], -np.eye(2))

    @pytest.mark.parametrize("k", [0, 1, 8])
    def test_ns_event_on_a_stack_is_each_polyhedron(self, k):
        # the simulator's stacked event and analyze's polyhedron agree bit
        # for bit, row by row
        rng = np.random.default_rng(k)
        bundles = [random_bundle(rng, k) for _ in range(5)]
        pre_var = np.stack([np.diag(b.sigma.entries)[1:] for b in bundles])
        a, b = ns_event(pre_var, 0.1)
        assert a.shape == (2 * k, k + 1) and b.shape == (5, 2 * k)
        for bundle, b_row in zip(bundles, b):
            con = build_ns_polyhedron(bundle.sigma, 0.1)
            assert con.a_matrix.tobytes() == a.tobytes() and con.a_matrix.shape == a.shape
            assert con.b_vector.tobytes() == b_row.tobytes()

    def test_critical_value_tracks_alpha(self):
        assert critical_value(0.05) == pytest.approx(1.959964, abs=1e-5)
        # inverse-normal oracle at alpha = 0.32
        assert critical_value(0.32) == pytest.approx(norm.ppf(0.84), abs=1e-12)
        assert critical_value(0.32) == pytest.approx(0.99446, abs=1e-4)

    def test_alpha_validation(self):
        sigma = CovarianceMatrix(np.eye(2))
        with pytest.raises(ValueError):
            build_ns_polyhedron(sigma, alpha=0.0)
        with pytest.raises(ValueError):
            build_ns_polyhedron(sigma, alpha=1.0)

    @pytest.mark.parametrize("alpha", [1e-17, 5e-324, 1.1e-16])
    def test_alpha_whose_quantile_rounds_to_one_is_rejected(self, alpha):
        # 1 - alpha/2 rounds to 1.0, whose normal quantile is infinite
        assert 1.0 - alpha / 2.0 == 1.0
        with pytest.raises(ValueError, match="level must lie strictly inside"):
            critical_value(alpha, "level")

    def test_smallest_usable_alpha_is_accepted(self):
        assert 1.0 - 1.2e-16 / 2.0 < 1.0
        assert 8.0 < critical_value(1.2e-16) < np.inf


# finite doubles, with the edges drawn on purpose: signed zeros, subnormals,
# the smallest normal and magnitudes near 1e300
EDGE_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300,
                     1.7976931348623157e308]),
)


class TestEventProduct:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), k=st.integers(1, 12), n=st.integers(1, 6))
    def test_gather_equals_the_product_on_the_pretest_event(self, data, k, n):
        a, _ = ns_event(np.ones(k), 0.05)
        x = data.draw(hnp.arrays(np.float64, (n, k + 1), elements=EDGE_FLOATS))
        got = event_product(a.view(NoMatmul), x)
        # == treats -0.0 and +0.0 as equal, the one difference allowed
        assert np.array_equal(got, x @ a.T)
        assert np.array_equal(event_product(a, x[0]), x[0] @ a.T)

    def test_other_matrices_take_the_product(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((50, 4))
        single_twos = np.array([[0.0, 2.0, 0.0, 0.0], [0.0, 0.0, 0.0, -1.0]])
        two_entries = np.array([[0.0, 1.0, -1.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
        zero_row = np.array([[0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]])
        sums_to_one = np.array([[0.0, 2.0, -1.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
        for a in (rng.standard_normal((6, 4)), single_twos, two_entries, zero_row, sums_to_one):
            assert event_product(a, x).tobytes() == (x @ a.T).tobytes()
            with pytest.raises(AssertionError, match="np.matmul reached"):
                event_product(a.view(NoMatmul), x)

    def test_non_finite_stacks_take_the_product(self):
        # inf * 0 is NaN: the product makes every row of a non-finite stack
        # NaN, so no raw array passes holds_at; a bundle refuses such a
        # coefficient before any verdict
        a, _ = ns_event(np.ones(2), 0.05)
        sigma = CovarianceMatrix(np.eye(3))
        for bad in (np.inf, -np.inf, np.nan):
            x = np.array([[bad, 0.5, -0.5], [1.0, 0.5, -0.5]])
            with np.errstate(invalid="ignore"):
                np.testing.assert_array_equal(event_product(a, x), x @ a.T)
                assert np.isnan(event_product(a, x)[0]).all()
            with pytest.raises(InvalidArgumentError, match="beta_post must be finite"):
                bundle_with(bad, [0.5, -0.5], sigma)

    def test_integer_stacks_give_doubles(self):
        a, _ = ns_event(np.ones(2), 0.05)
        got = event_product(a, np.array([[3, -1, 2]]))
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, [[-1.0, 2.0, 1.0, -2.0]])


class TestPassesPretest:
    def setup_method(self):
        self.sigma = equicorrelated_matrix(EquicorrelatedSpec(dim=3, diag=0.016, offdiag=0.008))
        self.sd = np.sqrt(0.016)

    def test_zero_pre_coefficients_pass(self):
        assert passes_pretest(bundle_with(1.0, [0.0, 0.0], self.sigma))

    def test_boundary_counts_as_pass(self):
        c = critical_value(0.05)
        b = bundle_with(0.0, [c * self.sd, 0.0], self.sigma)
        assert passes_pretest(b)

    def test_exceeding_coefficient_fails(self):
        b = bundle_with(0.0, [2.5 * self.sd, 0.0], self.sigma)
        assert not passes_pretest(b)

    def test_one_ulp_beyond_the_boundary_fails(self):
        # the verdict has no slack, unlike holds_at's default
        bound = build_ns_polyhedron(self.sigma, 0.05).b_vector[0]
        for sign in (1.0, -1.0):
            b = bundle_with(0.0, [sign * np.nextafter(bound, np.inf), 0.0], self.sigma)
            assert not passes_pretest(b)
            assert passes_pretest(bundle_with(0.0, [sign * bound, 0.0], self.sigma))

    def test_agrees_with_polyhedron_on_random_bundles(self):
        rng = np.random.default_rng(1234)
        n_checked = 0
        for _ in range(10_000):
            k = int(rng.integers(1, 5))
            bundle = random_bundle(rng, k)
            con = build_ns_polyhedron(bundle.sigma, alpha=0.05)
            assert passes_pretest(bundle, 0.05) == con.holds_at(bundle.beta)
            # the rule as stated: every |beta_j| within c times its own se
            pre_sd = np.sqrt(np.diag(bundle.sigma.entries)[1:])
            direct = np.all(np.abs(bundle.beta_pre) <= critical_value(0.05) * pre_sd)
            assert passes_pretest(bundle, 0.05) == direct
            n_checked += 1
        assert n_checked == 10_000


class TestAcceptanceProbability:
    """Acceptance rates under the trend DGP match the published column."""

    @pytest.mark.parametrize("k,published", [(1, 0.920), (4, 0.352)])
    def test_trend_dgp_acceptance(self, k, published):
        rng = np.random.default_rng(777)
        n = 100_000
        v = 2.0 / 250.0  # per-period difference-in-means variance at sigma=1, N=250
        slope = 0.065
        # draw difference-in-means directly and difference against period 0
        t_vals = np.concatenate(([1, 0], -np.arange(1, k + 1)))
        delta = rng.standard_normal((n, k + 2)) * np.sqrt(v) + slope * t_vals
        beta_pre = delta[:, 2:] - delta[:, [1]]
        sd = np.sqrt(2.0 * v)
        c = critical_value(0.05)
        accept = np.all(np.abs(beta_pre) <= c * sd, axis=1)
        assert accept.mean() == pytest.approx(published, abs=0.01)


def _is_alpha(name) -> bool:
    return isinstance(name, str) and "alpha" in name.lower()


def _significance_literals(tree, signatures) -> list[int]:
    """Lines where ``tree`` writes 0.05 as a significance level: an
    alpha-named default, keyword or assignment target, or a positional
    argument that an alpha-named parameter of a condid function takes
    (``signatures`` maps each function's name to its parameter names)."""
    def is_level(node):
        return isinstance(node, ast.Constant) and node.value == 0.05

    lines = []
    for node in ast.walk(tree):
        pairs = []  # (name, value) of each place a value meets a name
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            positional = args.posonlyargs + args.args
            pairs += zip((a.arg for a in positional[len(positional) - len(args.defaults):]),
                         args.defaults)
            pairs += zip((a.arg for a in args.kwonlyargs), args.kw_defaults)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            pairs += ((getattr(t, "id", getattr(t, "attr", None)), node.value) for t in targets)
        elif isinstance(node, ast.Call):
            callee = getattr(node.func, "id", getattr(node.func, "attr", None))
            pairs += zip(signatures.get(callee, ()), node.args)
            pairs += ((k.arg, k.value) for k in node.keywords)
        lines += [value.lineno for name, value in pairs if _is_alpha(name) and is_level(value)]
    return lines


def test_every_significance_default_is_the_pretest_constant():
    # identity, not equality: a literal 0.05 elsewhere is another object.
    # Only pretest's ALPHA may write 0.05 as a significance level in the
    # code; the number may stand for other things, such as a width
    modules = [importlib.import_module(f"condid.{info.name}")
               for info in pkgutil.iter_modules(condid.__path__)]
    signatures = {name: list(inspect.signature(obj).parameters)
                  for module in modules for name, obj in vars(module).items()
                  if inspect.isfunction(obj) and obj.__module__.startswith("condid.")}
    assert _is_alpha(signatures["critical_value"][0])
    defaults = {}
    for module in modules:
        short = module.__name__.removeprefix("condid.")
        with open(module.__file__, encoding="utf-8") as fh:
            lines = _significance_literals(ast.parse(fh.read()), signatures)
        assert len(lines) == (module is pretest), (short, lines)
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if dataclasses.is_dataclass(obj):
                params = {f.name: f.default for f in dataclasses.fields(obj)}
            elif inspect.isfunction(obj):
                params = {p.name: p.default for p in inspect.signature(obj).parameters.values()}
            else:
                continue
            for param, default in params.items():
                if param.startswith("alpha") and isinstance(default, float):
                    defaults[f"{short}.{name}({param})"] = default
    assert sorted(defaults) == [
        "estimators.analyze(alpha_ci)", "estimators.analyze(alpha_pretest)",
        "estimators.conditional_ci(alpha)", "pretest.build_ns_polyhedron(alpha)",
        "pretest.passes_pretest(alpha)", "simulation.SimConfig(alpha_ci)",
        "simulation.SimConfig(alpha_pretest)",
    ]
    assert all(default is pretest.ALPHA for default in defaults.values()), defaults
    assert pretest.ALPHA == 0.05
