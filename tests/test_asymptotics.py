import math
import random
from fractions import Fraction

import pytest

from dnacodes import asymptotics, counting


class TestCapacity:
    @pytest.mark.parametrize(
        "q,m,expected",
        [(4, 1, math.log2(3)), (2, 2, 0.6942), (4, 6, 1.9997), (2, 1, 0.0)],
    )
    def test_reference_values(self, q, m, expected):
        assert asymptotics.capacity(q, m).capacity_bits == pytest.approx(expected, abs=5e-5)

    def test_golden_ratio_root(self):
        assert asymptotics.capacity(2, 2).lam == pytest.approx((1 + math.sqrt(5)) / 2, abs=1e-14)

    @pytest.mark.parametrize("q", (2, 4))
    @pytest.mark.parametrize("m", range(1, 10))
    def test_residuals(self, q, m):
        assert asymptotics.capacity(q, m).residual < 1e-10

    def test_residual_float_floor(self):
        # At q=4, m=10 the derivative of the unscaled characteristic
        # polynomial is ~1e6, so its value at a double-precision root was
        # about 2.5e-10; the residual divided by lam**m stays far below.
        assert asymptotics.capacity(4, 10).residual < 4e-10

    @pytest.mark.parametrize("q", (2, 4))
    def test_residual_scale_free_up_to_m_1000(self, q):
        # Once the root rounds to within ulps of q (m >= 26 for q = 4), the
        # unscaled polynomial reads about q - 1 even for a correct root.
        residuals = [asymptotics.capacity(q, m).residual for m in range(2, 1001)]
        assert max(residuals) < 1e-10

    @pytest.mark.parametrize("m", (100000, 10**9, 10**12))
    def test_residual_past_the_float_range(self, m):
        # Answered in constant time: q**m is never built exactly.
        result = asymptotics.capacity(4, m)
        assert result.lam == 4.0
        assert result.residual < 1e-10

    @pytest.mark.parametrize("q", (2, 4))
    def test_monotone_in_m(self, q):
        caps = [asymptotics.capacity(q, m).capacity_bits for m in range(1, 11)]
        assert all(a < b for a, b in zip(caps, caps[1:]))

    def test_monotone_in_q(self):
        for m in range(1, 11):
            assert asymptotics.capacity(2, m).capacity_bits < asymptotics.capacity(4, m).capacity_bits

    def test_root_bracket(self):
        for q, m in [(2, 3), (4, 5)]:
            lam = asymptotics.capacity(q, m).lam
            assert q - 1 < lam < q

    @pytest.mark.parametrize("q", (2, 3, 4, 7, 16, 10**6))
    def test_char_residual_matches_fraction_reference(self, q):
        rng = random.Random(q)
        points = [float(q - 1), float(q), 1.0, asymptotics.capacity(q, 2).lam]
        points += [rng.uniform(1.0, q + 1.0) for _ in range(30)]
        for m in (1, 2, 3, 5, 10, 39, 100):
            for x in points:
                fx = Fraction(x)
                expected = float(fx - q + (q - 1) / fx**m)
                assert asymptotics._char_residual(q, m, x).hex() == expected.hex()

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            asymptotics.capacity(1, 2)
        with pytest.raises(ValueError):
            asymptotics.capacity(4, 0)


class TestLeadingCoefficient:
    def test_exact_m1(self):
        assert asymptotics.leading_coefficient(4, 1) == pytest.approx(4 / 3, abs=1e-12)

    def test_fibonacci_asymptote(self):
        # N_2(2, n) = 2 F(n+1), so the coefficient is exactly 2*phi/sqrt(5).
        phi = (1 + math.sqrt(5)) / 2
        assert asymptotics.leading_coefficient(2, 2) == pytest.approx(
            2 * phi / math.sqrt(5), abs=1e-10
        )

    @pytest.mark.parametrize("q,m,expected", [(2, 3, 1.2368), (4, 2, 1.1031), (4, 4, 1.0110)])
    def test_reference_values(self, q, m, expected):
        assert asymptotics.leading_coefficient(q, m) == pytest.approx(expected, abs=5e-5)

    def test_approximation_quality(self):
        approx = asymptotics.rll_count_approx(4, 2, 10)
        assert 676835.95 <= approx <= 676836.00

    def test_exact_for_m1(self):
        assert asymptotics.rll_count_approx(4, 1, 6) == pytest.approx(972, rel=1e-12)

    @pytest.mark.parametrize("q", (2, 4))
    @pytest.mark.parametrize("m", (2, 3, 4, 5))
    def test_relative_error_at_n20(self, q, m):
        exact = counting.rll_count(q, m, 20)
        assert abs(asymptotics.rll_count_approx(q, m, 20) / exact - 1) < 1e-3


@pytest.mark.parametrize(
    "formula",
    [
        lambda m: asymptotics.capacity(2, m)[2:],
        lambda m: asymptotics.capacity(4, m)[2:],
        lambda m: asymptotics.leading_coefficient(2, m),
        lambda m: asymptotics.leading_coefficient(4, m),
        lambda m: asymptotics.gamma("binary", m),
        lambda m: asymptotics.gamma("quaternary", m),
        asymptotics.efficiency_eta,
    ],
    ids=["C_2", "C_4", "A_2", "A_4", "gamma_binary", "gamma_quaternary", "eta"],
)
def test_run_sums_past_the_float_range(formula):
    # Every term past m = 2000 underflows to 0.0, so a larger m, even one
    # beyond the float range, answers at once and as m = 2000 does.
    for m in (10**12, 10**400):
        assert formula(m) == formula(2000)


class TestRedundancy:
    def test_exact_quaternary(self):
        assert asymptotics.rll_redundancy(4, 3, 5) == pytest.approx(10 - math.log2(996))

    def test_asymptotic_slope(self):
        r100 = asymptotics.rll_redundancy(2, 2, 100, "asymptotic")
        r101 = asymptotics.rll_redundancy(2, 2, 101, "asymptotic")
        assert r101 - r100 == pytest.approx(1 - 0.6942, abs=5e-5)

    def test_modes_agree_at_n50(self):
        for q in (2, 4):
            exact = asymptotics.rll_redundancy(q, 3, 50, "exact")
            asym = asymptotics.rll_redundancy(q, 3, 50, "asymptotic")
            assert abs(exact - asym) < 0.02

    def test_bad_q(self):
        with pytest.raises(ValueError):
            asymptotics.rll_redundancy(3, 2, 10)

    def test_exact_form_keeps_the_empty_word(self):
        # only the asymptotic form refuses n < 1; one empty word means no redundancy
        assert asymptotics.rll_redundancy(4, 3, 0, "exact") == 0.0


class TestEta:
    @pytest.mark.parametrize("m,expected", [(2, 0.881), (4, 0.975), (7, 0.997)])
    def test_reference_values(self, m, expected):
        assert asymptotics.efficiency_eta(m) == pytest.approx(expected, abs=5e-4)

    def test_range(self):
        for m in range(2, 9):
            assert 0 < asymptotics.efficiency_eta(m) <= 1

    def test_m1_rejected(self):
        with pytest.raises(ValueError):
            asymptotics.efficiency_eta(1)


class TestGamma:
    @pytest.mark.parametrize("m,expected", [(2, 0.1708), (10, 0.9565)])
    def test_binary_reference(self, m, expected):
        assert asymptotics.gamma("binary", m) == pytest.approx(expected, abs=5e-5)

    @pytest.mark.parametrize("m,expected", [(1, 0.5), (3, 0.8796), (10, 0.9999)])
    def test_quaternary_reference(self, m, expected):
        assert asymptotics.gamma("quaternary", m) == pytest.approx(expected, abs=5e-5)

    def test_limits(self):
        assert asymptotics.gamma("binary", 40) == pytest.approx(1.0, abs=5e-5)
        assert asymptotics.gamma("quaternary", 40) == pytest.approx(1.0, abs=5e-5)

    def test_binary_m1_rejected(self):
        with pytest.raises(ValueError, match="the binary variance factor needs m >= 2"):
            asymptotics.gamma("binary", 1)

    def test_quaternary_monotone(self):
        gammas = [asymptotics.gamma("quaternary", m) for m in range(1, 11)]
        assert all(a < b for a, b in zip(gammas, gammas[1:]))
        assert gammas[-1] < 1

    @pytest.mark.parametrize("kind", ["binary", "quaternary"])
    def test_closed_form_matches_the_block_length_series(self, kind):
        # A block of k weighted symbols (1s, or A and T) has probability
        # N_{q/2}(m, k) * lam**-k: one arrangement if k <= m for binary,
        # the binary max-run-m count for quaternary.  The series is summed
        # to k = 200, past which its terms are below 1e-30.
        q = counting.ALPHABET_OF_KIND[kind]
        for m in range(2 if q == 2 else 1, 12):
            y = 1.0 / asymptotics.capacity(q, m).lam
            blocks = (int(k <= m) if q == 2 else counting.rll_count(2, m, k) for k in range(1, 201))
            probs = [(k, count * y**k) for k, count in enumerate(blocks, start=1)]
            mass = sum(p for _, p in probs)
            assert mass == pytest.approx(1.0, abs=1e-13)
            mean = sum(k * p for k, p in probs) / mass
            assert 1 <= mean <= 2
            variance = sum((k - mean) ** 2 * p for k, p in probs) / mass
            assert asymptotics.gamma(kind, m) == pytest.approx(variance / mean, abs=1e-13), m


class TestGaussianModels:
    def test_q_function_symmetry(self):
        assert asymptotics.q_function(0) == pytest.approx(0.5, abs=1e-15)
        for x in (0.5, 1.0, 2.0):
            assert asymptotics.q_function(x) + asymptotics.q_function(-x) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_balance_model_midpoint(self):
        model = asymptotics.gaussian_weight_model("quaternary", None, 100)
        est = 2 ** (model.log2_total + model.log2_density(50))
        exact = counting.weight_profile("quaternary", None, 100).counts[50]
        assert abs(est / exact - 1) < 0.02

    def test_density_integrates_to_one(self):
        model = asymptotics.gaussian_weight_model("quaternary", None, 64)
        total = sum(2 ** model.log2_density(w) for w in range(-100, 165))
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_binary_model_n200(self):
        model = asymptotics.gaussian_weight_model("binary", 3, 200)
        est = 2 ** (model.log2_total + model.log2_density(100))
        exact = counting.weight_profile("binary", 3, 200).counts[100]
        assert abs(est / exact - 1) < 0.05

    def test_quaternary_model_n200(self):
        model = asymptotics.gaussian_weight_model("quaternary", 2, 200)
        est = 2 ** (model.log2_total + model.log2_density(100))
        exact = counting.weight_profile("quaternary", 2, 200).counts[100]
        assert abs(est / exact - 1) < 0.05

    def test_plain_variance_variant_exposed(self):
        # the run-adjusted variance is smaller than the plain n/4 one and
        # fits the exact midpoint count better
        adjusted = asymptotics.gaussian_weight_model("quaternary", 2, 200)
        plain = adjusted._replace(variance=200 / 4)
        assert adjusted.variance < plain.variance
        exact = counting.weight_profile("quaternary", 2, 200).counts[100]
        assert abs(2 ** (adjusted.log2_total + adjusted.log2_density(100)) / exact - 1) < abs(
            2 ** (plain.log2_total + plain.log2_density(100)) / exact - 1
        )

    def test_near_balanced_approximation(self):
        est = 2 ** asymptotics.log2_balance_count_approx(400, 0.05)
        exact = counting.near_balanced_count(400, 0.05)
        assert abs(est / exact - 1) < 0.03

    @pytest.mark.parametrize("kind,m", [
        ("binary", None), ("binary", 2), ("binary", 3),
        ("quaternary", None), ("quaternary", 2), ("quaternary", 3),
    ])
    @pytest.mark.parametrize("n", [1, 8, 64, 200])
    def test_models_pair_with_their_profiles(self, kind, m, n):
        # each model takes the arguments of the exact row it approximates
        model = asymptotics.gaussian_weight_model(kind, m, n)
        total = counting.weight_profile(kind, m, n).total()
        assert model.log2_total == pytest.approx(math.log2(total), rel=1e-12)
        assert model.mean == n / 2

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            asymptotics.gaussian_weight_model("ternary", 2, 10)


HUGE = 10**400  # beyond the float range
BEYOND = f"length n={HUGE} is beyond the float range"


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: counting.weight_profile("ternary", 2, 4), "unknown kind 'ternary'"),
        (lambda: asymptotics.combined_redundancy("ternary", 3, 0.1, 10),
         "unknown kind 'ternary'"),
        (lambda: asymptotics.combined_redundancy("ternary", 3, 0.1, 10, "exact"),
         "unknown kind 'ternary'"),
        (lambda: asymptotics.balance_penalty("ternary", 3, 0.1, 10), "unknown kind 'ternary'"),
        (lambda: asymptotics.gaussian_weight_model("ternary-rll", 3, 10),
         "unknown kind 'ternary-rll'"),
        (lambda: asymptotics.gaussian_weight_model("binary-rll", 3, 10),
         "unknown kind 'binary-rll'"),
        (lambda: asymptotics.rll_redundancy(4, 3, 0, "asymptotic"), "length must be at least 1"),
        (lambda: asymptotics.rll_redundancy(4, 3, -5, "asymptotic"), "length must be at least 1"),
        (lambda: asymptotics.balance_penalty("quaternary", 3, 0.1, 0),
         "length must be at least 1"),
        (lambda: asymptotics.combined_redundancy("binary", 3, 0.1, -2),
         "length must be at least 1"),
        (lambda: asymptotics.gamma("ternary", 3), "unknown kind 'ternary'"),
        (lambda: counting.weight_profile("binary", 0, 4), "maximum run must be at least 1"),
        (lambda: counting.weight_profile("quaternary", 2, 0), "length must be at least 1"),
        (lambda: asymptotics.rll_redundancy(4, 3, HUGE, "asymptotic"), BEYOND),
        (lambda: asymptotics.combined_redundancy("quaternary", 3, 0.1, HUGE), BEYOND),
        (lambda: asymptotics.balance_penalty("binary", 3, 0.1, HUGE), BEYOND),
        (lambda: asymptotics.log2_balance_count_approx(HUGE, 0.1), BEYOND),
        (lambda: asymptotics.gaussian_weight_model("quaternary", None, HUGE), BEYOND),
        (lambda: asymptotics.gaussian_weight_model("binary", 3, HUGE), BEYOND),
    ],
    ids=[
        "profile-kind", "combined-kind", "combined-exact-kind", "penalty-kind", "model-kind",
        "model-kind-with-rll", "asymptotic-runlength-length-0", "asymptotic-runlength-length-neg",
        "penalty-length-0", "combined-length-neg", "gamma-kind", "binary-run",
        "quaternary-length", "asymptotic-runlength-huge-length", "combined-huge-length",
        "penalty-huge-length", "balance-count-huge-length", "model-huge-length",
        "model-with-rll-huge-length",
    ],
)
def test_family_refusal_texts(call, message):
    with pytest.raises(ValueError) as refused:
        call()
    assert str(refused.value) == message


def _float_balance_count(n, a):
    """The former float-domain estimate, valid while 4**n fits a float."""
    return float(4**n) * (1.0 - 2.0 * asymptotics.q_function(2.0 * a * math.sqrt(n)))


def _float_estimate(kind, m, w, n):
    """The former float-domain Gaussian estimate: total * density."""
    model = asymptotics.gaussian_weight_model(kind, m, n)
    q = counting.ALPHABET_OF_KIND[kind]
    total = float(q**n if m is None else counting.rll_count(q, m, n))
    z = (w - model.mean) / math.sqrt(model.variance)
    return total * math.exp(-0.5 * z * z) / math.sqrt(2 * math.pi * model.variance)


MODEL_KINDS = [("quaternary", None), ("binary", 3), ("quaternary", 3)]


class TestLargeLengths:
    @pytest.mark.parametrize("n", [600, 1000])
    def test_balance_count_stays_finite_in_log2(self, n):
        log2_count = asymptotics.log2_balance_count_approx(n, 0.05)
        assert math.isfinite(log2_count)
        assert 2 * n - 1 < log2_count < 2 * n

    @pytest.mark.parametrize("n", [600, 1000])
    @pytest.mark.parametrize("kind,m", MODEL_KINDS)
    def test_gaussian_models_stay_finite_in_log2(self, kind, m, n):
        model = asymptotics.gaussian_weight_model(kind, m, n)
        assert math.isfinite(model.log2_total)
        assert math.isfinite(model.log2_total + model.log2_density(n // 2))
        assert math.isfinite(model.log2_density(n // 2))

    @pytest.mark.parametrize("q,m,n", [(4, 3, 600), (2, 2, 2000), (4, 3, 10**6)])
    def test_rll_count_approx_reads_inf_past_the_float_range(self, q, m, n):
        assert asymptotics.rll_count_approx(q, m, n) == math.inf

    def test_rll_count_approx_in_range_is_the_plain_product(self):
        # near the float limit the value is still A * lam**n, not read back through log2
        expected = asymptotics.leading_coefficient(4, 3) * asymptotics.capacity(4, 3).lam ** 500
        assert math.isfinite(expected)
        assert asymptotics.rll_count_approx(4, 3, 500).hex() == expected.hex()

    @pytest.mark.parametrize("n", [1, 10, 100, 300, 511])
    @pytest.mark.parametrize("a", [0.01, 0.05, 0.15])
    def test_balance_count_agrees_with_float_form(self, n, a):
        old = _float_balance_count(n, a)
        assert asymptotics.log2_balance_count_approx(n, a) == pytest.approx(
            math.log2(old), rel=1e-9
        )

    @pytest.mark.parametrize("n", [10, 100, 300, 500])
    @pytest.mark.parametrize("kind,m", MODEL_KINDS)
    def test_gaussian_estimates_agree_with_float_form(self, kind, m, n):
        model = asymptotics.gaussian_weight_model(kind, m, n)
        for w in (n // 2, n // 3):
            old = _float_estimate(kind, m, w, n)
            estimate = model.log2_total + model.log2_density(w)
            assert estimate == pytest.approx(math.log2(old), rel=1e-9)


class TestCombinedRedundancy:
    def test_balance_term_vanishes_for_loose_bound(self):
        assert asymptotics.balance_penalty("binary", 2, 0.5, 400) == pytest.approx(0, abs=1e-9)

    def test_exact_vs_asymptotic(self):
        for kind in ("binary", "quaternary"):
            exact = asymptotics.combined_redundancy(kind, 3, 0.05, 150, "exact")
            asym = asymptotics.combined_redundancy(kind, 3, 0.05, 150, "asymptotic")
            assert abs(exact - asym) < 0.1

    def test_binary_m1_rejected(self):
        with pytest.raises(ValueError):
            asymptotics.combined_redundancy("binary", 1, 0.05, 50)

    def test_undefined_penalty(self):
        # the admitted probability rounds to zero for a degenerate bound
        with pytest.raises(ValueError):
            asymptotics.balance_penalty("binary", 2, 1e-18, 4)
