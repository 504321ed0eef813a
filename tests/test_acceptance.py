"""Acceptance suite: one test per exit criterion, one report line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL
lines.  Two checks are expected failures, kept at their stated
tolerances rather than loosened: the published growth coefficient for
the binary m=2 constraint disagrees with the exact Fibonacci asymptote,
and the balance-term gap at n=100 falls outside the quoted bracket.
Both are documented where they are marked.
"""

import math
import time

import pytest

from dnacodes import asymptotics, blockcodes, cli, counting, oracle

CAPACITY_TABLE = {
    (2, 1): 0.0000, (2, 2): 0.6942, (2, 3): 0.8791,
    (2, 4): 0.9468, (2, 5): 0.9752, (2, 6): 0.9881,
    (4, 1): 1.5850, (4, 2): 1.9227, (4, 3): 1.9824,
    (4, 4): 1.9957, (4, 5): 1.9989, (4, 6): 1.9997,
}

COEFFICIENT_TABLE = {
    (2, 3): 1.2368, (2, 4): 1.1327, (2, 5): 1.0759, (2, 6): 1.0435,
    (4, 1): 1.3333, (4, 2): 1.1031, (4, 3): 1.0341,
    (4, 4): 1.0110, (4, 5): 1.0034, (4, 6): 1.0010,
}
COEFFICIENT_BINARY_M2_PUBLISHED = 1.4477  # inconsistent reference value, see below

ETA_TABLE = {2: 0.881, 3: 0.948, 4: 0.975, 5: 0.988, 6: 0.994, 7: 0.997}

TWO_MODE_EFFICIENCY = {  # rows n=5..10, columns m=2,3,4
    5: (0.832, 0.807, 0.802),
    6: (0.780, 0.841, 0.835),
    7: (0.817, 0.865, 0.859),
    8: (0.845, 0.883, 0.877),
    9: (0.809, 0.897, 0.891),
    10: (0.832, 0.908, 0.902),
}

STATE_INDEPENDENT_EFFICIENCY = {  # rows n=5..10, columns m=1..4
    5: (0.883, 0.832, 0.807, 0.802),
    6: (0.841, 0.867, 0.841, 0.835),
    7: (0.901, 0.892, 0.865, 0.859),
    8: (0.946, 0.910, 0.883, 0.877),
    9: (0.911, 0.925, 0.897, 0.891),
    10: (0.946, 0.936, 0.908, 0.902),
}

STATE_DEPENDENT_EFFICIENCY = {  # rows n=5..10, columns m=1..4
    5: (0.883, 0.936, 0.908, 0.902),
    6: (0.946, 0.954, 0.925, 0.919),
    7: (0.991, 0.966, 0.937, 0.931),
    8: (0.946, 0.975, 0.946, 0.940),
    9: (0.981, 0.982, 0.953, 0.946),
    10: (0.946, 0.936, 0.958, 0.952),
}

GAMMA_BINARY_TABLE = {2: 0.1708, 3: 0.3449, 4: 0.5059, 5: 0.6426, 10: 0.9565}
GAMMA_QUATERNARY_TABLE = {1: 0.5000, 2: 0.7410, 3: 0.8796, 4: 0.9497, 5: 0.9808, 10: 0.9999}


def _report(name: str, ok: bool = True, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {status}: {name}"
    if detail:
        line += f" ({detail})"
    print(line)


def test_capacity_table_reproduction():
    start = time.perf_counter()
    for (q, m), expected in CAPACITY_TABLE.items():
        got = asymptotics.capacity(q, m).capacity_bits
        assert abs(got - expected) <= 5e-5, (q, m, got, expected)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report("capacity table, 12 rows within 5e-5", detail=f"{elapsed:.3f}s")


def test_growth_coefficient_table_reproduction():
    start = time.perf_counter()
    for (q, m), expected in COEFFICIENT_TABLE.items():
        got = asymptotics.leading_coefficient(q, m)
        assert abs(got - expected) <= 5e-5, (q, m, got, expected)
    approx = asymptotics.rll_count_approx(4, 2, 10)
    assert 676835.95 <= approx <= 676836.00
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(
        "growth coefficient table (binary m=2 cell excepted, see companion test)",
        detail=f"count estimate {approx:.4f}",
    )


@pytest.mark.xfail(
    strict=True,
    reason="published value 1.4477 is inconsistent with the coefficient formula; "
    "N_2(2,n) = 2*F(n+1) forces the coefficient to 2*phi/sqrt(5) = 1.44721",
)
def test_growth_coefficient_binary_m2_published_value():
    got = asymptotics.leading_coefficient(2, 2)
    ok = abs(got - COEFFICIENT_BINARY_M2_PUBLISHED) <= 5e-5
    _report(
        "binary m=2 growth coefficient matches its published value",
        ok,
        f"computed {got:.6f}, published {COEFFICIENT_BINARY_M2_PUBLISHED}, "
        f"exact Fibonacci asymptote {2 * (1 + math.sqrt(5)) / 2 / math.sqrt(5):.6f}",
    )
    assert ok


def test_growth_coefficient_binary_m2_against_independent_oracle():
    # Independent derivation: N_2(2, n) = 2 F(n+1) exactly (checked here),
    # and F(n+1) ~ phi**(n+1)/sqrt(5), so the coefficient is 2*phi/sqrt(5).
    fib = [1, 1]
    for _ in range(20):
        fib.append(fib[-1] + fib[-2])
    for n in range(1, 20):
        assert counting.rll_count(2, 2, n) == 2 * fib[n]
    phi = (1 + math.sqrt(5)) / 2
    assert abs(asymptotics.leading_coefficient(2, 2) - 2 * phi / math.sqrt(5)) <= 5e-5
    _report("binary m=2 growth coefficient equals the exact Fibonacci asymptote")


def test_exact_counts_four_independent_paths():
    start = time.perf_counter()
    for (q, m, n), expected in {(4, 2, 10): 676836, (4, 3, 5): 996}.items():
        recurrence = counting.rll_count(q, m, n)
        gf = counting.rll_count_gf(q, m, n)
        matrix_sum = counting.weight_profile("quaternary", m, n).total()
        brute = oracle.brute_rll_count(q, m, n)
        assert recurrence == gf == matrix_sum == brute == expected
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report("exact counts agree along four independent paths", detail=f"{elapsed:.2f}s")


def test_eta_table_reproduction():
    for m, expected in ETA_TABLE.items():
        assert abs(asymptotics.efficiency_eta(m) - expected) <= 5e-4, m
    _report("rate-efficiency-limit table, 6 rows within 5e-4")


def _efficiency(block_bits: int, m: int, n: int) -> float:
    """A code's rate, block_bits source bits per n bases, over the quaternary capacity at m."""
    return block_bits / n / asymptotics.capacity(4, m).capacity_bits


def test_rate_efficiency_tables_reproduction():
    # Rates from the block-size rules; two-mode is construction2: n raw bits per block beside it.
    for n, row in TWO_MODE_EFFICIENCY.items():
        for m, expected in zip((2, 3, 4), row):
            got = _efficiency(blockcodes.two_mode_bits(2, m, n, carried_bits=n) + n, m, n)
            assert abs(got - expected) <= 5e-4, ("two-mode", m, n, got)
    for n, row in STATE_INDEPENDENT_EFFICIENCY.items():
        for m, expected in zip((1, 2, 3, 4), row):
            got = _efficiency(blockcodes.two_mode_bits(4, m, n), m, n)
            assert abs(got - expected) <= 5e-4, ("state-indep", m, n, got)
    for n, row in STATE_DEPENDENT_EFFICIENCY.items():
        for m, expected in zip((1, 2, 3, 4), row):
            got = _efficiency(blockcodes.state_dependent_bits(m, n), m, n)
            assert abs(got - expected) <= 5e-4, ("state-dep", m, n, got)
    # worked example at m=3, n=5: 0.807 / 0.807 / 0.908 and a 9/5-rate table of 747
    construction2_bits = blockcodes.two_mode_bits(2, 3, 5, carried_bits=5) + 5
    assert abs(_efficiency(construction2_bits, 3, 5) - 0.807) <= 5e-4
    assert abs(_efficiency(blockcodes.two_mode_bits(4, 3, 5), 3, 5) - 0.807) <= 5e-4
    assert abs(_efficiency(blockcodes.state_dependent_bits(3, 5), 3, 5) - 0.908) <= 5e-4
    assert 3 * counting.rll_count(4, 3, 5) // 4 == 747
    assert blockcodes.state_dependent_bits(3, 5) / 5 == pytest.approx(9 / 5)
    _report("rate-efficiency tables, all 66 entries within 5e-4; worked example reproduced")


def test_gamma_table_reproduction():
    for m, expected in GAMMA_BINARY_TABLE.items():
        assert abs(asymptotics.gamma("binary", m) - expected) <= 5e-5, m
    for m, expected in GAMMA_QUATERNARY_TABLE.items():
        assert abs(asymptotics.gamma("quaternary", m) - expected) <= 5e-5, m
    # the unconstrained row of the table: both factors tend to exactly 1
    assert abs(asymptotics.gamma("binary", 40) - 1.0) <= 5e-5
    assert abs(asymptotics.gamma("quaternary", 40) - 1.0) <= 5e-5
    _report("weight-variance factor table, 11 entries plus limit row within 5e-5")


def test_oracle_equivalence_grid():
    start = time.perf_counter()
    checked = 0
    for q in (2, 4):
        kind = "binary" if q == 2 else "quaternary"
        for m in range(1, 6):
            for n in range(1, 12):
                assert counting.rll_count(q, m, n) == counting.rll_count_gf(q, m, n)
                assert counting.rll_count(q, m, n) == oracle.brute_rll_count(q, m, n)
                profile = counting.weight_profile(kind, m, n)
                for w in range(n + 1):
                    assert profile.counts[w] == oracle.brute_weight_count(q, m, w, n), (
                        q, m, n, w,
                    )
                    checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    _report(
        "oracle equivalence on q in {2,4}, m 1..5, n 1..11, all weights",
        detail=f"{checked} weight cells, {elapsed:.1f}s",
    )


def test_gaussian_weight_approximations():
    n, w = 200, 100
    worst = 0.0
    for m in (2, 3, 4):
        model = asymptotics.gaussian_weight_model("binary", m, n)
        est = 2 ** (model.log2_total + model.log2_density(w))
        exact = counting.weight_profile("binary", m, n).counts[w]
        rel = abs(est / exact - 1)
        worst = max(worst, rel)
        assert rel < 0.05, ("binary", m, rel)
        model = asymptotics.gaussian_weight_model("quaternary", m, n)
        est = 2 ** (model.log2_total + model.log2_density(w))
        exact = counting.weight_profile("quaternary", m, n).counts[w]
        rel = abs(est / exact - 1)
        worst = max(worst, rel)
        assert rel < 0.05, ("quaternary", m, rel)
    balance_rel = abs(
        2 ** asymptotics.log2_balance_count_approx(400, 0.05)
        / counting.near_balanced_count(400, 0.05)
        - 1
    )
    assert balance_rel < 0.03
    _report(
        "Gaussian weight estimates at n=200 and the balance estimate at n=400",
        detail=f"worst run-constrained error {worst:.3f}, balance error {balance_rel:.3f}",
    )


def _balance_term_gap(n: int) -> float:
    binary = asymptotics.balance_penalty("binary", 2, 0.05, n)
    quaternary = asymptotics.balance_penalty("quaternary", 2, 0.05, n)
    return abs(binary - quaternary)


def test_balance_term_gap_n50():
    gap = _balance_term_gap(50)
    assert 0.5 <= gap <= 1.0
    _report("balance-term redundancy gap at m=2, a=0.05, n=50 in [0.5, 1]", detail=f"{gap:.3f}")


@pytest.mark.xfail(
    strict=True,
    reason="the stated 0.5-1 bit bracket does not hold at n=100: the gap computed "
    "from the published formulas is 0.384 bits (it leaves the bracket near n=75)",
)
def test_balance_term_gap_n100():
    gap = _balance_term_gap(100)
    ok = 0.5 <= gap <= 1.0
    _report("balance-term redundancy gap at m=2, a=0.05, n=100 in [0.5, 1]", ok, f"{gap:.3f}")
    assert ok


def test_codec_property_suite():
    grids = [
        ("construction2", {"m": 2, "n": 6}),
        ("state-independent", {"m": 3, "n": 5}),
        ("state-dependent", {"m": 3, "n": 5}),
        ("construction1", {"ell": 8}),
        ("construction1", {"ell": 10, "balancer": "weak-knuth", "p0": 2}),
        ("construction1", {"ell": 8, "balancer": "weak-knuth", "p0": 2}),
        ("construction2", {"m": 3, "n": 5}),
    ]
    for name, params in grids:
        report = oracle.validate_codec(name, stream_blocks=10_000, **params)
        assert report.ok, (name, report.failures[:5])
    sd = oracle.validate_codec("state-dependent", m=3, n=5, stream_blocks=50)
    assert sd.cases == 512 * 5 + 50  # every source against every state, plus the stream
    _report("codec property suite: exhaustive round-trips, constraints, 10k-block streams")


def test_weak_knuth_bound_exhaustive():
    s = math.ceil(10 / 2**2)
    bound = math.ceil(s / 2)
    from dnacodes.balancing import WeakKnuthBalancer

    balancer = WeakKnuthBalancer(10, 2)
    for value in range(2**10):
        body = balancer.encode_block(value)[4:]  # after the 2*p0 prefix digits
        assert len(body) == 10
        assert abs(2 * body.count(b"1") - 10) <= 2 * bound
    _report("weak balancing bound ceil(s/2)/n holds exhaustively at n=10, p0=2")


def test_figure_dataset_deterministic(capsys):
    args = ["figure1", "--n-min", "10", "--n-max", "120"]
    assert cli.main(args) == 0
    first = capsys.readouterr().out
    assert cli.main(args) == 0
    second = capsys.readouterr().out
    assert first == second and first.startswith("n,a,redundancy_bits\n")
    with capsys.disabled():
        _report("balance-redundancy CSV dataset regenerates byte-identically")
