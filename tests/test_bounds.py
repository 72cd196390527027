import json
import math
from dataclasses import asdict, replace
from pathlib import Path

import mpmath
import numpy as np
import pytest

from metamargin.bounds import (
    BoundInputs,
    InfeasibleError,
    constants_c1_c2,
    covering_transfer_bound,
    gaussian_transfer_bound,
    kway_sshot_complexity_term,
    sample_efficiency_min_m,
    surrogate_multimargin_bound,
    vc_transfer_bound,
)
from metamargin.harness import ExperimentConfig


INPUTS = BoundInputs(k=5, rho=1.0, delta=0.1, m=100, n=50, v=17, b=1.0)


def mp_constants(b, c0):
    mpmath.mp.dps = 50
    lead = 24 * mpmath.sqrt(2 * mpmath.pi) * b
    root = mpmath.sqrt(mpmath.log(16 * mpmath.e))
    c1 = lead * (1 + root + 2 * mpmath.sqrt(2))
    c2 = lead * (mpmath.sqrt(mpmath.log(c0)) + root)
    return c1, c2


class TestConstants:
    def test_high_precision_oracle(self):
        c1, c2 = constants_c1_c2(1.0, math.e)
        mp_c1, mp_c2 = mp_constants(1, mpmath.e)
        assert abs(c1 - float(mp_c1)) / float(mp_c1) < 1e-9
        assert abs(c2 - float(mp_c2)) / float(mp_c2) < 1e-9
        # headline values
        assert c1 == pytest.approx(347.17, abs=0.01)
        assert c2 == pytest.approx(177.01, abs=0.01)

    def test_linear_in_b(self):
        c1_1, c2_1 = constants_c1_c2(1.0)
        c1_2, c2_2 = constants_c1_c2(2.0)
        assert c1_2 == 2.0 * c1_1 and c2_2 == 2.0 * c2_1

    def test_c0_below_one_rejected(self):
        with pytest.raises(ValueError, match="C0"):
            constants_c1_c2(1.0, 0.5)


class TestBoundInputs:
    def test_validation(self):
        with pytest.raises(ValueError):
            BoundInputs(k=1, rho=1.0, delta=0.1, m=10, n=10, v=1, b=1.0)
        with pytest.raises(ValueError):
            BoundInputs(k=2, rho=1.0, delta=1.5, m=10, n=10, v=1, b=1.0)
        with pytest.raises(ValueError):
            BoundInputs(k=2, rho=1.0, delta=0.1, m=10, n=10, v=1, b=1.0, c0=0.9)

    def test_json_roundtrip(self):
        path = Path(__file__).resolve().parent.parent / "configs" / "default.json"
        config = replace(ExperimentConfig.from_json(json.loads(path.read_text())), bound=INPUTS)
        assert ExperimentConfig.from_json(json.loads(json.dumps(asdict(config)))).bound == INPUTS


class TestVcTransferBound:
    def test_vanishing_terms_at_large_m_n(self):
        # at m = n = 1e12 the non-empirical terms shrink to ~0.016
        big = BoundInputs(k=5, rho=1.0, delta=0.1, m=int(1e12), n=int(1e12), v=17, b=1.0)
        report = vc_transfer_bound(big, 0.37)
        assert report.total > 0.37
        assert report.total == pytest.approx(0.37, abs=0.02)
        bigger = BoundInputs(k=5, rho=1.0, delta=0.1, m=int(1e18), n=int(1e18), v=17, b=1.0)
        assert vc_transfer_bound(bigger, 0.37).total == pytest.approx(0.37, abs=2e-5)

    def test_monotone_in_n_and_m(self):
        totals_n = [vc_transfer_bound(
            BoundInputs(k=5, rho=1.0, delta=0.1, m=100, n=n, v=17, b=1.0), 0.1).total
            for n in (10, 50, 200, 1000)]
        assert all(a > b for a, b in zip(totals_n, totals_n[1:]))
        totals_m = [vc_transfer_bound(
            BoundInputs(k=5, rho=1.0, delta=0.1, m=m, n=50, v=17, b=1.0), 0.1).total
            for m in (10, 100, 1000)]
        assert all(a > b for a, b in zip(totals_m, totals_m[1:]))

    def test_spreadsheet_cross_check(self):
        # independent high-precision re-evaluation of the whole formula
        mpmath.mp.dps = 50
        report = vc_transfer_bound(INPUTS, 0.1)
        c1, c2 = mp_constants(1, mpmath.e)
        rate = 5 / mpmath.sqrt(100) + 5 / mpmath.sqrt(50)
        expected = (mpmath.mpf("0.1") + mpmath.sqrt(mpmath.log(10) / 100)
                    + rate * (c1 * mpmath.sqrt(17) + c2))
        assert abs(report.total - float(expected)) / float(expected) < 1e-9

    def test_avg_loss_range_enforced(self):
        with pytest.raises(ValueError):
            vc_transfer_bound(INPUTS, 1.2)

    def test_monotonicity_grid(self):
        # 200 random parameter points: total decreasing in n, m, rho and
        # increasing in k, v, b
        rng = np.random.default_rng(17)
        for _ in range(200):
            kw = dict(
                k=int(rng.integers(2, 12)),
                rho=float(rng.uniform(0.1, 5.0)),
                delta=float(rng.uniform(0.01, 0.5)),
                m=int(rng.integers(2, 10_000)),
                n=int(rng.integers(2, 10_000)),
                v=int(rng.integers(1, 100)),
                b=float(rng.uniform(0.1, 10.0)),
            )
            avg = float(rng.uniform(0, 1))
            base = vc_transfer_bound(BoundInputs(**kw), avg).total
            assert vc_transfer_bound(BoundInputs(**{**kw, "n": kw["n"] * 2}), avg).total < base
            assert vc_transfer_bound(BoundInputs(**{**kw, "m": kw["m"] * 2}), avg).total < base
            assert vc_transfer_bound(BoundInputs(**{**kw, "rho": kw["rho"] * 2}), avg).total < base
            assert vc_transfer_bound(BoundInputs(**{**kw, "k": kw["k"] + 1}), avg).total > base
            assert vc_transfer_bound(BoundInputs(**{**kw, "v": kw["v"] + 1}), avg).total > base
            assert vc_transfer_bound(BoundInputs(**{**kw, "b": kw["b"] * 2}), avg).total > base


class TestReportStructure:
    def test_decomposition_sums_to_total(self):
        for report in (
            vc_transfer_bound(INPUTS, 0.3),
            gaussian_transfer_bound(INPUTS, 0.3, 0.02, 0.05),
            covering_transfer_bound(INPUTS, 0.3, 0.4, 0.6),
            surrogate_multimargin_bound(INPUTS, 0.2),
        ):
            assert abs(report.total - (report.empirical_term + report.confidence_term
                                       + report.complexity_term)) <= 1e-12
            assert report.confidence_term >= 0 and report.complexity_term >= 0

    def test_vacuous_flag(self):
        tight = BoundInputs(k=2, rho=10.0, delta=0.1, m=int(1e12), n=int(1e12), v=1, b=1.0)
        assert not vc_transfer_bound(tight, 0.1).vacuous
        assert vc_transfer_bound(INPUTS, 0.1).vacuous

    def test_json_field_names(self):
        data = asdict(vc_transfer_bound(INPUTS, 0.1))
        assert set(data) == {"empirical_term", "confidence_term", "complexity_term",
                             "total", "kind", "vacuous"}
        assert data["kind"] == "vc"


class TestGaussianTransferBound:
    def test_zero_gammas(self):
        report = gaussian_transfer_bound(INPUTS, 0.3, 0.0, 0.0)
        assert report.total == pytest.approx(0.3 + math.sqrt(math.log(10.0) / 100.0), abs=1e-15)

    def test_linear_in_each_gamma(self):
        base = gaussian_transfer_bound(INPUTS, 0.0, 0.0, 0.0).complexity_term
        gm = gaussian_transfer_bound(INPUTS, 0.0, 0.01, 0.0).complexity_term
        gt = gaussian_transfer_bound(INPUTS, 0.0, 0.0, 0.01).complexity_term
        both = gaussian_transfer_bound(INPUTS, 0.0, 0.01, 0.01).complexity_term
        assert base == 0.0
        assert both == pytest.approx(gm + gt, rel=1e-12)
        assert gaussian_transfer_bound(INPUTS, 0.0, 0.02, 0.0).complexity_term == pytest.approx(2 * gm, rel=1e-12)
        # coefficients straight from the statement
        assert gm == pytest.approx(5 * math.sqrt(2 * 100 * math.pi) * 0.01, rel=1e-12)
        assert gt == pytest.approx(5 * math.sqrt(2 * math.pi) * 0.01, rel=1e-12)

    def test_negative_gamma_rejected(self):
        with pytest.raises(ValueError):
            gaussian_transfer_bound(INPUTS, 0.1, -0.1, 0.0)


class TestCoveringTransferBound:
    def test_zero_integrals(self):
        report = covering_transfer_bound(INPUTS, 0.2, 0.0, 0.0)
        assert report.complexity_term == 0.0
        assert report.total == pytest.approx(0.2 + report.confidence_term, abs=1e-15)

    def test_linear_in_each_integral(self):
        em = covering_transfer_bound(INPUTS, 0.0, 0.5, 0.0).complexity_term
        et = covering_transfer_bound(INPUTS, 0.0, 0.0, 0.5).complexity_term
        both = covering_transfer_bound(INPUTS, 0.0, 0.5, 0.5).complexity_term
        assert both == pytest.approx(em + et, rel=1e-12)
        assert em == pytest.approx(24 * 5 * math.sqrt(2 * math.pi) / math.sqrt(50) * 0.5, rel=1e-12)
        assert et == pytest.approx(24 * 5 * math.sqrt(2 * math.pi) / math.sqrt(100) * 0.5, rel=1e-12)


class TestSurrogateBound:
    def test_zero_loss_matches_vc(self):
        assert surrogate_multimargin_bound(INPUTS, 0.0).total == vc_transfer_bound(INPUTS, 0.0).total

    def test_k2_keeps_loss_unchanged(self):
        two = BoundInputs(k=2, rho=1.0, delta=0.1, m=100, n=50, v=17, b=1.0)
        assert surrogate_multimargin_bound(two, 0.37).empirical_term == pytest.approx(0.37)

    def test_scales_by_k_minus_one(self):
        report = surrogate_multimargin_bound(INPUTS, 0.25)
        assert report.empirical_term == pytest.approx(4 * 0.25)
        assert report.kind == "surrogate"

    def test_dominates_vc_for_consistent_losses(self):
        # whenever ramp <= (k-1) multimargin pointwise, the surrogate
        # total dominates the vc total on the same data
        rng = np.random.default_rng(3)
        for _ in range(100):
            mm_loss = float(rng.uniform(0, 0.5))
            ramp_loss = float(rng.uniform(0, 1)) * min(1.0, (INPUTS.k - 1) * mm_loss)
            assert (surrogate_multimargin_bound(INPUTS, mm_loss).total
                    >= vc_transfer_bound(INPUTS, ramp_loss).total)


class TestKwayShotTerm:
    def test_matches_generic_bound_at_m_100(self):
        # sqrt(k)/sqrt(s+q) equals k/sqrt(k(s+q)): the specialization agrees
        # with the generic complexity term at m = k(s+q)
        term = kway_sshot_complexity_term(5, 5, 15, 50, 1.0, 17, 1.0)
        generic = vc_transfer_bound(INPUTS, 0.0).complexity_term
        assert term == pytest.approx(generic, rel=1e-12)

    def test_decreasing_in_s_and_n(self):
        ts = [kway_sshot_complexity_term(5, s, 15, 50, 1.0, 17, 1.0) for s in (1, 5, 20, 80)]
        assert all(a > b for a, b in zip(ts, ts[1:]))
        tn = [kway_sshot_complexity_term(5, 5, 15, n, 1.0, 17, 1.0) for n in (10, 100, 1000)]
        assert all(a > b for a, b in zip(tn, tn[1:]))

    def test_large_n_limit(self):
        c1, c2 = constants_c1_c2(1.0)
        limit = math.sqrt(5) / math.sqrt(20) * (c1 * math.sqrt(17) + c2)
        # at n=1e12 the leftover n-term is k/sqrt(n) * (C1 sqrt(v) + C2),
        # about 1e-5 of the limit; 1e-6 relative needs n >= 1e16
        assert kway_sshot_complexity_term(5, 5, 15, int(1e12), 1.0, 17, 1.0) == pytest.approx(limit, rel=2e-5)
        assert kway_sshot_complexity_term(5, 5, 15, int(1e16), 1.0, 17, 1.0) == pytest.approx(limit, rel=1e-6)

    def test_validation(self):
        with pytest.raises(ValueError):
            kway_sshot_complexity_term(5, 0, 15, 50, 1.0, 17, 1.0)


class TestSampleEfficiency:
    def test_infinite_n_limit(self):
        assert sample_efficiency_min_m(0.5, 2, 4, math.inf, 1.0) == 64

    def test_hand_value_at_n_400(self):
        # 16 / (0.5 - 0.2)^2 = 177.78 -> 178
        assert sample_efficiency_min_m(0.5, 2, 4, 400, 1.0) == 178

    def test_nonincreasing_in_n(self):
        grid = [100, 400, 1600, 1e12, math.inf]
        vals = [sample_efficiency_min_m(0.5, 2, 4, n, 1.0) for n in grid]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_infeasible_raises(self):
        # a k sqrt(v/n) = 0.4 at n=100; epsilon below that is unreachable
        with pytest.raises(InfeasibleError):
            sample_efficiency_min_m(0.3, 2, 4, 100, 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            sample_efficiency_min_m(0.5, 2, 4, 0, 1.0)
