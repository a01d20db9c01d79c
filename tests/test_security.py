"""Entropies, the uncertainty-relation bound, and secret-key estimates."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import chronokey as ck
from chronokey import security

# frozen: 30-digit evaluations of -p*lg(p) - (1-p)*lg(1-p) and of the
# designed-measurement constants log2(2*pi/product) and -log2(2*pi*3/20)
BINARY_ENTROPY_011 = 0.499915958164528
DESIGN_DEFICIT = 0.085469464693887368
DESIGN_BOUND_16 = 3.9145305353061126


def _random_distribution(seed, m=6):
    rng = np.random.default_rng(seed)
    p = rng.random((m, m))
    return p / p.sum()


class TestBinaryEntropy:
    @pytest.mark.parametrize("p,expected", [(0.0, 0.0), (1.0, 0.0), (0.5, 1.0)])
    def test_endpoints_and_midpoint(self, p, expected):
        assert ck.binary_entropy(p) == pytest.approx(expected, abs=1e-15)

    def test_frozen_value(self):
        assert ck.binary_entropy(0.11) == pytest.approx(BINARY_ENTROPY_011, abs=1e-12)

    @pytest.mark.parametrize("p", [0.05, 0.2, 0.37])
    def test_symmetry(self, p):
        assert ck.binary_entropy(p) == pytest.approx(ck.binary_entropy(1 - p), abs=1e-14)

    @pytest.mark.parametrize("p", [-0.1, 1.1, True])
    def test_rejects_out_of_range(self, p):
        with pytest.raises(ck.ParameterError):
            ck.binary_entropy(p)


class TestSharedInformation:
    def test_independent_outcomes_share_nothing(self):
        p = np.full((8, 8), 1 / 64.0)
        assert ck.mutual_information(p) == pytest.approx(0.0, abs=1e-12)

    def test_perfect_correlation_shares_all_bits(self):
        p = np.eye(8) / 8.0
        assert ck.mutual_information(p) == pytest.approx(3.0, abs=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_chain_rule_consistency(self, seed):
        p = _random_distribution(seed)
        receiver_marginal = p.sum(axis=1)
        h_receiver = float(-(receiver_marginal * np.log2(receiver_marginal)).sum())
        given_sender = ck.conditional_entropy(p, conditioned_on="sender")
        assert ck.mutual_information(p) == pytest.approx(
            h_receiver - given_sender, abs=1e-12
        )

    def test_conditional_entropy_orientation(self):
        # receiver rows, sender columns; frozen by hand from the joint table
        p = np.array([[0.5, 0.25], [0.0, 0.25]])
        assert ck.conditional_entropy(p, conditioned_on="sender") == pytest.approx(
            0.5, abs=1e-12
        )
        assert ck.conditional_entropy(p, conditioned_on="receiver") == pytest.approx(
            0.6887218755408672, abs=1e-12
        )
        with pytest.raises(ck.ParameterError):
            ck.conditional_entropy(p, conditioned_on="eavesdropper")

    @pytest.mark.parametrize(
        "probabilities,message",
        [
            (np.full(4, 0.25), "must be a matrix"),
            (np.array([[0.5, np.nan], [0.0, 0.5]]), "must be finite"),
            (np.array([[0.5, np.inf], [0.0, 0.5]]), "must be finite"),
            (np.array([[0.6, -0.1], [0.0, 0.5]]), "must be non-negative"),
        ],
        ids=["vector", "nan", "inf", "negative"],
    )
    @pytest.mark.parametrize("measure", [ck.mutual_information, ck.conditional_entropy])
    def test_refuses_what_an_outcome_distribution_refuses(self, measure, probabilities, message):
        with pytest.raises(ck.ParameterError, match=message):
            measure(probabilities)

    @settings(max_examples=60, deadline=None)
    @given(
        m=st.integers(2, 300),
        fill=st.sampled_from([0.0, 0.003, 0.05, 0.5, 1.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(m=300, fill=1.0, seed=0)
    @example(m=2, fill=0.0, seed=0)
    def test_entropy_report_has_the_bits_of_numpys_dense_sums(self, m, fill, seed):
        # The report reads the non-zero cells; its receiver marginal must
        # be numpy's row sums of the dense matrix and its conditional
        # entropy the dense matrix's, bit for bit, at any sparsity.
        rng = np.random.default_rng(seed)
        p = rng.random((m, m)) ** 4 * (rng.random((m, m)) < fill)
        p[rng.integers(m), rng.integers(m)] = 1.0  # at least one cell
        p /= p.sum()
        report = ck.entropy_report(ck.OutcomeDistribution("time", p))
        assert report.marginal_bits == security._entropy_bits(p.sum(axis=1))
        assert report.conditional_bits == ck.conditional_entropy(p)

    @pytest.mark.parametrize("m", [4, 16])
    @pytest.mark.parametrize("p_err", [0.0, 0.01, 0.1, 0.3, "uniform"])
    @pytest.mark.parametrize("route", ["matrix", "closed_form"])
    def test_symmetric_error_model_identities(self, m, p_err, route):
        if p_err == "uniform":
            p_err = (m - 1) / m
        dist = ck.OutcomeDistribution(
            "frequency", ck.error_model_distribution(m, p_err), 0.0
        )
        matrix = ck.entropy_report(dist)
        report = matrix if route == "matrix" else ck.error_model_report(m, p_err, "frequency")
        assert report.marginal_bits == pytest.approx(matrix.marginal_bits, abs=1e-12)
        assert report.conditional_bits == pytest.approx(matrix.conditional_bits, abs=1e-9)
        assert report.marginal_bits == pytest.approx(math.log2(m), abs=1e-12)
        expected = p_err * math.log2(m - 1) + ck.binary_entropy(p_err)
        assert report.conditional_bits == pytest.approx(expected, abs=1e-9)
        assert report.mutual_bits == pytest.approx(
            math.log2(m) - expected, abs=1e-9
        )

    @pytest.mark.parametrize("p_err", [0.02, 0.1])
    def test_merging_symbols_cannot_create_information(self, p_err):
        fine = ck.error_model_distribution(16, p_err)
        coarse = fine.reshape(8, 2, 8, 2).sum(axis=(1, 3))
        assert ck.mutual_information(coarse) <= ck.mutual_information(fine) + 1e-12

    @pytest.mark.parametrize(
        "p",
        [[[math.nan, 0.5], [0.5, 0.0]], [[math.inf, 0.5], [0.5, 0.0]], [[-0.5, 1.0], [0.5, 0.0]]],
        ids=["nan", "inf", "negative"],
    )
    @pytest.mark.parametrize("entropy", [ck.mutual_information, ck.conditional_entropy])
    def test_refuses_non_finite_and_negative_entries(self, entropy, p):
        with pytest.raises(ck.ParameterError):
            entropy(np.array(p))

    def test_accepts_roundoff_below_zero(self):
        p = np.array([[0.5, -1e-13], [0.0, 0.5 + 1e-13]])
        assert ck.mutual_information(p) == pytest.approx(1.0, abs=1e-12)
        assert ck.conditional_entropy(p) == pytest.approx(0.0, abs=1e-12)


class TestUncertaintyBound:
    def test_designed_bound_frozen_value(self):
        assert ck.entropic_bound(1.0, 1.0 / 2.4) == pytest.approx(
            DESIGN_BOUND_16, abs=1e-12
        )

    def test_deficit_frozen_value(self):
        assert ck.binning_deficit(0.75, 0.2) == pytest.approx(
            DESIGN_DEFICIT, abs=1e-12
        )

    @pytest.mark.parametrize("m", [4, 16, 256])
    def test_bound_is_alphabet_bits_minus_deficit(self, m):
        scheme = ck.BinningScheme(m=m, delta_omega=1.0)
        lens = ck.design_time_lens(scheme)
        bound = ck.entropic_bound(scheme.delta_omega, ck.time_resolution(scheme, lens))
        assert bound == pytest.approx(
            math.log2(m) - ck.binning_deficit(0.75, 0.2), abs=1e-9
        )

    @pytest.mark.parametrize(
        "delta_omega,delta_t",
        [(0.0, 1.0), (-1.0, 1.0), (math.inf, 1.0), (1e-200, 1e-200), (1e-160, 1e-150),
         (True, 1.0)],
        ids=["0.0", "-1.0", "inf", "product-underflows", "inverse-overflows", "boolean"],
    )
    def test_rejects_non_positive_resolutions(self, delta_omega, delta_t):
        with pytest.raises(ck.ParameterError):
            ck.entropic_bound(delta_omega, delta_t)

    @pytest.mark.parametrize(
        "beta_plus,beta_minus",
        [(0.0, 0.2), (math.inf, 0.5), (math.nan, 0.5), (1e-300, 1e-300), (1e200, 1e200)],
        ids=["zero", "inf", "nan", "product-underflows", "product-overflows"],
    )
    def test_deficit_rejects_bad_ratios(self, beta_plus, beta_minus):
        with pytest.raises(ck.ParameterError):
            ck.binning_deficit(beta_plus, beta_minus)


def _kernel_at(c):
    """Overlap kernel of unit-width bins whose lens makes ``delta_omega * delta_t = 4c``."""
    lens = ck.TimeLens(mod_frequency=1.0, mod_depth=1.0 / (4.0 * c))
    return ck.overlap_kernel_sigma_max(ck.BinningScheme(m=2, delta_omega=1.0), lens)


class TestOverlapKernel:
    def test_sigma_max_close_to_analytic_for_designed_lens(self, designed16):
        scheme, _, lens = designed16
        spectrum = ck.overlap_kernel_sigma_max(scheme, lens)
        product = ck.resolution_product(scheme, lens)
        assert spectrum.analytic == pytest.approx(
            math.sqrt(product / (2.0 * math.pi)), rel=1e-12
        )
        assert spectrum.sigma_max == pytest.approx(spectrum.analytic, rel=5e-3)
        assert spectrum.validity_ratio == pytest.approx(
            1.0 / (2.0 * math.pi * 2.4), rel=1e-12
        )

    def test_warns_when_bins_are_too_coarse(self):
        scheme = ck.BinningScheme(m=4, delta_omega=1.0)
        lens = ck.design_time_lens(scheme)
        with pytest.warns(ck.ResolutionWarning):
            ck.overlap_kernel_sigma_max(scheme, lens)

    # frozen: lambda_0(c) of the time- and band-limiting operator, from
    # Slepian & Pollak, Bell Syst. Tech. J. 40, 43 (1961)
    @pytest.mark.parametrize(
        "c,eigenvalue",
        [
            (0.5, 0.309689565709),
            (1.0, 0.572581780638),
            (2.0, 0.880559922317),
            (4.0, 0.995885490430),
        ],
    )
    def test_sigma_max_is_the_slepian_eigenvalue(self, c, eigenvalue):
        with pytest.warns(ck.ResolutionWarning):
            spectrum = _kernel_at(c)
        assert spectrum.sigma_max**2 == pytest.approx(eigenvalue, rel=1e-9)

    @pytest.mark.parametrize("c", [16.0, 50.0])
    def test_sigma_max_never_exceeds_one(self, c):
        with pytest.warns(ck.ResolutionWarning):
            spectrum = _kernel_at(c)
        assert spectrum.sigma_max == pytest.approx(1.0, abs=1e-12)
        assert spectrum.sigma_max <= 1.0


class TestSecretKeyBound:
    def _reports(self, m, p_err):
        dist = ck.error_model_distribution(m, p_err)
        freq = ck.entropy_report(ck.OutcomeDistribution("frequency", dist, 0.0))
        time = ck.entropy_report(ck.OutcomeDistribution("time", dist, 0.0))
        return freq, time

    @pytest.mark.parametrize(
        "marginal,conditional",
        [(float("nan"), float("nan")), (1.0, float("nan")), (float("inf"), 1.0)],
        ids=["both-nan", "nan-conditional", "inf-marginal"],
    )
    def test_non_finite_entropies_rejected(self, marginal, conditional):
        with pytest.raises(ck.ParameterError):
            ck.EntropyReport("frequency", marginal, conditional)

    @pytest.mark.parametrize(
        "marginal,conditional,message",
        [(1.0, -0.5, "cannot be negative"), (1.0, 1.5, "cannot increase entropy")],
        ids=["negative-conditional", "conditional-above-marginal"],
    )
    def test_impossible_entropies_rejected(self, marginal, conditional, message):
        with pytest.raises(ck.ParameterError, match=message):
            ck.EntropyReport("frequency", marginal, conditional)

    def test_basis_mismatch_rejected(self):
        freq, _ = self._reports(16, 0.01)
        with pytest.raises(ck.ParameterError):
            ck.secret_key_bound(freq, freq, DESIGN_BOUND_16)

    @pytest.mark.parametrize(
        "make",
        [
            lambda basis: ck.EntropyReport(basis, 2.0, 1.0),
            lambda basis: ck.error_model_report(4, 0.1, basis),
        ],
        ids=["EntropyReport", "error_model_report"],
    )
    def test_unknown_basis_refused_when_the_report_is_made(self, make):
        for basis in (ck.FREQUENCY_BASIS, ck.TIME_BASIS):
            assert make(basis).basis == basis
        for basis in ("weird", "Frequency", ""):
            with pytest.raises(ck.ParameterError, match="unknown basis"):
                make(basis)

    def test_information_branch_matches_hand_computation(self):
        freq, time = self._reports(16, 0.05)
        result = ck.secret_key_bound(freq, time, DESIGN_BOUND_16)
        leak = 0.05 * math.log2(15) + ck.binary_entropy(0.05)
        assert not result.clamped
        assert result.secret_key == pytest.approx(
            DESIGN_BOUND_16 - 2.0 * leak, abs=1e-9
        )
        assert result.mutual_information == pytest.approx(4.0 - leak, abs=1e-9)

    def test_marginal_branch_clamps_the_rate(self):
        # a nearly deterministic marginal carries fewer bits than the bound
        p = np.zeros((16, 16))
        p[0, 0] = 0.999
        p[1, 1] = 0.001
        freq = ck.entropy_report(ck.OutcomeDistribution("frequency", p, 0.0))
        time = self._reports(16, 0.0)[1]
        result = ck.secret_key_bound(freq, time, DESIGN_BOUND_16)
        assert result.clamped
        assert result.secret_key == pytest.approx(freq.marginal_bits, abs=1e-12)

    def test_negative_rates_are_reported_raw(self):
        freq, time = self._reports(4, 0.45)
        result = ck.secret_key_bound(freq, time, math.log2(4) - DESIGN_DEFICIT)
        assert result.secret_key < 0.0

    def test_imperfect_reconciliation_charges_more_for_errors(self):
        freq, time = self._reports(16, 0.05)
        ideal = ck.secret_key_bound(freq, time, DESIGN_BOUND_16)
        lossy = ck.secret_key_bound(
            freq, time, DESIGN_BOUND_16, reconciliation_efficiency=0.9
        )
        assert lossy.secret_key < ideal.secret_key
        with pytest.raises(ck.ParameterError):
            ck.secret_key_bound(freq, time, DESIGN_BOUND_16, reconciliation_efficiency=0.0)
        with pytest.raises(ck.ParameterError):
            ck.secret_key_bound(freq, time, DESIGN_BOUND_16, reconciliation_efficiency=True)

    @pytest.mark.parametrize("p_err", [0.0, 0.01, 0.1, 0.3])
    @pytest.mark.parametrize("m", [4, 16, 256])
    def test_closed_form_agrees_with_entropy_route(self, m, p_err):
        freq, time = self._reports(m, p_err)
        bound = math.log2(m) - ck.binning_deficit(0.75, 0.2)
        route = ck.secret_key_bound(freq, time, bound)
        closed = ck.simplified_key_rate(m, p_err)
        assert route.secret_key == pytest.approx(closed.secret_key, abs=1e-9)

    def test_closed_form_is_clamped_at_the_mutual_information(self):
        # At these design ratios the deficit is negative: the uncertainty
        # bound exceeds log2(m), and what error correction leaves of the
        # receiver's own entropy binds.
        p = ck.error_probability(ck.RunConfig().channel_model())
        rate = ck.simplified_key_rate(16, p, 0.5, 0.4)
        assert rate.clamped
        assert rate.secret_key == 4.0 - (p * math.log2(15) + ck.binary_entropy(p))
        assert rate.secret_key == rate.mutual_information < 4.0

    @given(
        marginal=st.floats(0.0, 30.0),
        conditional_share=st.floats(0.0, 1.0),
        time_conditional=st.floats(0.0, 30.0),
        uncertainty_bound=st.floats(-5.0, 40.0),
        efficiency=st.floats(0.05, 1.0),
    )
    def test_key_never_exceeds_what_reconciliation_leaves(
        self, marginal, conditional_share, time_conditional, uncertainty_bound, efficiency
    ):
        freq = ck.EntropyReport("frequency", marginal, marginal * conditional_share)
        time = ck.EntropyReport("time", max(marginal, time_conditional), time_conditional)
        rate = ck.secret_key_bound(
            freq, time, uncertainty_bound, reconciliation_efficiency=efficiency
        )
        ceiling = freq.marginal_bits - freq.conditional_bits / efficiency
        assert rate.secret_key <= ceiling
        assert rate.secret_key <= rate.mutual_information
        assert rate.clamped == (rate.secret_key == ceiling)

    def test_closed_form_validates_inputs(self):
        with pytest.raises(ck.ParameterError):
            ck.simplified_key_rate(1, 0.1)
        with pytest.raises(ck.ParameterError):
            ck.simplified_key_rate(16, 1.2)

    @pytest.mark.parametrize(
        "bound,deficit",
        [
            (math.nan, None),
            (math.inf, None),
            (True, None),
            (3.0, math.inf),
            (3.0, math.nan),
            (3.0, False),
        ],
        ids=["nan-bound", "inf-bound", "boolean-bound", "inf-deficit", "nan-deficit", "bool-deficit"],
    )
    def test_non_finite_or_boolean_bounds_rejected(self, bound, deficit):
        # a NaN bound used to lose to min() and give a finite 2.2503-bit key
        freq = ck.error_model_report(8, 0.1, "frequency")
        time = ck.error_model_report(8, 0.1, "time")
        with pytest.raises(ck.ParameterError):
            ck.secret_key_bound(freq, time, bound, deficit=deficit)


@pytest.mark.parametrize(
    "call",
    [
        lambda: ck.error_model_report(8, False, "frequency"),
        lambda: ck.error_model_report(8, True, "time"),
        lambda: ck.simplified_key_rate(8, False),
        lambda: ck.binning_deficit(True, 0.2),
        lambda: ck.binning_deficit(0.75, True),
        lambda: ck.simplified_key_rate(8, 0.1, beta_plus=True),
        lambda: ck.EntropyReport("frequency", True, 0.0),
        lambda: ck.EntropyReport("frequency", 1.0, False),
    ],
    ids=[
        "error-model-false",
        "error-model-true",
        "simplified-false",
        "deficit-beta-plus",
        "deficit-beta-minus",
        "simplified-beta-plus",
        "report-marginal",
        "report-conditional",
    ],
)
def test_booleans_are_not_numbers(call):
    with pytest.raises(ck.ParameterError):
        call()


class TestMeasuredKeyRate:
    def test_matched_source_rate_is_positive_but_below_bound(self, outcomes16):
        freq, time = outcomes16
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = ck.secret_key_bound(
                ck.entropy_report(freq),
                ck.entropy_report(time),
                DESIGN_BOUND_16,
                deficit=DESIGN_DEFICIT,
            )
        assert 0.0 < result.secret_key < DESIGN_BOUND_16
        assert result.deficit == DESIGN_DEFICIT
