"""The decomposition and sensitivity reports, pinned bit for bit.

No CLI command reaches ``suboptimality_decomposition``,
``attribute_gap_decomposition`` or ``sensitivity_at_zero``, so the golden
digests do not cover them. These cases, taken from the inputs of the tests
in ``test_audit.py``, ``test_share.py`` and ``test_acceptance.py``, hold
every float of their reports to its ``float.hex`` form.
"""

import dataclasses

import numpy as np
import pytest

import fairprice as fp


def _latent(loc, scale, noise="logistic", coefs=()):
    return fp.LatentValuationModel(loc={"g": (loc, np.array(coefs))},
                                   noise=noise, scale=scale)


def _gap_population():
    return fp.Population(groups=("a", "b"), support=[[0.0], [1.0]],
                         masses=[0.5, 0.5],
                         membership=[[0.8, 0.2], [0.3, 0.7]])


def _gap_model(noise="logistic"):
    return fp.LatentValuationModel(
        loc={"a": (2.4, np.array([0.3])), "b": (1.7, np.array([0.3]))},
        noise=noise, scale=0.5)


_INTERVAL = fp.PriceInterval(0.05, 10.0)

CASES = {
    "subopt_latent_logistic": lambda: fp.suboptimality_decomposition(
        _latent(2.3, 0.5 * 1.15), _latent(2.0, 0.5), [], "g", _INTERVAL),
    "subopt_positive_terms": lambda: fp.suboptimality_decomposition(
        _latent(0.2, 1.5), _latent(0.0, 1.0), [], "g", _INTERVAL),
    "subopt_negative_terms": lambda: fp.suboptimality_decomposition(
        _latent(1.4, 0.55), _latent(2.0, 0.5), [], "g", _INTERVAL),
    "subopt_exponential": lambda: fp.suboptimality_decomposition(
        _latent(0.1, 1.05, "exponential"), _latent(0.0, 1.0, "exponential"),
        [], "g", fp.PriceInterval(0.05, 12.0)),
    "subopt_normal_covariate": lambda: fp.suboptimality_decomposition(
        _latent(1.7, 0.7, "normal", [0.2]), _latent(1.5, 0.6, "normal", [0.2]),
        [1.0], "g", _INTERVAL),
    "subopt_linear_truth": lambda: fp.suboptimality_decomposition(
        _latent(2.3, 0.5), fp.PartiallyLinearDemand(
            beta={"g": -1.0}, baseline={"g": (2.0, np.array([]))}),
        [], "g", _INTERVAL),
    "gap_point0_a": lambda: fp.attribute_gap_decomposition(
        _gap_model(), _gap_population(), 0, "a"),
    "gap_point1_b": lambda: fp.attribute_gap_decomposition(
        _gap_model(), _gap_population(), 1, "b"),
    "gap_gumbel_interval": lambda: fp.attribute_gap_decomposition(
        _gap_model("gumbel"), _gap_population(), 1, "a", _INTERVAL),
    "sens_linear": lambda: fp.sensitivity_at_zero(
        fp.PartiallyLinearDemand(beta={"g": -0.7},
                                 baseline={"g": (3.0, np.array([]))}),
        [], "g"),
    "sens_linear_group": lambda: fp.sensitivity_at_zero(
        fp.PartiallyLinearDemand(beta={"g": -1.0},
                                 baseline={"g": (2.0, np.array([]))}),
        [], "g", scope=fp.GROUP_SCOPE, rho={"g": 0.25}),
    "sens_exponential": lambda: fp.sensitivity_at_zero(
        _latent(0.0, 1.0, "exponential"), [], "g"),
    "sens_latent_logistic": lambda: fp.sensitivity_at_zero(
        _latent(2.0, 0.5), [], "g"),
    "sens_laplace": lambda: fp.sensitivity_at_zero(
        _latent(1.5, 0.8, "laplace"), [], "g"),
    "sens_normal_covariate": lambda: fp.sensitivity_at_zero(
        _latent(1.5, 0.6, "normal", [0.2]), [1.0], "g", step=1e-4),
    "sens_logistic_demand": lambda: fp.sensitivity_at_zero(
        fp.LogisticDemand(gamma=[0.3], beta=-2.0, intercept=0.5), [1.0], None),
    "sens_logistic_no_covariates": lambda: fp.sensitivity_at_zero(
        fp.LogisticDemand(gamma=[], beta=-1.2, intercept=1.0), [], None),
}


def report_fields(report) -> dict:
    """Every field of a report, each float as its ``float.hex``."""
    return {name: value.hex() if isinstance(value, float) else value
            for name, value in dataclasses.asdict(report).items()}


PINS = {
    "gap_gumbel_interval": {
        "price_true": "0x1.ca441a3dc8ab6p+0",
        "price_estimated": "0x1.1ee0f96386d19p+1",
        "gap": "0x1.cdf7622513df0p-2",
        "predicted_gap": "0x1.370fa229a7feep-1",
        "residual": "-0x1.404fc45c783d8p-3",
        "term_level": "0x1.360815ca1a548p-3",
        "term_slope_error": "0x1.c9d4c28ab93dbp-2",
        "term_slope_shift": "-0x1.8916d4842ccb0p-2",
        "denominator": "-0x1.bde9afbc91350p-2",
        "sign": "indeterminate",
    },
    "gap_point0_a": {
        "price_true": "0x1.cfa6e6c7cf948p+0",
        "price_estimated": "0x1.e39bfa8a312acp+0",
        "gap": "0x1.3f513c2619640p-4",
        "predicted_gap": "0x1.4594b5f8ab2c0p-4",
        "residual": "-0x1.90de74a472000p-10",
        "term_level": "0x1.060bb240a5ef0p-4",
        "term_slope_error": "0x1.b68c87a82ef60p-6",
        "term_slope_shift": "-0x1.de81e93984360p-6",
        "denominator": "-0x1.7fa25b1845553p-1",
        "sign": "indeterminate",
    },
    "gap_point1_b": {
        "price_true": "0x1.c06d763c5c4a0p+0",
        "price_estimated": "0x1.9a9dc73e2515bp+0",
        "gap": "-0x1.2e7d77f1b9a28p-3",
        "predicted_gap": "-0x1.27f058668506cp-3",
        "residual": "-0x1.a347e2cd26f00p-9",
        "term_level": "-0x1.308b688171020p-4",
        "term_slope_error": "-0x1.2b2d37ea83424p-4",
        "term_slope_shift": "0x1.523446198caa0p-5",
        "denominator": "-0x1.cc8ae19e102bep-1",
        "sign": "indeterminate",
    },
    "sens_exponential": {
        "price": "0x1.0000000000000p+0",
        "analytic": "-0x1.0000000000000p+0",
        "finite_difference": "-0x1.fffffffffd510p-1",
        "discrepancy": "0x1.5780000000000p-40",
        "curvature": "-0x1.78b56362cef38p-2",
        "inverse_curvature_form": "-0x1.5bf0a8b145769p+1",
        "scope": "population",
        "step": "0x1.a36e2eb1c432dp-14",
    },
    "sens_laplace": {
        "price": "0x1.498cc4a4bd492p+0",
        "analytic": "-0x1.1bb990df40a6bp-2",
        "finite_difference": "-0x1.1bb99101f5380p-2",
        "discrepancy": "0x1.15a48a8000000p-29",
        "curvature": "-0x1.baa56f9b5faecp+0",
        "inverse_curvature_form": "-0x1.655f48fd6c66cp-2",
        "scope": "population",
        "step": "0x1.a36e2eb1c432dp-14",
    },
    "sens_latent_logistic": {
        "price": "0x1.9a9dc7698f4a2p+0",
        "analytic": "-0x1.3f353d00fc8bfp-2",
        "finite_difference": "-0x1.3f353d0382cc0p-2",
        "discrepancy": "0x1.4320080000000p-33",
        "curvature": "-0x1.6065617f81ba0p+0",
        "inverse_curvature_form": "-0x1.21253f7b58739p-2",
        "scope": "population",
        "step": "0x1.a36e2eb1c432dp-14",
    },
    "sens_linear": {
        "price": "0x1.1249249249249p+1",
        "analytic": "-0x1.0000000000001p-1",
        "finite_difference": "-0x1.fffffffffae00p-2",
        "discrepancy": "0x1.4808000000000p-40",
        "curvature": "-0x1.6666666666666p+0",
        "inverse_curvature_form": "-0x1.3e93e93e93e94p-3",
        "scope": "population",
        "step": "0x1.a36e2eb1c432dp-14",
    },
    "sens_linear_group": {
        "price": "0x1.0000000000000p+0",
        "analytic": "-0x1.0000000000000p+1",
        "finite_difference": "-0x1.ffffffffffc20p+0",
        "discrepancy": "0x1.f000000000000p-43",
        "curvature": "-0x1.0000000000000p+1",
        "inverse_curvature_form": "-0x1.0000000000000p-1",
        "scope": "group",
        "step": "0x1.a36e2eb1c432dp-14",
    },
    "sens_logistic_demand": {
        "price": "0x1.7f6a869e01b4cp-1",
        "analytic": "-0x1.55da66cdf2867p-1",
        "finite_difference": "-0x1.55da66cded160p-1",
        "discrepancy": "0x1.5c1c000000000p-39",
        "curvature": "-0x1.544b32641af32p-1",
        "inverse_curvature_form": "-0x1.576b6f88403dbp+1",
        "scope": "population",
        "step": "0x1.a36e2eb1c432dp-14",
    },
    "sens_logistic_no_covariates": {
        "price": "0x1.4e52eb3d0bea2p+0",
        "analytic": "-0x1.46b588aa6aaa0p-1",
        "finite_difference": "-0x1.46b588aa8b760p-1",
        "discrepancy": "0x1.0660000000000p-36",
        "curvature": "-0x1.bcb2b800999bap-2",
        "inverse_curvature_form": "-0x1.59a2f737df482p+0",
        "scope": "population",
        "step": "0x1.a36e2eb1c432dp-14",
    },
    "sens_normal_covariate": {
        "price": "0x1.547d929d6b58cp+0",
        "analytic": "-0x1.3024aa13932aap-2",
        "finite_difference": "-0x1.3024aa16aa9e0p-2",
        "discrepancy": "0x1.8bb9b00000000p-33",
        "curvature": "-0x1.d9dfaf19cd418p+0",
        "inverse_curvature_form": "-0x1.38b6c00959c20p-2",
        "scope": "population",
        "step": "0x1.a36e2eb1c432dp-14",
    },
    "subopt_exponential": {
        "price_true": "0x1.ffffffd96b808p-1",
        "price_estimated": "0x1.0ccccc8801a47p+0",
        "gap": "0x1.999993697c860p-5",
        "predicted_gap": "0x1.94af9d53501bfp-5",
        "residual": "0x1.3a7d858b1a840p-11",
        "term_level": "0x1.cecb41afb49b0p-5",
        "term_slope_error": "-0x1.293f865e80b38p-5",
        "term_slope_shift": "0x1.33ef720396250p-6",
        "denominator": "-0x1.943dd8bae5116p-1",
        "sign": "indeterminate",
    },
    "subopt_latent_logistic": {
        "price_true": "0x1.9a9dc72d36abap+0",
        "price_estimated": "0x1.d83571d39316ep+0",
        "gap": "0x1.ecbd5532e35a0p-3",
        "predicted_gap": "0x1.028be5aa8fd91p-2",
        "residual": "-0x1.85a76223c5820p-7",
        "term_level": "0x1.5054459cfcbf8p-4",
        "term_slope_error": "0x1.f1888b25ef884p-4",
        "term_slope_shift": "-0x1.0c475a7192decp-4",
        "denominator": "-0x1.5c8e65ab4b10cp-1",
        "sign": "indeterminate",
    },
    "subopt_linear_truth": {
        "price_true": "0x1.ffffffe201486p-1",
        "price_estimated": "0x1.d0eb74438ac5fp+0",
        "gap": "0x1.a1d6e8a514438p-1",
        "predicted_gap": "0x1.01fa2782a0ecfp+0",
        "residual": "-0x1.88759980b6598p-3",
        "term_level": "-0x1.1b30e4356be78p-4",
        "term_slope_error": "0x1.be18dbade8d1ap-1",
        "term_slope_shift": "-0x1.14ce3734df50cp-2",
        "denominator": "-0x1.0e35643e9e052p-1",
        "sign": "indeterminate",
    },
    "subopt_negative_terms": {
        "price_true": "0x1.9a9dc72d36abap+0",
        "price_estimated": "0x1.427f163a68a88p+0",
        "gap": "-0x1.607ac3cb380c8p-2",
        "predicted_gap": "-0x1.64f25e65c25bap-2",
        "residual": "0x1.1de6a6a293c80p-8",
        "term_level": "-0x1.1ea84fb58c420p-2",
        "term_slope_error": "-0x1.4cfc1a1472ee0p-7",
        "term_slope_shift": "-0x1.0515d744094e0p-7",
        "denominator": "-0x1.c5e3d5544853ap-1",
        "sign": "negative",
    },
    "subopt_normal_covariate": {
        "price_true": "0x1.547d92a92f9cap+0",
        "price_estimated": "0x1.7e5dc0e0e43e8p+0",
        "gap": "0x1.4f0171bda50f0p-3",
        "predicted_gap": "0x1.5d044c800cba5p-3",
        "residual": "-0x1.c05b584cf56a0p-8",
        "term_level": "0x1.f3a66b19cc0a0p-5",
        "term_slope_error": "0x1.201a33cf8be54p-3",
        "term_slope_shift": "-0x1.289a897b2db6cp-4",
        "denominator": "-0x1.c803b59841340p-1",
        "sign": "indeterminate",
    },
    "subopt_positive_terms": {
        "price_true": "0x1.474973d12b4d3p+0",
        "price_estimated": "0x1.f68ae094a1fd4p+0",
        "gap": "0x1.5e82d986ed602p-1",
        "predicted_gap": "0x1.4da15027109abp-1",
        "residual": "0x1.0e1895fdcc570p-5",
        "term_level": "0x1.c1c4b36b2b628p-4",
        "term_slope_error": "0x1.813e37d6762e8p-6",
        "term_slope_shift": "0x1.b55aea7754b8cp-6",
        "denominator": "-0x1.116d5d5414d91p-2",
        "sign": "positive",
    },
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_is_pinned_bit_for_bit(name):
    assert report_fields(CASES[name]()) == PINS[name]
