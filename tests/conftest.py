"""Shared fixtures: the designed 16-bin measurement and its outcome statistics.

Property tests explore at random by default.  ``HYPOTHESIS_PROFILE=ci``
selects a derandomized profile, so a failure in CI replays exactly.
"""

import os
import warnings

import pytest
from hypothesis import settings

import chronokey as ck

settings.register_profile("ci", derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(scope="session")
def designed16():
    """Designed 16-bin scheme, its matched source, and the matched time lens."""
    scheme, source = ck.design_binning(16)
    return scheme, source, ck.design_time_lens(scheme)


@pytest.fixture(scope="session")
def outcomes16(designed16):
    """Joint outcome distributions of the matched source in both bases.

    The matched design deliberately leaves part of the intensity outside the
    measurement window, so the coverage warning fires by construction and is
    silenced here.
    """
    scheme, source, lens = designed16
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ck.CoverageWarning)
        freq = ck.joint_outcome_distribution(source, scheme, lens, basis="frequency")
        time = ck.joint_outcome_distribution(source, scheme, lens, basis="time")
    return freq, time


@pytest.fixture()
def default_channel():
    return ck.ChannelModel(
        m=16,
        pair_probability=0.1,
        detector_efficiency=0.25,
        dark_probability=1e-6,
        length=1.0,
        attenuation_length=1.0,
    )
