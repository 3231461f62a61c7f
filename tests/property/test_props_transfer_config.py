"""Property-based tests: transfer conservation and config round-trips."""

import re
from dataclasses import asdict

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.config import ConfigError, ExperimentConfig
from repro.sched.transfer import OutputReturnPlan, simulate_output_return


class TestTransferConservation:
    @given(
        st.lists(st.floats(0.0, 5000.0), min_size=1, max_size=40),
        st.sampled_from(list(OutputReturnPlan)),
        st.floats(1.0, 100.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_every_file_arrives_exactly_once(self, times, plan, file_mb):
        report = simulate_output_return(times, file_mb, plan)
        # arrival accounting is exact: delays positive, drain after last file
        assert report.transfers_started >= 1
        assert report.mean_file_delay > 0
        assert report.all_home_time >= max(times)


def _finite(lo, hi, **kwargs):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False, **kwargs)


@st.composite
def config_documents(draw):
    """Any valid document: any subset of the sections, any subset of their keys."""
    sections = {
        "domain": dict(
            nx=st.integers(4, 60),
            ny=st.integers(4, 60),
            nz=st.integers(1, 12),
        ),
        "model": dict(dt=_finite(1.0, 3600.0)),
        # keys that bound each other are drawn from ranges that meet at the
        # other key's default, so either may be absent
        "esse": dict(
            initial_ensemble_size=st.integers(2, 16),
            max_ensemble_size=st.integers(16, 256),
            growth_factor=_finite(1.0, 4.0, exclude_min=True),
            convergence_tolerance=_finite(0.5, 1.0),
            max_subspace_rank=st.integers(1, 200),
            root_seed=st.integers(0, 2**31 - 1),
        ),
        "assimilation": dict(
            backend=st.sampled_from(["global", "tiled"]),
            tile_ny=st.integers(1, 64),
            tile_nx=st.integers(1, 64),
            taper=st.sampled_from(["gaspari_cohn", "cutoff", "none"]),
            radius=_finite(0.0, 50.0, exclude_min=True),
            halo=_finite(0.0, 50.0),
            inflation=st.sampled_from(["multiplicative", "adaptive"]),
            inflation_factor=_finite(1.0, 2.0),
            adaptive_inflation_max=_finite(2.0, 5.0),
            local_energy_floor=_finite(0.0, 1.0, exclude_max=True),
            n_workers=st.integers(1, 64),
            max_attempts=st.integers(1, 10),
        ),
        "observations": dict(seed=st.integers(0, 2**31 - 1)),
        "timeline": dict(
            period_hours=_finite(1.0, 96.0),
            n_periods=st.integers(1, 10),
        ),
    }
    present = draw(st.sets(st.sampled_from(sorted(sections))))
    return {
        name: draw(st.fixed_dictionaries({}, optional=sections[name]))
        for name in sorted(present)
    }


VALID_SECTIONS = set(ExperimentConfig.__dataclass_fields__)
junk_names = st.text(min_size=1, max_size=12)


class TestConfigProperties:
    @given(config_documents())
    @settings(max_examples=60, deadline=None)
    def test_valid_documents_round_trip(self, doc):
        cfg = ExperimentConfig.from_dict(doc)
        again = ExperimentConfig.from_dict(asdict(cfg))
        assert again == cfg
        # what the document set is what the configuration holds
        for name, section in doc.items():
            for key, value in section.items():
                assert getattr(getattr(cfg, name), key) == value

    @given(config_documents(), junk_names)
    @settings(max_examples=40, deadline=None)
    def test_unknown_sections_always_rejected(self, doc, junk_name):
        assume(junk_name not in VALID_SECTIONS)
        with pytest.raises(ConfigError, match=re.escape(repr(junk_name))):
            ExperimentConfig.from_dict({**doc, junk_name: {}})

    @given(config_documents(), st.sampled_from(sorted(VALID_SECTIONS)), junk_names)
    @settings(max_examples=40, deadline=None)
    def test_unknown_keys_always_rejected(self, doc, section, junk_name):
        fields = getattr(ExperimentConfig(), section).__dataclass_fields__
        assume(junk_name not in fields)
        doc = {**doc, section: {**doc.get(section, {}), junk_name: 1}}
        with pytest.raises(ConfigError) as refusal:
            ExperimentConfig.from_dict(doc)
        assert repr(section) in str(refusal.value)
        assert repr(junk_name) in str(refusal.value)
