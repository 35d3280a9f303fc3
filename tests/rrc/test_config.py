"""Radio configuration validation and derived quantities."""

import pytest

from repro.rrc.config import PowerProfile, RrcConfig
from repro.rrc.states import RadioMode
from tests.oracles.readouts import extra_promotion_delay


def test_paper_defaults():
    config = RrcConfig()
    assert config.t1 == 4.0
    assert config.t2 == 15.0
    assert config.tail_time == 19.0
    power = config.power
    assert power.idle == 0.15
    assert power.fach == 0.63
    assert power.dch == 1.15
    assert power.dch_tx == 1.25


def test_extra_promotion_delay_matches_paper():
    # Section 3.1: switching to IDLE adds ~1.75 s to the next transfer.
    assert extra_promotion_delay(RrcConfig()) == pytest.approx(1.75)


def test_power_profile_ordering_enforced():
    with pytest.raises(ValueError, match="ordered"):
        PowerProfile(idle=0.7, fach=0.63)


def test_power_profile_rejects_negative():
    with pytest.raises(ValueError):
        PowerProfile(cpu_active=-0.1)


def test_for_mode_covers_every_mode():
    power = PowerProfile()
    for mode in RadioMode:
        assert power.for_mode(mode) > 0


def test_promotion_latency_ordering_enforced():
    with pytest.raises(ValueError, match="slower"):
        RrcConfig(promo_idle_latency=0.1, promo_fach_latency=0.2)


@pytest.mark.parametrize("field,value", [
    ("t1", 0.0), ("t2", -1.0), ("promo_idle_latency", 0.0),
])
def test_timer_validation(field, value):
    with pytest.raises(ValueError):
        RrcConfig(**{field: value})


def test_fig3_breakeven_is_calibrated_to_9_seconds():
    """The signalling energy default is chosen so that the intuitive
    immediate-IDLE scheme breaks even at a 9 s gap (Section 3.1)."""
    config = RrcConfig()
    power = config.power
    # Original at t = 9 s: 4 s DCH tail + 5 s FACH + FACH→DCH promotion.
    original = (power.dch * config.t1 + power.fach * 5.0
                + power.promotion * config.promo_fach_latency)
    intuitive = (power.idle * 9.0
                 + power.promotion * config.promo_idle_latency
                 + config.promo_idle_signalling_energy)
    assert original == pytest.approx(intuitive, abs=0.05)
