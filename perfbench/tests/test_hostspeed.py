"""Host-speed scaling: wall times in reference-host seconds."""

import math

import pytest

from perfbench import hostspeed
from perfbench.measure import Scaled, bracketed


def test_bracketed_is_the_mean_of_the_probes_either_side():
    assert bracketed([1.0, 3.0, 5.0]) == [2.0, 4.0]
    assert bracketed([2.0]) == []


def test_scaled_times_follow_the_probe():
    ref = hostspeed.REFERENCE_PROBE_S
    s = Scaled()
    s.add(2.0, ref)          # the host runs at reference speed
    s.add(2.0, 2 * ref)      # the host runs at half speed
    s.add(3.0, ref / 2)      # the host runs at twice the speed
    assert s.scaled == pytest.approx([2.0, 1.0, 6.0])
    assert s.raw == [2.0, 2.0, 3.0]
    assert "raw median 2.0000 s" in s.note("run_s")


def test_probe_takes_positive_finite_time():
    t = hostspeed.probe()
    assert t > 0 and math.isfinite(t)
    assert hostspeed.scale(t) == pytest.approx(hostspeed.REFERENCE_PROBE_S / t)
