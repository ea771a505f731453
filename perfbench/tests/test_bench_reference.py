import pytest

from perfbench.reference import REFERENCE_S, Reference


def test_scale_converts_to_reference_seconds():
    assert Reference.scale(REFERENCE_S, REFERENCE_S) == pytest.approx(1.0)
    # a host running at half speed takes twice as long: its seconds count half
    assert Reference.scale(2 * REFERENCE_S, 2 * REFERENCE_S) == pytest.approx(0.5)
    assert Reference.scale(REFERENCE_S, 3 * REFERENCE_S) == pytest.approx(0.5)


def test_kernel_takes_tens_of_milliseconds():
    ref = Reference()
    assert 0.005 < min(ref.seconds() for _ in range(3)) < 1.0
