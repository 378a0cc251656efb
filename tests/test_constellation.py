import math

import numpy as np
import pytest

from ccsecrecy import (
    Constellation,
    average_energy,
    from_points,
    make_bpsk,
    make_psk,
    make_qam,
    min_distance,
)


def test_bpsk_points():
    c = make_bpsk()
    assert c.size == 2
    assert np.array_equal(c.points, np.array([1.0 + 0.0j, -1.0 + 0.0j]))
    assert min_distance(c) == 2.0


def test_psk4_is_fourth_roots_of_unity():
    c = make_psk(4)
    expected = np.array([1.0, 1.0j, -1.0, -1.0j])
    assert np.allclose(c.points, expected, atol=1e-15)


def test_psk2_degenerates_to_bpsk():
    assert np.allclose(make_psk(2).points, make_bpsk().points, atol=1e-15)


def test_psk8_geometry():
    c = make_psk(8)
    assert np.allclose(np.abs(c.points), 1.0, atol=1e-15)
    assert math.isclose(min_distance(c), 2.0 * math.sin(math.pi / 8), rel_tol=1e-12)


def test_psk_angles_increase():
    angles = np.angle(make_psk(8).points) % (2.0 * np.pi)
    assert np.all(np.diff(angles) > 0)


def test_psk_rejects_tiny_sizes():
    with pytest.raises(ValueError, match="at least 2"):
        make_psk(1)


def test_qam4_is_scaled_square():
    c = make_qam(4)
    expected = np.array([-1 - 1j, -1 + 1j, 1 - 1j, 1 + 1j]) / math.sqrt(2.0)
    assert np.allclose(c.points, expected, atol=1e-15)
    assert math.isclose(min_distance(c), math.sqrt(2.0), rel_tol=1e-12)


def test_qam16_scale_and_spacing():
    c = make_qam(16)
    # Raw per-axis levels {+-1, +-3} average to 5 per axis, 10 in total.
    assert np.isclose(np.max(np.abs(c.points.real)), 3.0 / math.sqrt(10.0))
    assert math.isclose(min_distance(c), 2.0 / math.sqrt(10.0), rel_tol=1e-12)


def test_qam_ordering_is_lexicographic():
    pts = make_qam(16).points
    keys = list(zip(pts.real.round(12), pts.imag.round(12)))
    assert keys == sorted(keys)


@pytest.mark.parametrize("bad", [2, 8, 9, 32])
def test_qam_rejects_unsupported_sizes(bad):
    with pytest.raises(ValueError, match="perfect square"):
        make_qam(bad)


def test_from_points_normalizes_scale():
    c = from_points([3.0, -3.0])
    assert np.allclose(c.points, [1.0, -1.0], atol=1e-15)


def test_from_points_square_example():
    c = from_points([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j])
    assert np.allclose(np.abs(c.points), 1.0, atol=1e-15)


def test_from_points_zero_energy_is_degenerate():
    with pytest.raises(ValueError, match="energy"):
        from_points([0.0, 0.0])


def test_from_points_rejects_duplicates():
    with pytest.raises(ValueError, match="duplicate"):
        from_points([1.0, 1.0, -1.0])


def test_from_points_idempotent():
    first = from_points([0.3 + 1j, -2.0, 1.5j, 0.7 - 0.2j])
    second = from_points(first.points)
    assert np.max(np.abs(second.points.real - first.points.real)) <= 1e-15
    assert np.max(np.abs(second.points.imag - first.points.imag)) <= 1e-15


@pytest.mark.parametrize(
    "c",
    [make_bpsk(), make_psk(4), make_psk(8), make_psk(16), make_qam(4), make_qam(16), make_qam(64)],
    ids=lambda c: c.name,
)
def test_constructors_give_unit_energy(c):
    assert abs(average_energy(c) - 1.0) <= 1e-12
    assert min_distance(c) > 0.0


def test_constellation_rejects_single_point():
    with pytest.raises(ValueError, match="at least 2"):
        Constellation("one", np.array([1.0 + 0.0j]))


def test_constellation_rejects_wrong_energy():
    with pytest.raises(ValueError, match="energy"):
        Constellation("hot", np.array([2.0 + 0.0j, -2.0 + 0.0j]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)])
def test_nonfinite_points_are_rejected(bad):
    with pytest.raises(ValueError, match="finite"):
        from_points([1.0, bad])
    with pytest.raises(ValueError, match="finite"):
        Constellation("bad", np.array([1.0, bad, -1.0], dtype=complex))


def test_points_are_read_only():
    c = make_bpsk()
    with pytest.raises(ValueError):
        c.points[0] = 5.0
