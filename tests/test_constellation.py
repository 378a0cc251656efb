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
from ccsecrecy.constellation import MAX_POINTS


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


# 0 is a square with even side, but no constellation.
@pytest.mark.parametrize("bad", [0, -4, 2, 8, 9, 32])
def test_qam_rejects_unsupported_sizes(bad):
    with pytest.raises(ValueError, match="perfect square"):
        make_qam(bad)


def test_size_cap_builds_the_largest_sets():
    for c in (make_psk(MAX_POINTS), make_qam(MAX_POINTS)):
        assert c.size == MAX_POINTS
        assert sum(len(orbit) for orbit in c.orbits) == MAX_POINTS


def test_from_points_normalizes_scale():
    c = from_points([3.0, -3.0])
    assert np.allclose(c.points, [1.0, -1.0], atol=1e-15)


def test_from_points_square_example():
    c = from_points([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j])
    assert np.allclose(np.abs(c.points), 1.0, atol=1e-15)


def test_from_points_zero_energy_is_degenerate():
    with pytest.raises(ValueError, match="energy"):
        from_points([0.0, 0.0])


# Points are scaled by a power of two before their energy is taken, so a
# valid set at any scale builds: the 1e200 pair used to overflow the energy
# and the 1e-170 pair to underflow it to zero.
@pytest.mark.parametrize(
    "raw, want",
    [
        ([1e200, -1e200], [1.0, -1.0]),
        ([1e-170, -1e-170], [1.0, -1.0]),
        ([1e308 + 1e308j, -1e308 - 1e308j], [(1 + 1j) / math.sqrt(2), -(1 + 1j) / math.sqrt(2)]),
        ([5e-324, -5e-324], [1.0, -1.0]),
    ],
    ids=["1e200", "1e-170", "1e308", "subnormal"],
)
def test_from_points_builds_at_extreme_scales(raw, want):
    c = from_points(raw)
    assert np.allclose(c.points, want, rtol=0.0, atol=1e-15)
    assert np.array_equal(c.points, from_points(np.array(want)).points)


def test_from_points_all_zero_is_still_degenerate():
    with pytest.raises(ValueError, match="^degenerate constellation: total energy is zero$"):
        from_points([0.0, 0.0, 0j])


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
    with pytest.raises(ValueError, match="at least 2"):
        from_points([])


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
