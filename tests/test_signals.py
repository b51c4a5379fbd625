import numpy as np
import pytest

from aepoison.signals import (
    AttackSpec,
    SignalSpec,
    anchor_index,
    base_waveform,
    generate,
    inject_attack,
)


def sine_spec(**kw):
    defaults = dict(period=20, length=100, noise_std=0.0, seed=0)
    defaults.update(kw)
    return SignalSpec(**defaults)


class TestGenerate:
    def test_pure_sine_values(self):
        s = generate(sine_spec())
        i = np.arange(100)
        assert np.allclose(s.values[:, 0], np.sin(2 * np.pi * i / 20))
        assert s.values.max() == pytest.approx(1.0)
        assert s.values.min() == pytest.approx(-1.0)

    def test_linear_dependent_channels(self):
        s = generate(sine_spec(channels=((1.0, 0.0), (0.5, 0.0))))
        assert np.allclose(s.values[:, 1], 0.5 * s.values[:, 0])

    def test_noise_std_calibration(self):
        spec = sine_spec(length=10000, noise_std=0.05, seed=7)
        noisy = generate(spec)
        clean = generate(sine_spec(length=10000, noise_std=0.0))
        measured = np.std(noisy.values[:, 0] - clean.values[:, 0])
        assert 0.045 <= measured <= 0.055

    def test_deterministic_under_seed(self):
        a = generate(sine_spec(noise_std=0.05, seed=3))
        b = generate(sine_spec(noise_std=0.05, seed=3))
        assert np.array_equal(a.values, b.values)

    def test_invariants(self):
        with pytest.raises(ValueError):
            sine_spec(period=1)
        with pytest.raises(ValueError):
            sine_spec(length=10, period=20)
        with pytest.raises(ValueError):
            sine_spec(channels=())


class TestAnchorIndex:
    def test_sine_anchors(self):
        spec = sine_spec()
        assert anchor_index(spec, "SIN_TOP") == 5
        assert anchor_index(spec, "SIN_BOTTOM") == 15
        assert anchor_index(spec, "SIN_SIDE") in (0, 10)

    def test_explicit_index_passthrough(self):
        assert anchor_index(sine_spec(), 42) == 42

    def test_explicit_index_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            anchor_index(sine_spec(), 100)

    @pytest.mark.parametrize("period", [4, 9, 20, 33], ids=lambda period: f"{period}-sine")
    def test_anchors_are_true_extrema_by_exhaustive_scan(self, period):
        spec = sine_spec(period=period, length=3 * period)
        base = base_waveform(spec)[:period]
        top = anchor_index(spec, "SIN_TOP")
        bottom = anchor_index(spec, "SIN_BOTTOM")
        assert base[top] == max(base[i] for i in range(period))
        assert base[bottom] == min(base[i] for i in range(period))


class TestInjectAttack:
    def test_bottom_attack_deepens_minimum(self):
        s = generate(sine_spec())
        out, rng = inject_attack(s, 0, AttackSpec("SIN_BOTTOM", 0.3, 3), 20)
        assert out.values[rng[0], 0] == pytest.approx(-1.3)
        assert rng[0] == 15

    def test_zero_magnitude_is_noop(self):
        s = generate(sine_spec())
        out, rng = inject_attack(s, 0, AttackSpec("SIN_TOP", 0.0, 5), 20)
        assert np.array_equal(out.values, s.values)
        assert rng[0] == rng[1]

    def test_only_target_feature_and_range_touched(self):
        s = generate(sine_spec(channels=((1.0, 0.0), (0.5, 0.1)), noise_std=0.05, seed=9))
        out, (a, b) = inject_attack(s, 0, AttackSpec(30, 0.4, 6, sign="positive"), 20)
        assert np.array_equal(out.values[:, 1], s.values[:, 1])
        mask = np.ones(100, dtype=bool)
        mask[a:b] = False
        assert np.array_equal(out.values[mask, 0], s.values[mask, 0])
        assert np.max(np.abs(out.values[:, 0] - s.values[:, 0])) == pytest.approx(0.4)

    def test_away_from_zero_uses_anchor_sign(self):
        s = generate(sine_spec())
        out, (a, _) = inject_attack(s, 0, AttackSpec("SIN_TOP", 0.25, 3), 20)
        assert out.values[a, 0] == pytest.approx(1.25)

    def test_negative_sign(self):
        s = generate(sine_spec())
        out, (a, _) = inject_attack(s, 0, AttackSpec("SIN_TOP", 0.25, 3, sign="negative"), 20)
        assert out.values[a, 0] == pytest.approx(0.75)

    def test_range_overflow(self):
        s = generate(sine_spec())
        with pytest.raises(ValueError, match="overflows"):
            inject_attack(s, 0, AttackSpec(95, 10 * 0.05, 10, sign="positive"), 20)

    def test_spec_invariants(self):
        with pytest.raises(ValueError):
            AttackSpec("SIN_TOP", -0.1, 5)
        with pytest.raises(ValueError):
            AttackSpec("NOWHERE", 0.3, 5)
