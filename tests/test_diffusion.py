"""Tests for noise schedules, the forward process, samplers and pipelines."""

import numpy as np
import pytest

from repro.diffusion import (
    DDIMSampler,
    DDPMSampler,
    NoiseSchedule,
    add_noise,
    cosine_beta_schedule,
    forward_trajectory,
    linear_beta_schedule,
)


class TestSchedules:
    def test_linear_schedule_monotonic(self):
        betas = linear_beta_schedule(50)
        assert len(betas) == 50
        assert np.all(np.diff(betas) >= 0)
        assert betas[0] > 0 and betas[-1] < 1

    def test_cosine_schedule_bounds(self):
        betas = cosine_beta_schedule(50)
        assert np.all(betas >= 0) and np.all(betas <= 0.999)

    def test_alphas_bar_decreasing_to_near_zero(self):
        schedule = NoiseSchedule.create(200)
        assert np.all(np.diff(schedule.alphas_bar) < 0)
        assert schedule.alphas_bar[-1] < 0.1

    def test_unknown_schedule_kind_raises(self):
        with pytest.raises(ValueError):
            NoiseSchedule.create(10, kind="nope")

    def test_signal_and_noise_scales_sum_of_squares(self):
        schedule = NoiseSchedule.create(30)
        signal, noise = schedule.signal_and_noise_scales(np.array([0, 15, 29]))
        np.testing.assert_allclose(signal ** 2 + noise ** 2, 1.0, atol=1e-10)


class TestForwardProcess:
    def test_add_noise_shapes_and_determinism(self):
        schedule = NoiseSchedule.create(20)
        x0 = np.zeros((4, 3, 8, 8), dtype=np.float32)
        noise = np.random.default_rng(0).standard_normal(x0.shape).astype(np.float32)
        xt, eps = add_noise(x0, np.array([5, 5, 5, 5]), schedule, noise=noise)
        assert xt.shape == x0.shape
        np.testing.assert_allclose(eps, noise)
        # With x0 = 0, x_t is exactly the scaled noise.
        scale = np.sqrt(1 - schedule.alphas_bar[5])
        np.testing.assert_allclose(xt, scale * noise, rtol=1e-5)

    def test_add_noise_t0_is_nearly_clean(self):
        schedule = NoiseSchedule.create(100)
        x0 = np.ones((1, 3, 4, 4), dtype=np.float32)
        xt, _ = add_noise(x0, np.array([0]), schedule,
                          rng=np.random.default_rng(1))
        assert np.mean(np.abs(xt - x0)) < 0.2

    def test_forward_trajectory_ends_in_noise(self):
        schedule = NoiseSchedule.create(100)
        x0 = np.ones((1, 3, 8, 8), dtype=np.float32)
        trajectory = forward_trajectory(x0, schedule, rng=np.random.default_rng(2))
        assert trajectory.shape[0] == 101
        terminal = trajectory[-1]
        # Terminal state should be approximately zero-mean unit-variance noise.
        assert abs(float(terminal.mean())) < 0.5
        assert 0.5 < float(terminal.std()) < 2.0


class TestSamplers:
    def test_ddim_timestep_schedule_strided_and_descending(self):
        schedule = NoiseSchedule.create(100)
        sampler = DDIMSampler(schedule, num_steps=10)
        assert len(sampler.timesteps) == 10
        assert sampler.timesteps == sorted(sampler.timesteps, reverse=True)
        assert max(sampler.timesteps) <= 99

    def test_ddim_invalid_steps_raises(self):
        schedule = NoiseSchedule.create(10)
        with pytest.raises(ValueError):
            DDIMSampler(schedule, num_steps=0)
        with pytest.raises(ValueError):
            DDIMSampler(schedule, num_steps=11)

    def test_ddim_deterministic_given_initial_noise(self, tiny_model):
        schedule = NoiseSchedule.create(tiny_model.spec.train_timesteps)
        sampler = DDIMSampler(schedule, num_steps=4)
        shape = (2, 3, 16, 16)
        noise = np.random.default_rng(0).standard_normal(shape).astype(np.float32)
        out_a = sampler.sample(tiny_model, shape, np.random.default_rng(1),
                               initial_noise=noise)
        out_b = sampler.sample(tiny_model, shape, np.random.default_rng(2),
                               initial_noise=noise)
        np.testing.assert_allclose(out_a, out_b, atol=1e-6)

    def test_ddpm_sampler_produces_finite_output(self, tiny_model):
        schedule = NoiseSchedule.create(tiny_model.spec.train_timesteps)
        sampler = DDPMSampler(schedule)
        out = sampler.sample(tiny_model, (1, 3, 16, 16), np.random.default_rng(0))
        assert out.shape == (1, 3, 16, 16)
        assert np.all(np.isfinite(out))


class TestPipeline:
    def test_unconditional_generation_shape_and_range(self, tiny_pipeline):
        images = tiny_pipeline.generate(3, seed=0, batch_size=2)
        assert images.shape == (3, 3, 16, 16)
        assert np.all(np.isfinite(images))

    def test_seed_reproducibility(self, tiny_pipeline):
        a = tiny_pipeline.generate(2, seed=5, batch_size=2)
        b = tiny_pipeline.generate(2, seed=5, batch_size=2)
        np.testing.assert_allclose(a, b)

    def test_different_seeds_differ(self, tiny_pipeline):
        a = tiny_pipeline.generate(2, seed=1, batch_size=2)
        b = tiny_pipeline.generate(2, seed=2, batch_size=2)
        assert not np.allclose(a, b)

    def test_text_pipeline_requires_prompts_api(self, tiny_text_pipeline):
        with pytest.raises(ValueError):
            tiny_text_pipeline.generate(2)

    def test_unconditional_pipeline_rejects_prompts_api(self, tiny_pipeline):
        with pytest.raises(ValueError):
            tiny_pipeline.encode_prompts(["a prompt"])

    def test_text_to_image_generation(self, tiny_text_pipeline):
        prompts = ["a red circle above a blue square on a gray background",
                   "a large green ring left of a yellow cross on a dark background"]
        images = tiny_text_pipeline.generate_from_prompts(prompts, seed=0)
        assert images.shape == (2, 3, 16, 16)
        # The latent decoder ends in tanh, so pixel outputs are bounded.
        assert np.all(np.abs(images) <= 1.0)

    def test_initial_noise_deterministic(self, tiny_pipeline):
        np.testing.assert_allclose(tiny_pipeline.initial_noise(2, seed=3),
                                   tiny_pipeline.initial_noise(2, seed=3))
