"""Optimizer tests: hand-checked update, decay schedule, convergence."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from postasr.optim import (
    OptimizerConfig,
    OptimizerState,
    init_state,
    novograd_step,
    poly_decay,
)

CFG = OptimizerConfig(total_steps=100)


def step_once(params, grads, state=None, cfg=CFG, lr=0.001):
    state = state if state is not None else init_state(params)
    return novograd_step(params, grads, state, cfg, lr)


class TestHandChecked:
    def test_first_step_example(self):
        params = {"w": np.zeros(2, dtype=np.float32)}
        grads = {"w": np.array([3.0, 4.0])}
        new_p, new_s = step_once(params, grads)
        assert new_s.v["w"] == pytest.approx(25.0, rel=1e-12)
        np.testing.assert_allclose(new_s.m["w"], [0.6, 0.8], rtol=1e-8)
        np.testing.assert_allclose(new_p["w"], [-0.0006, -0.0008], rtol=1e-6)
        assert new_s.step == 1

    def test_second_step_recursion(self):
        params = {"w": np.zeros(2, dtype=np.float64)}
        g1 = {"w": np.array([3.0, 4.0])}
        g2 = {"w": np.array([0.0, 2.0])}
        p1, s1 = step_once(params, g1)
        p2, s2 = step_once(p1, g2, state=s1)
        v2 = 0.25 * 25.0 + 0.75 * 4.0
        np.testing.assert_allclose(s2.v["w"], v2, rtol=1e-12)
        m2 = 0.95 * s1.m["w"] + g2["w"] / (math.sqrt(v2) + CFG.eps)
        np.testing.assert_allclose(s2.m["w"], m2, rtol=1e-12)
        np.testing.assert_allclose(p2["w"], p1["w"] - 0.001 * m2, rtol=1e-10)

    def test_zero_gradient_keeps_params(self):
        params = {"w": np.array([1.0, -2.0], dtype=np.float32)}
        zeros = {"w": np.zeros(2)}
        p1, s1 = step_once(params, zeros)
        np.testing.assert_array_equal(p1["w"], params["w"])
        p2, _ = step_once(p1, zeros, state=s1)
        np.testing.assert_array_equal(p2["w"], params["w"])

    def test_weight_decay_enters_update(self):
        cfg = OptimizerConfig(total_steps=100, weight_decay=0.1)
        params = {"w": np.array([2.0], dtype=np.float64)}
        grads = {"w": np.array([3.0])}
        _, s1 = novograd_step(params, grads, init_state(params), cfg, 0.001)
        assert s1.m["w"][0] == pytest.approx(3.0 / (3.0 + cfg.eps) + 0.1 * 2.0, rel=1e-9)

    def test_inputs_untouched(self):
        params = {"w": np.array([1.0], dtype=np.float32)}
        grads = {"w": np.array([2.0])}
        state = init_state(params)
        step_once(params, grads, state=state)
        assert params["w"][0] == 1.0
        assert state.step == 0 and state.v["w"] == 0.0

    def test_shape_mismatch(self):
        params = {"w": np.zeros(2)}
        with pytest.raises(ValueError, match="shape"):
            step_once(params, {"w": np.zeros(3)})

    def test_name_mismatch(self):
        with pytest.raises(ValueError, match="names"):
            step_once({"w": np.zeros(2)}, {"x": np.zeros(2)})


class TestScaleInvariance:
    @given(st.integers(0, 10_000), st.sampled_from([10.0, 0.1, 1000.0]))
    @settings(max_examples=60, deadline=None)
    def test_first_step_gradient_scale_free(self, seed, factor):
        rng = np.random.default_rng(seed)
        g = rng.normal(size=5)
        if float(np.abs(g).max()) < 1e-3:
            g = g + 1.0
        params = {"w": np.zeros(5, dtype=np.float64)}
        p_a, _ = step_once(params, {"w": g})
        p_b, _ = step_once(params, {"w": g * factor})
        np.testing.assert_allclose(p_a["w"], p_b["w"], atol=1e-6 * 0.001)

    def test_direction_is_normalized_gradient(self):
        g = np.array([1.0, 2.0, 2.0])
        p, _ = step_once({"w": np.zeros(3, dtype=np.float64)}, {"w": g})
        np.testing.assert_allclose(p["w"], -0.001 * g / 3.0, rtol=1e-6)


class TestPolyDecay:
    def test_endpoints(self):
        cfg = OptimizerConfig(lr0=0.001, total_steps=200, poly_power=2.0)
        assert poly_decay(0, cfg) == pytest.approx(0.001)
        assert poly_decay(200, cfg) == 0.0
        assert poly_decay(500, cfg) == 0.0

    def test_midpoint(self):
        cfg = OptimizerConfig(lr0=0.001, total_steps=200, poly_power=2.0)
        assert poly_decay(100, cfg) == pytest.approx(0.00025, rel=1e-12)

    def test_monotone(self):
        cfg = OptimizerConfig(lr0=0.01, total_steps=50, poly_power=1.5)
        lrs = [poly_decay(s, cfg) for s in range(51)]
        assert all(a >= b for a, b in zip(lrs, lrs[1:]))

    def test_negative_step(self):
        with pytest.raises(ValueError):
            poly_decay(-1, CFG)


class TestConvergence:
    def test_quadratic_bowl(self):
        rng = np.random.default_rng(0)
        target = rng.uniform(-1.0, 1.0, size=10)
        scales = np.linspace(1.0, 4.0, 10)
        cfg = OptimizerConfig(total_steps=5000)
        params = {"w": np.zeros(10, dtype=np.float64)}
        state = init_state(params)
        for step in range(cfg.total_steps):
            g = scales * (params["w"] - target)
            params, state = novograd_step(params, {"w": g}, state, cfg, poly_decay(step, cfg))
        assert float(np.linalg.norm(params["w"] - target)) < 1e-3

    def test_deterministic(self):
        params = {"w": np.array([0.3, -0.7])}
        grads = {"w": np.array([0.5, 0.1])}
        a = step_once(params, grads)
        b = step_once(params, grads)
        assert a[0]["w"].tobytes() == b[0]["w"].tobytes()
        assert a[1].v == b[1].v


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            OptimizerConfig(beta1=1.0)
        with pytest.raises(ValueError):
            OptimizerConfig(lr0=0.0)
        with pytest.raises(ValueError):
            OptimizerConfig(total_steps=0)
        with pytest.raises(ValueError):
            OptimizerConfig(weight_decay=-0.1)

    def test_paper_defaults(self):
        cfg = OptimizerConfig(total_steps=10)
        assert (cfg.lr0, cfg.beta1, cfg.beta2) == (0.001, 0.95, 0.25)
        assert cfg.weight_decay == 0.0
