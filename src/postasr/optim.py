"""NovoGrad optimizer with polynomial learning-rate decay.

Each named tensor keeps a scalar second moment (the running squared
gradient norm) and a first-moment tensor. Normalizing by the per-tensor
gradient norm makes the first step invariant to gradient scale; the
unusual beta2 default of 0.25 is kept on purpose.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class OptimizerConfig:
    lr0: float = 0.001
    beta1: float = 0.95
    beta2: float = 0.25
    eps: float = 1e-8
    weight_decay: float = 0.0
    total_steps: int = 1000
    poly_power: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.beta1 < 1.0 or not 0.0 <= self.beta2 < 1.0:
            raise ValueError("beta1 and beta2 must be in [0, 1)")
        if self.lr0 <= 0:
            raise ValueError("lr0 must be > 0")
        if self.total_steps < 1:
            raise ValueError("total_steps must be >= 1")
        if self.eps <= 0:
            raise ValueError("eps must be > 0")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be >= 0")


@dataclass
class OptimizerState:
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, float] = field(default_factory=dict)
    step: int = 0


def init_state(params: dict[str, np.ndarray]) -> OptimizerState:
    return OptimizerState(
        m={name: np.zeros_like(p, dtype=np.float64) for name, p in params.items()},
        v={name: 0.0 for name in params},
        step=0,
    )


def poly_decay(step: int, cfg: OptimizerConfig) -> float:
    """lr0 * (1 - step/total)^power, clamped to 0 past the horizon."""
    if step < 0:
        raise ValueError("step must be >= 0")
    if step >= cfg.total_steps:
        return 0.0
    return cfg.lr0 * (1.0 - step / cfg.total_steps) ** cfg.poly_power


def novograd_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
                  state: OptimizerState, cfg: OptimizerConfig,
                  lr_t: float) -> tuple[dict[str, np.ndarray], OptimizerState]:
    """One update; returns fresh params and state, inputs untouched.

    Per tensor: v <- beta2*v + (1-beta2)*|g|^2 (first step: |g|^2);
    m <- beta1*m + g/(sqrt(v)+eps) + weight_decay*w (first step: no beta1
    term); w <- w - lr_t*m.
    """
    if lr_t < 0:
        raise ValueError("lr_t must be >= 0")
    if set(params) != set(grads):
        raise ValueError("params and grads must cover the same tensor names")
    first = state.step == 0
    new_m, new_v, new_p = {}, {}, {}
    for name, w in params.items():
        g = np.asarray(grads[name], dtype=np.float64)
        if g.shape != w.shape:
            raise ValueError(f"grad shape {g.shape} does not match param {name!r} shape {w.shape}")
        sq = float((g * g).sum())
        v = sq if first else cfg.beta2 * state.v[name] + (1.0 - cfg.beta2) * sq
        w64 = np.asarray(w, dtype=np.float64)
        update = g / (math.sqrt(v) + cfg.eps) + cfg.weight_decay * w64
        m = update if first else cfg.beta1 * state.m[name] + update
        new_v[name] = v
        new_m[name] = m
        new_p[name] = (w64 - lr_t * m).astype(w.dtype)
    return new_p, OptimizerState(m=new_m, v=new_v, step=state.step + 1)
