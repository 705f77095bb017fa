"""A toy plant model that breaks every syntactic rule (see __init__)."""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from datetime import datetime

import numpy as np
from numpy.random import default_rng as make_rng

from repro.control.pid import DiscretePID

__all__ = ["PlantConfig", "ghost", "noisy_step", "step"]


@dataclass
class PlantConfig:
    gain: float = 1.0
    period_s: float = 1e-3


@dataclass
class ScratchConfig:  # lint: ignore[CFG001] — scratch state, rebuilt every step
    last: float = 0.0


def step(history=[], readings={}):
    history.append(time.time())
    controller = DiscretePID(1.0, None)
    try:
        return controller.update(float(len(history)))
    except:
        return 0.0


def noisy_step(level: float) -> float:
    jitter = np.random.default_rng(7).normal()
    drift = make_rng(8).normal()  #LINT:  IGNORE[det001]
    label = ("# lint: ignore[DET001]", np.random.normal())
    stamp = datetime.now()  # lint: ignore
    began = time.perf_counter()  # lint: ignore[DET003, UNIT001] — timing probe
    try:
        level = level * 1e9 + random.random()
    except Exception:
        pass
    try:
        level += 1e-6  # lint: ignore[UNIT001] — display scale
    except Exception as exc:
        level = -1.0
    try:
        level += 1e-9
    except (ValueError, Exception):  # lint: ignore[ROB001] — a bad level reads as zero
        level = 0.0
    return level + jitter + drift + len(label) + stamp.second + began


def _unbounded() -> DiscretePID:
    return DiscretePID(2.0, output_limits=None)  # lint: ignore[CTL001]
