"""Delay model: the seconds a global iteration takes.

A global iteration spends ``steps * t_cp`` seconds computing, ``uploads *
t_de`` uploading device messages to the edge, and ``t_ec`` on the
edge-to-cloud exchange.  Every hierarchical algorithm uploads ``tau`` times
per iteration; its compute steps are ``federation.steps_per_round``:
``tau + gamma`` for qhetfed, ``tau * gamma`` for the model-averaging baseline.
The simulator stamps each iteration with this delay; ``planner`` optimizes
the qhetfed schedule under a deadline from the same times.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .checks import POSITIVE, check_number


class PhaseTimes(namedtuple("PhaseTimes", "t_cp t_de t_ec")):
    """Per-phase delays in seconds: local compute step, device-edge upload, edge-cloud exchange."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name, value in zip(self._fields, self):
            check_number(value, name, POSITIVE)
        return self


class LinkComputeParams(namedtuple("LinkComputeParams", (
        "bandwidth_hz", "power_w", "noise_w", "channel_gain", "cycles_per_bit", "cpu_hz", "bits_per_local_iter",
        "model_bits", "edge_cloud_time", "edge_cloud_ratio"), defaults=(None, None))):
    """Physical link and CPU parameters from which the phase times derive.

    ``edge_cloud_time`` gives t_ec directly; otherwise t_ec is
    ``edge_cloud_ratio`` times the device-edge upload time, a ratio of 10 when
    neither is given.  Giving both is an error.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name, value in zip(self._fields, self):
            if not (name in cls._field_defaults and value is None):
                check_number(value, name, POSITIVE)
        if self.edge_cloud_time is not None and self.edge_cloud_ratio is not None:
            raise ValueError("give edge_cloud_time or edge_cloud_ratio, not both")
        if self.edge_cloud_time is None and self.edge_cloud_ratio is None:
            # _replace builds the tuple without coming back through these checks
            return self._replace(edge_cloud_ratio=10.0)
        return self


# link field -> required (it has no default); the fields name the config's ``link``
# keys and ``qhetfed plan``'s link options
LINK_KEYS = {name: name not in LinkComputeParams._field_defaults for name in LinkComputeParams._fields}


def compute_times(lp: LinkComputeParams) -> PhaseTimes:
    """Phase times from the link budget: t_cp = c*D/f, t_de from the channel rate."""
    t_cp = lp.cycles_per_bit * lp.bits_per_local_iter / lp.cpu_hz
    snr = lp.channel_gain * lp.power_w / lp.noise_w
    # log1p keeps a weak link's rate: 1.0 + snr rounds to 1.0 once snr is below about 1e-16
    rate = lp.bandwidth_hz * math.log1p(snr) / math.log(2.0)
    # positive inputs can still give a zero rate (the SNR underflows) or an infinite one
    check_number(rate, "link rate bandwidth_hz * log2(1 + snr)", POSITIVE)
    t_de = lp.model_bits / rate
    t_ec = lp.edge_cloud_time if lp.edge_cloud_time is not None else lp.edge_cloud_ratio * t_de
    return PhaseTimes(t_cp=t_cp, t_de=t_de, t_ec=t_ec)


def iteration_delay(steps: float, uploads: float, times: PhaseTimes) -> float:
    """Seconds per global iteration: ``steps`` compute steps, ``uploads`` device uploads, one cloud exchange."""
    return steps * times.t_cp + uploads * times.t_de + times.t_ec
