"""Delay model: the seconds a global iteration takes.

A global iteration spends ``(tau + gamma) * t_cp`` seconds computing,
``tau * t_de`` uploading device gradients to the edge, and ``t_ec`` on the
edge-to-cloud exchange.  The simulator stamps each iteration with these
times; ``planner`` optimizes the schedule under a deadline from them.
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
        "model_bits", "edge_cloud_time", "edge_cloud_ratio"), defaults=(None, 10.0))):
    """Physical link and CPU parameters from which the phase times derive.

    ``edge_cloud_time`` gives t_ec directly; when it is None, t_ec is
    ``edge_cloud_ratio`` times the device-edge upload time.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name, value in zip(self._fields, self):
            if not (name == "edge_cloud_time" and value is None):
                check_number(value, name, POSITIVE)
        return self


def compute_times(lp: LinkComputeParams) -> PhaseTimes:
    """Phase times from the link budget: t_cp = c*D/f, t_de from the channel rate."""
    t_cp = lp.cycles_per_bit * lp.bits_per_local_iter / lp.cpu_hz
    snr = lp.channel_gain * lp.power_w / lp.noise_w
    rate = lp.bandwidth_hz * math.log2(1.0 + snr)
    # positive inputs can still give a zero rate (the SNR underflows) or an infinite one
    check_number(rate, "link rate bandwidth_hz * log2(1 + snr)", POSITIVE)
    t_de = lp.model_bits / rate
    t_ec = lp.edge_cloud_time if lp.edge_cloud_time is not None else lp.edge_cloud_ratio * t_de
    return PhaseTimes(t_cp=t_cp, t_de=t_de, t_ec=t_ec)


def iteration_delay(tau: float, gamma: float, times: PhaseTimes) -> float:
    """Seconds per global iteration: tau+gamma compute steps, tau uploads, one cloud exchange."""
    return (tau + gamma) * times.t_cp + tau * times.t_de + times.t_ec


def baseline_iteration_delay(tau: float, gamma: float, times: PhaseTimes) -> float:
    """Same, for the variant that runs gamma local steps inside each of the tau rounds."""
    return tau * gamma * times.t_cp + tau * times.t_de + times.t_ec
