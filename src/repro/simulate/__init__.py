"""Simulation substrate: virtual time, hardware profiles, and transport."""

from .clock import ClockWindow, VirtualClock
from .hardware import (
    GaussianNoise,
    HardwareProfile,
    HypervisorNoise,
    PLATFORMS,
    synthesize_observations,
)
# Channel names re-export from the transport package, their home.
from ..transport import (
    Channel,
    ChannelDecorator,
    ChannelSpec,
    ChannelStats,
    FileChannel,
    LatencyChannel,
    LinkModel,
    LossyChannel,
    MemoryChannel,
    make_channel,
)
from .runtime import ACCOUNTS, LOADING, PREFILTERING, QUERY, CostLedger

__all__ = [
    "ACCOUNTS",
    "Channel",
    "ChannelDecorator",
    "ChannelSpec",
    "ChannelStats",
    "ClockWindow",
    "CostLedger",
    "FileChannel",
    "GaussianNoise",
    "HardwareProfile",
    "HypervisorNoise",
    "LOADING",
    "LatencyChannel",
    "LinkModel",
    "LossyChannel",
    "MemoryChannel",
    "PLATFORMS",
    "PREFILTERING",
    "QUERY",
    "VirtualClock",
    "make_channel",
    "synthesize_observations",
]
