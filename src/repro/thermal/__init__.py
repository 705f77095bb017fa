"""Thermal substrate: floorplan adjacency and a lumped-RC core network.

Supports the paper's thermal-aware provisioning study (Figure 18): the
policy constrains how much power adjacent islands may be provisioned, and
the RC model verifies temperatures stay below the hotspot threshold when
the constraints hold.
"""

from .floorplan import Floorplan, grid_floorplan
from .hotspot import ViolationTracker
from .rc_model import RCThermalModel

__all__ = [
    "Floorplan",
    "RCThermalModel",
    "ViolationTracker",
    "grid_floorplan",
]
