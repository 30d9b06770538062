"""In-situ analysis: microstructure metrics, lamellar spectra, dendrite tips, I/O."""

from .dendrite import TipState, overgrown, tip_position, tip_radius, track_tips
from .io import (
    TimeSeriesWriter,
    extract_interface_cells,
    load_snapshot,
    save_snapshot,
    snapshot_path,
    write_vtk,
)
from .lamellar import cross_section, lamellar_spacing, phase_spectrum
from .metrics import (
    front_position,
    front_velocity,
    interface_fraction,
    interfacial_area,
    phase_fractions,
    solid_fraction_profile,
)

__all__ = [
    "TipState",
    "overgrown",
    "tip_position",
    "tip_radius",
    "track_tips",
    "TimeSeriesWriter",
    "extract_interface_cells",
    "load_snapshot",
    "save_snapshot",
    "snapshot_path",
    "write_vtk",
    "cross_section",
    "lamellar_spacing",
    "phase_spectrum",
    "front_position",
    "front_velocity",
    "interface_fraction",
    "interfacial_area",
    "phase_fractions",
    "solid_fraction_profile",
]
