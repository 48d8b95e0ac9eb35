"""drc: differentiable ray consistency between voxel grids and 2D observations.

Core objects: occupancy grids over uniform or frustum geometries
(``grid``), calibrated cameras and their pixel rays (``cameras``), exact
ray-grid traversal of a batch of rays into one trace table
(``traversal``), the ray-consistency loss and its analytic gradients over
a trace table, evaluated only by ``view_loss`` (``consistency``), a
synthetic observation renderer (``renderer``), a gradient-descent
single-instance fitter (``fitter``), a depth-fusion baseline
(``fusion``), and IoU evaluation and the gradient check (``metrics``).

NOTE the sign convention: ``OccupancyGrid.x`` is the probability a cell is
EMPTY.  Conventional occupancy is ``1 - x`` everywhere in this package.
"""

__version__ = "0.1.0"

from .errors import FormatError
from .grid import (
    AuxGrid,
    BinaryGrid,
    GridGeometry,
    OccupancyGrid,
    load_grid,
    make_frustum_geometry,
    same_geometry,
    save_grid,
    uniform_geometry,
    unit_cube_geometry,
)
from .cameras import Camera, load_camera, perspective_camera, save_camera
from .traversal import TraceTable, trace_batch
from .consistency import RayBatch, ViewLossResult, view_loss
