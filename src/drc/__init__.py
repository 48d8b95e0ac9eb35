"""drc: differentiable ray consistency between voxel grids and 2D observations.

Core objects: occupancy grids over uniform or frustum geometries
(``grid``), calibrated cameras and rays (``cameras``), exact ray-grid
traversal (``traversal``), the ray-consistency loss and its analytic
gradients (``consistency``), a synthetic observation renderer
(``renderer``), a gradient-descent single-instance fitter (``fitter``), a
depth-fusion baseline (``fusion``) and IoU evaluation (``metrics``).

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
    make_uniform_grid,
    same_geometry,
    save_grid,
    uniform_geometry,
    unit_cube_geometry,
)
from .cameras import Camera, Ray, load_camera, perspective_camera, pixel_to_ray, project, save_camera
from .traversal import RayTrace, TraceTable, trace, trace_batch
from .consistency import (
    EventCosts,
    RayBatch,
    ViewLossResult,
    cost_color,
    cost_depth,
    cost_mask,
    cost_semantic,
    event_probabilities,
    mask_loss_closed_form,
    ray_loss,
    ray_loss_grad_p,
    ray_loss_grad_x,
    view_loss,
)
