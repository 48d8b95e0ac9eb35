"""Scene-scale frustum grids: exponentially growing cells along depth.

Outdoor scenes need near cells small and far cells huge.  The frustum
geometry maps grid coordinates through
p = alpha1 * exp(alpha2 * gz) * (f*(gx - nx/2), f*(gy - ny/2), 1), so
cell boundaries stay exact planes and the same traversal/loss machinery
works unchanged.  Each ray is traced into a table of its own, whose flat
arrays are that ray's row.  Also shows the disparity + semantics event
cost used for scene supervision.
"""

import numpy as np

from drc import AuxGrid, OccupancyGrid, RayBatch, make_frustum_geometry, trace_batch, view_loss

geom = make_frustum_geometry((64, 32, 32), z_min=0.5, z_max=1000.0, hfov_deg=50.0)
print(f"alpha1={geom.alpha1}  alpha2={geom.alpha2:.5f}  f={geom.f:.6f}")

zs = geom.alpha1 * np.exp(geom.alpha2 * np.arange(33))
print("depth-layer boundaries (m):", np.array2string(zs[:6], precision=2),
      "...", np.array2string(zs[-3:], precision=0))


def apex_ray(direction):
    """The table of one ray from the camera apex, and its cells' entry
    depths: t0, then each exit depth but the last."""
    table = trace_batch(geom, np.zeros((1, 3)), np.asarray(direction)[None])
    return table, np.concatenate([table.t0, table.t_exit[:-1]])


# a ray from the camera apex straight down the optical axis crosses every layer
table, t_enter = apex_ray([0.0, 0.0, 1.0])
print(f"apex ray: {table.n[0]} cells, first extent {table.t_exit[0] - t_enter[0]:.3f} m, "
      f"last extent {table.t_exit[-1] - t_enter[-1]:.1f} m")

# an oblique ray: its chord runs from its first cell's entry to its last cell's exit
d = np.array([0.25, 0.1, 1.0])
table, t_enter = apex_ray(d / np.linalg.norm(d))
print(f"oblique ray: {table.n[0]} cells, chord {table.t_exit[-1] - t_enter[0]:.1f} m")

# scene supervision: observed disparity + class label per ray
rng = np.random.default_rng(0)
k = 4
payload = np.full((geom.ncells, k), 1.0 / k)
payload[table.cells] = rng.dirichlet(np.ones(k), size=table.n[0])  # class distributions along the ray
aux = AuxGrid(geom, "semantics", payload.reshape(*geom.shape, k))
rays = RayBatch("depth_semantics", np.ones(1), d=np.array([12.0]), c=np.array([2]))
res = view_loss(OccupancyGrid(geom, np.full(geom.shape, 0.8)), rays, aux, traces=table)
print(f"\nsemantic ray loss: {res.loss:.4f}")
print("payload gradient row sums (one per traversed cell, escape has none):",
      np.array2string(res.grad_p.reshape(-1, k)[table.cells].sum(axis=1)[:5], precision=4), "...")
# through an empty grid the ray escapes for certain: its loss is the escape cost
escape = view_loss(OccupancyGrid(geom, np.ones(geom.shape)), rays, aux, traces=table)
print("escape event cost uses disparity 1/1000 and the uniform distribution:",
      f"{escape.loss:.4f}")
