"""One ray through a tiny grid: events, costs, losses and gradients.

Walks through the core quantities on a 3-cell path so every number can be
checked by hand.  Remember: x is the probability a cell is EMPTY.  The ray
is traced into a table of one ray, whose flat arrays are that ray's row,
and the loss is evaluated by ``view_loss``, the same call the fitter
makes, on that table.
"""

import os
import sys

import numpy as np

from drc import OccupancyGrid, RayBatch, trace_batch, uniform_geometry, view_loss

# the direct formulas the loss is checked against live with the test suite's oracles
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "tests"))
from oracles import brute_force_ray_loss, event_probabilities, mask_loss_closed_form, reference_psi  # noqa: E402

geom = uniform_geometry((3, 1, 1), (0, 0, 0), (3, 1, 1))
table = trace_batch(geom, np.array([[-1.0, 0.5, 0.5]]), np.array([[1.0, 0.0, 0.0]]))
# the ray enters its first cell at t0 and every later one where it left the one before
cells, t_exit = table.cells, table.t_exit
t_enter = np.concatenate([table.t0, t_exit[:-1]])
d = 0.5 * (t_enter + t_exit)
print("traversed cells:", cells, "entry t:", t_enter, "exit t:", t_exit)
print("event depths d_i (segment midpoints):", d)

x_r = np.array([0.9, 0.4, 0.7])  # emptiness along the ray
occ = OccupancyGrid(geom, x_r.reshape(geom.shape))
p = event_probabilities(x_r)
print("\nemptiness x_r =", x_r)
print("p(z = i):", p[:-1], " p(escape):", p[-1], " sum:", p.sum())

# depth observation: the ray was measured to stop 2.5 m out
psi = reference_psi("depth", d, 2.5)
res = view_loss(occ, RayBatch("depth", np.ones(1), d=np.array([2.5])), traces=table)
print("\ndepth costs psi (last entry = escape at 10 m):", psi)
print("expected cost L =", res.loss)
print("dL/dx =", res.grad_x.reshape(-1)[cells])
print("(positive entries: the loss falls if that cell gets MORE occupied;")
print(" here the expensive escape event dominates, so every cell is pulled solid,")
print(" the true surface cell at d=2.5 hardest)")

# mask observation: foreground pixel (s = 0 means 'the ray hits the object')
mask = view_loss(occ, RayBatch("mask", np.ones(1), s=np.array([0.0])), traces=table)
print("\nmask costs psi:", reference_psi("mask", d, 0))
print("expected cost:", mask.loss)
print("closed form |prod(x) - s|:", mask_loss_closed_form(x_r, 0))

# the loss is exactly the brute-force expectation over hard configurations
print("\nbrute-force check (enumerates all 2^3 hard occupancy patterns):",
      brute_force_ray_loss(x_r, psi))
