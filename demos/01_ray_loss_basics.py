"""One ray through a tiny grid: events, costs, losses and gradients.

Walks through the core quantities on a 3-cell path so every number can be
checked by hand.  Remember: x is the probability a cell is EMPTY.
"""

import os
import sys

import numpy as np

from drc import (
    Ray,
    cost_depth,
    cost_mask,
    event_probabilities,
    mask_loss_closed_form,
    ray_loss,
    ray_loss_grad_x,
    trace,
    uniform_geometry,
)

geom = uniform_geometry((3, 1, 1), (0, 0, 0), (3, 1, 1))
ray = Ray((-1.0, 0.5, 0.5), (1.0, 0.0, 0.0))
tr = trace(geom, ray)
print("traversed cells:", tr.cells, "entry t:", tr.t_enter, "exit t:", tr.t_exit)
print("event depths d_i (segment midpoints):", tr.d)

x_r = np.array([0.9, 0.4, 0.7])  # emptiness along the ray
p = event_probabilities(x_r)
print("\nemptiness x_r =", x_r)
print("p(z = i):", p[:-1], " p(escape):", p[-1], " sum:", p.sum())

# depth observation: the ray was measured to stop 2.5 m out
costs = cost_depth(tr, d_r=2.5)
print("\ndepth costs psi (last entry = escape at 10 m):", costs.psi)
print("expected cost L =", ray_loss(x_r, costs))
print("dL/dx =", ray_loss_grad_x(x_r, costs))
print("(positive entries: the loss falls if that cell gets MORE occupied;")
print(" here the expensive escape event dominates, so every cell is pulled solid,")
print(" the true surface cell at d=2.5 hardest)")

# mask observation: foreground pixel (s_r = 0 means 'the ray hits the object')
m = cost_mask(tr, s_r=0)
print("\nmask costs psi:", m.psi)
print("expected cost:", ray_loss(x_r, m))
print("closed form |prod(x) - s|:", mask_loss_closed_form(x_r, 0))

# the loss is exactly the brute-force expectation over hard configurations;
# the enumeration lives with the test suite's other oracles
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "tests"))
from oracles import brute_force_ray_loss  # noqa: E402

print("\nbrute-force check (enumerates all 2^3 hard occupancy patterns):",
      brute_force_ray_loss(x_r, costs))
