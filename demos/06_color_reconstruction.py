"""Shape AND color from RGB images alone.

Eight color views of a two-tone sphere on a white background drive both
the occupancy field and a per-cell RGB payload.  Color supervision is
the trickiest kind: a cell painted white looks exactly like the escape
event, so the default fit schedule carves geometry first (payloads
frozen dark) and paints second (geometry frozen).
"""

import numpy as np

from drc.fitter import FitConfig, fit
from drc.metrics import best_threshold
from drc.renderer import make_test_shape, render, sample_view_ring

gt, aux = make_test_shape("sphere", (32, 32, 32))
cams = sample_view_ring(8, seed=10, width=128, height=128)
observations = [render(gt, c, "color", aux) for c in cams]

config = FitConfig(iterations=800, seed=7)  # color fits always carve, then paint
fitted, fitted_aux, report = fit(observations, gt.geometry, "color", config)

result = best_threshold(fitted, gt)
print(f"IoU {result.best_iou:.3f} at threshold {result.best_threshold:.2f} "
      f"({report.wall_time_s:.0f} s)")

# color accuracy on the visible part of the shape: its surface shell
occ = gt.occ
padded = np.pad(occ, 1)
interior = np.ones_like(occ, dtype=bool)
for axis in range(3):
    for shift in (1, -1):
        interior &= np.roll(padded, shift, axis=axis)[1:-1, 1:-1, 1:-1]
surface = occ & ~interior
err = np.abs(fitted_aux.payload[surface] - aux.payload[surface]).mean()
print(f"mean |RGB error| over {int(surface.sum())} surface cells: {err:.3f}")

top = surface & (np.indices(occ.shape)[1] >= 16)   # upper hemisphere (y up)
bottom = surface & ~top
print("recovered mean color, upper hemisphere:",
      np.array2string(fitted_aux.payload[top].mean(axis=0), precision=2),
      " (true", np.array2string(aux.payload[top][0], precision=2), ")")
print("recovered mean color, lower hemisphere:",
      np.array2string(fitted_aux.payload[bottom].mean(axis=0), precision=2),
      " (true", np.array2string(aux.payload[bottom][0], precision=2), ")")
