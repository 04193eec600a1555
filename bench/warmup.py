"""One cheap call into every traced function, run before timing starts.

It pays the first-call costs (numpy kernels, lazily built tables) so that the
timed batches measure steady state; ``setup_s`` times import plus this tour.
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path


def warm_up(mg, scratch: Path) -> None:
    form = mg.MgonalForm(5, (1, 1, 1))
    mg.polygonal_values(5, 100)
    mg.represented_set(form, 200, mg.Domain.INT)
    mg.truant_up_to(form, 200)
    mg.node_truant(form, 200)
    mg.represents(form, 77)
    mg.represents(form, 77, mg.Domain.INT)
    mg.solve_system(mg.SystemInstance(form, 3, 3))
    mg.locally_represented(mg.MgonalForm(8, (1, 3)), 77)
    mg.mgonal_represents_zp(form, 77, 3)
    mg.quad_diag_represents_zp((1, 3), 7, 3)
    mg.k_window(form, 25, 2, 0)
    mg.feasible_k(form, 77, 0, 20)
    mg.local_universal_quad((1, 1, 2))
    mg.exceptions(mg.MgonalForm(12, (1, 1, 2, 3, 5)), 300)
    mg.build_tree(5, 2, 100)
    mg.gamma_estimate(5, 100, 2)
    mg.cli.load_or_build_set(form, 200, mg.Domain.NONNEG, scratch)
    with contextlib.redirect_stdout(io.StringIO()):
        mg.cli.main(["eval", "--m", "5", "--x", "3", "--jobs", "1"])
