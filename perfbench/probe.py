"""Set-up probe for the library workloads.

One fresh interpreter imports what the workload uses and runs one untimed
warm-up op on a tiny input, then exits.  ``run.py`` times it from process
start to exit; the median of several probes is the workload's ``setup_s``.

    python3 perfbench/probe.py asym-sweep|profile-grid
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

from checks import ORDERS  # noqa: E402
from massfractal import core, multifractal  # noqa: E402

if sys.argv[1] == "asym-sweep":
    raw = [((0,), 0.5), ((1, 2), 0.25), ((3, 4, 5), 0.125), ((0, 5), 0.125)]
    m = core.validate_mass_function(core.FrameOfDiscernment(6), raw)
    multifractal.dimension_sweep(m, ORDERS)
    multifractal.spectrum(m)
else:
    bands = core.max_deng_profile(4)
    multifractal.dimension_sweep_from_profile(bands, ORDERS)
    multifractal.spectrum_from_profile(bands, 4)
