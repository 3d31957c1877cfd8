"""Set-up probe: import the CLI, parse one config, print the monotonic clock.

    PYTHONPATH=src python3 perfbench/probe.py CONFIG [--metadata]

The benchmark reads the clock before spawning this process, so the
difference is the set-up time of a ``gibbs-ground`` command: interpreter
start, ``import gibbs_ground.cli`` and ``parse_config`` (which builds the
lattice).  With ``--metadata`` it then prints, as a second line, the
versions and thread counts the CLI runs with.
"""

import sys
import time
from pathlib import Path

from gibbs_ground.cli import parse_config

parse_config(Path(sys.argv[1]).read_text())
print(time.monotonic_ns(), flush=True)


def metadata() -> dict:
    import ctypes
    import glob
    import os
    import platform

    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's OpenBLAS)

    def openblas(package, suffix) -> dict:
        libs = os.path.join(os.path.dirname(package.__file__), os.pardir, f"{package.__name__}.libs")
        info = {"build": package.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]}
        for path in glob.glob(os.path.join(libs, "libscipy_openblas*.so")):
            lib = ctypes.CDLL(path)
            get_config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
            get_threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            if get_config is not None and get_threads is not None:
                get_config.restype = ctypes.c_char_p
                info.update(config=get_config().decode(), threads=get_threads())
        return info

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": openblas(numpy, "64_"),
        "scipy_openblas": openblas(scipy, ""),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }


if "--metadata" in sys.argv[2:]:
    import json

    print(json.dumps(metadata(), sort_keys=True))
