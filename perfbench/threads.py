"""Pin BLAS and OpenMP pools to one thread; import before numpy."""

import os

THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def pin_threads() -> None:
    for var in THREAD_VARIABLES:
        os.environ[var] = "1"
