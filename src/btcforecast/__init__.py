"""Bitcoin price forecasting toolkit: data ingestion, tweet sentiment,
dataset preparation, and an LSTM-vs-ARIMA benchmark."""

__version__ = "0.1.0"

import os
import sys

# BLAS runs one thread unless the caller chose otherwise. At the sizes
# used here its threads cost more than they save, they spin against the
# comparison's second process (cli.run_comparison), and their number
# changes the bits of a matmul. The variables take effect only if set
# before numpy is loaded.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_NUMPY_PRELOADED = "numpy" in sys.modules
if not _NUMPY_PRELOADED:
    for _name in BLAS_THREAD_VARS:
        os.environ.setdefault(_name, "1")
# True when BLAS is known to run one thread in this process.
BLAS_PINNED = not _NUMPY_PRELOADED and all(os.environ[name] == "1" for name in BLAS_THREAD_VARS)

# ingest (with urllib, http and ssl) and synthetic load when imported by
# name, so a command that does not ingest does not pay for them
from . import arima, dataset, evaluation, lstm, sentiment

__all__ = [
    "arima",
    "dataset",
    "evaluation",
    "ingest",
    "lstm",
    "sentiment",
    "synthetic",
    "__version__",
]
