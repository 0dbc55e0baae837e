"""SpMV kernels, one module per storage format, plus reference oracles.

Every format's ``spmv`` method dispatches here.  Each module offers a fully
vectorized production kernel and (where useful) a loop-based scalar
reference used by the test suite.
"""

from .bcsd_kernels import spmv_bcsd, spmv_bcsd_scalar
from .bcsr_kernels import spmv_bcsr, spmv_bcsr_scalar
from .csr_kernels import spmv_csr, spmv_csr_scalar
from .reference import spmv_coo_loop, spmv_dense_reference
from .vbl_kernels import spmv_vbl, spmv_vbl_scalar

__all__ = [
    "spmv_csr",
    "spmv_csr_scalar",
    "spmv_bcsr",
    "spmv_bcsr_scalar",
    "spmv_bcsd",
    "spmv_bcsd_scalar",
    "spmv_vbl",
    "spmv_vbl_scalar",
    "spmv_dense_reference",
    "spmv_coo_loop",
]
