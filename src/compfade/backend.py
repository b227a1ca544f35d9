"""Name of the kernel implementation: the series kernels are interpreted
Python/NumPy. The benchmark records this name with every result."""

BACKEND = "numpy"
