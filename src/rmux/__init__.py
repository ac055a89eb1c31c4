"""Relative-multiplexing simulation toolkit.

Each name is imported from the module that defines it (`rmux.matching`,
`rmux.mux_sim`, ...); `import rmux` loads none of them.
"""

__version__ = "0.1.0"
