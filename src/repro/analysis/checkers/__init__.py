"""Built-in checkers; importing this package registers all of them."""

from . import (determinism, fingerprints, hotpath, purity, races, rawgemm,
               schema, tracing)

__all__ = ["determinism", "fingerprints", "hotpath", "purity", "races",
           "rawgemm", "schema", "tracing"]
