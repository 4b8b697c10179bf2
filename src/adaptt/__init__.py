"""A dependent type theory with first-class structural type casts.

Subpackages: ``syntax`` (raw terms and contexts), ``normalize`` (the
rewrite engine and conversion), ``transform`` (functorial actions, the
constructor cast rule and the 2-cell calculus), ``check``
(well-formedness), ``inductive`` (datatype signatures, their stock table,
derived rows and printers), ``surface`` (concrete syntax), ``setmodel``
(finite-set semantic oracle), ``cli``.
"""

from . import inductive as _inductive

_inductive.install_builtins()
