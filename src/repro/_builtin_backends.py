"""Names of the built-in emitter families, readable without loading them.

Importing :mod:`repro.backends` loads both emitters, the back end and
numpy.  The CLI's argparse tree needs only the names (``--backend``
``choices=``) and is built by every invocation, ``--help`` and the
client subcommands included, so the names live here, in a stdlib-only
module; :mod:`repro.backends` checks what it registers against them.
"""

from __future__ import annotations

#: Sorted, as :func:`repro.backends.backend_names` returns them.
BUILTIN_BACKENDS = ("hls_c", "verilog")
