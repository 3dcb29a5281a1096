"""Fisher-Rao geometry and integrable flows on truncated probability simplices."""

from . import connections, flows, hamiltonian, metrics, sequence_core, transforms

__version__ = "0.1.0"
