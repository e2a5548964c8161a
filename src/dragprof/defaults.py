"""Run configuration defaults shared by the runtime and the command line.

They live apart from the runtime so that the CLI can show them in its
help without importing the runtime.
"""

DEFAULT_GC_INTERVAL = 16       # collect after every 16th allocation
DEFAULT_HEAP_SLOTS = 2 ** 16   # slots per semispace
