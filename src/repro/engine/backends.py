"""Names of the executor backends (:mod:`repro.engine.executors`).

A leaf module, so the command-line parsers can offer the names as choices
without importing the executors, and through them :mod:`concurrent.futures`.
"""

BACKENDS = ("serial", "thread", "process")
