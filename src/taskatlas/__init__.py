"""taskatlas: country-conditioned task exposure measures.

Pipeline engine turning task-level automation-exposure labels into country,
occupation, and industry measures, with aggregation, linkage, reweighting,
validation, and statistics as reproducible, testable operations.

Importing the package loads no submodule: import the one you use
(``from taskatlas import aggregate``), so each CLI command loads only the
code it runs.
"""

__version__ = "0.1.0"
