"""Hypothesis profiles for the test suite.

``repro`` is loaded here, so tier-1 runs it: a property that names no
example count (the flow-table fold and index properties in
``test_batch_equivalence.py``, the live-set descent property in
``test_forest_compiled.py``) runs 40.  ``deep`` runs ten times as
many::

    pytest tests/test_batch_equivalence.py -k UpdateBatch --hypothesis-profile=deep

Both start from the profile hypothesis picked itself, so a CI run keeps
its ``ci`` settings.
"""

from hypothesis import settings

settings.register_profile("repro", settings.default, max_examples=40)
settings.register_profile("deep", settings.default, max_examples=400)
settings.load_profile("repro")
