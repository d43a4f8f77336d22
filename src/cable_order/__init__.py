"""Certified non-left-orderability for surgeries on cables of torus knots.

The package builds the group presentations involved, replays rewriting
derivations through a checked proof verifier, and emits self-contained JSON
certificates refuting every generator sign assignment.

`replay` runs only the trusted core: `words`, `slopes`, `presentations`,
`derivations` (the checker) and `obstruction` (the loader and replay).
Every function the core defines is run by loading and replaying
certificates, or is one of the few that ``tests/test_reachability.py``
allow-lists with a reason, such as the refutation search and the writers.
Outside the core, `proofs` generates the certificates, `normal_form` holds
the ``verify-identities`` checks, and `cli` is the front end, with the
``present --json`` document.

The package root re-exports nothing, so importing a module loads only what
that module imports: ``cable_order.obstruction`` loads the core alone.
Import names from their modules, such as ``cable_order.proofs.certify_beta``.
"""
