"""Certified non-left-orderability for surgeries on cables of torus knots.

The package builds the group presentations involved, replays rewriting
derivations through a checked proof verifier, and emits self-contained JSON
certificates refuting every generator sign assignment.

`replay` runs only the trusted core: `words`, `slopes`, `presentations`,
`derivations` (the checker) and `obstruction` (the loader and replay).
`proofs` generates the certificates, outside it, as do `normal_form` and `cli`.

The package root re-exports nothing, so importing a module loads only what
that module imports: ``cable_order.obstruction`` loads the core alone.
Import names from their modules, such as ``cable_order.proofs.certify_beta``.
"""
