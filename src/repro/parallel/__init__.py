"""Thread policy: one BLAS thread per program thread (:mod:`.blas`)."""
