"""Robust constant-modulus slow-time sequence design via worst-case
Riemannian trust-region optimization (WRTR).

The package re-exports nothing: import each name from the module that
defines it. The modules, from the geometry up:

    manifold    the product of unit circles: UnitModulusSequence, tangent
                coordinates, retraction, transport, random points
    radar       the clutter scene and bank, each design's figures of merit, STAF
    objectives  the worst-case steering cost and the sequence cost
    rtr         the Riemannian trust-region solver and its trace
    rcg         the Riemannian conjugate-gradient baseline
    driver      the worst-case alternation, Hessian spectrum, Monte Carlo SCR
    scenario    the config file: JSON reading, schema and validation
    fileio      the CSV and report.json writers and the sequence reader
    cli         the batch CLI (`wrtr` or `python -m wrtr`)
"""
