"""icogate: exact synthesis of single-qubit unitaries over the
icosahedral gate set {rho, sigma, tau}.

The package is layered bottom-up:

  intfactor    -- rational primality, factoring, square roots mod p
  golden       -- arithmetic in Z[phi] and the Hamilton product kernel
  gaussgolden  -- arithmetic in Z[i, phi] on (w, x, y, z) int tuples,
                  multiplied by golden's Hamilton kernel without its j
                  and k terms, and the norm-Euclidean check
  sots         -- sums of two squares in Z[phi]
  icosian      -- the binary icosahedral group and exact factoring
  unitary      -- big-float PU(2) numerics and diagonal tuning
  lattice      -- exact integer lattice points in an ellipsoid
  goldengrid   -- Z[phi] searches as families of lattice problems, each
                  reduced once, warm-started, skipped when proven empty
  diagonal     -- approximate synthesis of diagonal rotations
  general      -- approximate synthesis of arbitrary unitaries
  cli          -- the icogate command line tool

The compiler is not thread-safe: every layer sets mpmath's working
precision with mp.workprec, which is global to the process, so
concurrent threads corrupt each other's precision.  Use one thread, or
separate processes.
"""

__version__ = "0.1.0"
