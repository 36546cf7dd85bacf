(** OLL: core-guided MaxSAT with soft cardinality constraints.

    OLL (Andres, Kaufmann, Matheis & Schaub 2012, for ASP; ported to
    MaxSAT by Morgado, Dodaro & Marques-Silva 2014) is the modern
    descendant of the msu line and the engine of RC2, today's reference
    core-guided solver.  It is included here as the natural "where this
    paper's idea went" extension.

    Mechanics (unweighted): soft clauses are guarded by assumption
    literals.  Each UNSAT answer yields a core over the current
    assumptions; the algorithm drops those assumptions, builds a
    totalizer over the core's literals, and {e re-enters} the
    totalizer's outputs as new assumptions ("at most 1 of the core may
    be violated, then at most 2, ...").  The first SAT answer proves
    the accumulated lower bound optimal.  One solver instance serves
    the whole solve, and each sum is an incremental totalizer. *)

val solve : ?config:Types.config -> Msu_cnf.Wcnf.t -> Types.result
(** Unit weights and hard clauses.
    @raise Invalid_argument on non-unit soft weights. *)
