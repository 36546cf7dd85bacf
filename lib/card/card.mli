(** CNF encodings of cardinality constraints.

    The msu4 paper encodes its [sum b_i <= k] constraints either with
    BDDs (variant v1) or with sorting networks (variant v2), both
    following Eén & Sörensson's minisat+ translation (JSAT 2006).  This
    module provides those two plus the standard alternatives used by the
    later core-guided solvers (sequential counter, totalizer, pairwise /
    binomial), behind one interface, so that encodings can be ablated.

    Encoders stream clauses into a {!sink}; they never build whole
    formulas, which lets the MaxSAT layer emit directly into a solver.

    All encodings are {e consistency-preserving in one direction}: the
    emitted clauses are satisfiable exactly when the constrained count is
    achievable, and any assignment of the original literals respecting
    the bound extends to the auxiliary variables. *)

type sink = Msu_cnf.Sink.t = {
  fresh_var : unit -> Msu_cnf.Lit.var;  (** allocate an auxiliary variable *)
  emit : Msu_cnf.Lit.t array -> unit;  (** receive one clause *)
}

type encoding =
  | Bdd  (** minisat+ ITE chains over a cardinality BDD — msu4 v1 *)
  | Sortnet  (** Batcher odd-even sorting network — msu4 v2 *)
  | Seqcounter  (** Sinz's sequential counter *)
  | Totalizer  (** Bailleux & Boutaouf's unary totalizer *)
  | Binomial  (** one clause per violating subset; small n only *)

val encoding_of_string : string -> encoding option
val encoding_to_string : encoding -> string
val all_encodings : encoding list

val guarded_sink : Msu_guard.Guard.t -> sink -> sink
(** A sink that polls the guard on every emitted clause, so large
    encodings cannot starve a deadline.
    @raise Msu_guard.Guard.Interrupt from [emit] when the guard trips. *)

val at_most : ?guard:Msu_guard.Guard.t -> sink -> encoding -> Msu_cnf.Lit.t array -> int -> unit
(** [at_most sink enc lits k] constrains at most [k] of [lits] to be
    true.  [k >= length lits] emits nothing; [k = 0] emits unit
    negations; [k < 0] emits the empty clause.  [guard] wraps the sink
    with {!guarded_sink}. *)

val at_least : ?guard:Msu_guard.Guard.t -> sink -> encoding -> Msu_cnf.Lit.t array -> int -> unit
(** [at_least sink enc lits k] — dual of {!at_most}.  [k <= 0] emits
    nothing; [k = length lits] emits positive units; [k > length lits]
    emits the empty clause. *)

val exactly : ?guard:Msu_guard.Guard.t -> sink -> encoding -> Msu_cnf.Lit.t array -> int -> unit

val at_most_one : sink -> Msu_cnf.Lit.t array -> unit
(** Pairwise at-most-one (no auxiliary variables). *)

val exactly_one : sink -> Msu_cnf.Lit.t array -> unit
(** The clause [lits] plus pairwise at-most-one, as used by Fu & Malik's
    algorithm. *)
