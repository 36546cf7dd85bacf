(** Incremental totalizer (Martins, Joshi, Manquinho & Lynce, CP 2014).

    A unary counter over a growing set of literals whose upper bound is
    tightened across SAT calls.  Unlike {!Card.at_most} with the
    [Totalizer] encoding, which emits the whole encoding at once, this
    module emits nothing on {!create}: output variables are allocated
    for the full tree up front, but the merge clauses for the output
    row [sigma] — the
    clauses that force output [sigma - 1] true once [sigma] inputs are —
    appear only when {!at_most} first needs that row.  Re-asserting a
    bound already covered, or any smaller bound, emits no clauses at
    all, which is what makes a persistent-solver loop's per-iteration
    encoding work proportional to the bound delta.

    Only the le direction is encoded (count >= s implies output s-1), as
    the core-guided loops use bounds exclusively as at-most-k
    assumptions; asserting an output positively does {e not} force
    inputs true.

    {!extend} adds leaves after cores relax more soft clauses: the new
    literals get their own balanced subtree, and a fresh root merges it
    with the old root.  Clauses already emitted stay valid — only the
    new spine node starts unbuilt — so repeated extension degenerates to
    a left-deep spine over balanced chunks, the CP 2014 trade of tree
    balance for clause reuse. *)

type sink = Msu_cnf.Sink.t

type t

val create : sink -> Msu_cnf.Lit.t array -> t
(** Allocates the counter's variables through the sink; emits no
    clauses.  An empty literal set is fine: every bound is then vacuous
    until {!extend}. *)

val size : t -> int
(** Number of input literals counted. *)

val extend : sink -> t -> Msu_cnf.Lit.t array -> unit
(** Add input literals.  Allocates variables for the new subtree and the
    new root; clauses for the new root's rows appear at the next
    {!at_most} that needs them.  Bound literals returned before the
    extension only constrain the old inputs — re-query {!at_most} after
    extending. *)

val at_most : sink -> t -> int -> Msu_cnf.Lit.t option
(** [at_most sink t k] returns the literal to assume for "at most [k] of
    the inputs are true", emitting whatever rows of the encoding are
    still missing (none, when a previous call already covered [k] or
    more).  [None] when the bound is vacuous ([k >= size t]).
    @raise Invalid_argument when [k < 0]. *)
