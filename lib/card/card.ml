module Lit = Msu_cnf.Lit

type sink = Msu_cnf.Sink.t = { fresh_var : unit -> Lit.var; emit : Lit.t array -> unit }

(* A sink that polls the guard on every emitted clause: encodings can be
   quadratic (or worse) in their inputs and must not be able to starve a
   deadline between SAT calls.  Guard.check is rate-limited internally,
   so the per-clause overhead is a few integer compares. *)
let guarded_sink g sink =
  {
    sink with
    emit =
      (fun c ->
        Msu_guard.Guard.check g;
        sink.emit c);
  }

let apply_guard guard sink =
  match guard with None -> sink | Some g -> guarded_sink g sink
type encoding = Bdd | Sortnet | Seqcounter | Totalizer | Binomial

let encoding_to_string = function
  | Bdd -> "bdd"
  | Sortnet -> "sortnet"
  | Seqcounter -> "seqcounter"
  | Totalizer -> "totalizer"
  | Binomial -> "binomial"

let encoding_of_string = function
  | "bdd" -> Some Bdd
  | "sortnet" -> Some Sortnet
  | "seqcounter" -> Some Seqcounter
  | "totalizer" -> Some Totalizer
  | "binomial" -> Some Binomial
  | _ -> None

let all_encodings = [ Bdd; Sortnet; Seqcounter; Totalizer; Binomial ]

(* ------------------------------------------------------------------ *)
(* Binomial: forbid every (k+1)-subset outright.                        *)
(* ------------------------------------------------------------------ *)

let binomial_guard n k =
  (* C(n, k+1) clauses; refuse absurd sizes rather than looping forever. *)
  let rec choose n k acc =
    if k = 0 then acc
    else if acc > 2_000_000. then acc
    else choose (n - 1) (k - 1) (acc *. float_of_int n /. float_of_int k)
  in
  if choose n (k + 1) 1. > 2_000_000. then
    invalid_arg "Card.at_most: binomial encoding too large"

let binomial_at_most sink lits k =
  let n = Array.length lits in
  binomial_guard n k;
  (* Enumerate all subsets of size k+1 and forbid each. *)
  let subset = Array.make (k + 1) 0 in
  let rec go depth start =
    if depth = k + 1 then
      sink.emit (Array.map (fun i -> Lit.neg lits.(i)) subset)
    else
      for i = start to n - (k + 1 - depth) do
        subset.(depth) <- i;
        go (depth + 1) (i + 1)
      done
  in
  go 0 0

(* ------------------------------------------------------------------ *)
(* Sequential counter (Sinz 2005, LT encoding).                         *)
(* ------------------------------------------------------------------ *)

let seqcounter_at_most sink lits k =
  let n = Array.length lits in
  assert (0 < k && k < n);
  (* s.(i).(j): "at least j+1 of the first i+1 inputs are true", for
     i in 0..n-2 and j in 0..k-1. *)
  let s = Array.init (n - 1) (fun _ -> Array.init k (fun _ -> Lit.pos (sink.fresh_var ()))) in
  let x i = lits.(i) in
  sink.emit [| Lit.neg (x 0); s.(0).(0) |];
  for j = 1 to k - 1 do
    sink.emit [| Lit.neg s.(0).(j) |]
  done;
  for i = 1 to n - 2 do
    sink.emit [| Lit.neg (x i); s.(i).(0) |];
    sink.emit [| Lit.neg s.(i - 1).(0); s.(i).(0) |];
    for j = 1 to k - 1 do
      sink.emit [| Lit.neg (x i); Lit.neg s.(i - 1).(j - 1); s.(i).(j) |];
      sink.emit [| Lit.neg s.(i - 1).(j); s.(i).(j) |]
    done;
    sink.emit [| Lit.neg (x i); Lit.neg s.(i - 1).(k - 1) |]
  done;
  sink.emit [| Lit.neg (x (n - 1)); Lit.neg s.(n - 2).(k - 1) |]

(* ------------------------------------------------------------------ *)
(* Totalizer (Bailleux & Boutaouf 2003).                                *)
(* ------------------------------------------------------------------ *)

(* Merge two unary counters [a], [b] into a fresh output vector.  [le]
   emits the clauses needed for upper bounds (count >= s implies o_s),
   [ge] those for lower bounds (o_s implies count >= s). *)
let totalizer_merge sink ~le ~ge a b =
  let p = Array.length a and q = Array.length b in
  let m = p + q in
  let r = Array.init m (fun _ -> Lit.pos (sink.fresh_var ())) in
  if le then
    for alpha = 0 to p do
      for beta = 0 to q do
        let sigma = alpha + beta in
        if sigma >= 1 then begin
          let clause = ref [ r.(sigma - 1) ] in
          if alpha > 0 then clause := Lit.neg a.(alpha - 1) :: !clause;
          if beta > 0 then clause := Lit.neg b.(beta - 1) :: !clause;
          sink.emit (Array.of_list !clause)
        end
      done
    done;
  if ge then
    for alpha = 0 to p do
      for beta = 0 to q do
        let sigma = alpha + beta in
        if sigma <= m - 1 then begin
          let clause = ref [ Lit.neg r.(sigma) ] in
          if alpha + 1 <= p then clause := a.(alpha) :: !clause;
          if beta + 1 <= q then clause := b.(beta) :: !clause;
          sink.emit (Array.of_list !clause)
        end
      done
    done;
  r

let rec totalizer_build sink ~le ~ge lits =
  let n = Array.length lits in
  if n = 1 then [| lits.(0) |]
  else begin
    let half = n / 2 in
    let a = totalizer_build sink ~le ~ge (Array.sub lits 0 half) in
    let b = totalizer_build sink ~le ~ge (Array.sub lits half (n - half)) in
    totalizer_merge sink ~le ~ge a b
  end

let totalizer_at_most sink lits k =
  let outputs = totalizer_build sink ~le:true ~ge:false lits in
  sink.emit [| Lit.neg outputs.(k) |]

let totalizer_at_least sink lits k =
  let outputs = totalizer_build sink ~le:false ~ge:true lits in
  sink.emit [| outputs.(k - 1) |]

(* ------------------------------------------------------------------ *)
(* Batcher odd-even sorting network.                                    *)
(* ------------------------------------------------------------------ *)

(* Wires are [Lit.t option]: [None] is the constant false used for
   padding to a power of two; comparators with a constant input
   simplify away without emitting clauses. *)

let comparator sink ~le ~ge a b =
  match (a, b) with
  | None, None -> (None, None)
  | Some x, None | None, Some x -> (Some x, None)
  | Some x, Some y ->
      let hi = Lit.pos (sink.fresh_var ()) in
      let lo = Lit.pos (sink.fresh_var ()) in
      if le then begin
        sink.emit [| Lit.neg x; hi |];
        sink.emit [| Lit.neg y; hi |];
        sink.emit [| Lit.neg x; Lit.neg y; lo |]
      end;
      if ge then begin
        sink.emit [| x; y; Lit.neg hi |];
        sink.emit [| x; Lit.neg lo |];
        sink.emit [| y; Lit.neg lo |]
      end;
      (Some hi, Some lo)

let evens arr = Array.init ((Array.length arr + 1) / 2) (fun i -> arr.(2 * i))
let odds arr = Array.init (Array.length arr / 2) (fun i -> arr.((2 * i) + 1))

let rec oe_merge sink ~le ~ge a b =
  let m = Array.length a in
  assert (Array.length b = m);
  if m = 1 then begin
    let hi, lo = comparator sink ~le ~ge a.(0) b.(0) in
    [| hi; lo |]
  end
  else begin
    let d_even = oe_merge sink ~le ~ge (evens a) (evens b) in
    let d_odd = oe_merge sink ~le ~ge (odds a) (odds b) in
    let out = Array.make (2 * m) None in
    out.(0) <- d_even.(0);
    for i = 1 to m - 1 do
      let hi, lo = comparator sink ~le ~ge d_odd.(i - 1) d_even.(i) in
      out.((2 * i) - 1) <- hi;
      out.(2 * i) <- lo
    done;
    out.((2 * m) - 1) <- d_odd.(m - 1);
    out
  end

let rec oe_sort sink ~le ~ge wires =
  let n = Array.length wires in
  if n <= 1 then wires
  else begin
    let half = n / 2 in
    let a = oe_sort sink ~le ~ge (Array.sub wires 0 half) in
    let b = oe_sort sink ~le ~ge (Array.sub wires half half) in
    oe_merge sink ~le ~ge a b
  end

let next_pow2 n =
  let rec go p = if p >= n then p else go (2 * p) in
  go 1

let sortnet_outputs sink ~le ~ge lits =
  let n = Array.length lits in
  let padded = next_pow2 n in
  let wires = Array.init padded (fun i -> if i < n then Some lits.(i) else None) in
  oe_sort sink ~le ~ge wires

let sortnet_at_most sink lits k =
  let out = sortnet_outputs sink ~le:true ~ge:false lits in
  (* out.(k) true iff at least k+1 inputs are true. *)
  match out.(k) with Some l -> sink.emit [| Lit.neg l |] | None -> ()

let sortnet_at_least sink lits k =
  let out = sortnet_outputs sink ~le:false ~ge:true lits in
  match out.(k - 1) with
  | Some l -> sink.emit [| l |]
  | None -> sink.emit [||] (* unreachable: k <= n implies a real wire *)

(* ------------------------------------------------------------------ *)
(* BDD translation (minisat+ ITE chains).                               *)
(* ------------------------------------------------------------------ *)

(* Translate an already-built counting BDD into implication clauses and
   assert the root.  Each internal node gets an auxiliary literal [t]
   with t -> (x ? hi : lo); asserting the root then forces exactly the
   assignments accepted by the BDD. *)
let bdd_assert sink lits nd =
  let root =
    Msu_bdd.Bdd.fold
      ~terminal:(fun b -> if b then `True else `False)
      ~node:(fun v lo hi ->
        let t = Lit.pos (sink.fresh_var ()) in
        let x = lits.(v) in
        (match hi with
        | `True -> ()
        | `False -> sink.emit [| Lit.neg t; Lit.neg x |]
        | `Node h -> sink.emit [| Lit.neg t; Lit.neg x; h |]);
        (match lo with
        | `True -> ()
        | `False -> sink.emit [| Lit.neg t; x |]
        | `Node l -> sink.emit [| Lit.neg t; x; l |]);
        `Node t)
      nd
  in
  match root with
  | `True -> ()
  | `False -> sink.emit [||]
  | `Node t -> sink.emit [| t |]

let bdd_at_most sink lits k =
  let m = Msu_bdd.Bdd.manager () in
  bdd_assert sink lits (Msu_bdd.Bdd.at_most m ~n:(Array.length lits) ~k)

let bdd_at_least sink lits k =
  let m = Msu_bdd.Bdd.manager () in
  bdd_assert sink lits (Msu_bdd.Bdd.at_least m ~n:(Array.length lits) ~k)

(* ------------------------------------------------------------------ *)
(* Dispatch.                                                            *)
(* ------------------------------------------------------------------ *)

let at_most ?guard sink enc lits k =
  let sink = apply_guard guard sink in
  let n = Array.length lits in
  if k < 0 then sink.emit [||]
  else if k >= n then ()
  else if k = 0 then Array.iter (fun l -> sink.emit [| Lit.neg l |]) lits
  else
    match enc with
    | Binomial -> binomial_at_most sink lits k
    | Seqcounter -> seqcounter_at_most sink lits k
    | Totalizer -> totalizer_at_most sink lits k
    | Sortnet -> sortnet_at_most sink lits k
    | Bdd -> bdd_at_most sink lits k

let at_least ?guard sink enc lits k =
  let sink = apply_guard guard sink in
  let n = Array.length lits in
  if k <= 0 then ()
  else if k > n then sink.emit [||]
  else if k = n then Array.iter (fun l -> sink.emit [| l |]) lits
  else
    match enc with
    | Binomial -> binomial_at_most sink (Array.map Lit.neg lits) (n - k)
    | Seqcounter -> seqcounter_at_most sink (Array.map Lit.neg lits) (n - k)
    | Totalizer -> totalizer_at_least sink lits k
    | Sortnet -> sortnet_at_least sink lits k
    | Bdd -> bdd_at_least sink lits k

let exactly ?guard sink enc lits k =
  at_most ?guard sink enc lits k;
  at_least ?guard sink enc lits k

let at_most_one sink lits =
  let n = Array.length lits in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      sink.emit [| Lit.neg lits.(i); Lit.neg lits.(j) |]
    done
  done

let exactly_one sink lits =
  sink.emit (Array.copy lits);
  at_most_one sink lits
