module Lit = Msu_cnf.Lit
module Wcnf = Msu_cnf.Wcnf
module Solver = Msu_sat.Solver
module Itotalizer = Msu_card.Itotalizer

type outcome = { mcses : int list list; complete : bool }

let enumerate ?deadline ?(limit = 64) w =
  let n_soft = Wcnf.num_soft w in
  let s = Solver.create ~track_proof:false () in
  Solver.ensure_vars s (Wcnf.num_vars w);
  Wcnf.iter_hard (fun _ c -> Solver.add_clause s c) w;
  let blocks =
    Array.init n_soft (fun i ->
        let b = Lit.pos (Solver.new_var s) in
        Solver.add_clause s (Array.append (Wcnf.soft w i) [| b |]);
        b)
  in
  let sink = Solver.sink s in
  let tree = Itotalizer.create sink blocks in
  (* Hard clauses satisfiable at all?  (k = n_soft means no bound.) *)
  match Solver.solve ?deadline s with
  | Solver.Unsat -> None
  | Solver.Unknown -> Some { mcses = []; complete = false }
  | Solver.Sat ->
      let found = ref [] in
      let n_found = ref 0 in
      let complete = ref true in
      (* The genuinely falsified soft clauses, not the spuriously set
         relaxation variables. *)
      let correction_set model =
        List.filter
          (fun i -> not (Msu_cnf.Formula.clause_satisfied (Wcnf.soft w i) model))
          (List.init n_soft Fun.id)
      in
      let block set =
        Solver.add_clause s (Array.of_list (List.map (fun i -> Lit.neg blocks.(i)) set))
      in
      let k = ref 0 in
      let stop = ref false in
      while (not !stop) && !k <= n_soft do
        let assumptions =
          match Itotalizer.at_most sink tree !k with
          | Some l -> [| l |]
          | None -> [||]
        in
        match Solver.solve ~assumptions ?deadline s with
        | Solver.Unknown ->
            complete := false;
            stop := true
        | Solver.Unsat ->
            (* Level exhausted; a final unbounded UNSAT means all MCSes
               are blocked and the enumeration is complete. *)
            if Array.length assumptions = 0 then stop := true else incr k
        | Solver.Sat ->
            let set = correction_set (Solver.model s) in
            (* The empty set only happens when the instance is fully
               satisfiable: the unique MCS is empty. *)
            if set = [] then stop := true
            else begin
              found := set :: !found;
              incr n_found;
              block set;
              if !n_found >= limit then begin
                complete := false;
                stop := true
              end
            end
      done;
      Some { mcses = List.rev !found; complete = !complete }
