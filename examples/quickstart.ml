(* Quickstart: build a MaxSAT instance through the API and solve it
   with msu4, watching the algorithm's bounds converge.

   The formula is Example 2 of the paper (DATE'08): eight clauses over
   four variables, of which at most six can be satisfied.

     dune exec examples/quickstart.exe *)

module Wcnf = Msu_cnf.Wcnf
module Lit = Msu_cnf.Lit
module M = Msu_maxsat.Maxsat
module T = Msu_maxsat.Types

let () =
  let w = Wcnf.create () in
  let lit d = Lit.of_dimacs d in
  List.iter
    (fun c -> ignore (Wcnf.add_soft w (Array.of_list (List.map lit c))))
    [ [ 1 ]; [ -1; -2 ]; [ 2 ]; [ -1; -3 ]; [ 3 ]; [ -2; -3 ]; [ 1; -4 ]; [ -1; 4 ] ];
  Printf.printf "Instance: %d variables, %d soft clauses\n\n" (Wcnf.num_vars w)
    (Wcnf.num_soft w);

  Printf.printf "Running msu4 (the paper's Algorithm 1):\n";
  let config =
    {
      T.default_config with
      T.sink =
        Msu_obs.Obs.of_fn (fun e ->
            Printf.printf "  %s\n" (Msu_obs.Obs.Event.to_string e));
    }
  in
  let r = M.solve ~config M.Msu4_v2 w in
  Format.printf "\nResult: %a@." T.pp_result r;
  (match T.max_satisfied w r with
  | Some k -> Printf.printf "MaxSAT solution: %d of %d clauses satisfiable\n" k (Wcnf.num_soft w)
  | None -> ());
  (match r.T.model with
  | Some m ->
      Printf.printf "Witness assignment:";
      for v = 0 to Wcnf.num_vars w - 1 do
        Printf.printf " x%d=%b" (v + 1) (v < Array.length m && m.(v))
      done;
      print_newline ()
  | None -> ());

  (* Every algorithm in the library agrees on the optimum. *)
  print_newline ();
  Printf.printf "All algorithms on the same instance:\n";
  List.iter
    (fun alg ->
      let r = M.solve alg w in
      match r.T.outcome with
      | T.Optimum c ->
          Printf.printf "  %-11s optimum cost %d  (%.4fs, %d SAT calls)\n"
            (M.algorithm_to_string alg) c r.T.elapsed r.T.stats.T.sat_calls
      | o -> Format.printf "  %-11s %a@." (M.algorithm_to_string alg) T.pp_outcome o)
    M.all_algorithms
