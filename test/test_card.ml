module Card = Msu_card.Card
module Itotalizer = Msu_card.Itotalizer
module Solver = Msu_sat.Solver
module Lit = Msu_cnf.Lit

(* Exhaustive semantic check: an encoded bound over n inputs, with the
   inputs forced by assumptions to every possible assignment, must be
   satisfiable exactly when the popcount respects the bound. *)

let solver_sink () =
  let s = Solver.create ~track_proof:false () in
  let sink =
    Card.{ fresh_var = (fun () -> Solver.new_var s); emit = (fun c -> Solver.add_clause s c) }
  in
  (s, sink)

let inputs s n = Array.init n (fun _ -> Lit.pos (Solver.new_var s))

let assumptions_of_bits lits bits =
  Array.mapi (fun i l -> if bits land (1 lsl i) <> 0 then l else Lit.neg l) lits

let popcount n bits =
  let c = ref 0 in
  for i = 0 to n - 1 do
    if bits land (1 lsl i) <> 0 then incr c
  done;
  !c

let check_constraint name encode holds n =
  let s, sink = solver_sink () in
  let lits = inputs s n in
  encode sink lits;
  for bits = 0 to (1 lsl n) - 1 do
    let expected = holds (popcount n bits) in
    let got = Solver.solve ~assumptions:(assumptions_of_bits lits bits) s in
    let got_sat = got = Solver.Sat in
    if got_sat <> expected then
      Alcotest.failf "%s: n=%d bits=%d expected %b got %b" name n bits expected got_sat
  done

let exhaustive_at_most enc () =
  for n = 1 to 6 do
    for k = 0 to n do
      check_constraint
        (Printf.sprintf "at_most %s k=%d" (Card.encoding_to_string enc) k)
        (fun sink lits -> Card.at_most sink enc lits k)
        (fun c -> c <= k)
        n
    done
  done

let exhaustive_at_least enc () =
  for n = 1 to 6 do
    for k = 0 to n do
      check_constraint
        (Printf.sprintf "at_least %s k=%d" (Card.encoding_to_string enc) k)
        (fun sink lits -> Card.at_least sink enc lits k)
        (fun c -> c >= k)
        n
    done
  done

let exhaustive_exactly enc () =
  for n = 1 to 5 do
    for k = 0 to n do
      check_constraint
        (Printf.sprintf "exactly %s k=%d" (Card.encoding_to_string enc) k)
        (fun sink lits -> Card.exactly sink enc lits k)
        (fun c -> c = k)
        n
    done
  done

let test_negated_literal_inputs () =
  (* Encodings must accept arbitrary literals, not only positive ones. *)
  List.iter
    (fun enc ->
      let s, sink = solver_sink () in
      let vars = inputs s 4 in
      let lits = Array.mapi (fun i l -> if i mod 2 = 0 then Lit.neg l else l) vars in
      Card.at_most sink enc lits 1;
      for bits = 0 to 15 do
        let count =
          Array.to_list lits
          |> List.mapi (fun i l ->
                 let v = bits land (1 lsl i) <> 0 in
                 if Lit.sign l then v else not v)
          |> List.filter Fun.id |> List.length
        in
        let got = Solver.solve ~assumptions:(assumptions_of_bits vars bits) s in
        if (got = Solver.Sat) <> (count <= 1) then
          Alcotest.failf "negated inputs %s bits=%d" (Card.encoding_to_string enc) bits
      done)
    Card.all_encodings

let test_vacuous_and_impossible () =
  List.iter
    (fun enc ->
      (* k >= n: no clauses at all. *)
      let emitted = ref 0 in
      let sink =
        Card.{ fresh_var = (fun () -> 0); emit = (fun _ -> incr emitted) }
      in
      Card.at_most sink enc [| Lit.pos 0; Lit.pos 1 |] 2;
      Alcotest.(check int)
        (Card.encoding_to_string enc ^ " vacuous emits nothing")
        0 !emitted;
      (* k < 0: empty clause. *)
      let s, sink = solver_sink () in
      let lits = inputs s 2 in
      Card.at_most sink enc lits (-1);
      Alcotest.(check bool)
        (Card.encoding_to_string enc ^ " negative bound unsat")
        false (Solver.okay s);
      (* at_least more than n: empty clause. *)
      let s2, sink2 = solver_sink () in
      let lits2 = inputs s2 2 in
      Card.at_least sink2 enc lits2 3;
      Alcotest.(check bool)
        (Card.encoding_to_string enc ^ " overfull atleast unsat")
        false (Solver.okay s2))
    Card.all_encodings

let test_at_most_one () =
  let s, sink = solver_sink () in
  let lits = inputs s 5 in
  Card.at_most_one sink lits;
  for bits = 0 to 31 do
    let got = Solver.solve ~assumptions:(assumptions_of_bits lits bits) s in
    if (got = Solver.Sat) <> (popcount 5 bits <= 1) then
      Alcotest.failf "at_most_one bits=%d" bits
  done

let test_exactly_one () =
  let s, sink = solver_sink () in
  let lits = inputs s 4 in
  Card.exactly_one sink lits;
  for bits = 0 to 15 do
    let got = Solver.solve ~assumptions:(assumptions_of_bits lits bits) s in
    if (got = Solver.Sat) <> (popcount 4 bits = 1) then
      Alcotest.failf "exactly_one bits=%d" bits
  done

(* The incremental totalizer's at-most assumptions (the bound behind
   msu3, msu4, OLL, PBO-linear and MCS enumeration), exhaustively over
   every input assignment, with rows emitted lazily as k grows. *)
let test_totalizer_tree_assumption_bounds () =
  let s, sink = solver_sink () in
  let lits = inputs s 4 in
  let tree = Itotalizer.create sink lits in
  Alcotest.(check bool)
    "bound >= n is vacuous" true
    (Itotalizer.at_most sink tree 4 = None);
  for k = 0 to 3 do
    match Itotalizer.at_most sink tree k with
    | None -> Alcotest.fail "expected an assumption literal"
    | Some bound ->
        for bits = 0 to 15 do
          let assumps = Array.append (assumptions_of_bits lits bits) [| bound |] in
          let got = Solver.solve ~assumptions:assumps s in
          if (got = Solver.Sat) <> (popcount 4 bits <= k) then
            Alcotest.failf "totalizer bound k=%d bits=%d" k bits
        done
  done

let test_encoding_names () =
  List.iter
    (fun enc ->
      Alcotest.(check bool)
        "name round trip" true
        (Card.encoding_of_string (Card.encoding_to_string enc) = Some enc))
    Card.all_encodings;
  Alcotest.(check bool) "unknown name" true (Card.encoding_of_string "nope" = None)

let prop_random_bound_respected =
  QCheck.Test.make ~name:"encodings agree on random bounds" ~count:60
    QCheck.(triple (int_range 1 7) (int_range 0 7) small_int)
    (fun (n, k, bits) ->
      let k = min k n in
      let bits = bits land ((1 lsl n) - 1) in
      List.for_all
        (fun enc ->
          let s, sink = solver_sink () in
          let lits = inputs s n in
          Card.at_most sink enc lits k;
          let got = Solver.solve ~assumptions:(assumptions_of_bits lits bits) s in
          (got = Solver.Sat) = (popcount n bits <= k))
        Card.all_encodings)


(* ---------------- generalized totalizer (weighted sums) ---------------- *)

let weighted_sum lits_weights bits =
  let sum = ref 0 in
  Array.iteri (fun i (_, w) -> if bits land (1 lsl i) <> 0 then sum := !sum + w) lits_weights;
  !sum

let test_gte_at_most_exhaustive () =
  let st = Random.State.make [| 31 |] in
  for _round = 1 to 25 do
    let n = 1 + Random.State.int st 5 in
    let s, sink = solver_sink () in
    let lits = inputs s n in
    let weighted = Array.map (fun l -> (l, 1 + Random.State.int st 5)) lits in
    let total = Array.fold_left (fun a (_, w) -> a + w) 0 weighted in
    let k = Random.State.int st (total + 2) in
    Msu_card.Gte.at_most sink weighted k;
    for bits = 0 to (1 lsl n) - 1 do
      let expected = weighted_sum weighted bits <= k in
      let got = Solver.solve ~assumptions:(assumptions_of_bits lits bits) s in
      if (got = Solver.Sat) <> expected then
        Alcotest.failf "gte n=%d k=%d bits=%d" n k bits
    done
  done

let test_gte_outputs_semantics () =
  let s, sink = solver_sink () in
  let lits = inputs s 3 in
  let weighted = [| (lits.(0), 2); (lits.(1), 3); (lits.(2), 2) |] in
  let gte = Msu_card.Gte.build sink ~cap:7 weighted in
  let outs = Msu_card.Gte.outputs gte in
  (* Attainable sums: 2, 3, 4, 5, 7 (capped at 7). *)
  Alcotest.(check (list int)) "attainable values" [ 2; 3; 4; 5; 7 ] (List.map fst outs);
  (* Outputs above the attained sum are never forced (no
     over-implication): assuming all of them false stays satisfiable. *)
  for bits = 0 to 7 do
    let sum = weighted_sum weighted bits in
    let negations =
      List.filter_map
        (fun (v, l) -> if v > sum then Some (Msu_cnf.Lit.neg l) else None)
        outs
    in
    let assumps = Array.append (assumptions_of_bits lits bits) (Array.of_list negations) in
    if Solver.solve ~assumptions:assumps s <> Solver.Sat then
      Alcotest.failf "outputs above sum %d over-implied at bits=%d" sum bits;
    (* The output matching the exact attained sum is forced. *)
    if sum > 0 then begin
      let l = List.assoc sum outs in
      let assumps =
        Array.append (assumptions_of_bits lits bits) [| Msu_cnf.Lit.neg l |]
      in
      if Solver.solve ~assumptions:assumps s = Solver.Sat then
        Alcotest.failf "output %d not implied at bits=%d" sum bits
    end
  done

let test_gte_assumptions () =
  let s, sink = solver_sink () in
  let lits = inputs s 4 in
  let weighted = Array.map (fun l -> (l, 2)) lits in
  let gte = Msu_card.Gte.build sink ~cap:9 weighted in
  for k = 0 to 8 do
    let bound = Array.of_list (Msu_card.Gte.at_most_assumptions gte k) in
    for bits = 0 to 15 do
      let assumps = Array.append (assumptions_of_bits lits bits) bound in
      let got = Solver.solve ~assumptions:assumps s in
      if (got = Solver.Sat) <> (weighted_sum weighted bits <= k) then
        Alcotest.failf "gte assumption bound k=%d bits=%d" k bits
    done
  done

let test_gte_guards () =
  let _, sink = solver_sink () in
  Alcotest.check_raises "zero weight" (Invalid_argument "Gte.build: non-positive weight")
    (fun () -> ignore (Msu_card.Gte.build sink ~cap:3 [| (Msu_cnf.Lit.pos 0, 0) |]));
  Alcotest.check_raises "zero cap" (Invalid_argument "Gte.build: non-positive cap")
    (fun () -> ignore (Msu_card.Gte.build sink ~cap:0 [| (Msu_cnf.Lit.pos 0, 1) |]));
  (* Negative bound is an immediate contradiction. *)
  let s2, sink2 = solver_sink () in
  let lits = inputs s2 2 in
  Msu_card.Gte.at_most sink2 (Array.map (fun l -> (l, 2)) lits) (-1);
  Alcotest.(check bool) "negative bound unsat" false (Solver.okay s2)

let prop_gte_matches_card =
  QCheck.Test.make ~name:"gte with unit weights agrees with totalizer" ~count:40
    QCheck.(pair (int_range 1 6) (int_range 0 6))
    (fun (n, k) ->
      let k = min k n in
      let check enc_at_most =
        let s, sink = solver_sink () in
        let lits = inputs s n in
        enc_at_most sink lits k;
        List.init (1 lsl n) (fun bits ->
            Solver.solve ~assumptions:(assumptions_of_bits lits bits) s = Solver.Sat)
      in
      check (fun sink lits k ->
          Msu_card.Gte.at_most sink (Array.map (fun l -> (l, 1)) lits) k)
      = check (fun sink lits k -> Card.at_most sink Card.Totalizer lits k))

let suite =
  let enc_cases name f =
    List.map
      (fun enc ->
        Alcotest.test_case
          (Printf.sprintf "%s %s" name (Card.encoding_to_string enc))
          `Quick (f enc))
      Card.all_encodings
  in
  enc_cases "at_most exhaustive" exhaustive_at_most
  @ enc_cases "at_least exhaustive" exhaustive_at_least
  @ enc_cases "exactly exhaustive" exhaustive_exactly
  @ [
      Alcotest.test_case "negated literal inputs" `Quick test_negated_literal_inputs;
      Alcotest.test_case "vacuous and impossible bounds" `Quick test_vacuous_and_impossible;
      Alcotest.test_case "at_most_one" `Quick test_at_most_one;
      Alcotest.test_case "exactly_one" `Quick test_exactly_one;
      Alcotest.test_case "totalizer tree bounds" `Quick test_totalizer_tree_assumption_bounds;
      Alcotest.test_case "encoding names" `Quick test_encoding_names;
      QCheck_alcotest.to_alcotest prop_random_bound_respected;
      Alcotest.test_case "gte at_most exhaustive" `Quick test_gte_at_most_exhaustive;
      Alcotest.test_case "gte output semantics" `Quick test_gte_outputs_semantics;
      Alcotest.test_case "gte assumption bounds" `Quick test_gte_assumptions;
      Alcotest.test_case "gte guards" `Quick test_gte_guards;
      QCheck_alcotest.to_alcotest prop_gte_matches_card;
    ]
