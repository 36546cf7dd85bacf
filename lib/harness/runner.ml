module Maxsat = Msu_maxsat.Maxsat
module Types = Msu_maxsat.Types
module Guard = Msu_guard.Guard
module Checkpoint = Msu_guard.Checkpoint

type abort_reason =
  | Timeout
  | Out_of_conflicts
  | Out_of_propagations
  | Out_of_memory
  | Crash of string

type outcome =
  | Solved of int
  | Aborted of { why : abort_reason; lb : int; ub : int option }
  | Unsat_hard

type run = {
  instance : string;
  family : string;
  algorithm : Maxsat.algorithm;
  outcome : outcome;
  time : float;
  attempts : int;
}

type retry_policy = { max_attempts : int; retry_conflict_budget : int option }

let no_retry = { max_attempts = 1; retry_conflict_budget = None }

let abort_reason_to_string = function
  | Timeout -> "timeout"
  | Out_of_conflicts -> "conflicts"
  | Out_of_propagations -> "propagations"
  | Out_of_memory -> "memory"
  | Crash reason -> Printf.sprintf "crash:%s" reason

let is_crash = function Aborted { why = Crash _; _ } -> true | _ -> false

(* One supervised attempt.  [resume] seeds the solve from a previous
   attempt's checkpoint; with [up] (a forked worker's pipe) the solve
   streams its own checkpoints there.  Returns the bracket it ended with
   (and the model backing its ub) for the next attempt and the salvage. *)
let attempt ?resume ?up ~timeout ~request algorithm wcnf =
  let t0 = Unix.gettimeofday () in
  let result, tripped =
    Worker.solve ?up ?resume ~request ~deadline:(t0 +. timeout) algorithm wcnf
  in
  let time = Float.min (Unix.gettimeofday () -. t0) timeout in
  let outcome =
    match result.Types.outcome with
    | Types.Optimum c -> Solved c
    | Types.Hard_unsat -> Unsat_hard
    | Types.Bounds { lb; ub } ->
        let why =
          match tripped with
          | Some Guard.Conflicts -> Out_of_conflicts
          | Some Guard.Propagations -> Out_of_propagations
          | Some Guard.Memory -> Out_of_memory
          | Some Guard.Timeout | Some Guard.Cancelled | None -> Timeout
        in
        Aborted { why; lb; ub }
    | Types.Crashed { reason; lb; ub } -> Aborted { why = Crash reason; lb; ub }
  in
  let lb, ub = Types.outcome_bounds result.Types.outcome in
  ((outcome, time), { Checkpoint.empty with lb; ub; model = result.Types.model })

(* Run [body] in a forked worker under the ladder, which starts at
   [timeout + grace]; returns its value (a crash becomes a [Crash]
   abort) and the newest checkpoint it streamed — the only progress
   that survives a SIGKILLed child. *)
let isolated ~timeout ~grace body =
  let w = Worker.spawn ~deadline:(Unix.gettimeofday () +. timeout) ~grace body in
  let res =
    match Worker.wait w with
    | Ok r -> r
    | Error reason -> (Aborted { why = Crash reason; lb = 0; ub = None }, timeout)
  in
  (res, Worker.checkpoint w)

let run_isolated ~timeout ~grace thunk = fst (isolated ~timeout ~grace (fun _ -> thunk ()))

let run_one ?(isolate = false) ?(grace = 1.0) ?(retry = no_retry)
    ?(request = Types.default_request) ~timeout algorithm (instance, family, wcnf) =
  let once ~resume request =
    if isolate then
      isolated ~timeout ~grace (fun up ->
          fst (attempt ?resume ~up ~timeout ~request algorithm wcnf))
    else
      let res, ck = attempt ?resume ~timeout ~request algorithm wcnf in
      (res, Some ck)
  in
  let rec go n ~resume request acc =
    let (outcome, time), ck = once ~resume request in
    (* Accumulate the best certified bracket across attempts: the
       streamed/returned checkpoint plus whatever bounds the outcome
       itself carries. *)
    let acc = match ck with Some c -> Checkpoint.merge acc c | None -> acc in
    let acc =
      match outcome with
      | Aborted { lb; ub; _ } ->
          Checkpoint.merge acc { Checkpoint.empty with Checkpoint.lb; ub }
      | Solved _ | Unsat_hard -> acc
    in
    if is_crash outcome && n < retry.max_attempts then
      (* A crash may be resource-driven: the retry runs under the
         policy's (smaller) conflict budget so it stops before the
         crash point — and resumes from the accumulated checkpoint so
         certified work is never redone. *)
      go (n + 1) ~resume:(Some acc)
        { request with Types.max_conflicts = retry.retry_conflict_budget }
        acc
    else (outcome, time, n, acc)
  in
  let outcome, time, attempts, ck = go 1 ~resume:None request Checkpoint.empty in
  (* Exhausted retries still report the best bracket seen anywhere, not
     just the final attempt's; it collapses to [Solved] only on an
     upper bound whose model re-verifies against the instance. *)
  let outcome =
    match outcome with
    | Aborted { why; lb; ub } -> (
        match Worker.salvage wcnf ck ~lb ~ub ~model:None with
        | Types.Optimum u, _ -> Solved u
        | Types.Bounds { lb; ub }, _ -> Aborted { why; lb; ub }
        | (Types.Hard_unsat | Types.Crashed _), _ -> outcome)
    | Solved _ | Unsat_hard -> outcome
  in
  let time = match outcome with Aborted _ -> timeout | _ -> time in
  { instance; family; algorithm; outcome; time; attempts }

let run_suite ?(progress = fun _ -> ()) ?isolate ?grace ?retry ?request
    ~timeout ~algorithms instances =
  List.concat_map
    (fun inst ->
      List.map
        (fun algorithm ->
          let r =
            run_one ?isolate ?grace ?retry ?request ~timeout algorithm inst
          in
          progress r;
          r)
        algorithms)
    instances

let aborted_counts algorithms runs =
  List.map
    (fun a ->
      let n =
        List.length
          (List.filter
             (fun r ->
               r.algorithm = a
               && match r.outcome with Aborted _ -> true | _ -> false)
             runs)
      in
      (a, n))
    algorithms

(* Aborts bucketed by cause, for the table1/table2 footnotes. *)
let aborted_breakdown runs =
  let timeout = ref 0 and budget = ref 0 and memory = ref 0 and crash = ref 0 in
  List.iter
    (fun r ->
      match r.outcome with
      | Aborted { why = Timeout; _ } -> incr timeout
      | Aborted { why = Out_of_conflicts | Out_of_propagations; _ } -> incr budget
      | Aborted { why = Out_of_memory; _ } -> incr memory
      | Aborted { why = Crash _; _ } -> incr crash
      | Solved _ | Unsat_hard -> ())
    runs;
  [
    ("timeout", !timeout);
    ("budget", !budget);
    ("memory", !memory);
    ("crash", !crash);
  ]

let consistency_errors runs =
  let optima : (string, int * Maxsat.algorithm) Hashtbl.t = Hashtbl.create 64 in
  let errors = ref [] in
  List.iter
    (fun r ->
      match r.outcome with
      | Solved c -> (
          match Hashtbl.find_opt optima r.instance with
          | None -> Hashtbl.add optima r.instance (c, r.algorithm)
          | Some (c', a') ->
              if c <> c' then
                errors :=
                  Printf.sprintf "%s: %s found %d but %s found %d" r.instance
                    (Maxsat.algorithm_to_string r.algorithm)
                    c
                    (Maxsat.algorithm_to_string a')
                    c'
                  :: !errors)
      | Aborted _ | Unsat_hard -> ())
    runs;
  (* An aborted run's bounds must bracket any proven optimum: a
     violation means a salvaged bound was unsound. *)
  List.iter
    (fun r ->
      match r.outcome with
      | Aborted { why; lb; ub } -> (
          match Hashtbl.find_opt optima r.instance with
          | Some (opt, _) ->
              let bad_lb = lb > opt in
              let bad_ub = match ub with Some u -> u < opt | None -> false in
              if bad_lb || bad_ub then
                errors :=
                  Printf.sprintf "%s: %s aborted (%s) with bounds [%d, %s] outside optimum %d"
                    r.instance
                    (Maxsat.algorithm_to_string r.algorithm)
                    (abort_reason_to_string why) lb
                    (match ub with Some u -> string_of_int u | None -> "?")
                    opt
                  :: !errors
          | None -> ())
      | Solved _ | Unsat_hard -> ())
    runs;
  List.rev !errors

let time_of ~timeout r = match r.outcome with Aborted _ -> timeout | _ -> r.time

let scatter ~x ~y ~timeout runs =
  let find a name =
    List.find_opt (fun r -> r.algorithm = a && r.instance = name) runs
  in
  let names =
    List.sort_uniq compare (List.map (fun r -> r.instance) runs)
  in
  List.filter_map
    (fun name ->
      match (find x name, find y name) with
      | Some rx, Some ry -> Some (name, time_of ~timeout rx, time_of ~timeout ry)
      | _ -> None)
    names

(* One header row of algorithm names and one row of aborted counts,
   mirroring the layout of the paper's Tables 1 and 2. *)
let pp_aborted_table ~total ppf counts =
  let cells =
    ("Total", string_of_int total)
    :: List.map
         (fun (a, n) -> (Maxsat.algorithm_to_string a, string_of_int n))
         counts
  in
  let width (h, v) = max (String.length h) (String.length v) in
  List.iter (fun c -> Format.fprintf ppf "%-*s  " (width c) (fst c)) cells;
  Format.fprintf ppf "@.";
  List.iter (fun c -> Format.fprintf ppf "%-*s  " (width c) (snd c)) cells;
  Format.fprintf ppf "@."

let pp_scatter_csv ppf points =
  Format.fprintf ppf "instance,x_seconds,y_seconds@.";
  List.iter
    (fun (name, tx, ty) -> Format.fprintf ppf "%s,%.6f,%.6f@." name tx ty)
    points

let pp_runs_csv ppf runs =
  Format.fprintf ppf "instance,family,algorithm,outcome,cost,lb,ub,seconds@.";
  List.iter
    (fun r ->
      let outcome, cost, lb, ub =
        match r.outcome with
        | Solved c -> ("solved", string_of_int c, "", "")
        | Aborted { why; lb; ub } ->
            let why =
              (* keep the cell comma-free whatever the crash text says *)
              String.map
                (fun c -> if c = ',' then ';' else c)
                (abort_reason_to_string why)
            in
            ( Printf.sprintf "aborted(%s)" why,
              "",
              string_of_int lb,
              match ub with Some u -> string_of_int u | None -> "" )
        | Unsat_hard -> ("hard-unsat", "", "", "")
      in
      Format.fprintf ppf "%s,%s,%s,%s,%s,%s,%s,%.6f@." r.instance r.family
        (Maxsat.algorithm_to_string r.algorithm)
        outcome cost lb ub r.time)
    runs
