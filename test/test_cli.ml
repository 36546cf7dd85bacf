(* msolve's command line, driven as a subprocess against its three entry
   points: in-process, --portfolio, and --connect to an mserve daemon
   the test starts.  Every budget and solver flag travels in the one
   solve request, so each is accepted and applied by all three;
   --portfolio with --connect is the one usage error. *)

(* The build tree places bin/ beside test/. *)
let bin name = Filename.concat (Filename.dirname Sys.executable_name) ("../bin/" ^ name)
let msolve = bin "msolve.exe"
let mserve = bin "mserve.exe"
let usage_error = 124
let exit_optimum = 0
let exit_bounds = 10

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      really_input_string ic (in_channel_length ic))

let with_temp suffix f =
  let path = Filename.temp_file "msu-cli" suffix in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () ->
      f path)

let with_wcnf w f =
  with_temp ".wcnf" (fun path ->
      Msu_cnf.Dimacs.write_wcnf_file path w;
      f path)

(* Optimum 2; tiny enough that every run finishes at once. *)
let tiny () =
  Msu_cnf.Dimacs.parse_wcnf "p wcnf 3 5 100\n100 1 0\n100 -1 -2 0\n1 2 0\n1 3 0\n1 -3 0\n"

(* PHP(6, 5) as plain MaxSAT: optimum 1, many conflicts and
   propagations away, so any of the budgets below stops it short. *)
let php () = Msu_cnf.Wcnf.of_formula (Msu_gen.Php.formula 5)

(* The instance `mgen debug` writes at its defaults: optimum 1, and the
   default inprocessing runs bve, subsume and probe passes on it. *)
let debug () =
  (Msu_gen.Debug.instance (Random.State.make [| 1 |]) ~n_inputs:6 ~n_gates:40
     ~n_outputs:3 ~n_vectors:4 ~encoding:`Partial)
    .Msu_gen.Debug.wcnf

type run = { code : int; out : string; err : string }

let run file args =
  with_temp ".out" (fun out ->
      with_temp ".err" (fun err ->
          let code =
            Sys.command
              (Filename.quote_command msolve ~stdout:out ~stderr:err
                 ("-q" :: file :: args))
          in
          { code; out = read_file out; err = read_file err }))

let count hay needle =
  let n = String.length needle in
  let rec go i acc =
    if i + n > String.length hay then acc
    else if String.sub hay i n = needle then go (i + n) (acc + 1)
    else go (i + 1) acc
  in
  go 0 0

let contains hay needle = count hay needle > 0

(* The integer right after the first [key] in [hay]. *)
let int_after hay key =
  let n = String.length key in
  let rec find i =
    if i + n > String.length hay then Alcotest.failf "no %s in %S" key hay
    else if String.sub hay i n = key then i + n
    else find (i + 1)
  in
  let i = find 0 in
  Scanf.sscanf (String.sub hay i (String.length hay - i)) "%d" Fun.id

let what args = String.concat " " args

let check_code args r expected =
  Alcotest.(check int) (what args ^ ": exit code; stderr: " ^ r.err) expected r.code

(* An entry point: the msolve arguments that select it, whether its
   --stats-json reports the solve's counters (a --connect client gets
   outcomes only), and how to run one solve and fetch its Chrome trace. *)
type entry = {
  args : string list;
  counts_work : bool;
  traced : string -> string list -> run * string;
}

let local args =
  {
    args;
    counts_work = true;
    traced =
      (fun file flags ->
        with_temp ".json" (fun trace ->
            let r = run file (args @ flags @ [ "--profile"; trace ]) in
            (r, read_file trace)));
  }

let in_process = local []
let portfolio = local [ "--portfolio"; "-j"; "1" ]

(* A daemon with one worker that writes each job's Chrome trace into
   the traces directory it hands to [f]; stopped with SIGTERM whatever
   the test does. *)
let with_daemon f =
  let dir = Filename.temp_dir "msu-cli" "" in
  let sock = Filename.concat dir "s.sock" and traces = Filename.concat dir "traces" in
  Unix.mkdir traces 0o755;
  let null = Unix.openfile Filename.null [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process mserve
      [| mserve; sock; "-w"; "1"; "-q"; "--profile-dir"; traces |]
      Unix.stdin null null
  in
  Unix.close null;
  let rm_dir d =
    Array.iter (fun x -> Sys.remove (Filename.concat d x)) (Sys.readdir d);
    Sys.rmdir d
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid);
      (try rm_dir traces with Sys_error _ -> ());
      try rm_dir dir with Sys_error _ -> ())
    (fun () ->
      let give_up = Unix.gettimeofday () +. 10. in
      while (not (Sys.file_exists sock)) && Unix.gettimeofday () < give_up do
        Unix.sleepf 0.01
      done;
      f sock traces)

(* Through the daemon: every request bypasses the cache, so each one is
   a fresh worker solve under the flags it carries. *)
let connect sock traces =
  let args = [ "--connect"; sock; "--no-cache" ] in
  {
    args;
    counts_work = false;
    traced =
      (fun file flags ->
        Array.iter (fun x -> Sys.remove (Filename.concat traces x)) (Sys.readdir traces);
        let r = run file (args @ flags) in
        let files = Array.to_list (Sys.readdir traces) in
        (r, String.concat "" (List.map (fun x -> read_file (Filename.concat traces x)) files)));
  }

(* "c bounds: lb=L ub=U" (U may be "?"). *)
let bounds out =
  List.find_map
    (fun line ->
      match Scanf.sscanf line "c bounds: lb=%d ub=%s" (fun lb ub -> (lb, ub)) with
      | lb, "?" -> Some (lb, None)
      | lb, ub -> Some (lb, Some (int_of_string ub))
      | exception _ -> None)
    (String.split_on_char '\n' out)

let check_budgets e =
  with_wcnf (php ()) (fun file ->
      List.iter
        (fun flags ->
          let args = e.args @ flags in
          let r = run file args in
          check_code args r exit_bounds;
          match bounds r.out with
          | Some (lb, ub) ->
              Alcotest.(check bool) (what args ^ ": lb <= 1") true (lb <= 1);
              Alcotest.(check bool)
                (what args ^ ": ub >= 1") true
                (match ub with Some u -> u >= 1 | None -> true)
          | None -> Alcotest.failf "%s: no bounds line in %S" (what args) r.out)
        [ [ "--conflicts"; "1" ]; [ "--propagations"; "1" ]; [ "--memory-mb"; "0" ] ])

let inprocess_spans trace =
  List.fold_left
    (fun n pass -> n + count trace (Printf.sprintf "\"name\":\"%s\"" pass))
    0 [ "bve"; "subsume"; "probe" ]

let check_inprocess e =
  with_wcnf (debug ()) (fun file ->
      let on, on_trace = e.traced file [] in
      check_code e.args on exit_optimum;
      Alcotest.(check bool)
        (what e.args ^ ": default trace has inprocessing spans") true
        (inprocess_spans on_trace > 0);
      let off, off_trace = e.traced file [ "--no-inprocess" ] in
      check_code (e.args @ [ "--no-inprocess" ]) off exit_optimum;
      Alcotest.(check bool)
        (what e.args ^ ": --no-inprocess trace has a solve") true
        (contains off_trace "\"name\":\"sat_call\"");
      Alcotest.(check int)
        (what e.args ^ " --no-inprocess: bve/subsume/probe spans") 0
        (inprocess_spans off_trace))

(* msu4's line-19 clause is one encoding clause per core; the optimum
   does not depend on it. *)
let check_core_geq1 e =
  with_wcnf (debug ()) (fun file ->
      let encoding_clauses flags =
        let args = e.args @ flags @ [ "--stats-json" ] in
        let r = run file args in
        check_code args r exit_optimum;
        Alcotest.(check bool) (what args ^ ": optimum 1") true (contains r.out "o 1\n");
        int_after r.out "\"encoding_clauses\":"
      in
      let on = encoding_clauses [] and off = encoding_clauses [ "--no-core-geq1" ] in
      if e.counts_work then
        Alcotest.(check int) (what e.args ^ ": --no-core-geq1 drops one clause") 1 (on - off))

let check_entry e =
  check_budgets e;
  check_inprocess e;
  check_core_geq1 e

let test_in_process () = check_entry in_process
let test_portfolio () = check_entry portfolio
let test_connect () = with_daemon (fun sock traces -> check_entry (connect sock traces))

(* No daemon listens on the socket: the rejection comes before any
   connection attempt, with the usage-error code, not the connect
   error's. *)
let test_portfolio_with_connect () =
  let sock = Filename.concat (Filename.get_temp_dir_name ()) "msu-cli-absent.sock" in
  with_wcnf (tiny ()) (fun file ->
      let args = [ "--portfolio"; "--connect"; sock ] in
      let r = run file args in
      check_code args r usage_error;
      Alcotest.(check bool) (what args ^ ": names --portfolio") true
        (contains r.err "--portfolio"))

let test_accepted_combinations () =
  with_wcnf (tiny ()) (fun file ->
      List.iter
        (fun args -> check_code args (run file args) exit_optimum)
        [ [ "--no-inprocess"; "--no-core-geq1" ]; [ "--portfolio"; "-j"; "2" ] ])

(* -a sls runs through the supervised solve like every algorithm: an
   incumbent, never a proof.  --incomplete, its old alias, is gone. *)
let test_sls () =
  with_wcnf (tiny ()) (fun file ->
      let r = run file [ "-a"; "sls" ] in
      check_code [ "-a"; "sls" ] r exit_bounds;
      Alcotest.(check bool) "-a sls: o line" true (contains r.out "o ");
      let r = run file [ "--incomplete" ] in
      check_code [ "--incomplete" ] r usage_error;
      Alcotest.(check bool) "--incomplete: unknown option" true
        (contains r.err "unknown option"))

let suite =
  [
    Alcotest.test_case "in-process honours solver flags" `Quick test_in_process;
    Alcotest.test_case "portfolio honours solver flags" `Quick test_portfolio;
    Alcotest.test_case "connect honours solver flags" `Quick test_connect;
    Alcotest.test_case "portfolio with connect is a usage error" `Quick
      test_portfolio_with_connect;
    Alcotest.test_case "honoured combinations still solve" `Quick
      test_accepted_combinations;
    Alcotest.test_case "sls is an algorithm" `Quick test_sls;
  ]
