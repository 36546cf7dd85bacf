(* msolve's command line, driven as a subprocess: combinations an entry
   point cannot honour are usage errors (exit 124, naming the flag),
   never silently dropped. *)

(* The build tree places bin/ beside test/. *)
let msolve =
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/msolve.exe"

let usage_error = 124

(* Optimum 2; tiny enough that the accepted runs finish at once. *)
let instance () =
  let path = Filename.temp_file "msu-cli" ".wcnf" in
  let oc = open_out path in
  output_string oc "p wcnf 3 5 100\n100 1 0\n100 -1 -2 0\n1 2 0\n1 3 0\n1 -3 0\n";
  close_out oc;
  path

(* Exit code and stderr of one msolve run. *)
let run args =
  let file = instance () in
  let err = Filename.temp_file "msu-cli" ".err" in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove [ file; err ])
    (fun () ->
      let code =
        Sys.command
          (Filename.quote_command msolve ~stdout:Filename.null ~stderr:err
             ("-q" :: file :: args))
      in
      let ic = open_in err in
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      (code, text))

let contains hay needle =
  let n = String.length needle in
  let rec go i =
    i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1))
  in
  go 0

let solver_flags =
  [
    ([ "--no-inprocess" ], "--no-inprocess");
    ([ "--no-core-geq1" ], "--no-core-geq1");
    ([ "--memory-mb"; "512" ], "--memory-mb");
    ([ "--propagations"; "100000" ], "--propagations");
    ([ "--incomplete" ], "--incomplete");
  ]

let check_rejected entry (args, flag) =
  let code, err = run (entry @ args) in
  let what = String.concat " " (entry @ args) in
  Alcotest.(check int) (what ^ ": usage error") usage_error code;
  Alcotest.(check bool) (what ^ ": names " ^ flag) true (contains err flag)

let test_portfolio_rejects () =
  List.iter (check_rejected [ "--portfolio"; "-j"; "1" ]) solver_flags

(* No daemon listens on the socket: a rejected flag must fail before
   any connection attempt, with the usage-error code, not the connect
   error's. *)
let test_connect_rejects () =
  let sock = Filename.concat (Filename.get_temp_dir_name ()) "msu-cli-absent.sock" in
  List.iter
    (check_rejected [ "--connect"; sock ])
    (([ "--portfolio" ], "--portfolio") :: solver_flags)

let test_accepted_combinations () =
  List.iter
    (fun args ->
      let code, err = run args in
      Alcotest.(check int) (String.concat " " args ^ " " ^ err) 0 code)
    [ [ "--no-inprocess"; "--no-core-geq1" ]; [ "--portfolio"; "-j"; "2" ] ]

let suite =
  [
    Alcotest.test_case "portfolio rejects flags it drops" `Quick test_portfolio_rejects;
    Alcotest.test_case "connect rejects flags it drops" `Quick test_connect_rejects;
    Alcotest.test_case "honoured combinations still solve" `Quick
      test_accepted_combinations;
  ]
