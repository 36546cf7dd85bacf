(* One benchmark for the whole msu4 stack.

   Three workloads drive the paper's two suites through the entry
   points users hit: the [msolve --verify] pipeline (parse, msu4-v2
   under the supervisor, certify) on each suite, and the [mserve] daemon
   under a closed loop of client connections.  A run times one workload
   end to end and checks every answer it got.  A traced run ([--trace
   1]) wraps each public layer call in the benchmark's own spans,
   switches on the library's tracer through its public config, and
   folds both (plus the public counters) into per-layer numbers.  The
   [--portfolio] race is a layer, not a workload: a traced industrial
   run adds one traced pass of it.

   README.md in this directory has the metric -> layer -> workload
   table and the reason for each workload. *)

module Wcnf = Msu_cnf.Wcnf
module Dimacs = Msu_cnf.Dimacs
module Canon = Msu_cnf.Canon
module Suites = Msu_gen.Suites
module M = Msu_maxsat.Maxsat
module T = Msu_maxsat.Types
module Certify = Msu_maxsat.Certify
module P = Msu_portfolio.Portfolio
module Service = Msu_service.Service
module Client = Msu_service.Client
module Proto = Msu_service.Protocol
module Obs = Msu_obs.Obs
module Span = Obs.Span
module Metrics = Obs.Metrics

external maxrss_kb : bool -> int = "perfbench_maxrss_kb"
external clk_tck : unit -> int = "perfbench_clk_tck"

let now = Unix.gettimeofday

(* ---------------- command line ---------------- *)

let workloads = [ "industrial"; "debugging"; "service" ]

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  tiny : bool;  (** self-test scale: a handful of small instances *)
}

let usage () =
  prerr_endline
    "usage: perfbench --workload industrial|debugging|service --seed N \
     --seconds S --trace 0|1 [--tiny]";
  exit 2

let parse_args () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let trace = ref false and tiny = ref false in
  let rec go = function
    | "--workload" :: v :: r ->
        workload := v;
        go r
    | "--seed" :: v :: r ->
        seed := int_of_string v;
        go r
    | "--seconds" :: v :: r ->
        seconds := float_of_string v;
        go r
    | "--trace" :: (("0" | "1") as v) :: r ->
        trace := v = "1";
        go r
    | "--tiny" :: r ->
        tiny := true;
        go r
    | [] -> ()
    | _ -> usage ()
  in
  (try go (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if (not (List.mem !workload workloads)) || !seconds <= 0. then usage ();
  { workload = !workload; seed = !seed; seconds = !seconds; trace = !trace; tiny = !tiny }

(* ---------------- inputs ---------------- *)

(* The paper scores fixed instance sets, so the suites are regenerated
   at one suite seed and the run's --seed decides the traffic: the
   order of every pass and the service's request sequences.  Debugging
   instances are generated at half scale: at full scale one pass takes
   25-36 s, longer than a run may measure, and timed windows hold only
   whole passes. *)
let suite_seed = 42
let debugging_scale = 0.5

(* Wall budget for one solve: the suites solve in well under a second,
   so hitting it is an abort, counted as a failure. *)
let item_budget = 30.

type inst = {
  name : string;
  text : string;  (** WCNF text: what the pipeline parses *)
  w : Wcnf.t Lazy.t;  (** parsed from [text]; forced in set-up where the entry point takes a [Wcnf.t] *)
}

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

let render w = Format.asprintf "%a" Dimacs.print_wcnf w

let suites opts =
  let industrial () =
    Suites.industrial ~scale:(if opts.tiny then 0.2 else 1.0) ~seed:suite_seed ()
  in
  let debugging () =
    Suites.debugging
      ~scale:(if opts.tiny then 0.1 else debugging_scale)
      ~seed:suite_seed ()
  in
  match opts.workload with
  | "industrial" -> industrial ()
  | "debugging" -> debugging ()
  | _ -> industrial () @ debugging ()

let instances opts =
  suites opts
  |> List.map (fun (i : Suites.instance) ->
         let text = render (Wcnf.of_formula i.formula) in
         { name = i.name; text; w = lazy (Dimacs.parse_wcnf text) })
  |> Array.of_list

(* ---------------- small statistics ---------------- *)

let sorted l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile of a sorted array. *)
let percentile a q =
  match Array.length a with
  | 0 -> 0.
  | n ->
      let k = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
      a.(max 0 (min (n - 1) k))

(* Smoothed percentile of a sorted array: the mean of the samples whose
   rank lies within [h = min 0.1 ((1 - q) / 2)] of [q].  Host noise
   jitters single samples by a tenth or more, so a nearest-rank figure
   jumps whenever two neighbours trade places; the local mean does not.
   Where no rank is in reach (the maximum) it is the nearest-rank
   percentile. *)
let smooth_percentile a q =
  let n = float_of_int (Array.length a) in
  let h = Float.min 0.1 ((1. -. q) /. 2.) in
  let lo = max 0 (int_of_float (Float.floor ((q -. h) *. n))) in
  let hi = min (Array.length a - 1) (int_of_float (Float.ceil ((q +. h) *. n)) - 1) in
  if hi < lo || h = 0. then percentile a q
  else begin
    let s = ref 0. in
    for k = lo to hi do
      s := !s +. a.(k)
    done;
    !s /. float_of_int (hi - lo + 1)
  end

(* The middle value, or the mean of the two middle values. *)
let median l =
  let a = sorted l in
  match Array.length a with
  | 0 -> 0.
  | n when n mod 2 = 1 -> a.(n / 2)
  | n -> (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let per n x = if n = 0 then 0. else x /. float_of_int n

(* The host this runs on changes speed by a tenth or more from one
   sample to the next, by up to a fifth in phases of a few seconds, and
   at times by half for minutes on end (no estimator inside one run can
   remove that), so end-to-end figures take the median of several
   samples of the same work: a batch window runs at least [min_passes]
   whole passes and scores each instance by its median pass; the
   service runs at least [min_passes] sessions of one fixed request mix
   and scores each metric by its median session.  The best sample
   would catch the host's rare fast moments: on industrial it read
   about three times as far apart between runs as the median. *)
let min_passes = 3

(* Tail percentile per workload: the highest of p99/p95/p90/p75 with at
   least ten samples beyond it in the smallest window the workload
   runs, fixed so that it names the same point of the distribution on
   every run (52 industrial instances, 264 requests per service
   session).  The debugging suite's 14 instances
   back none, so its tail is the slowest instance.  A window that falls
   short of ten samples beyond the fixed rung drops to the highest rung
   it backs. *)
let tail_quantile workload n =
  let backed q = float_of_int n *. (1. -. q) >= 10. in
  match workload with
  | "debugging" -> 1.0
  | _ ->
      let q = if workload = "service" then 0.9 else 0.75 in
      if backed q then q
      else Option.value (List.find_opt backed [ 0.9; 0.75 ]) ~default:0.5

(* ---------------- resources ---------------- *)

let cpu_self_and_children () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime +. t.Unix.tms_cutime +. t.Unix.tms_cstime

let cpu_children () =
  let t = Unix.times () in
  t.Unix.tms_cutime +. t.Unix.tms_cstime

(* CPU of a live process and its reaped descendants: the service
   daemon's work happens in a process the benchmark only reaps at the
   end of the run. *)
let proc_cpu pid =
  try
    let ic = open_in (Printf.sprintf "/proc/%d/stat" pid) in
    let line = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic) in
    let after = String.rindex line ')' + 2 in
    let f = Array.of_list (String.split_on_char ' ' (String.sub line after (String.length line - after))) in
    (* Fields 14-17 of stat(5), counted from field 3 (the state). *)
    let g i = float_of_string f.(i) in
    (g 11 +. g 12 +. g 13 +. g 14) /. float_of_int (clk_tck ())
  with _ -> 0.

let peak_rss_mb () = float_of_int (max (maxrss_kb false) (maxrss_kb true)) /. 1024.

(* ---------------- checks ---------------- *)

type check =
  | Cost of int
  | Failed of { why : string; wrong : bool }
      (** [wrong]: the program answered, and the answer is wrong (a failed
          certificate or re-cost, a disagreement, a wrong optimum); else
          it gave no answer (abort, crash, rejection) *)

let failed why = Failed { why; wrong = false }
let wrong why = Failed { why; wrong = true }

type item = {
  idx : int;  (** instance index *)
  lat : float;  (** seconds the entry point took *)
  cpu : float;  (** CPU seconds of the benchmark and its children meanwhile *)
  check : check;
}

let outcome_tag = function
  | T.Optimum c -> Printf.sprintf "optimum %d" c
  | T.Bounds { lb; _ } -> Printf.sprintf "aborted (lb %d)" lb
  | T.Hard_unsat -> "hard clauses unsatisfiable"
  | T.Crashed { reason; _ } -> "crashed: " ^ reason

(* Reference optima from a different exact algorithm (OLL), computed
   after the timed window for every instance the window answered.  An
   answer that disagrees with it is a wrong optimum, which fails the
   command; since every workload is held to the same reference, the
   workloads agree with each other for a given instance and seed. *)
let reference insts idxs =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun i ->
      if not (Hashtbl.mem tbl i) then begin
        let config = { T.default_config with T.deadline = now () +. (2. *. item_budget) } in
        let r = M.solve_supervised ~config M.Oll (Lazy.force insts.(i).w) in
        Hashtbl.replace tbl i
          (match r.T.outcome with T.Optimum c -> Some c | _ -> None)
      end)
    idxs;
  tbl

type verdict = { attempted : int; failed : int; wrong : string list; first_failure : string option }

(* Hold every answer to the reference; answers that fail it become
   [Failed]. *)
let verify refs it =
  match (it.check, Hashtbl.find refs it.idx) with
  | Cost c, Some r when c = r -> it
  | Cost c, Some r -> { it with check = wrong (Printf.sprintf "optimum %d, reference %d" c r) }
  | Cost _, None -> { it with check = failed "the reference solve found no optimum" }
  | Failed _, _ -> it

let verdict insts items =
  let failures =
    List.filter_map
      (fun it ->
        match it.check with
        | Cost _ -> None
        | Failed { why; wrong } -> Some (insts.(it.idx).name ^ ": " ^ why, wrong))
      items
  in
  {
    attempted = List.length items;
    failed = List.length failures;
    wrong = List.filter_map (fun (msg, wrong) -> if wrong then Some msg else None) failures;
    first_failure = Option.map fst (List.nth_opt failures 0);
  }

(* ---------------- tracing ---------------- *)

type tracer = { spans : Span.t; sink : Obs.sink; coll : Obs.Collector.t option }

let untraced = { spans = Span.disabled; sink = Obs.null; coll = None }

let traced () =
  let coll = Obs.Collector.create () in
  let sink = Obs.Collector.sink coll in
  { spans = Span.create ~sink ~id:0 (); sink; coll = Some coll }

let events tr = match tr.coll with Some c -> Obs.Collector.events c | None -> []

(* Phase table: total and self seconds per phase name. *)
type phases = (string * (int * float * float)) list

let phases_of events : phases =
  List.map
    (fun r -> Span.Report.(r.phase, (r.count, r.total_s, r.self_s)))
    (Span.Report.of_events events)

let phase_total (ph : phases) p = match List.assoc_opt p ph with Some (_, t, _) -> t | None -> 0.
let phase_self (ph : phases) p = match List.assoc_opt p ph with Some (_, _, s) -> s | None -> 0.

(* Public counters of the in-process registry; deltas over the traced
   window.  Solvers in forked children (portfolio workers, service
   workers) count in their own registries, which die with them. *)
let registry_probes =
  let c name () = float_of_int (Metrics.counter_value (Metrics.counter name)) in
  let h name () = Metrics.histogram_sum (Metrics.histogram name) in
  [
    ("sat.calls", c "msu_solver_calls_total");
    ("sat.restarts", c "msu_solver_restarts_total");
    ("sat.conflicts", h "msu_solver_call_conflicts");
    ("sat.call_s", h "msu_solver_call_seconds");
    ("sat.minor_words", h "msu_solver_call_minor_words");
    ("inprocess.passes", c "msu_inprocess_passes_total");
    ("inprocess.eliminated_vars", c "msu_inprocess_eliminated_vars_total");
    ("inprocess.subsumed_clauses", c "msu_inprocess_subsumed_clauses_total");
    ("inprocess.failed_literals", c "msu_inprocess_failed_literals_total");
    ("inprocess.probes", c "msu_inprocess_probes_total");
  ]

let snapshot () = List.map (fun (n, f) -> (n, f ())) registry_probes
let delta s0 s1 n = List.assoc n s1 -. List.assoc n s0

(* ---------------- batch workloads ---------------- *)

(* Counts gathered item by item in the traced window. *)
type acc = {
  mutable stats : T.stats;
  mutable workers : int;
  mutable worker_cpu : float;
  mutable overhead : float;
}

let new_acc () =
  { stats = T.empty_stats; workers = 0; worker_cpu = 0.; overhead = 0. }

(* The [msolve --verify] pipeline: parse the WCNF text, solve with
   msu4-v2 under the supervisor at the default configuration, certify. *)
let pipeline tr acc inst =
  let t0 = now () in
  let w = Span.wrap tr.spans "cnf.parse" (fun () -> Dimacs.parse_wcnf inst.text) in
  let config =
    { T.default_config with T.deadline = now () +. item_budget; spans = tr.spans }
  in
  let r = Span.wrap tr.spans "maxsat.solve" (fun () -> M.solve_supervised ~config M.Msu4_v2 w) in
  let rep = Span.wrap tr.spans "certify.certify" (fun () -> Certify.certify ~spans:tr.spans w r) in
  let lat = now () -. t0 in
  acc.stats <- T.merge_stats acc.stats r.T.stats;
  let check =
    match r.T.outcome with
    | T.Optimum c when Certify.ok rep -> Cost c
    | T.Optimum _ -> wrong ("certificate failed: " ^ String.concat "; " rep.Certify.failures)
    | o -> failed (outcome_tag o)
  in
  (lat, check)

(* [Portfolio.solve] with one worker per core, as [msolve --portfolio
   -j N], for the traced portfolio pass.  Clause sharing and the SLS
   seed stay off, as in [msolve].  Its answer is checked by re-costing
   the model (no certify).  The race is not an end-to-end workload: on
   the 2-core host this was tuned on its wall read 0.24-0.33 apart
   (quartile distance over median) between runs of the same code while
   its CPU read 0.08 apart, because it needs both cores at once. *)
let portfolio ~jobs tr acc inst =
  let w = Lazy.force inst.w in
  let cpu0 = cpu_children () in
  let t0 = now () in
  let pr =
    Span.wrap tr.spans "portfolio.solve" (fun () ->
        P.solve ~jobs ~timeout:item_budget ~sink:tr.sink ~spans:tr.spans w)
  in
  let lat = now () -. t0 in
  acc.stats <- T.merge_stats acc.stats pr.P.stats;
  acc.workers <- acc.workers + List.length pr.P.reports;
  acc.worker_cpu <- acc.worker_cpu +. (cpu_children () -. cpu0);
  let winner_time =
    match List.find_opt (fun r -> Some r.P.w_label = pr.P.winner) pr.P.reports with
    | Some r -> r.P.w_time
    | None -> 0.
  in
  acc.overhead <- acc.overhead +. (pr.P.elapsed -. winner_time);
  let rep = Span.wrap tr.spans "certify.recost" (fun () -> Certify.recost w (P.to_result pr)) in
  let check =
    match pr.P.outcome with
    | _ when pr.P.disagreements <> [] ->
        wrong ("disagreement: " ^ String.concat "; " pr.P.disagreements)
    | T.Optimum c when Certify.ok rep -> Cost c
    | T.Optimum _ -> wrong ("recost failed: " ^ String.concat "; " rep.Certify.failures)
    | o -> failed (outcome_tag o)
  in
  (lat, check)

(* Whole passes, each in a fresh seeded order, until [seconds] have
   elapsed and at least [least] passes are done.  Each item starts on a
   collected heap, as each [msolve] run starts on a fresh one, so no
   instance pays for the garbage of the one before it. *)
let passes ~rng ~seconds ~least n one =
  let items = ref [] in
  let t0 = now () in
  let rec go k =
    if k < least || now () -. t0 < seconds then begin
      let order = Array.init n Fun.id in
      shuffle rng order;
      Array.iter
        (fun idx ->
          Gc.full_major ();
          let cpu0 = cpu_self_and_children () in
          let lat, check = one idx in
          items := { idx; lat; cpu = cpu_self_and_children () -. cpu0; check } :: !items)
        order;
      go (k + 1)
    end
  in
  go 0;
  List.rev !items

(* One untimed pass in seeded order, cut short after [cap] seconds. *)
let warm_up ~rng ~cap n one =
  let order = Array.init n Fun.id in
  shuffle rng order;
  let t0 = now () in
  Array.iter (fun idx -> if now () -. t0 < cap then ignore (one idx)) order

let warm_cap = 3.

(* Peak RSS of one pass of a batch workload in suite order, in a process
   forked right after set-up.  The OCaml 5.1 runtime keeps the memory
   its heap once took, so the timed process's own peak depends on which
   instances ran before the largest one: on the debugging suite it read
   244-286 MB between runs of the same code.  The same order from the
   same heap gives the same peak.  A failed answer fails the run: the
   window's answers to the same instances are checked one by one. *)
let pass_peak_rss_mb insts =
  flush_all ();
  match Unix.fork () with
  | 0 ->
      let ok i =
        Gc.full_major ();
        match snd (pipeline untraced (new_acc ()) i) with Cost _ -> true | Failed _ -> false
      in
      Unix._exit (try if Array.for_all ok insts then 0 else 1 with _ -> 1)
  | pid ->
      (match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> ()
      | _ -> failwith "the peak-RSS pass got a failed answer");
      float_of_int (maxrss_kb true) /. 1024.

(* ---------------- the service workload ---------------- *)

let bench_dir = Filename.concat ".bench_build" "perfbench"

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Block until the daemon accepts on [sock]. *)
let await_accept sock =
  let deadline = now () +. 20. in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX sock) with
    | () -> Unix.close fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) when now () < deadline ->
        Unix.close fd;
        Unix.sleepf 0.001;
        go ()
  in
  go ()

type daemon = { pid : int; sock : string }

(* Fork a [Service.run] daemon with one worker per core; with
   [trace_file] its event stream (worker spans included) goes there as
   JSONL. *)
let start_daemon ~workers ~trace_file =
  mkdir_p bench_dir;
  let sock = Filename.concat bench_dir (Printf.sprintf "s%d.sock" (Unix.getpid ())) in
  (try Sys.remove sock with Sys_error _ -> ());
  flush_all ();
  match Unix.fork () with
  | 0 ->
      Obs.after_fork ();
      let code =
        try
          let oc = Option.map open_out trace_file in
          let sink =
            match oc with Some oc -> Obs.Jsonl.sink ~flush_each:false oc | None -> Obs.null
          in
          Service.run
            {
              (Service.default_config ~socket_path:sock) with
              Service.workers;
              default_timeout = item_budget;
              grace = 0.5;
              sink;
            };
          Option.iter close_out oc;
          0
        with _ -> 1
      in
      Unix._exit code
  | pid ->
      await_accept sock;
      { pid; sock }

let stop_daemon d =
  (try Client.shutdown ~drain:true ~socket:d.sock () with _ -> ());
  ignore (Unix.waitpid [] d.pid);
  try Sys.remove d.sock with Sys_error _ -> ()


type request = {
  r_idx : int;
  r_lat : float;  (** client-side seconds, send to result *)
  r_server : float;  (** server-side seconds, accept to result *)
  r_cached : bool;
  r_check : check;
}

(* Closed loop over [conns] connections held by this one process: each
   connection sends its next request only when the previous one was
   answered.  [next c] gives connection [c]'s next instance and whether
   the request may be served from the cache, or [None] to stop.  Every
   served optimum is re-costed on the instance as it arrives. *)
let closed_loop ~d ~conns ~next ~recost insts =
  let wcnf_of idx = Lazy.force insts.(idx).w in
  let fds = Array.init conns (fun _ -> Client.connect d.sock) in
  let pending = Array.make conns None in
  let served = ref [] in
  let issue c =
    match next c with
    | Some (idx, use_cache) ->
        pending.(c) <- Some (idx, now ());
        Client.send fds.(c)
          (Proto.Solve
             {
               wcnf = Proto.to_wire (wcnf_of idx);
               options = { Proto.default_options with use_cache };
             })
    | None -> pending.(c) <- None
  in
  let finish c ?(server = 0.) ?(cached = false) check =
    match pending.(c) with
    | Some (idx, sent) ->
        served :=
          { r_idx = idx; r_lat = now () -. sent; r_server = server; r_cached = cached; r_check = check }
          :: !served;
        issue c
    | None -> ()
  in
  let answer c =
    match (Client.recv fds.(c), pending.(c)) with
    | Some (Proto.Accepted _), _ -> ()
    | Some (Proto.Result { outcome; model; cached; elapsed; _ }), Some (idx, _) ->
        let check =
          match (outcome, model) with
          | T.Optimum cost, Some _ ->
              let r = { T.outcome; model; stats = T.empty_stats; elapsed } in
              if Certify.ok (recost (fun () -> Certify.recost (wcnf_of idx) r)) then Cost cost
              else wrong "served model does not re-cost to its optimum"
          | o, _ -> failed (outcome_tag o)
        in
        finish c ~server:elapsed ~cached check
    | Some (Proto.Rejected { reason }), _ -> finish c (failed ("rejected: " ^ reason))
    | Some _, _ -> finish c (failed "unexpected reply")
    | None, _ -> failwith "the service closed a connection"
  in
  let t0 = now () in
  for c = 0 to conns - 1 do
    issue c
  done;
  let rec loop () =
    let live = List.filter (fun c -> pending.(c) <> None) (List.init conns Fun.id) in
    if live <> [] then begin
      let ready =
        try
          let r, _, _ = Unix.select (List.map (fun c -> fds.(c)) live) [] [] 1.0 in
          r
        with Unix.Unix_error (Unix.EINTR, _, _) -> []
      in
      List.iter (fun c -> if List.mem fds.(c) ready then answer c) live;
      loop ()
    end
  in
  loop ();
  let elapsed = now () -. t0 in
  Array.iter Client.close fds;
  (elapsed, List.rev !served)

(* ---------------- windows ---------------- *)

type window = {
  elapsed : float;  (** service: session wall; batch: time inside the entry point *)
  items : item list;
  cpu : float;  (** CPU seconds of the benchmark and its children *)
  requests : request list;  (** service only *)
  svc : (Proto.stats * Proto.stats) option;  (** service stats at window start and end *)
  events : Obs.Event.t list;  (** traced windows only *)
  reg : (string * float) list * (string * float) list;  (** registry at start and end *)
  acc : acc;
}

let batch_window ~rng ~seconds ~least ~tr insts item =
  let acc = new_acc () in
  let reg0 = snapshot () in
  let cpu0 = cpu_self_and_children () in
  let items = passes ~rng ~seconds ~least (Array.length insts) (fun i -> item tr acc insts.(i)) in
  let cpu = cpu_self_and_children () -. cpu0 in
  (* Time inside the entry point; the heap collections between items
     are not the program's. *)
  let elapsed = List.fold_left (fun a it -> a +. it.lat) 0. items in
  { elapsed; items; cpu; requests = []; svc = None; events = events tr; reg = (reg0, snapshot ()); acc }

(* The service's traffic, in sessions of a fixed mix.  A session sends
   every pool instance once as a write — a solve that skips the cache
   read ([use_cache = false], as [msolve --connect --no-cache]) and
   stores its optimum — and three times as a read, a cache hit once
   [fill] has cached the pool.  Each connection sends three reads, then
   a write, drawing from the session's seeded permutations, so every
   session holds the same requests in another order. *)
type traffic = { sent : int array; reads : int Queue.t; writes : int Queue.t; rng : Random.State.t }

let traffic opts ~conns =
  {
    sent = Array.make conns 0;
    reads = Queue.create ();
    writes = Queue.create ();
    rng = Random.State.make [| opts.seed; 0x3A |];
  }

let new_session t n =
  let queue_perms q k =
    Queue.clear q;
    for _ = 1 to k do
      let perm = Array.init n Fun.id in
      shuffle t.rng perm;
      Array.iter (fun i -> Queue.add i q) perm
    done
  in
  Array.fill t.sent 0 (Array.length t.sent) 0;
  queue_perms t.reads 3;
  queue_perms t.writes 1

let next_request t c =
  t.sent.(c) <- t.sent.(c) + 1;
  let write = t.sent.(c) mod 4 = 0 in
  match Queue.take_opt (if write then t.writes else t.reads) with
  | Some i -> Some (i, not write)
  | None -> Option.map (fun i -> (i, write)) (Queue.take_opt (if write then t.reads else t.writes))

(* Warm-up: request every pool instance once, which caches them all. *)
let fill ~d ~conns insts =
  let k = ref 0 in
  ignore
    (closed_loop ~d ~conns ~recost:(fun f -> f ()) insts ~next:(fun _ ->
         incr k;
         if !k <= Array.length insts then Some (!k - 1, true) else None))

(* One session on a filled daemon. *)
let session ~tr ~conns ~traffic insts d =
  new_session traffic (Array.length insts);
  let s0 = Client.stats ~socket:d.sock in
  let reg0 = snapshot () in
  let cpu0 = cpu_self_and_children () +. proc_cpu d.pid in
  let elapsed, requests =
    closed_loop ~d ~conns insts ~next:(next_request traffic)
      ~recost:(fun f -> Span.wrap tr.spans "certify.recost" f)
  in
  let cpu = cpu_self_and_children () +. proc_cpu d.pid -. cpu0 in
  let s1 = Client.stats ~socket:d.sock in
  let items =
    List.map (fun r -> { idx = r.r_idx; lat = r.r_lat; cpu = 0.; check = r.r_check }) requests
  in
  {
    elapsed;
    items;
    cpu;
    requests;
    svc = Some (s0, s1);
    events = events tr;
    reg = (reg0, snapshot ());
    acc = new_acc ();
  }

(* Sessions until [seconds] have elapsed and at least [least] are done. *)
let sessions ~seconds ~least ~tr ~conns ~traffic insts d =
  let t0 = now () in
  let rec go k acc =
    if k < least || now () -. t0 < seconds then
      go (k + 1) (session ~tr ~conns ~traffic insts d :: acc)
    else List.rev acc
  in
  go 0 []

(* One window holding several sessions, for the traced run. *)
let merge = function
  | [] -> invalid_arg "merge"
  | first :: _ as ws ->
      let last = List.nth ws (List.length ws - 1) in
      let sum f = List.fold_left (fun a w -> a +. f w) 0. ws in
      {
        first with
        elapsed = sum (fun w -> w.elapsed);
        items = List.concat_map (fun w -> w.items) ws;
        cpu = sum (fun w -> w.cpu);
        requests = List.concat_map (fun w -> w.requests) ws;
        svc =
          (match (first.svc, last.svc) with Some (a, _), Some (_, b) -> Some (a, b) | _ -> None);
        reg = (fst first.reg, snd last.reg);
        events = last.events;
      }

(* ---------------- metrics ---------------- *)

type metric = string * float * string

let ok it = match it.check with Cost _ -> true | Failed _ -> false

(* A failed answer counts as having taken the whole budget: it misses
   every latency limit. *)
let wall it = if ok it then it.lat else item_budget

type score = {
  throughput : float;  (** checked optima per second *)
  p50 : float;
  tail : float;
  q : float;  (** the tail's percentile *)
  samples : int;
  cpu : float;  (** CPU seconds per item *)
}

let score_of workload ~n_ok ~seconds ~cpu walls =
  let lat = sorted walls in
  let n = Array.length lat in
  let q = tail_quantile workload n in
  {
    throughput = float_of_int n_ok /. seconds;
    p50 = smooth_percentile lat 0.5;
    tail = smooth_percentile lat q;
    q;
    samples = n;
    cpu = per n cpu;
  }

(* A batch window scores every instance by its median pass: its median
   wall and its median CPU, and it counts as a checked optimum only if
   every pass got one.  Throughput is instances per second of median
   walls. *)
let batch_score workload w =
  let samples = Hashtbl.create 64 in
  List.iter
    (fun it ->
      let ls, cs, o = Option.value (Hashtbl.find_opt samples it.idx) ~default:([], [], true) in
      Hashtbl.replace samples it.idx (wall it :: ls, it.cpu :: cs, o && ok it))
    w.items;
  let per_inst =
    Hashtbl.fold (fun _ (ls, cs, o) acc -> (median ls, median cs, o) :: acc) samples []
  in
  let walls = List.map (fun (l, _, o) -> if o then l else item_budget) per_inst in
  score_of workload
    ~n_ok:(List.length (List.filter (fun (_, _, o) -> o) per_inst))
    ~seconds:(List.fold_left ( +. ) 0. walls)
    ~cpu:(List.fold_left (fun a (_, c, _) -> a +. c) 0. per_inst)
    walls

(* A service session scores its requests as they came. *)
let session_score workload w =
  score_of workload
    ~n_ok:(List.length (List.filter ok w.items))
    ~seconds:w.elapsed ~cpu:w.cpu (List.map wall w.items)

(* The median of the scores, metric by metric (a batch run has one). *)
let end_to_end ~setup_s ~peak_rss_mb scores : metric list * string =
  let mid f = median (List.map f scores) in
  ( [
      ("setup_s", setup_s, "s");
      ("throughput_per_s", mid (fun s -> s.throughput), "1/s");
      ("latency_p50_ms", 1000. *. mid (fun s -> s.p50), "ms");
      ("latency_tail_ms", 1000. *. mid (fun s -> s.tail), "ms");
      ("cpu_s", mid (fun s -> s.cpu), "s");
      ("peak_rss_mb", peak_rss_mb, "MB");
    ],
    String.concat "; "
      (List.map
         (fun s ->
           Printf.sprintf "latency_tail_ms is p%g of %d samples (%d beyond it)" (100. *. s.q)
             s.samples
             (s.samples - int_of_float (Float.ceil (s.q *. float_of_int s.samples))))
         scores) )

(* Parse and canonicalise every instance of the workload once, outside
   any window: the cnf-layer cost of the instance mix for the service,
   which takes no text and canonicalises server-side (every request
   fingerprints its instance). *)
let cnf_sweep insts =
  let parse = ref 0. and canon = ref 0. and bytes = ref 0 in
  Array.iter
    (fun i ->
      let t0 = now () in
      let w = Dimacs.parse_wcnf i.text in
      let t1 = now () in
      ignore (Canon.fingerprint w);
      parse := !parse +. (t1 -. t0);
      canon := !canon +. (now () -. t1);
      bytes := !bytes + String.length i.text)
    insts;
  (!parse, !canon, !bytes)

let per_layer opts insts ~plain ~traced:w ~pf : metric list * string =
  let n = List.length w.items in
  let ph = phases_of w.events in
  let reg0, reg1 = w.reg in
  let reg name = delta reg0 reg1 name in
  let total p = per n (phase_total ph p) in
  let self p = per n (phase_self ph p) in
  let ratio a b = if b = 0. then 0. else a /. b in
  let pipeline = opts.workload = "industrial" || opts.workload = "debugging" in
  let sweep_parse, sweep_canon, sweep_bytes = cnf_sweep insts in
  let parse_s, parse_bytes =
    if pipeline then
      ( phase_total ph "cnf.parse",
        List.fold_left (fun a it -> a + String.length insts.(it.idx).text) 0 w.items )
    else (sweep_parse, sweep_bytes)
  in
  let parses = if pipeline then n else Array.length insts in
  (* Core-loop counts: the solve's own stats record where the benchmark
     gets one back, the workers' forwarded events on the service. *)
  let stats =
    if opts.workload <> "service" then w.acc.stats
    else
      List.fold_left
        (fun (s : T.stats) (e : Obs.Event.t) ->
          match e.Obs.Event.kind with
          | Obs.Event.Sat_call -> { s with T.sat_calls = s.T.sat_calls + 1 }
          | Obs.Event.Core { fresh_blocking; _ } ->
              { s with T.cores = s.T.cores + 1; blocking_vars = s.T.blocking_vars + fresh_blocking }
          | _ -> s)
        T.empty_stats w.events
  in
  let count x = per n (float_of_int x) in
  let svc f = match w.svc with Some (a, b) -> float_of_int (f b - f a) | None -> 0. in
  let hits = svc (fun s -> s.Proto.hits) and misses = svc (fun s -> s.Proto.misses) in
  let reqs p = List.filter p w.requests in
  let ok r = match r.r_check with Cost _ -> true | Failed _ -> false in
  let ms_median f l = 1000. *. median (List.map f l) in
  let solve_phase = if pipeline then "maxsat.solve" else "supervise" in
  let layer_sum =
    List.fold_left (fun a p -> a +. phase_total ph p) 0.
      [ "cnf.parse"; "maxsat.solve"; "certify.certify" ]
  in
  (* The portfolio layer, from its own traced pass where the run made
     one. *)
  let pf_n, pf_solve, pf_acc =
    match pf with
    | Some p -> (List.length p.items, phase_total (phases_of p.events) "portfolio.solve", p.acc)
    | None -> (0, 0., new_acc ())
  in
  let metrics =
    [
      ("cnf.parse_s", per parses parse_s, "s");
      ("cnf.parse_mb_per_s", ratio (float_of_int parse_bytes /. 1e6) parse_s, "MB/s");
      ("cnf.canon_s", per (Array.length insts) sweep_canon, "s");
      ("maxsat.solve_s", total solve_phase, "s");
      ("maxsat.sat_calls", count stats.T.sat_calls, "count");
      ("maxsat.cores", count stats.T.cores, "count");
      ("maxsat.blocking_vars", count stats.T.blocking_vars, "count");
      ("maxsat.encoding_clauses", count stats.T.encoding_clauses, "count");
      ("maxsat.core_extract_s", total "core_extract", "s");
      ("maxsat.totalizer_extend_s", total "totalizer_extend", "s");
      ("maxsat.supervise_self_s", self "supervise", "s");
      ("sat.calls", per n (reg "sat.calls"), "count");
      ("sat.conflicts", per n (reg "sat.conflicts"), "count");
      ("sat.restarts", per n (reg "sat.restarts"), "count");
      ("sat.call_s", per n (reg "sat.call_s"), "s");
      ("sat.minor_words_per_call", ratio (reg "sat.minor_words") (reg "sat.calls"), "words");
      ("sat.propagate_s", total "propagate", "s");
      ("sat.analyze_s", total "analyze", "s");
      ("sat.sat_call_self_s", self "sat_call", "s");
      ("inprocess.passes", per n (reg "inprocess.passes"), "count");
      ("inprocess.eliminated_vars", per n (reg "inprocess.eliminated_vars"), "count");
      ("inprocess.subsumed_clauses", per n (reg "inprocess.subsumed_clauses"), "count");
      ( "inprocess.eliminated_per_pass",
        ratio (reg "inprocess.eliminated_vars") (reg "inprocess.passes"),
        "count" );
      ( "inprocess.failed_literals_per_probe",
        ratio (reg "inprocess.failed_literals") (reg "inprocess.probes"),
        "ratio" );
      ("inprocess.bve_s", total "bve", "s");
      ("inprocess.subsume_s", total "subsume", "s");
      ("inprocess.probe_s", total "probe", "s");
      ("certify.s", total "certify.certify", "s");
      ("certify.recost_s", total "certify.recost", "s");
      ("certify.share", ratio (phase_total ph "certify.certify") w.elapsed, "ratio");
      ("portfolio.solve_s", per pf_n pf_solve, "s");
      ("portfolio.workers_forked", per pf_n (float_of_int pf_acc.workers), "count");
      ("portfolio.worker_cpu_s", per pf_n pf_acc.worker_cpu, "s");
      ("portfolio.overhead_s", per pf_n pf_acc.overhead, "s");
      ("service.hit_ratio", ratio hits (hits +. misses), "ratio");
      ("service.hit_p50_ms", ms_median (fun r -> r.r_lat) (reqs (fun r -> ok r && r.r_cached)), "ms");
      ( "service.miss_p50_ms",
        ms_median (fun r -> r.r_lat) (reqs (fun r -> ok r && not r.r_cached)),
        "ms" );
      ("service.server_p50_ms", ms_median (fun r -> r.r_server) (reqs ok), "ms");
      ("service.transport_p50_ms", ms_median (fun r -> r.r_lat -. r.r_server) (reqs ok), "ms");
      ("service.queue_wait_s", total "queue_wait", "s");
      ("service.cache_lookup_s", total "cache_lookup", "s");
      ("service.worker_solve_s", total "worker_solve", "s");
      ("service.rejected", svc (fun s -> s.Proto.rejected), "count");
      ("service.crashes", svc (fun s -> s.Proto.crashes), "count");
      ( "obs.trace_overhead_ratio",
        ratio (per n w.elapsed) (per (List.length plain.items) plain.elapsed),
        "ratio" );
    ]
  in
  let note =
    if opts.workload = "service" then
      Printf.sprintf "traced window: %d requests in %.3f s" n w.elapsed
    else
      Printf.sprintf "traced window: %d items in %.3f s; layer spans cover %.3f of it" n
        w.elapsed (ratio layer_sum w.elapsed)
  in
  (metrics, note)

(* ---------------- a run ---------------- *)

let print_result ~correct ~attempted ~failed (ms : metric list) =
  let field (name, v, unit) =
    Printf.sprintf {|"%s": {"value": %.17g, "unit": "%s"}|} name v unit
  in
  Printf.printf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|} correct
    attempted failed
    (String.concat ", " (List.map field ms));
  print_newline ()

let print_stamp opts ~nproc insts =
  let bytes = Array.fold_left (fun a i -> a + String.length i.text) 0 insts in
  Printf.printf
    {|{"stamp": {"git_sha": "%s", "nproc": %d, "ocaml": "%s", "workload": "%s", "seed": %d, "seconds": %g, "trace": %b, "suite_seed": %d, "debugging_scale": %g, "instances": %d, "input_bytes": %d}}|}
    (Option.value (Sys.getenv_opt "PERFBENCH_GIT_SHA") ~default:"unknown")
    nproc Sys.ocaml_version opts.workload opts.seed opts.seconds opts.trace suite_seed
    debugging_scale (Array.length insts) bytes;
  print_newline ()

(* Set-up: suite generation and DIMACS rendering, parsing
   where the entry point takes a [Wcnf.t], and daemon start-up until
   the socket accepts.  Done five times; the median is reported and the
   last one kept. *)
let setup opts ~workers =
  let once () =
    let t0 = now () in
    let insts = instances opts in
    if not (List.mem opts.workload [ "industrial"; "debugging" ]) then
      Array.iter (fun i -> ignore (Lazy.force i.w)) insts;
    let d =
      if opts.workload = "service" then Some (start_daemon ~workers ~trace_file:None) else None
    in
    (now () -. t0, insts, d)
  in
  let rec go k times =
    let t, insts, d = once () in
    if k = 1 then (median (t :: times), insts, d)
    else begin
      Option.iter stop_daemon d;
      go (k - 1) (t :: times)
    end
  in
  go 5 []

let run opts =
  let nproc = max 1 (Domain.recommended_domain_count ()) in
  let setup_s, insts, d0 = setup opts ~workers:nproc in
  print_stamp opts ~nproc insts;
  let pass_rss =
    if opts.trace || opts.workload = "service" then None else Some (pass_peak_rss_mb insts)
  in
  let rng = Random.State.make [| opts.seed; 0x0D3 |] in
  let daemons = ref (Option.to_list d0) in
  let stop_all () =
    List.iter stop_daemon !daemons;
    daemons := []
  in
  Fun.protect ~finally:stop_all @@ fun () ->
  let warmed = ref false in
  let traffic = traffic opts ~conns:nproc in
  let measure ~seconds ~least tr =
    match opts.workload with
    | "service" ->
        (* Untraced sessions share the set-up daemon.  A traced session
           gets its own daemon, which streams its events, worker spans
           included, to a file.  A daemon is filled before its first
           session. *)
        let trace_file =
          if tr.coll = None then None
          else Some (Filename.concat bench_dir (Printf.sprintf "t%d.jsonl" (Unix.getpid ())))
        in
        if trace_file <> None then begin
          stop_all ();
          daemons := [ start_daemon ~workers:nproc ~trace_file ];
          warmed := false
        end;
        let d = List.hd !daemons in
        if not !warmed then begin
          fill ~d ~conns:nproc insts;
          warmed := true
        end;
        let started = Obs.now () in
        let ws = sessions ~seconds ~least ~tr ~conns:nproc ~traffic insts d in
        (* The fill's events precede the sessions. *)
        let daemon_events =
          match trace_file with
          | None -> []
          | Some f ->
              stop_all ();
              let ic = open_in f in
              let evs = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> Obs.Jsonl.read_all ic) in
              Sys.remove f;
              List.filter (fun (e : Obs.Event.t) -> e.Obs.Event.at >= started) evs
        in
        List.map (fun w -> { w with events = w.events @ daemon_events }) ws
    | _ ->
        if not !warmed then begin
          warm_up ~rng ~cap:warm_cap (Array.length insts) (fun i ->
              pipeline untraced (new_acc ()) insts.(i));
          warmed := true
        end;
        [ batch_window ~rng ~seconds ~least ~tr insts pipeline ]
  in
  let windows =
    if opts.trace then
      let plain = merge (measure ~seconds:(opts.seconds /. 2.) ~least:1 untraced) in
      [ plain; merge (measure ~seconds:(opts.seconds /. 2.) ~least:1 (traced ())) ]
    else measure ~seconds:opts.seconds ~least:min_passes untraced
  in
  (* One traced portfolio pass over the industrial instances, parsed
     beforehand: the portfolio layer's numbers.  Its answers are checked
     with the rest. *)
  let pf =
    if opts.trace && opts.workload = "industrial" then begin
      Array.iter (fun i -> ignore (Lazy.force i.w)) insts;
      Some
        (batch_window ~rng ~seconds:0. ~least:1 ~tr:(traced ()) insts (portfolio ~jobs:nproc))
    end
    else None
  in
  (* Peak RSS of the service: read after the daemon is reaped, so its
     tree counts, and before the reference solves, which are not the
     workload's. *)
  stop_all ();
  let peak_rss_mb = match pass_rss with Some mb -> mb | None -> peak_rss_mb () in
  let checked = windows @ Option.to_list pf in
  let refs =
    reference insts (List.concat_map (fun w -> List.map (fun it -> it.idx) w.items) checked)
  in
  let verified w = { w with items = List.map (verify refs) w.items } in
  let windows = List.map verified windows in
  let v = verdict insts (List.concat_map (fun w -> (verified w).items) checked) in
  let metrics, note =
    match (opts.trace, windows) with
    | true, [ plain; tw ] -> per_layer opts insts ~plain ~traced:tw ~pf
    | _ when opts.workload = "service" ->
        end_to_end ~setup_s ~peak_rss_mb (List.map (session_score opts.workload) windows)
    | _ -> end_to_end ~setup_s ~peak_rss_mb (List.map (batch_score opts.workload) windows)
  in
  Printf.printf "c %s: %d attempted, %d failed (failure_ratio %g)%s\n" opts.workload
    v.attempted v.failed
    (per v.attempted (float_of_int v.failed))
    (match v.first_failure with Some f -> "; first: " ^ f | None -> "");
  List.iter (fun m -> Printf.printf "c WRONG ANSWER %s\n" m) v.wrong;
  Printf.printf "c %s\n" note;
  print_result ~correct:(v.wrong = []) ~attempted:v.attempted ~failed:v.failed metrics;
  if v.wrong <> [] then exit 1

let () = run (parse_args ())
