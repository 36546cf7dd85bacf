module G = Msu_guard.Guard
module Ck = Msu_guard.Checkpoint
module Fault = Msu_guard.Fault
module Obs = Msu_obs.Obs
module T = Msu_maxsat.Types
module M = Msu_maxsat.Maxsat

(* ---------------- the ladder ---------------- *)

type ladder = {
  pid : int;
  flush : float;
  mutable term_at : float;
  mutable termed : bool;
  mutable killed : bool;
}

let kill pid signal = try Unix.kill pid signal with Unix.Unix_error _ -> ()

(* SIGTERM trips the child's guard so it can write the bounds it has;
   SIGKILL is the backstop for a child that no longer polls. *)
let rung l =
  let now = Unix.gettimeofday () in
  if (not l.termed) && now >= l.term_at then begin
    l.termed <- true;
    kill l.pid Sys.sigterm
  end;
  if l.termed && (not l.killed) && now >= l.term_at +. l.flush then begin
    l.killed <- true;
    kill l.pid Sys.sigkill
  end

let next_rung l =
  if not l.termed then l.term_at
  else if not l.killed then l.term_at +. l.flush
  else infinity

let reap_nohang pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> None
  | _, status -> Some status
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> None
  | exception Unix.Unix_error _ -> Some (Unix.WEXITED 255)

(* Block on [poll] with exponential backoff: a 5 ms busy-wait over a
   60 s run burns 12k wakeups, so sleeps double up to 50 ms, clipped so
   the next rung still fires on time, and start short again after a
   rung fires (a SIGTERMed child usually exits within milliseconds).  A
   signal landing mid-sleep (an itimer, SIGCHLD) only shortens the
   sleep. *)
let backoff ~poll ~tick ~next =
  let rec go delay =
    match poll () with
    | Some r -> r
    | None ->
        let pending = next () in
        tick ();
        let delay = if next () <> pending then 0.002 else delay in
        let now = Unix.gettimeofday () in
        let pause = Float.min delay (Float.max 0.001 (next () -. now)) in
        (try Unix.sleepf pause with Unix.Unix_error (Unix.EINTR, _, _) -> ());
        go (Float.min (2. *. delay) 0.05)
  in
  go 0.001

let wait_with_ladder ~term_at ~flush pid =
  let l = { pid; flush; term_at; termed = false; killed = false } in
  backoff
    ~poll:(fun () -> reap_nohang pid)
    ~tick:(fun () -> rung l)
    ~next:(fun () -> next_rung l)

(* ---------------- result transport ---------------- *)

(* Results travel through a temp file: a pipe could deadlock past the
   kernel's pipe buffer while the parent waits for the exit. *)
let write_result path (r : ('a, string) result) =
  try
    let oc = open_out_bin path in
    Marshal.to_channel oc r [];
    close_out oc
  with _ -> ()

let read_result path : ('a, string) result option =
  try
    let ic = open_in_bin path in
    Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () ->
        Some (Marshal.from_channel ic : ('a, string) result))
  with _ -> None

(* [Unix.waitpid] reports signals as OCaml's negative [Sys.sig*]
   constants; the POSIX signals with fixed numbers map back to them. *)
let os_signals =
  [
    (Sys.sighup, 1);
    (Sys.sigint, 2);
    (Sys.sigquit, 3);
    (Sys.sigill, 4);
    (Sys.sigtrap, 5);
    (Sys.sigabrt, 6);
    (Sys.sigfpe, 8);
    (Sys.sigkill, 9);
    (Sys.sigsegv, 11);
    (Sys.sigpipe, 13);
    (Sys.sigalrm, 14);
    (Sys.sigterm, 15);
  ]

let os_signal n =
  if n >= 0 then n else Option.value (List.assoc_opt n os_signals) ~default:n

let verdict status file =
  match (file, status) with
  | Some r, _ -> r
  | None, Unix.WEXITED 0 -> Error "worker produced no result"
  | None, Unix.WEXITED n -> Error (Printf.sprintf "worker exit %d" n)
  | None, (Unix.WSIGNALED n | Unix.WSTOPPED n) ->
      Error (Printf.sprintf "worker killed (signal %d)" (os_signal n))

(* ---------------- up-pipe framing ---------------- *)

let take_lines buf =
  let s = Buffer.contents buf in
  match String.rindex_opt s '\n' with
  | None -> []
  | Some i ->
      Buffer.clear buf;
      Buffer.add_substring buf s (i + 1) (String.length s - i - 1);
      String.split_on_char '\n' (String.sub s 0 i) |> List.filter (fun l -> l <> "")

let send fd line =
  let s = line ^ "\n" in
  try ignore (Unix.write_substring fd s 0 (String.length s))
  with Unix.Unix_error _ -> ()

(* ---------------- parent-side handle ---------------- *)

type 'a t = {
  ladder : ladder;
  up : Unix.file_descr;
  buf : Buffer.t;
  tmp : string;
  ck : Ck.reader;
  sink : Obs.sink;
  id : int;
  mutable eof : bool;
  mutable code : int option;
  mutable outcome : ('a, string) result option;
}

let m_exit_normal =
  Obs.Metrics.counter ~help:"workers that exited normally (WEXITED)"
    "msu_worker_exit_total_normal"

let m_exit_signaled =
  Obs.Metrics.counter ~help:"workers killed by a signal (WSIGNALED/WSTOPPED)"
    "msu_worker_exit_total_signaled"

(* Read ends of the up pipes of every unreaped worker: a new child
   closes them so it holds nothing of its siblings. *)
let live_ups : Unix.file_descr list ref = ref []

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let dispatch t on_line line =
  if String.starts_with ~prefix:"e " line then (
    match Obs.Event.of_wire (String.sub line 2 (String.length line - 2)) with
    | Some ev -> Obs.feed t.sink ev
    | None -> ())
  else if String.starts_with ~prefix:"ck " line then Ck.feed t.ck (line ^ "\n")
  else on_line line

(* A worker killed mid-write leaves its last frame without the newline;
   it is still dispatched (each tag validates its own frames), or the
   final bound it carried would be lost. *)
let end_of_stream t on_line =
  t.eof <- true;
  let rest = Buffer.contents t.buf in
  Buffer.clear t.buf;
  if rest <> "" then dispatch t on_line rest

let chunk = Bytes.create 65536

let read ?(on_line = ignore) t =
  let rec go () =
    if not t.eof then
      match Unix.read t.up chunk 0 (Bytes.length chunk) with
      | 0 -> end_of_stream t on_line
      | n ->
          Buffer.add_subbytes t.buf chunk 0 n;
          List.iter (dispatch t on_line) (take_lines t.buf);
          go ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
        ->
          ()
      | exception Unix.Unix_error _ -> end_of_stream t on_line
  in
  go ()

let fd t = if t.eof || t.outcome <> None then None else Some t.up

let reap t on_line status =
  (* Drain to EOF before reporting the exit, so the event stream stays
     in causal order and a torn last frame is still seen.  The child
     was the pipe's last writer, so the reads return its data and then
     0; an EAGAIN means someone else holds the write end, and nothing
     more is coming from the child. *)
  read ~on_line t;
  if not t.eof then end_of_stream t on_line;
  close_quietly t.up;
  live_ups := List.filter (fun fd -> fd <> t.up) !live_ups;
  let code, signaled =
    match status with
    | Unix.WEXITED n -> (n, false)
    | Unix.WSIGNALED n | Unix.WSTOPPED n -> (128 + os_signal n, true)
  in
  Obs.Metrics.inc (if signaled then m_exit_signaled else m_exit_normal);
  Obs.emit t.sink ~id:t.id
    (Obs.Event.Worker_exit { pid = t.ladder.pid; status = code; signaled });
  let file = read_result t.tmp in
  (try Sys.remove t.tmp with Sys_error _ -> ());
  t.code <- Some code;
  t.outcome <- Some (verdict status file)

let poll ?(on_line = ignore) t =
  match t.outcome with
  | Some _ as r -> r
  | None ->
      read ~on_line t;
      (match reap_nohang t.ladder.pid with
      | Some status -> reap t on_line status
      | None -> ());
      t.outcome

let tick t = if t.outcome = None then rung t.ladder

let terminate t =
  let l = t.ladder in
  l.term_at <- Float.min l.term_at (Unix.gettimeofday ());
  tick t

let terminated t = t.ladder.termed

let wait t =
  backoff
    ~poll:(fun () -> poll t)
    ~tick:(fun () -> tick t)
    ~next:(fun () -> next_rung t.ladder)

let exit_code t = t.code
let checkpoint t = Ck.latest t.ck

(* ---------------- spawn ---------------- *)

(* Everything the child does before the caller's body.  A parent with
   its own SIGINT handler fields Ctrl-C and cancels through the ladder,
   so its workers ignore the terminal's SIGINT; otherwise they keep
   whatever the parent had. *)
let child_setup ~close ~mask ~fault ~alarm_after =
  Obs.after_fork ();
  List.iter close_quietly (close @ !live_ups);
  G.install_sigterm_handler ();
  (match Sys.signal Sys.sigint Sys.Signal_ignore with
  | Sys.Signal_handle _ -> ()
  | previous -> Sys.set_signal Sys.sigint previous);
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Sys.set_signal Sys.sigalrm Sys.Signal_default;
  ignore (Unix.sigprocmask Unix.SIG_SETMASK mask);
  Option.iter Fault.arm fault;
  if Float.is_finite alarm_after then
    ignore (Unix.alarm (int_of_float (ceil (Float.max 0. alarm_after)) + 1))

let spawn ?(close = []) ?(sink = Obs.null) ?(id = 0) ?fault ~deadline ~grace body =
  let flush = Float.max 0.25 (0.5 *. grace) in
  let tmp = Filename.temp_file "msu-worker" ".bin" in
  let rd, wr = Unix.pipe () in
  let mask = Unix.sigprocmask Unix.SIG_BLOCK [ Sys.sigterm; Sys.sigint ] in
  match Unix.fork () with
  | 0 ->
      (* Nothing may escape a forked worker: an exception unwinding past
         this frame would run the caller's program a second time. *)
      (try
         close_quietly rd;
         child_setup ~close ~mask ~fault
           ~alarm_after:(deadline -. Unix.gettimeofday () +. (2. *. grace) +. flush);
         let r = try Ok (body wr) with e -> Error (Printexc.to_string e) in
         write_result tmp r;
         Unix._exit (match r with Ok _ -> 0 | Error _ -> 2)
       with _ -> ());
      Unix._exit 2
  | exception e ->
      ignore (Unix.sigprocmask Unix.SIG_SETMASK mask);
      close_quietly rd;
      close_quietly wr;
      (try Sys.remove tmp with Sys_error _ -> ());
      raise e
  | pid ->
      ignore (Unix.sigprocmask Unix.SIG_SETMASK mask);
      close_quietly wr;
      Unix.set_nonblock rd;
      live_ups := rd :: !live_ups;
      Obs.emit sink ~id (Obs.Event.Worker_spawn { pid });
      {
        ladder =
          { pid; flush; term_at = deadline +. grace; termed = false; killed = false };
        up = rd;
        buf = Buffer.create 256;
        tmp;
        ck = Ck.reader ();
        sink;
        id;
        eof = false;
        code = None;
        outcome = None;
      }

(* ---------------- the worker's solve ---------------- *)

let solve ?up ?(events = false) ?trace ?ticker ?share ?resume
    ?(request = T.default_request) ?(id = 0) ~deadline algorithm w =
  let sink =
    match up with
    | Some fd when events ->
        Obs.of_fn (fun ev -> send fd ("e " ^ Obs.Event.to_wire ev))
    | _ -> Obs.null
  in
  (* The tracer carries the caller's trace id and hangs under its span,
     so the spans it sends up re-parent in the merged timeline. *)
  let spans =
    match trace with
    | Some (trace, parent) -> Obs.Span.create ~trace ~parent ~sink ~id ()
    | None -> Obs.Span.disabled
  in
  let cell = G.Progress.create () in
  let config =
    {
      T.default_config with
      T.deadline;
      request;
      sink;
      spans;
      solve_id = id;
      progress = Some cell;
      resume;
      share;
    }
  in
  let guard = Msu_maxsat.Common.make_guard config in
  (* A SIGTERM from the parent's ladder trips this guard, so the solve
     unwinds with its current bounds instead of dying bound-less. *)
  G.set_cancel_target guard;
  let tick =
    match (ticker, up) with
    | Some f, _ -> Some (f guard cell)
    | None, Some fd -> Some (Ck.writer fd cell)
    | None, None -> None
  in
  Option.iter (G.set_ticker guard) tick;
  let r = M.solve_supervised ~config:{ config with T.guard = Some guard } algorithm w in
  G.Progress.note_lb cell (fst (T.outcome_bounds r.T.outcome));
  Option.iter (fun f -> f ()) tick;
  (r, G.tripped guard)

(* ---------------- salvage ---------------- *)

let salvage w ck ~lb ~ub ~model =
  let own = { Ck.empty with Ck.lb; ub; model } in
  let merged = Ck.merge ck own in
  let lb = merged.Ck.lb in
  let verified =
    match Msu_maxsat.Common.checkpoint_incumbent w merged with
    | Some _ as v -> v
    | None -> Msu_maxsat.Common.checkpoint_incumbent w own
  in
  match verified with
  | Some (u, m) when lb >= u -> (T.Optimum u, Some m)
  | Some (u, m) -> (T.Bounds { lb; ub = Some u }, Some m)
  | None -> (T.Bounds { lb; ub }, None)
