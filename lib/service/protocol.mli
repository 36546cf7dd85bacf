(** Wire protocol of the solve service.

    Requests and replies travel over a Unix-domain stream socket as
    framed Marshal values: a 12-byte header (magic word, protocol
    version, 4-byte big-endian payload length), then the payload.  All
    transported types are closure-free mirrors built from scalars and
    arrays, so the separately-linked [mserve] and [msolve] binaries
    round-trip them safely.  The magic/version words let a restarted
    daemon running a different binary reject a stale client with a
    clean error reply instead of a [Marshal] failure tearing down the
    connection.

    One connection may carry any number of requests; [Result] replies
    are tagged with the job id from the matching [Accepted], so a
    client can interleave submissions (or send a [Cancel] from a
    different connection — ids are global to the server). *)

type wire_wcnf = {
  w_vars : int;
  w_hard : int array array;  (** literals as {!Msu_cnf.Lit.to_int} *)
  w_soft : (int * int array) array;  (** (weight, literals) *)
}

val to_wire : Msu_cnf.Wcnf.t -> wire_wcnf
val of_wire : wire_wcnf -> Msu_cnf.Wcnf.t

type options = {
  algorithm : Msu_maxsat.Maxsat.algorithm;
  timeout : float option;  (** per-request budget; [None] = server default *)
  request : Msu_maxsat.Types.request;
      (** budgets and solver flags, handed unchanged to the worker's
          {!Msu_harness.Worker.solve} (a pure-data record, so it
          marshals as is) *)
  priority : int;  (** higher pops sooner; FIFO within one priority *)
  use_cache : bool;  (** allow serving this request from the cache *)
  fault : Msu_guard.Fault.kind option;
      (** armed inside the worker before solving — crash-injection for
          tests of the daemon's isolation, never set in production *)
}

val default_options : options
(** msu4-v2, server-default timeout, {!Msu_maxsat.Types.default_request},
    priority 0, cache on. *)

type request =
  | Solve of { wcnf : wire_wcnf; options : options }
  | Stats
  | Cancel of int  (** by job id; cancels a queued or running job *)
  | Shutdown of { drain : bool }
      (** [drain = true] finishes queued and running work first;
          [false] cancels everything through the kill ladder *)

type latency = { l_count : int; l_mean : float; l_p50 : float; l_p95 : float }

type stats = {
  uptime : float;
  requests : int;  (** solve requests received *)
  completed : int;  (** results delivered (cached or solved) *)
  hits : int;
  misses : int;
  rejected : int;  (** admission-control rejections *)
  crashes : int;  (** workers that died without a sound result *)
  cancelled : int;
  queue_depth : int;
  running : int;  (** workers busy right now *)
  workers_total : int;  (** pool size (busy + idle) *)
  hit_rate : float;
      (** hits / (hits + misses), 0 before the first lookup *)
  cache_entries : int;
  outcomes : (string * int) list;
      (** delivered results per outcome label ("optimum", "bounds",
          "hard_unsat", "crashed") *)
  per_algorithm : (string * latency) list;
      (** client-visible solve latency (seconds) per algorithm label;
          cache hits land under the requested algorithm *)
  prometheus : string;
      (** the server's metrics registry rendered in Prometheus text
          exposition format — what [mserve --metrics-file] writes *)
}

type reply =
  | Accepted of { id : int }
  | Rejected of { reason : string }  (** queue full, draining, bad request *)
  | Result of {
      id : int;
      outcome : Msu_maxsat.Types.outcome;
      model : bool array option;
      cached : bool;
      elapsed : float;  (** server-side seconds from accept to result *)
    }
  | Stats_report of stats
  | Cancel_ack of { id : int; found : bool }
  | Bye  (** shutdown acknowledged *)

exception Protocol_error of string
(** Bad magic, bad frame length, truncated frame, or mid-write
    disconnect. *)

exception Version_mismatch of int
(** The peer speaks the framed protocol — magic word matched — but at
    a different version (the payload).  The server answers with
    [Rejected] before closing; a client surfaces it as a clean
    error. *)

val max_frame : int

val magic : int
(** Frame magic word; anything else on the wire is garbage. *)

val version : int
(** Protocol version stamped on every frame this binary emits: 3 since
    [options] carries the whole solve request. *)

val encode : 'a -> bytes
(** Header-prefixed Marshal frame for one value. *)

val write_value : Unix.file_descr -> 'a -> unit
(** Write one frame, handling short writes.
    @raise Protocol_error on a closed connection. *)

val read_value : Unix.file_descr -> 'a option
(** Blocking read of one frame; [None] on clean EOF at a frame
    boundary.  @raise Protocol_error on a truncated frame. *)

val decode_frames : Buffer.t -> 'a list
(** Decode and remove every complete frame accumulated in [buf]; a
    trailing partial frame stays buffered.  For the server's
    non-blocking connection loop. *)
