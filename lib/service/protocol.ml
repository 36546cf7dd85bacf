module Lit = Msu_cnf.Lit
module Wcnf = Msu_cnf.Wcnf
module M = Msu_maxsat.Maxsat
module T = Msu_maxsat.Types

(* Instances cross the socket as plain integer arrays rather than as
   Wcnf.t: the client and server are separate binaries, and a mirror
   type of unboxed scalars is the shape Marshal round-trips safely
   between them (no abstract types, no closures, no sharing
   surprises). *)
type wire_wcnf = {
  w_vars : int;
  w_hard : int array array;  (* Lit.to_int per literal *)
  w_soft : (int * int array) array;  (* (weight, literals) *)
}

let to_wire w =
  let hard = ref [] in
  Wcnf.iter_hard
    (fun _ c -> hard := Array.map Lit.to_int c :: !hard)
    w;
  let soft = ref [] in
  Wcnf.iter_soft
    (fun _ c weight -> soft := (weight, Array.map Lit.to_int c) :: !soft)
    w;
  {
    w_vars = Wcnf.num_vars w;
    w_hard = Array.of_list (List.rev !hard);
    w_soft = Array.of_list (List.rev !soft);
  }

let of_wire ww =
  let w = Wcnf.create () in
  Wcnf.ensure_vars w ww.w_vars;
  Array.iter
    (fun c -> Wcnf.add_hard w (Array.map Lit.of_int_unsafe c))
    ww.w_hard;
  Array.iter
    (fun (weight, c) ->
      ignore (Wcnf.add_soft w ~weight (Array.map Lit.of_int_unsafe c)))
    ww.w_soft;
  w

type options = {
  algorithm : M.algorithm;
  timeout : float option;  (* None = server default *)
  request : T.request;
  priority : int;  (* higher pops sooner; FIFO within a priority *)
  use_cache : bool;
  fault : Msu_guard.Fault.kind option;  (* armed in the worker; tests only *)
}

let default_options =
  {
    algorithm = M.Msu4_v2;
    timeout = None;
    request = T.default_request;
    priority = 0;
    use_cache = true;
    fault = None;
  }

type request =
  | Solve of { wcnf : wire_wcnf; options : options }
  | Stats
  | Cancel of int
  | Shutdown of { drain : bool }

type latency = { l_count : int; l_mean : float; l_p50 : float; l_p95 : float }

type stats = {
  uptime : float;
  requests : int;
  completed : int;
  hits : int;
  misses : int;
  rejected : int;
  crashes : int;
  cancelled : int;
  queue_depth : int;
  running : int;
  workers_total : int;
  hit_rate : float;
  cache_entries : int;
  outcomes : (string * int) list;
  per_algorithm : (string * latency) list;
  prometheus : string;
}

type reply =
  | Accepted of { id : int }
  | Rejected of { reason : string }
  | Result of {
      id : int;
      outcome : T.outcome;
      model : bool array option;
      cached : bool;
      elapsed : float;
    }
  | Stats_report of stats
  | Cancel_ack of { id : int; found : bool }
  | Bye

(* ---------------- framing ----------------

   Each message is a 12-byte header — magic word, protocol version,
   big-endian payload length — followed by that many bytes of Marshal
   payload.  The magic rejects random garbage; the version word lets a
   restarted daemon running a different binary answer a stale client
   with a clean [Rejected] instead of a Marshal failure tearing down
   the connection (Marshal layouts are not stable across binaries).
   The length cap rejects a corrupt or hostile length before it turns
   into an allocation. *)

let max_frame = 1 lsl 28
let magic = 0x4D535355 (* "MSSU" *)
let version = 3

exception Protocol_error of string

exception Version_mismatch of int
(** Peer speaks the framed protocol but a different version (payload
    carried alongside). *)

let header_bytes = 12

let encode v =
  let payload = Marshal.to_string v [] in
  let n = String.length payload in
  if n > max_frame then raise (Protocol_error "frame too large");
  let b = Bytes.create (header_bytes + n) in
  Bytes.set_int32_be b 0 (Int32.of_int magic);
  Bytes.set_int32_be b 4 (Int32.of_int version);
  Bytes.set_int32_be b 8 (Int32.of_int n);
  Bytes.blit_string payload 0 b header_bytes n;
  b

let check_header ~magic_word ~ver =
  if magic_word <> magic then raise (Protocol_error "bad magic");
  if ver <> version then raise (Version_mismatch ver)

let write_value fd v =
  let b = encode v in
  let len = Bytes.length b in
  let rec go off =
    if off < len then begin
      let k = Unix.write fd b off (len - off) in
      if k = 0 then raise (Protocol_error "connection closed mid-write");
      go (off + k)
    end
  in
  go 0

(* Blocking exact read; [None] on a clean EOF at a frame boundary. *)
let read_value fd =
  let read_exactly n =
    let b = Bytes.create n in
    let rec go off =
      if off = n then Some b
      else
        match Unix.read fd b off (n - off) with
        | 0 -> if off = 0 then None else raise (Protocol_error "truncated frame")
        | k -> go (off + k)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
    in
    go 0
  in
  match read_exactly header_bytes with
  | None -> None
  | Some hdr ->
      check_header
        ~magic_word:(Int32.to_int (Bytes.get_int32_be hdr 0))
        ~ver:(Int32.to_int (Bytes.get_int32_be hdr 4));
      let n = Int32.to_int (Bytes.get_int32_be hdr 8) in
      if n < 0 || n > max_frame then raise (Protocol_error "bad frame length");
      (match read_exactly n with
      | None -> raise (Protocol_error "truncated frame")
      | Some payload -> Some (Marshal.from_bytes payload 0))

(* Non-blocking side: complete frames accumulated in [buf] are decoded
   and removed; a trailing partial frame stays buffered. *)
let decode_frames buf =
  let rec go acc =
    let s = Buffer.contents buf in
    let have = String.length s in
    if have < header_bytes then List.rev acc
    else begin
      check_header
        ~magic_word:(Int32.to_int (String.get_int32_be s 0))
        ~ver:(Int32.to_int (String.get_int32_be s 4));
      let n = Int32.to_int (String.get_int32_be s 8) in
      if n < 0 || n > max_frame then raise (Protocol_error "bad frame length");
      if have < header_bytes + n then List.rev acc
      else begin
        let v = Marshal.from_string (String.sub s header_bytes n) 0 in
        Buffer.clear buf;
        Buffer.add_substring buf s (header_bytes + n) (have - header_bytes - n);
        go (v :: acc)
      end
    end
  in
  go []
