(** Forked solve workers: the one supervisor behind the runner's
    [~isolate], the portfolio and the solve service.

    {!spawn} forks a child that runs a body and marshals its value to a
    temp file; the parent keeps a handle that it drives from its own
    loop ({!read}, {!poll}, {!tick}) or blocks on ({!wait}).  Each
    worker has one newline-framed up pipe, child to parent:

    {ul
    {- ["e <event>"]: an {!Msu_obs.Obs.Event.to_wire} event, re-emitted
       into the spawn's [sink];}
    {- ["ck <digest> <payload>"]: a {!Msu_guard.Checkpoint} frame, kept
       by a {!Msu_guard.Checkpoint.reader} ({!checkpoint});}
    {- anything else goes to the [on_line] handler of the {!read} or
       {!poll} call (the portfolio's bound, model and clause frames).}}

    Cancellation is a per-worker ladder: at [deadline + grace] (or at
    {!terminate}) the worker gets SIGTERM, which trips the guard of its
    solve so it unwinds and writes the bounds it has; a flush window of
    [max 0.25 (grace / 2)] seconds later it gets SIGKILL.  A SIGALRM in the child backs the
    ladder up for a parent that dies.

    Result rule ({!verdict}): a complete result file wins whatever the
    exit status; otherwise the worker crashed, with reason
    ["worker exit N"], ["worker killed (signal N)"] or
    ["worker produced no result"]. *)

type 'a t
(** Parent-side handle of one worker whose body returns ['a]. *)

val spawn :
  ?close:Unix.file_descr list ->
  ?sink:Msu_obs.Obs.sink ->
  ?id:int ->
  ?fault:Msu_guard.Fault.kind ->
  deadline:float ->
  grace:float ->
  (Unix.file_descr -> 'a) ->
  'a t
(** [spawn ~deadline ~grace body] forks a worker that runs [body up],
    where [up] is the write end of its up pipe.  In the child, before
    [body]: the [close] fds and the up pipes of every other live worker
    are closed; SIGTERM trips the process's guard
    ({!Msu_guard.Guard.install_sigterm_handler}); SIGINT is ignored
    exactly when the parent has a SIGINT handler installed (the parent
    fields Ctrl-C and cancels through the ladder); [fault] is armed; and
    a SIGALRM fires at [deadline + 2·grace] plus the flush window.  SIGTERM
    and SIGINT are blocked across the fork, so a signal sent right after
    [spawn] reaches the child's handler, never its default action, and
    the parent's own handlers are never swapped.  An exception escaping
    [body] becomes the worker's [Error].

    The parent emits [Worker_spawn] (and at reap [Worker_exit]) into
    [sink] under solve id [id] (default 0); forwarded ["e"] lines go to
    the same sink.  [deadline] may be [infinity] (no ladder, no
    alarm). *)

val fd : 'a t -> Unix.file_descr option
(** The up pipe's read end while it can still yield data — for the
    caller's [select]. *)

val read : ?on_line:(string -> unit) -> 'a t -> unit
(** Drain what the up pipe holds now (non-blocking) and dispatch every
    complete line. *)

val poll : ?on_line:(string -> unit) -> 'a t -> ('a, string) result option
(** Non-blocking reap.  [None] while the worker runs (after a {!read}).
    Once it has exited: drain the pipe to EOF (a torn last line without
    its newline is still dispatched), count the exit in
    [msu_worker_exit_total_{normal,signaled}], emit [Worker_exit],
    apply {!verdict} to the result file, and return it — the same value
    on every later call. *)

val tick : 'a t -> unit
(** Walk the ladder: SIGTERM once its time has come, SIGKILL a flush
    window later.  Never signals a reaped worker. *)

val terminate : 'a t -> unit
(** Start the ladder now (SIGTERM at once); idempotent. *)

val terminated : 'a t -> bool
(** Whether the ladder has sent SIGTERM — a worker that crashed on its
    own was never terminated. *)

val wait : 'a t -> ('a, string) result
(** Block until the worker is reaped, walking the ladder: {!poll} and
    {!tick} with sleeps that double from 1 ms to 50 ms, clipped to the
    next rung.  Every blocking call retries on EINTR. *)

val exit_code : 'a t -> int option
(** After the reap: the exit code, or 128 + the signal's OS number
    ({!os_signal}) for a signal death (as in [Worker_exit]): 137 for
    SIGKILL. *)

val checkpoint : 'a t -> Msu_guard.Checkpoint.t option
(** The newest intact checkpoint the worker streamed. *)

val verdict :
  Unix.process_status -> ('a, string) result option -> ('a, string) result
(** The result rule, given the exit status and the result file's
    content ([None] when absent or torn).  A signal is named by its OS
    number ({!os_signal}). *)

val os_signal : int -> int
(** The OS number of a signal as [Unix.waitpid] reports it: OCaml's
    negative [Sys.sig*] constants of the POSIX signals with fixed
    numbers ([sighup] 1, [sigint] 2, [sigquit] 3, [sigill] 4, [sigtrap]
    5, [sigabrt] 6, [sigfpe] 8, [sigkill] 9, [sigsegv] 11, [sigpipe] 13,
    [sigalrm] 14, [sigterm] 15) map to those numbers; a non-negative
    value is already an OS number and passes through.  Any other
    negative constant ([sigbus], [sigusr1], [sigchld]…, whose numbers
    differ between systems) is returned unchanged, so it still reads as
    an OCaml constant rather than as a wrong OS number. *)

val wait_with_ladder : term_at:float -> flush:float -> int -> Unix.process_status
(** {!wait}'s loop for a bare child [pid] that has no handle: SIGTERM at
    [term_at], SIGKILL [flush] seconds later, EINTR-safe. *)

val take_lines : Buffer.t -> string list
(** Complete non-empty lines accumulated in the buffer; the trailing
    partial line stays buffered. *)

val send : Unix.file_descr -> string -> unit
(** Write one line (the newline is added); errors are ignored. *)

val solve :
  ?up:Unix.file_descr ->
  ?events:bool ->
  ?trace:int * int ->
  ?ticker:(Msu_guard.Guard.t -> Msu_guard.Guard.Progress.cell -> unit -> unit) ->
  ?share:Msu_maxsat.Types.share ->
  ?resume:Msu_guard.Checkpoint.t ->
  ?request:Msu_maxsat.Types.request ->
  ?id:int ->
  deadline:float ->
  Msu_maxsat.Maxsat.algorithm ->
  Msu_cnf.Wcnf.t ->
  Msu_maxsat.Types.result * Msu_guard.Guard.reason option
(** One supervised solve as a worker runs it, with the reason its guard
    tripped, if it did.  [request] (default
    {!Msu_maxsat.Types.default_request}) is applied whole: its solver
    flags reach the algorithm, and the guard comes from
    {!Msu_maxsat.Common.make_guard} on [deadline] and every budget of
    the request, so the runner, the portfolio and the service budget a
    forked solve exactly as an in-process one.  That guard is the
    process's cancel target.  With [up]: [events] forwards the typed
    event stream as ["e"] lines, [trace] = [(trace id, parent span)]
    opens a span tracer under the caller's span, and the guard's ticker
    streams checkpoints as ["ck"] lines unless [ticker] builds another
    one from the guard and the progress cell.  After the solve, the
    final lower bound goes into the cell and the ticker runs once more,
    so the last bounds leave even when no result file does.  [resume]
    warm-starts from a checkpoint (the portfolio seeds an upper bound as
    [{Checkpoint.empty with ub}]); [share] wires clause sharing; [id]
    (default 0) is the solve id of its events. *)

val salvage :
  Msu_cnf.Wcnf.t ->
  Msu_guard.Checkpoint.t ->
  lb:int ->
  ub:int option ->
  model:bool array option ->
  Msu_maxsat.Types.outcome * bool array option
(** Fold a checkpoint into the bracket [[lb, ub]] (with [model]) that a
    stopped or crashed solve reported.  The lower bound is the larger
    of the two.  The upper bound keeps a model only when the model
    re-verifies against the instance: first the merged bracket's best
    upper bound, then the reported one.  With neither verified, the
    reported [ub] stands without a model (the process that wrote a
    checkpoint may have been corrupted afterwards).  A bracket that
    closes on a verified model is [Optimum]; otherwise the result is
    [Bounds]. *)
