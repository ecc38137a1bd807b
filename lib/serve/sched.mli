(** The token scheduler behind {!Pool}: who runs which shard's next
    row, and when everybody may stop.

    Each shard with rows is one {e token}, a cursor over that shard's
    rows; shard [s]'s token starts on slot [s mod slots] of a
    {!Ccv_common.Stealqueue}.  Every slot of the pool — the
    coordinator (slot 0) included — loops claiming a token (its own
    deque first, then stealing another slot's), asking [run_row] to run
    the cursor's row, and requeuing the token at the tail.  Holding the
    token is the exclusive right to run its shard, so a shard's rows
    run one at a time, in increasing order, exactly once each — on
    whichever slot claimed it.

    The scheduler knows nothing about what a row is: [run_row] runs or
    refuses it, [consume] is the coordinator's share of the work
    between claims, and [finished] says when the coordinator may stop.
    Determinism of what rows {e produce} is the caller's business
    (see {!Pool}); this module guarantees only exactly-once, in-order
    execution per shard and termination. *)

(** Per-slot activity, indexed by slot (slot 0 is the coordinator). *)
type slot_stats = {
  rows_run : int;  (** rows this slot ran ([`Ran] answers) *)
  stolen : int;  (** claims served by stealing another slot's token *)
  idle_s : float;
      (** seconds napping with nothing runnable (empty-handed, or
          holding a token whose row was [`Blocked]); park time in the
          {!Ccv_common.Workpool} is not included *)
  steal_wait_s : float;
      (** seconds spent probing beyond the local deque (a claim that
          stole, or came up empty) — load-shedding, not starvation *)
}

(** [run pool ~clock ~rows ~run_row ~on_crash ~consume ~finished]
    schedules [rows.(s)] rows of every shard [s] over every slot of
    [pool] and returns one {!slot_stats} per slot once the coordinator
    has stopped and every worker has returned.

    - [run_row ~shard ~row] runs the token's current row: [`Ran next]
      moves the cursor to [next] (normally [row + 1]; [rows.(shard)] or
      beyond retires the token), [`Blocked] leaves it where it is to be
      retried after a short nap, [`Retire] drops the token with its
      remaining rows unrun.
    - [on_crash ~shard ~row e] is told when [run_row] raised [e]; the
      token retires afterwards whatever [on_crash] does (an exception
      it raises is ignored).
    - [consume ()] runs on the coordinator after each of its claims;
      [true] reports progress.
    - [finished ()] is polled by the coordinator: once [true], the
      coordinator stops and releases the workers, even if tokens remain.

    On a pool of more than one slot, raises [Failure] when every
    worker has exited (all tokens retired) while [finished ()] is still
    false after a last [consume ()], and
    {!Ccv_common.Workpool.Worker_error} when a worker job died. *)
val run :
  Ccv_common.Workpool.t ->
  clock:(unit -> float) ->
  rows:int array ->
  run_row:(shard:int -> row:int -> [ `Ran of int | `Blocked | `Retire ]) ->
  on_crash:(shard:int -> row:int -> exn -> unit) ->
  consume:(unit -> bool) ->
  finished:(unit -> bool) ->
  slot_stats array
