(** A persistent pool of worker domains, driven two ways: barrier
    {!step}s for bulk work that splits evenly across slots (replica
    preparation, the data-translation pmap), and {!submit} for
    long-running jobs that pace themselves (the serving scheduler's
    claim loops).

    [Domain.spawn] costs tens to hundreds of microseconds — paid per
    batch of work, it dominates anything short (the throughput collapse
    BENCH_PR4.json recorded as domains were added).  A pool spawns its
    workers once; between steps they park on a condition variable, and
    one step costs a broadcast plus a barrier wait.

    One domain — the one that called {!create} — is the {e
    coordinator}.  Only it can drive the barrier; a {!step} or
    {!map_list} issued from any other domain (nested use from inside a
    task) or re-entrantly while a step is in flight runs the work
    inline on the caller instead, so composing pooled code cannot
    deadlock, it only loses parallelism. *)

type t

(** Raised by {!step}/{!map_list} on the coordinator when a task
    raised; [worker] is the slot whose task failed (0 = the
    coordinator's own slice).  The barrier still completes first —
    other workers finish their tasks and return to their parking loop,
    so the pool remains usable. *)
exception Worker_error of { worker : int; error : exn }

(** [create n] spawns [n - 1] worker domains (clamped to at least one
    slot; [n = 1] is a degenerate pool that runs everything inline).
    [clock] (default [Unix.gettimeofday]) feeds the park-time
    accounting read back by {!idle_times}. *)
val create : ?clock:(unit -> float) -> int -> t

(** Worker slots, including the coordinator's slot 0. *)
val size : t -> int

(** [step t f] runs [f i] for every slot [i] in [0 .. size-1] — slot 0
    inline on the caller, the rest on the parked workers — and returns
    the results indexed by slot once all have finished.  The result is
    therefore deterministic in [f] regardless of scheduling. *)
val step : t -> (int -> 'a) -> 'a array

(** [map_list t f xs] = [List.map f xs], computed on the pool in
    strided static slices (element [j] on slot [j mod m], where [m] is
    the number of working slots).  Order and content of the result
    never depend on the pool size.  [max_workers] caps [m] below the
    pool size — use it to keep CPU-bound work from oversubscribing a
    host with fewer cores than pool slots; surplus slots return
    immediately. *)
val map_list : ?max_workers:int -> t -> ('a -> 'b) -> 'a list -> 'b list

(** {2 Non-barrier mode}

    [submit t f] starts [f i] on every spawned worker [i] in
    [1 .. size-1] and returns immediately; slot 0 stays with the
    caller, which typically runs a coordinator loop consuming what the
    jobs publish (see {!Ccv_common.Epoch}).  There is no barrier:
    jobs run until they return, pacing themselves against whatever the
    coordinator publishes.  [drain t] then blocks until every job has
    returned and raises {!Worker_error} for the lowest-numbered worker
    whose job raised.

    Degenerate cases run the jobs synchronously on the caller before
    [submit] returns: a one-slot pool, a nested submit from inside a
    task, or a submit while a step is in flight.  Jobs that rendezvous
    with the submitting domain must therefore only be submitted to a
    freshly created, self-owned pool. *)

val submit : t -> (int -> unit) -> unit

(** Whether every submitted job has returned (vacuously true when
    nothing is in flight).  Lets the coordinator distinguish "workers
    still publishing" from "workers exited without publishing" —
    the latter means a job died and {!drain} will raise. *)
val quiescent : t -> bool

(** Join all submitted jobs; raises {!Worker_error} if any failed. *)
val drain : t -> unit

(** Per-slot seconds workers have spent parked on the condition
    variable between steps and submitted jobs (slot 0, the coordinator,
    is always 0).  A submitted job that loops hunting for work never
    parks; such a job accounts for its own empty-handed time, as the
    serving scheduler does. *)
val idle_times : t -> float array

(** Stop and join every worker.  Idempotent; the pool must not be
    stepped afterwards. *)
val shutdown : t -> unit

(** [with_pool n f] = [f (create n)] with a guaranteed {!shutdown},
    also on exceptions. *)
val with_pool : ?clock:(unit -> float) -> int -> (t -> 'a) -> 'a
