(** The phased-cutover state machine: the online half of a conversion
    that the paper's coexistence strategies (§2.1.2) presuppose.

    {v Shadow --> Canary p --> Cutover v}

    In [Shadow] every request is served by the source engine while the
    converted program also runs on the translated database and the two
    traces are compared.  In [Canary f] a deterministic fraction [f] of
    requests is served by the target (shadowing continues on every
    request).  In [Cutover] the target serves alone — no shadow runs,
    no observations, no further transitions.

    Promotion and rollback are driven by the divergence verdicts of
    shadowed requests, observed in request-id order: when the
    divergence rate over a sliding window exceeds the threshold the
    controller rolls back one phase ([Canary] to [Shadow], [Cutover]
    cannot roll back because it produces no observations — it is
    reached only through a clean canary); a rollback in [Shadow]
    aborts the conversion ([Aborted]) — the paper's "cannot be handled
    automatically" outcome, deferred to the conversion analyst.  The
    divergence thresholds are the operational reading of §5.2's
    "levels of successful conversion": a window that tolerates
    reordering accepts the [Modulo_order] level, a zero threshold
    demands strict equivalence. *)

type phase =
  | Shadow
  | Canary of float  (** fraction in [0, 1] served by the target *)
  | Cutover

val phase_name : phase -> string
val equal_phase : phase -> phase -> bool
val pp_phase : Format.formatter -> phase -> unit

type config = {
  canary_fraction : float;  (** target share during [Canary] *)
  window : int;  (** sliding window length, in shadowed requests *)
  min_observations : int;  (** rate is not judged on fewer *)
  max_divergence_rate : float;  (** rollback above this, in [0, 1] *)
  promote_after : int;
      (** consecutive clean shadowed requests that promote a phase *)
  initial : phase;
}

val default_config : config

type transition = {
  at_request : int;  (** id of the request whose verdict triggered it *)
  at_epoch : int;
      (** logical epoch row of that request *)
  from_ : phase;
  to_ : phase;
  reason : string;
}

val pp_transition : Format.formatter -> transition -> unit

type status = Serving | Aborted

type t

(** [Ok ()] when [config] lets the guard work: a positive [window],
    [min_observations <= window] (otherwise the divergence rate is
    never judged and nothing can roll back), and a [canary_fraction]
    — and an [initial] [Canary] fraction — within [0, 1].
    [max_divergence_rate] and [promote_after] are not bounded: a rate
    above 1 or [max_int] pins the controller in its initial phase. *)
val validate : config -> (unit, string) result

(** Raises [Invalid_argument] with {!validate}'s message when the
    config is rejected. *)
val create : config -> t
val phase : t -> phase
val status : t -> status

(** Feed the shadow verdict of one request.  Callers must observe in
    logical [(epoch, shard, seq)] order for runs to be reproducible;
    [epoch] stamps any transition this verdict triggers.  [served_in]
    is the phase the request was served under (default: the current
    one).  A clean verdict from another phase is dropped: it says
    nothing about the phase now serving, and counting it would let a
    phase be promoted before it served anything.  A divergent one
    still counts toward rollback — a conversion shown to diverge does
    not get a clean slate by being promoted. *)
val observe :
  ?served_in:phase -> t -> request_id:int -> epoch:int -> divergent:bool ->
  unit

(** Transitions so far, oldest first. *)
val transitions : t -> transition list

val observations : t -> int

(** The convergence gate.  While closed ([set_gate t false]) the
    machine still observes, rolls back and counts clean streaks, but
    never {e promotes} — live migration keeps it closed until every
    shard's backfill watermark provably covers its keyspace, so a
    partially-translated target can never serve.  Open by default. *)
val set_gate : t -> bool -> unit

(** Force a rollback to [Shadow] from any phase (recorded as a
    transition even when already there), used when migration itself
    fails — e.g. a backfill worker crash — and the target replicas can
    no longer be trusted.  No-op when [Aborted]. *)
val rollback_to_shadow : t -> at:int -> epoch:int -> reason:string -> unit
